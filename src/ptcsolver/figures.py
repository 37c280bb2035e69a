"""The applicable-figure curve used to size the premium tax credit.

The applicable figure gives the share of household income a household is
expected to contribute toward health insurance, as a function of income
expressed as a multiple ``m`` of the federal poverty line.  Per the Form
8962 tables it is piecewise linear and monotone nondecreasing, flat below
133% and above 300% of the poverty line, and *right*-continuous with a
single upward jump at m = 1.33.  All evaluation here is exact rational
arithmetic; the jump and the breakpoints are classified without any
floating-point error.

The curve is written down once, as :attr:`FigureTable.segments`.
:func:`applicable_figure` interpolates those rows in ``Fraction``
arithmetic; the credit kernel in :mod:`ptcsolver.ptc` uses
their integer form (:attr:`FigureTable.integer_segments`) with
:func:`cent_cuts`, which :func:`check_monotone_rows` proves monotone once
per table.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .money import round_fraction

# Income-multiple breakpoints shared by every tax year in scope.  A future
# year with different breakpoints requires a schema bump, not a config knob.
BREAKPOINTS: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(133, 100),
    Fraction(3, 2),
    Fraction(2),
    Fraction(5, 2),
    Fraction(3),
    Fraction(4),
)

# The interior breakpoints cut the curve into its six segments.
_CUTS = BREAKPOINTS[1:-1]
_BREAKPOINT_RATIOS = tuple((b.numerator, b.denominator) for b in BREAKPOINTS)
# The lowest multiple at which the credit kernel reads each row: row 0 from
# 0 (the below-poverty exception), every other row from its breakpoint.
_FIRST_READ = (Fraction(0), *_CUTS)
_MONOTONE = "the credit search requires a monotone curve"

_TEN_THOUSANDTH = Fraction(1, 10000)

# The curve's rows in integers, (a, b, den) each: figure(m) = (a + b*m) / den.
IntegerRows = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class FigureTable:
    """Figure values at the start of each segment, for one tax year.

    The six fields mirror the parameter-file keys ``figure.j`` through
    ``figure.c``: the figure at 100%, 133%, 150%, 200%, 250% and 300% of
    the poverty line.  Values must be nondecreasing, lie in (0, 0.1), and
    carry at most four decimal places.
    """

    j: Fraction
    k: Fraction
    l: Fraction
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        values = self.as_tuple()
        names = ("j", "k", "l", "a", "b", "c")
        for name, value in zip(names, values):
            if not isinstance(value, Fraction):
                raise TypeError(f"figure.{name}: expected Fraction, got {type(value).__name__}")
            if (value / _TEN_THOUSANDTH).denominator != 1:
                raise ValueError(f"figure.{name}: {value} is finer than ten-thousandth precision")
        if not 0 < values[0]:
            raise ValueError(f"figure.j: must be positive, got {values[0]}")
        if not values[-1] < Fraction(1, 10):
            raise ValueError(f"figure.c: must be below 0.1, got {values[-1]}")
        for (lo_name, lo), (hi_name, hi) in zip(zip(names, values), zip(names[1:], values[1:])):
            if lo > hi:
                raise ValueError(
                    f"figure.{hi_name}: value {hi} is below figure.{lo_name}={lo}; "
                    "figure values must be nondecreasing"
                )

    @staticmethod
    def from_decimals(j: str, k: str, l: str, a: str, b: str, c: str) -> "FigureTable":
        """Build from decimal strings such as ``"0.0201"``."""
        return FigureTable(*(Fraction(v) for v in (j, k, l, a, b, c)))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.j, self.k, self.l, self.a, self.b, self.c)

    @cached_property
    def segments(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """The curve as rows ``(start, value_at_start, slope)``.

        Row ``i`` runs from ``BREAKPOINTS[i]`` to ``BREAKPOINTS[i + 1]``, where
        the figure is ``value_at_start + slope * (m - start)``.  Row 0 is flat
        at ``j`` up to the jump at 133%, so the jump's upper side opens row 1;
        the last row is flat at ``c``.
        """
        v = self.as_tuple()
        ends = (v[0], *v[2:], v[-1])
        return tuple(
            (start, v0, (v1 - v0) / (end - start))
            for start, end, v0, v1 in zip(BREAKPOINTS, BREAKPOINTS[1:], v, ends)
        )

    @cached_property
    def integer_segments(self) -> IntegerRows:
        """Each row as integers ``(a, b, den)``: figure(m) = (a + b*m) / den.

        Built and checked once per table, by :func:`check_monotone_rows`;
        the credit kernel reads only these rows, so every solve can rely on
        a credit that never falls as the deduction grows.
        """
        rows = []
        for start, value, slope in self.segments:
            intercept = value - slope * start
            den = lcm(slope.denominator, intercept.denominator)
            rows.append((int(intercept * den), int(slope * den), den))
        return check_monotone_rows(tuple(rows))


def check_monotone_rows(rows: IntegerRows) -> IntegerRows:
    """Return ``rows`` (``(a, b, den)`` per segment) if the figure they give
    is positive and nondecreasing wherever the credit kernel reads it.

    Each row needs ``den > 0``, a slope ``b >= 0`` and a positive figure
    where the kernel first reads it: from m = 0 for row 0 (the
    below-poverty exception), from its breakpoint for the others.  No row
    may start below where the previous row ends.  Raises ValueError
    otherwise.

    Why that makes the solver's search sound: with these rows the figure
    ``f`` is positive and nondecreasing on [0, 4], so the contribution
    ``f(M/F) * M`` never falls as household income ``M >= 0`` rises (for
    ``M1 < M2``, ``f(m1)*M1 <= f(m2)*M1 <= f(m2)*M2``).  The kernel picks a
    row by cent cuts that agree with the exact multiple, rounds half away
    from zero and clamps to [0, Q], all of which keep that order, and it
    returns 0 above 4F.  Chained income falls as the deduction grows, and
    the search domain keeps it at or above the eligibility floor, so on
    that domain the credit never falls as the deduction grows and
    ``g(d) = d + credit(d)`` strictly increases: ``g(d) <= Q`` holds on an
    initial run of the domain and fails after it, as the bisection needs.
    Unlike sampling ``g`` on every solve, this check cannot miss a dip
    between samples, and it runs once per table.
    """
    previous_end = None
    for i, ((a, b, den), start, end) in enumerate(zip(rows, _FIRST_READ, BREAKPOINTS[1:])):
        where = f"figure row {i} (from {BREAKPOINTS[i]} to {end} of the poverty line)"
        if den <= 0:
            raise ValueError(f"{where}: denominator must be positive, got {den}")
        if b < 0:
            raise ValueError(f"{where}: figure decreases with income; {_MONOTONE}")
        if not a + b * start > 0:
            raise ValueError(
                f"{where}: figure must be positive, got {Fraction(a + b * start, den)} at {start}"
            )
        value_at_start = Fraction(a + b * BREAKPOINTS[i], den)
        if previous_end is not None and value_at_start < previous_end:
            raise ValueError(
                f"{where}: starts at {value_at_start}, below the previous row's end "
                f"{previous_end}; {_MONOTONE}"
            )
        previous_end = Fraction(a + b * end, den)
    return rows


def cent_cuts(poverty_cents: int) -> list[int]:
    """Smallest household income, in cents, at or past each breakpoint:
    ``ceil(b * F)``.  ``bisect_right`` on the interior cuts finds the row
    of an income in cents without forming its multiple."""
    return [-(-n * poverty_cents // d) for n, d in _BREAKPOINT_RATIOS]


def applicable_figure(m: Fraction, table: FigureTable, quantize: bool = False) -> Fraction:
    """Evaluate the applicable figure at an exact income multiple.

    ``m`` must lie in [0, 4]; values below 1 take the flat 100%-of-poverty-line
    figure.  With ``quantize`` the result is additionally rounded
    half-away-from-zero to the nearest ten-thousandth, matching the
    printed-table convention; the default is the exact piecewise-linear
    value.
    """
    m = Fraction(m)
    if not 0 <= m <= BREAKPOINTS[-1]:
        raise ValueError(f"income multiple {m} outside [0, {BREAKPOINTS[-1]}]")
    start, value, slope = table.segments[bisect_right(_CUTS, m)]
    value += slope * (m - start)
    if quantize:
        value = round_fraction(value, _TEN_THOUSANDTH)
    return value
