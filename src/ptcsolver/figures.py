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
arithmetic; the credit kernel in :mod:`ptcsolver.ptc` uses their integer
form (:attr:`FigureTable.integer_segments`) with :func:`cent_cuts`.
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

_TEN_THOUSANDTH = Fraction(1, 10000)


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
    def segments(self) -> tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]:
        """The curve as rows ``(start, end, value_at_start, value_at_end)``.

        Row 0 is flat at ``j`` up to the jump at 133%, so the jump's upper
        side opens row 1; the last row is flat at ``c``.  Within a row the
        figure is linear in the income multiple.
        """
        v = self.as_tuple()
        return tuple(zip(BREAKPOINTS, BREAKPOINTS[1:], v, (v[0], *v[2:], v[-1])))

    @cached_property
    def integer_segments(self) -> tuple[tuple[int, int, int], ...]:
        """Each row as integers ``(a, b, den)``: figure(m) = (a + b*m) / den."""
        rows = []
        for start, end, v0, v1 in self.segments:
            slope = (v1 - v0) / (end - start)
            intercept = v0 - slope * start
            den = lcm(slope.denominator, intercept.denominator)
            rows.append((int(intercept * den), int(slope * den), den))
        return tuple(rows)


def cent_cuts(poverty_cents: int) -> list[int]:
    """Smallest household income, in cents, at or past each breakpoint:
    ``ceil(b * F)``.  ``bisect_right`` on the interior cuts finds the row
    of an income in cents without forming its multiple."""
    return [-(-b.numerator * poverty_cents // b.denominator) for b in BREAKPOINTS]


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
    start, end, v0, v1 = table.segments[bisect_right(_CUTS, m)]
    value = v0 + (v1 - v0) * (m - start) / (end - start)
    if quantize:
        value = round_fraction(value, _TEN_THOUSANDTH)
    return value
