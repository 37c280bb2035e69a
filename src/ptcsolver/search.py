"""The package's one bisection: the last point where a monotone predicate holds.

Every search in the package runs on an integer lattice of cents (or of
whole dollars, as multiples of 100 cents) through :func:`last_true`: the
certified solve, the eligibility cutoff of the deduction and the edge
refinement of the income scanner.  Money objects stay at the API
boundary; the search itself only adds, compares and rounds ints.
"""

from __future__ import annotations

from typing import Callable

from .money import div_half_away


class InfeasibleAtLowerBound(ValueError):
    """The search precondition, that the predicate holds at ``lo``, fails."""


def last_true(
    pred: Callable[[int], bool], lo: int, hi: int, step: int
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Bisect [lo, hi] down to the last point where ``pred`` still holds.

    ``pred`` must hold on an initial run of [lo, hi] and fail after it
    (for the solver: ``g(d) <= Q`` with ``g`` monotone increasing and
    left-continuous).  Returns the point and the bracket trace
    ``((a0, b0), (a1, b1), ...)``; when ``pred`` holds at ``hi`` that is
    ``hi`` with an empty trace.  Each midpoint is ``(a + b) / 2`` rounded
    half away from zero to a multiple of ``step``.  The search stops
    once ``b - a <= step``, so the result ``a`` satisfies ``pred(a)``
    while ``pred`` fails at every point from ``a + step`` on: with
    ``step == 1`` it is the exact last point.
    """
    if lo > hi:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    if step not in (1, 100):
        raise ValueError(f"search step must be 1 or 100, got {step}")
    if not pred(lo):
        raise InfeasibleAtLowerBound(f"the search predicate fails at its lower end {lo}")
    if pred(hi):
        return hi, ()
    a, b = lo, hi
    trace = [(a, b)]
    while b - a > step:
        mid = step * div_half_away(a + b, 2 * step)
        if pred(mid):
            a = mid
        else:
            b = mid
        trace.append((a, b))
    return a, tuple(trace)
