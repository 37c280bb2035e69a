"""Bisection on the no-double-dipping constraint: the reliable fix.

The deduction that maximizes the household's benefit is the largest ``d``
with ``d + credit(d) <= Q``.  The map ``g(d) = d + credit(d)`` is monotone
increasing and left-continuous on the credit-eligible range, so even
though it can jump (it is not continuous), a bisection that maintains
``g(a) <= Q < g(b)`` converges to that largest feasible point.  This works
where the fixed-point iteration of :mod:`ptcsolver.iteration` oscillates
and fails, and it certifies its answer: the returned solution carries
freshly recomputed values showing ``g(d) <= Q`` and ``g(d + $1) > Q``.

``optimal_deduction`` runs the package's one search,
:func:`ptcsolver.search.last_true`, on integer cents, with or without
advance payments; Money is built only for the returned solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .money import Money, RoundingMode
from .ptc import PtcContext, max_deduction_for_income_floor
from .search import last_true


class SolveMethod(Enum):
    BISECTION = "bisection"
    BOUNDARY_B0 = "boundary_b0"
    INELIGIBLE_FULL_DEDUCTION = "ineligible_full_deduction"


@dataclass(frozen=True)
class Certificate:
    """Recomputed evidence that a deduction is feasible and maximal.

    ``value_at`` is g at the returned deduction (at most the threshold);
    ``value_above`` is g one dollar higher (above the threshold), or None
    when one dollar higher leaves the search domain (boundary case).
    """

    value_at: Money
    value_above: Money | None
    threshold: Money

    @property
    def at_boundary(self) -> bool:
        return self.value_above is None

    def holds(self) -> bool:
        if self.value_at > self.threshold:
            return False
        return self.value_above is None or self.value_above > self.threshold


@dataclass(frozen=True)
class Solution:
    """The chosen deduction with its credit and feasibility evidence."""

    deduction: Money
    ptc: Money
    method: SolveMethod
    certificate: Certificate
    trace: tuple[tuple[Money, Money], ...]
    iterations: int

    def __post_init__(self) -> None:
        if self.deduction + self.ptc > self.certificate.threshold:
            raise ValueError(
                f"solution violates the no-double-dipping constraint: "
                f"{self.deduction} + {self.ptc} > {self.certificate.threshold}"
            )


def search_domain_upper(ctx: PtcContext) -> Money:
    """Upper end of the deduction search interval.

    The billed balance Q - APTC, further capped so chained household
    income stays at or above the poverty line (or above zero when the
    below-poverty exception applies): that keeps the search where the
    credit function is monotone and the household eligible.  Larger
    deductions trade a zero credit for tax savings the solver
    deliberately does not model.
    """
    sc = ctx.scenario
    floor = Money(0) if sc.below_poverty_exception else sc.poverty_line
    return max_deduction_for_income_floor(ctx, floor)


def _assert_monotone_spot_check(outlay: Callable[[int], int], upper_c: int) -> None:
    """Cheap guard against non-monotone credit rules (refuse, don't mis-solve)."""
    samples = [(upper_c * i) // 8 for i in range(9)]
    values = [outlay(dc) for dc in samples]
    for d_prev, d_next, v_prev, v_next in zip(samples, samples[1:], values, values[1:]):
        if v_next < v_prev:
            raise ValueError(
                f"outlay decreases between {Money(d_prev)} and {Money(d_next)}; "
                "the search requires a monotone credit rule"
            )


def optimal_deduction(ctx: PtcContext) -> Solution:
    """Best self-employed health insurance deduction for any scenario.

    Households that cannot reach the eligibility floor even with no
    deduction (below the poverty line, absent the exception) cannot take
    the credit, so they simply deduct the full billed balance.  Everyone
    else gets the certified search, over [0, Q - APTC]: on cents, or in
    dollar mode on whole-dollar midpoints with a $1 stopping width, which
    reproduces the worked traces.
    """
    sc = ctx.scenario
    upper = search_domain_upper(ctx).cents
    threshold = sc.purchased_premium.cents
    credit = ctx.credit_cents

    def outlay(dc: int) -> int:
        return dc + credit(dc)

    if upper < 0:
        d, trace, method = sc.billed_balance.cents, (), SolveMethod.INELIGIBLE_FULL_DEDUCTION
    else:
        _assert_monotone_spot_check(outlay, upper)
        # last_true cannot raise InfeasibleAtLowerBound here: the kernel
        # clamps the credit at Q, so g(0) = credit(0) <= Q.
        step = 100 if ctx.rounding is RoundingMode.DOLLAR else 1
        d, trace = last_true(lambda dc: outlay(dc) <= threshold, 0, upper, step)
        method = SolveMethod.BISECTION if trace else SolveMethod.BOUNDARY_B0

    above = d + 100
    certificate = Certificate(
        value_at=Money(outlay(d)),
        value_above=Money(outlay(above)) if above <= upper else None,
        threshold=sc.purchased_premium,
    )
    return Solution(
        deduction=Money(d),
        ptc=Money(credit(d)),
        method=method,
        certificate=certificate,
        trace=tuple((Money(a), Money(b)) for a, b in trace),
        iterations=max(0, len(trace) - 1),
    )


def whole_dollar_view(ctx: PtcContext, solution: Solution) -> tuple[Money, Money]:
    """Snap a solution down to whole dollars, as entered on a tax form.

    Returns the largest whole-dollar deduction not exceeding the solved
    one (still feasible, since the outlay map is monotone) and its
    credit.  The cent-precise values remain in the solution itself.
    """
    floored = Money((solution.deduction.cents // 100) * 100)
    ptc = Money(ctx.credit_cents(floored.cents))
    return floored, ptc
