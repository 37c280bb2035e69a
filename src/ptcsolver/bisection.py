"""Bisection on the no-double-dipping constraint: the reliable fix.

The deduction that maximizes the household's benefit is the largest ``d``
with ``d + credit(d) <= Q``.  The map ``g(d) = d + credit(d)`` is monotone
increasing and left-continuous on the credit-eligible range, so even
though it can jump (it is not continuous), a bisection that maintains
``g(a) <= Q < g(b)`` converges to that largest feasible point.  This works
where the fixed-point iteration of :mod:`ptcsolver.iteration` oscillates
and fails, and it certifies its answer: the returned solution carries
freshly recomputed values showing ``g(d) <= Q`` and ``g(d + $1) > Q``.

``threshold_search`` is the generic search for any monotone increasing,
left-continuous function; ``optimal_deduction`` specializes it to the
credit constraint, with or without advance payments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .money import Money, RoundingMode, round_money
from .ptc import PtcContext, credit_cents_fn, max_deduction_for_income_floor

ONE_CENT = Money(1)
ONE_DOLLAR = Money(100)


class InfeasibleAtLowerBound(ValueError):
    """The search precondition g(lo) <= threshold does not hold."""


class SolveMethod(Enum):
    BISECTION = "bisection"
    BOUNDARY_B0 = "boundary_b0"
    INELIGIBLE_FULL_DEDUCTION = "ineligible_full_deduction"


@dataclass(frozen=True)
class ThresholdProblem:
    """Find the largest point where a monotone step-free-from-the-left map stays under a threshold.

    ``fn`` must be monotone increasing and left-continuous on
    [``lo``, ``hi``] with ``fn(lo) <= threshold``.  ``tolerance`` bounds the
    final bracket width; midpoints are rounded per ``midpoint_rounding``.
    """

    fn: Callable[[Money], Money]
    lo: Money
    hi: Money
    threshold: Money
    tolerance: Money = Money(1)
    midpoint_rounding: RoundingMode = RoundingMode.CENT

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty search interval [{self.lo}, {self.hi}]")
        if self.tolerance < ONE_CENT:
            raise ValueError(f"tolerance must be at least one cent, got {self.tolerance}")


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


def threshold_search(problem: ThresholdProblem) -> tuple[Money, tuple[tuple[Money, Money], ...]]:
    """Bisect down to the largest point still at or under the threshold.

    Returns the point and the bracket trace [(a0, b0), (a1, b1), ...].
    If the whole interval is feasible the upper endpoint is returned with
    an empty trace.  Feasibility at the midpoint (a tie with the
    threshold counts as feasible) moves the lower bracket up; otherwise
    the upper bracket comes down.  The result ``c`` satisfies
    ``fn(c) <= threshold`` while every lattice point more than
    ``tolerance`` above ``c`` evaluates above the threshold.
    """
    fn, k = problem.fn, problem.threshold
    if fn(problem.lo) > k:
        raise InfeasibleAtLowerBound(
            f"fn({problem.lo}) = {fn(problem.lo)} exceeds threshold {k}"
        )
    if fn(problem.hi) <= k:
        return problem.hi, ()

    a, b = problem.lo, problem.hi
    trace = [(a, b)]
    while b - a > problem.tolerance:
        mid = round_money((a.dollars + b.dollars) / 2, problem.midpoint_rounding)
        if mid <= a:
            mid = a + ONE_CENT
        elif mid >= b:
            mid = b - ONE_CENT
        if fn(mid) <= k:
            a = mid
        else:
            b = mid
        trace.append((a, b))
    return a, tuple(trace)


def _search_params(rounding: RoundingMode) -> tuple[Money, RoundingMode]:
    """Tolerance and midpoint rounding for a context's precision mode.

    Cent precision by default; dollar mode reproduces worked traces that
    bisect on whole dollars with a $1 stopping width.
    """
    if rounding is RoundingMode.DOLLAR:
        return Money(100), RoundingMode.DOLLAR
    return Money(1), RoundingMode.CENT


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


def _certificate(ctx: PtcContext, deduction: Money, upper: Money) -> Certificate:
    credit = credit_cents_fn(ctx)
    threshold = ctx.scenario.purchased_premium
    value_at = deduction + Money(credit(deduction.cents))
    above = deduction + ONE_DOLLAR
    value_above = above + Money(credit(above.cents)) if above <= upper else None
    return Certificate(value_at=value_at, value_above=value_above, threshold=threshold)


def _ineligible_solution(ctx: PtcContext) -> Solution:
    """Full deduction of the billed balance when no credit can be taken."""
    sc = ctx.scenario
    deduction = sc.billed_balance
    ptc = Money(credit_cents_fn(ctx)(deduction.cents))
    cert = Certificate(
        value_at=deduction + ptc, value_above=None, threshold=sc.purchased_premium
    )
    return Solution(
        deduction=deduction,
        ptc=ptc,
        method=SolveMethod.INELIGIBLE_FULL_DEDUCTION,
        certificate=cert,
        trace=(),
        iterations=0,
    )


def _assert_monotone_spot_check(outlay: Callable[[Money], Money], upper: Money) -> None:
    """Cheap guard against non-monotone credit rules (refuse, don't mis-solve)."""
    samples = [Money((upper.cents * i) // 8) for i in range(9)]
    values = [outlay(d) for d in samples]
    for d_prev, d_next, v_prev, v_next in zip(samples, samples[1:], values, values[1:]):
        if v_next < v_prev:
            raise ValueError(
                f"outlay decreases between {d_prev} and {d_next}; "
                "the search requires a monotone credit rule"
            )


def optimal_deduction(ctx: PtcContext) -> Solution:
    """Best self-employed health insurance deduction for any scenario.

    Households that cannot reach the eligibility floor even with no
    deduction (below the poverty line, absent the exception) cannot take
    the credit, so they simply deduct the full billed balance.  Everyone
    else gets the certified search, over [0, Q - APTC].
    """
    sc = ctx.scenario
    upper = search_domain_upper(ctx)
    if upper < Money(0):
        return _ineligible_solution(ctx)
    credit = credit_cents_fn(ctx)

    def outlay(d: Money) -> Money:
        return d + Money(credit(d.cents))

    _assert_monotone_spot_check(outlay, upper)
    threshold = sc.purchased_premium
    if outlay(upper) <= threshold:
        solution_d, trace = upper, ()
        method = SolveMethod.BOUNDARY_B0
    else:
        tolerance, midpoint_rounding = _search_params(ctx.rounding)
        problem = ThresholdProblem(
            fn=outlay,
            lo=Money(0),
            hi=upper,
            threshold=threshold,
            tolerance=tolerance,
            midpoint_rounding=midpoint_rounding,
        )
        # threshold_search cannot raise InfeasibleAtLowerBound here: the
        # kernel clamps the credit at Q, so g(0) = credit(0) <= Q.
        solution_d, trace = threshold_search(problem)
        method = SolveMethod.BISECTION

    ptc = Money(credit(solution_d.cents))
    return Solution(
        deduction=solution_d,
        ptc=ptc,
        method=method,
        certificate=_certificate(ctx, solution_d, upper),
        trace=trace,
        iterations=max(0, len(trace) - 1),
    )


def whole_dollar_view(ctx: PtcContext, solution: Solution) -> tuple[Money, Money]:
    """Snap a solution down to whole dollars, as entered on a tax form.

    Returns the largest whole-dollar deduction not exceeding the solved
    one (still feasible, since the outlay map is monotone) and its
    credit.  The cent-precise values remain in the solution itself.
    """
    floored = Money((solution.deduction.cents // 100) * 100)
    ptc = Money(credit_cents_fn(ctx)(floored.cents))
    return floored, ptc
