"""The iterative calculation method from current IRS guidance, faithfully.

Guidance (Publication 974) resolves the deduction/credit circularity with
a fixed-point iteration: from a trial deduction, compute the credit, then
set the next deduction to the billed premium minus that credit, and
repeat.  Convergence is declared in the guidance's own sense: iterates
settle once a pair of successive points is within $1 in the sup norm.  If
instead the sequence revisits an exact prior state without ever closing
to within $1, the guidance's "do not use this method" condition has been
met; because every trace lives on the cent lattice, one of the two always
happens.

This module reproduces that behavior as-is, including the divergence.  It
makes no attempt to rescue non-convergent cases; that is the bisection
solver's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bisection import search_domain_upper
from .money import Money, round_cents
from .ptc import PtcContext


class IterationStatus(Enum):
    CONVERGED_IRS_SENSE = "converged_irs_sense"
    DIVERGED_DO_NOT_USE = "diverged_do_not_use"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class IterationPoint:
    """One iterate: the credit/deduction pair at step ``index`` (1-based)."""

    credit: Money
    deduction: Money
    index: int


@dataclass(frozen=True)
class Cycle:
    """The eventually-periodic tail of a non-convergent trace."""

    period: int
    points: tuple[IterationPoint, ...]


@dataclass(frozen=True)
class IterationOutcome:
    status: IterationStatus
    trace: tuple[IterationPoint, ...]
    settled: IterationPoint | None = None
    liminf_d: Money | None = None
    cycle: Cycle | None = None
    start_clamped: bool = False

    def __post_init__(self) -> None:
        if self.status is IterationStatus.CONVERGED_IRS_SENSE and self.settled is None:
            raise ValueError("converged outcome must carry a settled point")
        if self.status is IterationStatus.DIVERGED_DO_NOT_USE and self.liminf_d is None:
            raise ValueError("diverged outcome must carry the liminf deduction")


def sup_gap(p: IterationPoint, q: IterationPoint) -> Money:
    """Sup-norm distance between two iterates."""
    return Money(max(abs(p.credit.cents - q.credit.cents), abs(p.deduction.cents - q.deduction.cents)))


def default_start(ctx: PtcContext) -> tuple[IterationPoint, bool]:
    """The guidance's starting point, and whether it had to be clamped.

    Guidance starts at (credit $0, deduction = billed balance) whenever
    that leaves the household credit-eligible.  For lower incomes the
    starting deduction is clamped to keep the first income evaluation
    eligible; the clamp is recorded so callers can surface it.
    """
    billed = ctx.scenario.billed_balance
    start = search_domain_upper(ctx)
    if start >= billed:
        return IterationPoint(Money(0), billed, 1), False
    return IterationPoint(Money(0), max(Money(0), start), 1), True


def step(ctx: PtcContext, point: IterationPoint) -> IterationPoint:
    """Apply the guidance's map once: (c, d) -> (PTC(d), min(B, Q - PTC(d))).

    The iterative calculation of Rev. Proc. 2014-41, restated in
    Publication 974, alternates two steps: the credit at the current
    deduction, then a deduction of the premiums the credit does not
    cover, Q - PTC(d).  Both are rounded per the context's mode.  Advance
    payments (APTC) enter only as a cap: the deduction never exceeds the
    billed balance B = Q - APTC, the premiums the household paid itself.
    Every iterate stays in [0, B], the solver's domain; without advance
    payments B = Q, and the clamp binds only where rounding to whole
    dollars would carry the deduction past 0 or Q.
    """
    sc = ctx.scenario
    credit_c = round_cents(ctx.credit_cents(point.deduction.cents), ctx.rounding)
    deduction_c = round_cents(sc.purchased_premium.cents - credit_c, ctx.rounding)
    deduction_c = min(sc.billed_balance.cents, max(0, deduction_c))
    return IterationPoint(Money(credit_c), Money(deduction_c), point.index + 1)


def run_iteration(
    ctx: PtcContext,
    start: IterationPoint | None = None,
    max_iter: int = 500,
) -> IterationOutcome:
    """Run the iterative calculation method to a definite outcome.

    Stops with CONVERGED_IRS_SENSE at the first step whose sup-norm gap
    from the previous iterate is under $1, returning that iterate as
    settled.  Stops with DIVERGED_DO_NOT_USE on an exact revisit of a
    prior state with no gap ever under $1, recording the cycle and the
    smallest deduction it contains (the liminf of the tail).  Returns
    BUDGET_EXHAUSTED only if ``max_iter`` steps pass without either;
    callers should treat that as "raise max_iter", not as success.
    """
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2")
    current, clamped = default_start(ctx) if start is None else (start, False)

    dollar = Money(100)
    trace = [current]
    seen: dict[tuple[int, int], int] = {(current.credit.cents, current.deduction.cents): 0}
    for _ in range(max_iter):
        nxt = step(ctx, current)
        trace.append(nxt)
        if sup_gap(nxt, current) < dollar:
            return IterationOutcome(
                status=IterationStatus.CONVERGED_IRS_SENSE,
                trace=tuple(trace),
                settled=nxt,
                liminf_d=nxt.deduction,
                start_clamped=clamped,
            )
        state = (nxt.credit.cents, nxt.deduction.cents)
        if state in seen:
            cycle_points = tuple(trace[seen[state]:-1])
            return IterationOutcome(
                status=IterationStatus.DIVERGED_DO_NOT_USE,
                trace=tuple(trace),
                liminf_d=min(p.deduction for p in cycle_points),
                cycle=Cycle(period=len(cycle_points), points=cycle_points),
                start_clamped=clamped,
            )
        seen[state] = len(trace) - 1
        current = nxt
    return IterationOutcome(
        status=IterationStatus.BUDGET_EXHAUSTED,
        trace=tuple(trace),
        start_clamped=clamped,
    )


def simplified_method(ctx: PtcContext) -> tuple[Money, Money]:
    """The guidance's fallback: deduction from step two, credit from step three.

    This is what tax software reports when the iteration must not be
    used; it can understate the credit substantially.
    """
    first, _ = default_start(ctx)
    second = step(ctx, first)
    third = step(ctx, second)
    return second.deduction, third.credit


def liminf_deduction(outcome: IterationOutcome) -> Money:
    """Smallest deduction the tail of the trace keeps returning to.

    For a settled trace this is the settled deduction; for a detected
    cycle, the smallest deduction in the cycle.  Refuses on a
    budget-exhausted outcome rather than guessing.
    """
    if outcome.status is IterationStatus.CONVERGED_IRS_SENSE:
        assert outcome.settled is not None
        return outcome.settled.deduction
    if outcome.status is IterationStatus.DIVERGED_DO_NOT_USE:
        assert outcome.liminf_d is not None
        return outcome.liminf_d
    raise ValueError("no liminf available: iteration budget was exhausted before an outcome")
