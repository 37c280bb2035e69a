"""The iterative calculation method from current IRS guidance, faithfully.

Guidance (Publication 974) resolves the deduction/credit circularity with
a fixed-point iteration: from a trial deduction, compute the credit, then
set the next deduction to the billed premium minus that credit, and
repeat.  Convergence is declared in the guidance's own sense: iterates
settle once a pair of successive points is within $1 in the sup norm.  A
run that instead returns to the pair two steps back has closed a cycle of
period 2 without ever closing to within $1: the guidance's "do not use
this method" condition.  Every run ends one of these two ways (see
:func:`run_iteration`), though a step budget can run out first.

This module reproduces that behavior as-is, on integer cents, including
the divergence.  Rescuing non-convergent cases is the bisection solver's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    """How a run ended, with its (credit, deduction) cents from step ``first`` on."""

    status: IterationStatus
    pairs: tuple[tuple[int, int], ...]
    settled: IterationPoint | None = None
    liminf_d: Money | None = None
    cycle: Cycle | None = None
    start_clamped: bool = False
    first: int = 1

    def __post_init__(self) -> None:
        if self.status is IterationStatus.CONVERGED_IRS_SENSE and self.settled is None:
            raise ValueError("converged outcome must carry a settled point")
        if self.status is IterationStatus.DIVERGED_DO_NOT_USE and self.liminf_d is None:
            raise ValueError("diverged outcome must carry the liminf deduction")

    @cached_property
    def trace(self) -> tuple[IterationPoint, ...]:
        """The pairs as iterates, built on first read and kept."""
        return tuple(_point(pair, self.first + k) for k, pair in enumerate(self.pairs))


def _point(pair: tuple[int, int], index: int) -> IterationPoint:
    return IterationPoint(Money(pair[0]), Money(pair[1]), index)


def default_start(ctx: PtcContext) -> tuple[int, bool]:
    """The guidance's starting deduction in cents, and whether it was clamped.

    Guidance starts at (credit $0, deduction = billed balance) whenever
    that leaves the household credit-eligible.  For lower incomes the
    starting deduction is clamped to keep the first income evaluation
    eligible; the clamp is recorded so callers can surface it.
    """
    billed, upper = ctx.scenario.billed_balance.cents, ctx.upper_cents
    return (billed, False) if upper >= billed else (max(0, upper), True)


def _map(ctx: PtcContext, d: int) -> tuple[int, int]:
    """The guidance's map on cents: d -> (PTC(d), min(B, Q - PTC(d))).

    Rev. Proc. 2014-41, restated in Publication 974, alternates the credit
    at the current deduction and a deduction of the premiums the credit
    does not cover, Q - PTC(d), each rounded per the context's mode; the
    rounded credit is capped at Q.  Advance payments (APTC) enter only as
    a cap: no deduction exceeds the billed balance B = Q - APTC, so every
    iterate stays in [0, B], the solver's domain.
    """
    sc = ctx.scenario
    q = sc.purchased_premium.cents
    c = min(q, round_cents(ctx.credit_cents(d), ctx.rounding))
    return c, min(q - sc.advance_credit.cents, max(0, round_cents(q - c, ctx.rounding)))


def step(ctx: PtcContext, point: IterationPoint) -> IterationPoint:
    """Apply the guidance's map once: (c, d) -> (PTC(d), min(B, Q - PTC(d)))."""
    c, d = _map(ctx, point.deduction.cents)
    return IterationPoint(Money(c), Money(d), point.index + 1)


def run_iteration(ctx: PtcContext, start: IterationPoint | None = None, max_iter: int = 500) -> IterationOutcome:
    """Run the iterative calculation method to a definite outcome.

    Stops with CONVERGED_IRS_SENSE at the first step within $1 (sup norm)
    of the previous iterate, which is returned as settled, and with
    DIVERGED_DO_NOT_USE at the first step that returns to the pair two
    steps back, recording that cycle and its smallest deduction (the
    liminf of the tail).

    Only these two outcomes occur.  On [0, U], U the largest deduction
    that keeps the household eligible from below, the credit never
    decreases, so the map's deduction T(d) never increases and T(T(d))
    never decreases.  Above U, T(d) = B and the run settles one step
    later.  So the odd and the even deductions are each monotone on a
    finite lattice, and every run settles or closes a 2-cycle.  That
    bounds the period, not the number of steps: BUDGET_EXHAUSTED means
    ``max_iter`` steps passed first, and callers should raise it.
    """
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2")
    if start is None:
        d, clamped = default_start(ctx)
        pairs, first = [(0, d)], 1
    else:
        pairs, first, clamped = [(start.credit.cents, start.deduction.cents)], start.index, False
    c, d = pairs[0]
    for _ in range(max_iter):
        nxt = _map(ctx, d)
        pairs.append(nxt)
        n = first + len(pairs) - 1
        if abs(nxt[0] - c) < 100 and abs(nxt[1] - d) < 100:
            settled = _point(nxt, n)
            return IterationOutcome(IterationStatus.CONVERGED_IRS_SENSE, tuple(pairs), settled,
                                    settled.deduction, start_clamped=clamped, first=first)
        if len(pairs) > 2 and pairs[-3] == nxt:
            points = (_point(pairs[-3], n - 2), _point(pairs[-2], n - 1))
            return IterationOutcome(IterationStatus.DIVERGED_DO_NOT_USE, tuple(pairs),
                                    liminf_d=min(p.deduction for p in points), cycle=Cycle(2, points),
                                    start_clamped=clamped, first=first)
        c, d = nxt
    return IterationOutcome(IterationStatus.BUDGET_EXHAUSTED, tuple(pairs), start_clamped=clamped, first=first)


def _simplified(ctx: PtcContext, pairs: tuple[tuple[int, int], ...]) -> tuple[Money, Money]:
    """(d2, c3) from the pairs of a default-start run; a run that settled
    at step two takes the one more step the method reads."""
    if len(pairs) < 3:
        pairs = (*pairs, _map(ctx, pairs[-1][1]))
    return Money(pairs[1][1]), Money(pairs[2][0])


def simplified_method(ctx: PtcContext) -> tuple[Money, Money]:
    """The guidance's fallback: deduction from step two, credit from step three.

    This is what tax software reports when the iteration must not be
    used; it can understate the credit substantially.
    """
    return _simplified(ctx, run_iteration(ctx, max_iter=2).pairs)


def liminf_deduction(outcome: IterationOutcome) -> Money:
    """Smallest deduction the tail of the trace keeps returning to.

    For a settled trace this is the settled deduction; for a detected
    cycle, the smallest deduction in the cycle.  Refuses on a
    budget-exhausted outcome rather than guessing.
    """
    if outcome.status is IterationStatus.BUDGET_EXHAUSTED:
        raise ValueError("no liminf available: iteration budget was exhausted before an outcome")
    return outcome.settled.deduction if outcome.settled else outcome.liminf_d
