"""Bisection on the no-double-dipping constraint: the reliable fix.

The deduction that maximizes the household's benefit is the largest ``d``
with ``d + credit(d) <= Q``.  The map ``g(d) = d + credit(d)`` is monotone
increasing and left-continuous on the credit-eligible range, so even
though it can jump (it is not continuous), a bisection that maintains
``g(a) <= Q < g(b)`` converges to that largest feasible point.  This works
where the fixed-point iteration of :mod:`ptcsolver.iteration` oscillates
and fails, and it certifies its answer: the returned solution carries
freshly recomputed values showing ``g(d) <= Q`` and ``g(d + $1) > Q``.

That ``g`` increases is not sampled on each solve: it follows from the
figure table, which :func:`ptcsolver.figures.check_monotone_rows` checks
once per table, when the credit kernel first reads its rows.  A table
that fails the check is refused before any search runs.

``optimal_deduction`` runs the package's one search,
:func:`ptcsolver.search.last_true`, on integer cents, with or without
advance payments; Money is built only for the returned solution, and
its bracket trace only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .money import Money, RoundingMode
from .ptc import PtcContext
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
    brackets: tuple[tuple[int, int], ...]  # the search's bracket sequence, in cents

    def __post_init__(self) -> None:
        if self.deduction + self.ptc > self.certificate.threshold:
            raise ValueError(
                f"solution violates the no-double-dipping constraint: "
                f"{self.deduction} + {self.ptc} > {self.certificate.threshold}"
            )

    @property
    def iterations(self) -> int:
        return max(0, len(self.brackets) - 1)

    @cached_property
    def trace(self) -> tuple[tuple[Money, Money], ...]:
        """The bracket sequence as Money pairs, built on first read and kept."""
        return tuple((Money(a), Money(b)) for a, b in self.brackets)


def search_domain_upper(ctx: PtcContext) -> Money:
    """Upper end of the deduction search interval: ``ctx.upper_cents`` as Money."""
    return Money(ctx.upper_cents)


def optimal_deduction(ctx: PtcContext) -> Solution:
    """Best self-employed health insurance deduction for any scenario.

    Households that cannot reach the eligibility floor even with no
    deduction (below the poverty line, absent the exception) cannot take
    the credit, so they simply deduct the full billed balance.  Everyone
    else gets the certified search, over [0, Q - APTC]: on cents, or in
    dollar mode on whole-dollar midpoints with a $1 stopping width, which
    reproduces the worked traces.  A figure table whose curve is not
    monotone is refused when the kernel is built, before the search.
    """
    sc = ctx.scenario
    credit = ctx.credit_cents
    upper = ctx.upper_cents
    threshold = sc.purchased_premium.cents

    if upper < 0:
        d = sc.billed_balance.cents
        brackets, method = (), SolveMethod.INELIGIBLE_FULL_DEDUCTION
    else:
        # last_true cannot raise InfeasibleAtLowerBound here: the kernel
        # clamps the credit at Q, so g(0) = credit(0) <= Q.
        step = 100 if ctx.rounding is RoundingMode.DOLLAR else 1
        d, brackets = last_true(lambda dc: dc + credit(dc) <= threshold, 0, upper, step)
        method = SolveMethod.BISECTION if brackets else SolveMethod.BOUNDARY_B0

    ptc = credit(d)
    above = d + 100
    certificate = Certificate(
        value_at=Money(d + ptc),
        value_above=Money(above + credit(above)) if above <= upper else None,
        threshold=sc.purchased_premium,
    )
    return Solution(
        deduction=Money(d),
        ptc=Money(ptc),
        method=method,
        certificate=certificate,
        brackets=brackets,
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
