"""Premium tax credit as a function of the self-employed deduction.

The credit for a household with income M is::

    credit = min(Q, max(0, P - figure(M/F) * M))

where P is the benchmark premium, Q the purchased premium, F the poverty
line and ``figure`` the applicable-figure curve.  Taking a deduction ``d``
moves household income to ``I - d0 - d`` (minus any chained student-loan
deduction), so the credit becomes a function of ``d``: monotone
nondecreasing and left-continuous wherever the household stays
credit-eligible, with upward jumps inherited from the figure curve's
discontinuity at 133% of the poverty line.

Households are credit-eligible when M/F lies in [1, 4] (the m = 4 boundary
is eligible, m > 4 is not).  Below the poverty line the credit is zero
unless the scenario's below-poverty exception applies, in which case the
100%-of-poverty-line figure is used for M/F in [0, 1).

Evaluation is exact: all arithmetic is integer cents and exact rationals,
with rounding applied per the context's :class:`RoundingMode` to each
intermediate product and difference before clamping.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .figures import BREAKPOINTS, applicable_figure, cent_cuts
from .money import Money, RoundingMode, div_half_away, money_ratio, round_cents, round_money
from .params import TaxYearParams
from .scenario import Scenario
from .search import InfeasibleAtLowerBound, last_true

# Student-loan interest phase-out window (cents) and its width.
_SL_FLOOR_C = 70_000 * 100
_SL_CEIL_C = 85_000 * 100
_SL_WIDTH_C = _SL_CEIL_C - _SL_FLOOR_C


@dataclass(frozen=True)
class PtcContext:
    """A scenario bound to its tax-year parameters and rounding cadence.

    ``rounding`` applies to every intermediate product and difference
    before comparison or clamping.  CENT matches published guidance;
    DOLLAR reproduces worked examples that round intermediate steps to
    whole dollars.
    """

    scenario: Scenario
    params: TaxYearParams
    rounding: RoundingMode = RoundingMode.CENT

    @cached_property
    def credit_cents(self) -> Callable[[int], int]:
        """The scenario bound into a cents-level credit evaluator.

        A function mapping a deduction in cents to the credit in cents,
        used by the iteration, the bisection search and the brute-force
        oracle; it is built on first access and kept on this context.  It
        reads the figure from the integer form of the curve's segment
        table and avoids per-call object construction, which matters when
        scanning millions of lattice points; the test suite holds it
        exactly equal to :func:`ptc_of_deduction_reference`.
        """
        sc = self.scenario
        fc = sc.poverty_line.cents
        pc = sc.benchmark_premium.cents
        qc = sc.purchased_premium.cents
        base = sc.effective_income.cents
        dollar_mode = self.rounding is RoundingMode.DOLLAR
        unit = 100 if dollar_mode else 1
        sl_cap_c = None if sc.student_loan_cap is None else sc.student_loan_cap.cents
        # The outer cuts F and 4F are whole cents, so they bound the eligible
        # range exactly; the interior ones pick the segment row.
        low_c, *inner, high_c = cent_cuts(fc)
        if sc.below_poverty_exception:
            low_c = 0
        # On a row, figure * M = (a*F + b*M) * M / (den*F): contribution in units.
        rows = [(a * fc, b, den * fc * unit) for a, b, den in self.params.figure_table.integer_segments]

        def credit_cents(dc: int) -> int:
            mc = base - dc if sl_cap_c is None else chained_income_cents(base - dc, sl_cap_c)
            if mc > high_c or mc < low_c:
                return 0
            a, b, den = rows[bisect_right(inner, mc)]
            diff = pc - unit * div_half_away((a + b * mc) * mc, den)
            if dollar_mode:
                diff = 100 * div_half_away(diff, 100)
            if diff <= 0:
                return 0
            return diff if diff < qc else qc

        return credit_cents

    @cached_property
    def upper_cents(self) -> int:
        """Upper end U of the deduction search domain, in cents.

        The billed balance Q - APTC, further capped so chained household
        income stays at or above the poverty line (or zero with the
        below-poverty exception): that keeps the search where the credit
        is monotone and the household eligible.  Larger deductions trade
        a zero credit for tax savings the solver does not model.  Negative
        when even a zero deduction misses the floor.  Built on first
        access and kept: the solve, the guidance's starting deduction and
        the lattice oracle all read it here.
        """
        sc = self.scenario
        return deduction_cap_cents(sc, 0 if sc.below_poverty_exception else sc.poverty_line.cents)


def household_income(ctx: PtcContext, deduction: Money) -> Money:
    """Income after the fixed deductions and the health-insurance deduction."""
    return ctx.scenario.effective_income - deduction


def student_loan_deduction(cap: Money, magi: Money) -> Money:
    """Student-loan interest deduction after its income phase-out.

    Full ``cap`` at or below $70,000 of modified AGI, zero at or above
    $85,000, linear in between (rounded to the cent).  Monotone
    nonincreasing in income.
    """
    if cap < Money(0):
        raise ValueError(f"student-loan cap must be non-negative, got {cap}")
    if magi.cents <= _SL_FLOOR_C:
        return cap
    if magi.cents >= _SL_CEIL_C:
        return Money(0)
    share = Fraction(_SL_CEIL_C - magi.cents, _SL_WIDTH_C)
    return round_money(cap.dollars * share, RoundingMode.CENT)


def chained_household_income(ctx: PtcContext, deduction: Money) -> Money:
    """Household income including the student-loan chaining, when configured.

    The phase-out is evaluated once against income with the health
    deduction applied and the student-loan deduction itself at zero, then
    subtracted; no inner fixed point is run.
    """
    magi = household_income(ctx, deduction)
    cap = ctx.scenario.student_loan_cap
    if cap is None:
        return magi
    return magi - student_loan_deduction(cap, magi)


def chained_income_cents(magi_c: int, sl_cap_c: int) -> int:
    """Integer-cents twin of :func:`chained_household_income` with a cap.

    ``magi_c`` is household income before the student-loan deduction and
    ``sl_cap_c`` the cap, both in cents; the phase-out share is rounded
    half away from zero at the cent, as :func:`student_loan_deduction`
    rounds it.  The credit kernel and the eligibility cutoff share it.
    """
    if magi_c <= _SL_FLOOR_C:
        return magi_c - sl_cap_c
    if magi_c >= _SL_CEIL_C:
        return magi_c
    return magi_c - div_half_away(sl_cap_c * (_SL_CEIL_C - magi_c), _SL_WIDTH_C)


def max_deduction_for_income_floor(ctx: PtcContext, floor: Money) -> Money:
    """Largest deduction (capped at the billed balance) keeping chained
    household income at or above ``floor``.

    Chained income is strictly decreasing in the deduction, so the cutoff
    is well defined.  Returns a negative amount when even a zero
    deduction cannot reach the floor (the household is ineligible on
    income grounds alone).
    """
    return Money(deduction_cap_cents(ctx.scenario, floor.cents))


def deduction_cap_cents(sc: Scenario, floor_c: int) -> int:
    """:func:`max_deduction_for_income_floor` in integer cents, for a
    floor of ``floor_c`` cents; -1 or less when no deduction reaches it."""
    billed_c = sc.purchased_premium.cents - sc.advance_credit.cents
    base_c = sc.income.cents - sc.other_deductions.cents
    if sc.student_loan_cap is None:
        return min(billed_c, base_c - floor_c)
    cap_c = sc.student_loan_cap.cents

    def reaches_floor(dc: int) -> bool:
        return chained_income_cents(base_c - dc, cap_c) >= floor_c

    try:
        cutoff, _ = last_true(reaches_floor, 0, billed_c, 1)
    except InfeasibleAtLowerBound:
        return -1
    return cutoff


def expected_contribution(income: Money, figure: Fraction, rounding: RoundingMode) -> Money:
    """The affordable share of income: ``figure * income`` rounded per mode."""
    if income < Money(0):
        raise ValueError(f"income must be non-negative, got {income}")
    if not 0 < figure < Fraction(1, 10):
        raise ValueError(f"figure must lie in (0, 0.1), got {figure}")
    return round_money(income.dollars * figure, rounding)


def ptc_base(ctx: PtcContext, income: Money) -> Money:
    """Credit at a given household income, assuming credit eligibility.

    Callers must handle the ineligible branches (income above four times
    or, absent the exception, below the poverty line) before calling.
    """
    sc = ctx.scenario
    m = money_ratio(income, sc.poverty_line)
    if m > BREAKPOINTS[-1]:
        raise ValueError(f"income multiple {m} above {BREAKPOINTS[-1]}; no credit applies")
    if m < BREAKPOINTS[0] and not sc.below_poverty_exception:
        raise ValueError(
            f"income multiple {m} below {BREAKPOINTS[0]} without the below-poverty exception"
        )
    if m < 0:
        raise ValueError("household income is negative")
    figure = applicable_figure(m, ctx.params.figure_table)
    contribution = expected_contribution(income, figure, ctx.rounding)
    remainder = round_cents(sc.benchmark_premium.cents - contribution.cents, ctx.rounding)
    return Money(min(sc.purchased_premium.cents, max(0, remainder)))


def ptc_of_deduction(ctx: PtcContext, deduction: Money) -> Money:
    """The extended credit-of-deduction function.

    Zero above four times the poverty line and, without the exception,
    below it; otherwise the base credit at the post-deduction household
    income.  The deduction must lie in [0, Q - APTC].
    """
    if not Money(0) <= deduction <= ctx.scenario.billed_balance:
        raise ValueError(
            f"deduction {deduction} outside [0, {ctx.scenario.billed_balance}] "
            "(the billed balance Q - APTC)"
        )
    return Money(ctx.credit_cents(deduction.cents))


def ptc_of_deduction_reference(ctx: PtcContext, deduction: Money) -> Money:
    """Transparent Fraction-based twin of :func:`ptc_of_deduction`.

    Zero when the chained household income lies outside the eligible
    band, ``[F, 4F]`` or ``[0, 4F]`` with the below-poverty exception;
    otherwise :func:`ptc_base` at that income, which reads the figure
    from the table's ``(start, value, slope)`` rows in ``Fraction``
    arithmetic.  It shares nothing with the integer kernel and is kept as
    an executable cross-check of it (the test suite asserts exact
    agreement across random scenarios).
    """
    sc = ctx.scenario
    income = chained_household_income(ctx, deduction)
    m = Fraction(income.cents, sc.poverty_line.cents)
    if not (0 if sc.below_poverty_exception else BREAKPOINTS[0]) <= m <= BREAKPOINTS[-1]:
        return Money(0)
    return ptc_base(ctx, income)
