from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsolver import (
    BREAKPOINTS,
    FigureTable,
    PtcContext,
    RoundingMode,
    Scenario,
    applicable_figure,
    expected_contribution,
    household_income,
    ptc_base,
    ptc_of_deduction,
    student_loan_deduction,
    tax_year_params,
)
from ptcsolver import ptc
from ptcsolver.params import RepaymentTable, TaxYearParams
from ptcsolver.money import Money, div_half_away, money_ratio, round_money
from ptcsolver.ptc import (
    chained_household_income,
    chained_income_cents,
    max_deduction_for_income_floor,
    ptc_of_deduction_reference,
)

D = Money.from_dollars


def test_household_income(brooklyn, params_2018):
    ctx = PtcContext(brooklyn, params_2018)
    assert household_income(ctx, D(10390)) == D(60760)
    assert household_income(ctx, D(0)) == D(71150)
    shifted = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(10390),
        purchased_premium=D(10390),
        income=D(71150),
        other_deductions=D(1000),
        tax_year="2018",
    )
    assert household_income(PtcContext(shifted, params_2018), D(5000)) == D(65150)


def test_expected_contribution():
    assert expected_contribution(D(48000), Fraction("0.09"), RoundingMode.DOLLAR) == D(4320)
    # 0.0956 * 60,760 = 5,808.656, which rounds up at the dollar.
    assert expected_contribution(D(60760), Fraction("0.0956"), RoundingMode.DOLLAR) == D(5809)
    assert expected_contribution(D(60760), Fraction("0.0956"), RoundingMode.CENT) == D("5808.66")
    assert expected_contribution(D(0), Fraction("0.05"), RoundingMode.CENT) == D(0)
    with pytest.raises(ValueError):
        expected_contribution(D(100), Fraction("0.2"), RoundingMode.CENT)


def _flat_09_params() -> TaxYearParams:
    return TaxYearParams(
        year="flat",
        figure_table=FigureTable.from_decimals(*["0.09"] * 6),
        repayment_table=RepaymentTable(D(300), D(775), D(1300)),
    )


def test_ptc_base_single_figure_example():
    # Benchmark $500/month, income at four times a $12,000 poverty line,
    # constant 9% figure: the credit pays the premium beyond 9% of income.
    sc = Scenario(
        poverty_line=D(12000),
        benchmark_premium=D(6000),
        purchased_premium=D(6000),
        income=D(48000),
        tax_year="flat",
    )
    ctx = PtcContext(sc, _flat_09_params(), RoundingMode.DOLLAR)
    assert ptc_base(ctx, D(48000)) == D(1680)


def test_ptc_base_brooklyn(brooklyn_dollar_ctx):
    assert ptc_base(brooklyn_dollar_ctx, D(60760)) == D(4581)


def test_ptc_base_clamps_to_zero(params_2018):
    sc = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(1000),
        purchased_premium=D(1000),
        income=D(64000),
        tax_year="2018",
    )
    ctx = PtcContext(sc, params_2018, RoundingMode.DOLLAR)
    # Expected contribution far above the benchmark premium.
    assert ptc_base(ctx, D(64000)) == D(0)


def test_ptc_of_deduction_brooklyn_values(brooklyn_dollar_ctx):
    ctx = brooklyn_dollar_ctx
    # Above four times the poverty line: 71,150 - 5,809 = 65,341 > 64,960.
    assert ptc_of_deduction(ctx, D(5809)) == D(0)
    assert ptc_of_deduction(ctx, D(6208)) == D(4182)
    assert ptc_of_deduction(ctx, D(10390)) == D(4581)


def test_ptc_of_deduction_domain(brooklyn_cent_ctx):
    with pytest.raises(ValueError):
        ptc_of_deduction(brooklyn_cent_ctx, D(-1))
    with pytest.raises(ValueError):
        ptc_of_deduction(brooklyn_cent_ctx, D(10391))


def test_below_poverty_exception(params_2018):
    base = dict(
        poverty_line=D(16240),
        benchmark_premium=D(9000),
        purchased_premium=D(9000),
        income=D(17000),
        tax_year="2018",
        advance_credit=D(1000),
    )
    without = PtcContext(Scenario(**base), params_2018)
    with_exc = PtcContext(Scenario(**base, below_poverty_exception=True), params_2018)
    d = D(3000)  # income 14,000 < F
    assert ptc_of_deduction(without, d) == D(0)
    # With the exception the figure at 100% of the poverty line applies.
    ec = expected_contribution(D(14000), Fraction("0.0201"), RoundingMode.CENT)
    assert ptc_of_deduction(with_exc, d) == D(9000) - ec


@pytest.mark.parametrize(
    "magi,expected",
    [
        (D(85000), D(0)),
        (D(70000), D(2500)),
        (D(77500), D(1250)),  # halfway through the phase-out
        (D(60000), D(2500)),
        (D(90000), D(0)),
    ],
)
def test_student_loan_deduction(magi, expected):
    assert student_loan_deduction(D(2500), magi) == expected


def test_student_loan_monotone_nonincreasing():
    cap = D(2500)
    prev = student_loan_deduction(cap, D(69000))
    for dollars in range(69001, 86001, 13):
        cur = student_loan_deduction(cap, D(dollars))
        assert cur <= prev
        prev = cur


def test_chained_mode_never_decreases_credit(params_2019):
    # $1-step scan: raising the deduction recomputes the student-loan
    # phase-out, and the credit must still be nondecreasing.
    sc = Scenario(
        poverty_line=D(20000),
        benchmark_premium=D(9000),
        purchased_premium=D(9000),
        income=D(78000),
        tax_year="2019",
        student_loan_cap=D(2500),
    )
    ctx = PtcContext(sc, params_2019)
    credit = ctx.credit_cents
    values = [credit(dc) for dc in range(0, sc.billed_balance.cents + 1, 100)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] > 0


@pytest.mark.parametrize("cap_c", [1, 99_997, 249_997, 250_001])
def test_kernel_chained_income_matches_reference(params_2018, cap_c):
    # The kernel's student-loan phase-out in integer cents against the
    # Money/Fraction composition, with odd-cent caps: on both phase-out
    # ends and one cent either side, at the exact tie (share ending in
    # half a cent) and where rounding the share half away from zero and
    # flooring it differ.  Caps prime to the window width hit the tie.
    floor_c, ceil_c = 70_000 * 100, 85_000 * 100
    width = ceil_c - floor_c
    tie = ceil_c - pow(cap_c, -1, width) * (width // 2) % width
    magis = [floor_c - 1, floor_c, floor_c + 1, ceil_c - 1, ceil_c, ceil_c + 1, tie]
    magis += [*range(floor_c + 1, floor_c + 400), *range(ceil_c - 400, ceil_c)]
    sc = Scenario(
        poverty_line=Money(2_500_001),
        benchmark_premium=D(16000),
        purchased_premium=D(16000),
        income=Money(ceil_c + 1_334),  # every deduction below stays in [0, Q]
        other_deductions=Money(1_234),
        tax_year="2018",
        student_loan_cap=Money(cap_c),
    )
    ctx = PtcContext(sc, params_2018)
    rounded_up = 0
    for magi in magis:
        d = sc.effective_income - Money(magi)
        assert chained_income_cents(magi, cap_c) == chained_household_income(ctx, d).cents, magi
        assert ptc_of_deduction(ctx, d) == ptc_of_deduction_reference(ctx, d), magi
        if floor_c < magi < ceil_c:
            share = cap_c * (ceil_c - magi)
            rounded_up += div_half_away(share, width) != share // width
    assert (cap_c * (ceil_c - tie)) % width == width // 2
    assert rounded_up > 0


def _random_scenario(rng: random.Random) -> Scenario:
    f = rng.randrange(12000, 50001)
    q = rng.randrange(3000, 30001)
    p = rng.randrange(3000, 30001)
    i = rng.randrange(max(f, q), 6 * f + 1)
    aptc = 0 if rng.random() < 0.5 else rng.randrange(0, q + 1)
    return Scenario(
        # Odd cents put the breakpoint cuts b*F between whole cents and
        # give the dollar-mode rounding of P - contribution work to do.
        poverty_line=Money(100 * f + i % 100),
        benchmark_premium=Money(100 * p + f % 100),
        purchased_premium=D(q),
        income=D(i),
        tax_year="2018",
        advance_credit=D(aptc),
        other_deductions=D(rng.choice((0, 0, 500, 1200))),
        below_poverty_exception=rng.random() < 0.3,
        student_loan_cap=None if rng.random() < 0.7 else D(2500),
    )


@pytest.mark.parametrize("seed", [11, 23])
def test_kernel_matches_reference(seed, params_2018, params_2019):
    # The integer-cents kernel and the step-by-step Fraction composition
    # must agree exactly, in both rounding modes and under both bundled
    # tables, across the full domain and wherever chained income sits on a
    # breakpoint cut or one cent to either side of it.
    rng = random.Random(seed)
    for _ in range(40):
        sc = _random_scenario(rng)
        upper = sc.billed_balance.cents
        probe = PtcContext(sc, params_2018)
        near_cuts = []
        for beta in BREAKPOINTS:
            cut = Money(math.ceil(beta * sc.poverty_line.cents))
            on_cut = max_deduction_for_income_floor(probe, cut).cents
            near_cuts += [dc for dc in (on_cut - 1, on_cut, on_cut + 1) if 0 <= dc <= upper]
        for mode in (RoundingMode.CENT, RoundingMode.DOLLAR):
            random_points = [rng.randrange(0, upper + 1) for _ in range(60)]
            for params in (params_2018, params_2019):
                ctx = PtcContext(sc, params, mode)
                # The credit is clamped at Q, so g(0) = credit(0) <= Q: the
                # bisection's lower end is always feasible.
                assert ptc_of_deduction(ctx, Money(0)) <= sc.purchased_premium
                for dc in random_points + near_cuts:
                    d = Money(dc)
                    assert ptc_of_deduction(ctx, d) == ptc_of_deduction_reference(ctx, d), (
                        sc, params.year, mode, dc,
                    )


def _reference_by_steps(ctx: PtcContext, deduction: Money) -> Money:
    """The reference credit as the public operations compose it, each with its checks."""
    sc = ctx.scenario
    income = chained_household_income(ctx, deduction)
    if income < Money(0):
        return Money(0)
    m = money_ratio(income, sc.poverty_line)
    if m > BREAKPOINTS[-1] or (m < BREAKPOINTS[0] and not sc.below_poverty_exception):
        return Money(0)
    figure = applicable_figure(m, ctx.params.figure_table)
    contribution = expected_contribution(income, figure, ctx.rounding)
    remainder = round_money((sc.benchmark_premium - contribution).dollars, ctx.rounding)
    return min(sc.purchased_premium, max(Money(0), remainder))


@pytest.mark.parametrize("mode", list(RoundingMode))
def test_reference_matches_step_by_step_composition(mode, params_2018, params_2019):
    # 2,000 seeded (context, deduction) points per mode, a fifth of them on
    # a breakpoint cut or one cent beside it.
    rng = random.Random(26)
    checked = 0
    while checked < 2000:
        sc = _random_scenario(rng)
        ctx = PtcContext(sc, rng.choice((params_2018, params_2019)), mode)
        upper = sc.billed_balance.cents
        cut = math.ceil(rng.choice(BREAKPOINTS) * sc.poverty_line.cents)
        on_cut = max_deduction_for_income_floor(ctx, Money(cut)).cents
        points = [rng.randrange(0, upper + 1) for _ in range(8)] + [on_cut - 1, on_cut]
        for dc in points:
            d = Money(min(max(dc, 0), upper))
            assert ptc_of_deduction_reference(ctx, d) == _reference_by_steps(ctx, d), (sc, mode, d)
            checked += 1


def test_reference_reads_nothing_of_the_integer_kernel(monkeypatch, brooklyn):
    def forbidden(*args):
        raise AssertionError("the reference called the integer kernel")

    monkeypatch.setattr(ptc, "chained_income_cents", forbidden)
    monkeypatch.setattr(ptc, "cent_cuts", forbidden)
    table = FigureTable.from_decimals("0.0201", "0.0302", "0.0403", "0.0634", "0.0810", "0.0956")
    params = TaxYearParams("2018", table, tax_year_params("2018").repayment_table)
    sc = dataclasses.replace(brooklyn, student_loan_cap=D(2500), below_poverty_exception=True)
    for mode in RoundingMode:
        ctx = PtcContext(sc, params, mode)
        credits = [ptc_of_deduction_reference(ctx, D(d)) for d in range(0, 10391, 1000)]
        assert len(set(credits)) > 1
        assert "credit_cents" not in vars(ctx)
    assert "integer_segments" not in vars(table)


@given(dc=st.integers(min_value=0, max_value=1039000))
@settings(max_examples=300)
def test_kernel_matches_reference_brooklyn(brooklyn, dc):
    params = tax_year_params("2018")
    for mode in (RoundingMode.CENT, RoundingMode.DOLLAR):
        ctx = PtcContext(brooklyn, params, mode)
        assert ptc_of_deduction(ctx, Money(dc)) == ptc_of_deduction_reference(ctx, Money(dc))


def test_replaced_context_builds_its_own_kernel(brooklyn_cent_ctx):
    # A $6,208.37 deduction credits $4,181.58 by the cent, $4,182 by the dollar.
    dc = 620837
    assert brooklyn_cent_ctx.credit_cents(dc) == 418158
    dollar_ctx = dataclasses.replace(brooklyn_cent_ctx, rounding=RoundingMode.DOLLAR)
    assert dollar_ctx.credit_cents(dc) == 418200
    assert brooklyn_cent_ctx.credit_cents(dc) == 418158


def test_built_kernel_keeps_equality_and_hash(brooklyn, params_2018):
    built = PtcContext(brooklyn, params_2018)
    assert built.credit_cents is built.credit_cents
    fresh = PtcContext(brooklyn, params_2018)
    assert built == fresh
    assert hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)


def test_credit_capped_by_purchased_premium(params_2018):
    sc = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(30000),
        purchased_premium=D(4000),
        income=D(20000),
        tax_year="2018",
    )
    ctx = PtcContext(sc, params_2018)
    for dollars in range(0, 4001, 250):
        assert ptc_of_deduction(ctx, D(dollars)) <= D(4000)


def test_monotone_in_deduction_where_eligible(brooklyn_cent_ctx):
    credit = brooklyn_cent_ctx.credit_cents
    upper = (71150 - 16240) * 100  # stay at or above the poverty line
    upper = min(upper, 10390 * 100)
    values = [credit(dc) for dc in range(0, upper + 1, 100)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_left_continuity_at_the_jump(brooklyn, params_2018):
    # Deduction at which household income hits exactly 133% of the
    # poverty line; approaching from below changes the credit only
    # marginally, while one cent above it jumps.
    sc = brooklyn.with_income(D(22100))
    ctx = PtcContext(sc, params_2018, RoundingMode.CENT)
    d_star = Money(sc.income.cents - (133 * sc.poverty_line.cents) // 100)
    at = ptc_of_deduction(ctx, d_star)
    diffs = []
    for eps_cents in (1600, 800, 400, 200, 100, 50, 25, 12, 6, 3, 1):
        below = ptc_of_deduction(ctx, d_star - Money(eps_cents))
        diffs.append(abs((at - below).cents))
    # Differences shrink toward zero from the left (within a cent of slack)...
    assert all(a >= b - 1 for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] <= 2
    # ...while the jump from the right stays large.
    above = ptc_of_deduction(ctx, d_star + Money(1))
    assert (above - at).cents > 10000
