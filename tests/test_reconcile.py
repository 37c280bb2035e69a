from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ptcsolver import (
    UNLIMITED,
    FilingStatus,
    PtcContext,
    Scenario,
    RoundingMode,
    Unlimited,
    optimal_deduction,
    reconcile,
    repayment_limitation,
    tax_year_params,
)
from ptcsolver.money import Money

D = Money.from_dollars
F = Fraction


@pytest.mark.parametrize(
    "m,status,expected",
    [
        (F("2.5"), FilingStatus.SINGLE, D(800)),  # 2019 middle band
        (F("1.0"), FilingStatus.OTHER, D(600)),  # doubling rule
        (F("0"), FilingStatus.SINGLE, D(300)),
        (F("3.99"), FilingStatus.SINGLE, D(1325)),
    ],
)
def test_repayment_limitation_2019(params_2019, m, status, expected):
    assert repayment_limitation(m, status, params_2019.repayment_table) == expected


@pytest.mark.parametrize(
    "m,expected",
    [
        (F("1.5"), D(300)),
        (F("2.0"), D(775)),
        (F("3.2"), D(1300)),
    ],
)
def test_repayment_limitation_2018(params_2018, m, expected):
    assert repayment_limitation(m, FilingStatus.SINGLE, params_2018.repayment_table) == expected


def test_unlimited_band(params_2018, params_2019):
    for table in (params_2018.repayment_table, params_2019.repayment_table):
        for m in (F(4), F(5), F("4.0001")):
            assert repayment_limitation(m, FilingStatus.SINGLE, table) is UNLIMITED
    with pytest.raises(ValueError):
        repayment_limitation(F(-1), FilingStatus.SINGLE, params_2018.repayment_table)


def test_unlimited_is_inert():
    assert isinstance(UNLIMITED, Unlimited)
    assert repr(UNLIMITED) == "UNLIMITED"
    assert Unlimited() is UNLIMITED  # singleton
    with pytest.raises(TypeError):
        UNLIMITED + D(1)  # no arithmetic by construction
    with pytest.raises(TypeError):
        min(UNLIMITED, D(1))


def test_no_advance_payments(brooklyn_cent_ctx):
    solution = optimal_deduction(brooklyn_cent_ctx)
    outcome = reconcile(brooklyn_cent_ctx, solution)
    assert outcome.additional_credit == solution.ptc
    assert outcome.repayment == D(0)
    assert outcome.total_benefit is None
    assert outcome.limitation is None


def test_additional_credit_when_credit_exceeds_advance(brooklyn, params_2018):
    sc = Scenario(
        poverty_line=brooklyn.poverty_line,
        benchmark_premium=brooklyn.benchmark_premium,
        purchased_premium=brooklyn.purchased_premium,
        income=brooklyn.income,
        tax_year="2018",
        advance_credit=D(3000),
    )
    ctx = PtcContext(sc, params_2018, RoundingMode.DOLLAR)
    solution = optimal_deduction(ctx)
    assert solution.ptc == D(4182)
    outcome = reconcile(ctx, solution)
    assert outcome.additional_credit == D(1182)
    assert outcome.repayment == D(0)


def test_limited_repayment_worked_example(params_2019):
    # Constructed so the solver lands exactly on credit $3,800 with the
    # household at 260% of the poverty line: the $1,200 shortfall is
    # capped by the 2019 single-filer $800 limitation, keeping $4,200.
    sc = Scenario(
        poverty_line=D(20000),
        benchmark_premium=D(8303),
        purchased_premium=D(10000),
        income=D(57000),
        tax_year="2019",
        advance_credit=D(5000),
    )
    ctx = PtcContext(sc, tax_year_params("2019"), RoundingMode.DOLLAR)
    solution = optimal_deduction(ctx)
    assert solution.deduction == D(5000)  # boundary of [0, Q - APTC]
    assert solution.ptc == D(3800)
    outcome = reconcile(ctx, solution)
    assert outcome.repayment == D(800)
    assert outcome.limitation == D(800)
    assert outcome.additional_credit == D(0)
    assert outcome.total_benefit == D(4200)


def test_unlimited_repayment_above_four_times_poverty(params_2018):
    # Income stays above four times the poverty line even after the full
    # deduction: the credit is zero and the whole advance comes back.
    sc = Scenario(
        poverty_line=D(12000),
        benchmark_premium=D(6000),
        purchased_premium=D(6000),
        income=D(100000),
        tax_year="2018",
        advance_credit=D(2500),
    )
    ctx = PtcContext(sc, params_2018)
    solution = optimal_deduction(ctx)
    assert solution.ptc == D(0)
    outcome = reconcile(ctx, solution)
    assert outcome.limitation is UNLIMITED
    assert outcome.repayment == D(2500)
    assert outcome.total_benefit == D(0)


def _random_aptc_scenario(rng: random.Random) -> Scenario:
    f = rng.randrange(12000, 50001)
    pq = rng.randrange(3000, 30001)
    i = rng.randrange(max(f, pq), 6 * f + 1)
    return Scenario(
        poverty_line=D(f),
        benchmark_premium=D(pq),
        purchased_premium=D(pq),
        income=D(i),
        tax_year="2019",
        advance_credit=D(rng.randrange(1, pq + 1)),
        filing_status=rng.choice((FilingStatus.SINGLE, FilingStatus.OTHER)),
        below_poverty_exception=rng.random() < 0.25,
    )


def test_reconciliation_bounds_random(params_2019):
    # Whenever the advance exceeds the credit: the benefit kept is at
    # least the credit, below the advance, and no double dipping survives.
    rng = random.Random(4242)
    checked = 0
    for _ in range(400):
        sc = _random_aptc_scenario(rng)
        ctx = PtcContext(sc, params_2019)
        solution = optimal_deduction(ctx)
        outcome = reconcile(ctx, solution)
        if outcome.total_benefit is None:
            continue
        checked += 1
        assert solution.ptc <= outcome.total_benefit < sc.advance_credit
        assert solution.deduction + outcome.total_benefit <= sc.purchased_premium
    assert checked > 50


def test_optimality_is_reconciliation_stable(params_2019):
    # Larger deductions in the search domain stay infeasible when the
    # kept benefit replaces the raw credit (the kept benefit is at least
    # the credit): checked by a $1-step scan on small scenarios.
    from ptcsolver.bisection import search_domain_upper

    rng = random.Random(99)
    for _ in range(25):
        sc = _random_aptc_scenario(rng)
        ctx = PtcContext(sc, params_2019)
        solution = optimal_deduction(ctx)
        credit = ctx.credit_cents
        upper = search_domain_upper(ctx).cents
        start = solution.deduction.cents + 100
        for dc in range(start, min(upper, start + 5000) + 1, 100):
            assert dc + credit(dc) > sc.purchased_premium.cents
