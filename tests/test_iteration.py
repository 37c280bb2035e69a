from __future__ import annotations

import random

import pytest

from ptcsolver import (
    IterationPoint,
    IterationStatus,
    PtcContext,
    RoundingMode,
    Scenario,
    liminf_deduction,
    run_iteration,
    simplified_method,
    step,
)
from ptcsolver.iteration import default_start, sup_gap
from ptcsolver.money import Money

D = Money.from_dollars


def even_deductions(trace) -> list[Money]:
    return [p.deduction for p in trace if p.index % 2 == 0]


def assert_even_subsequence_monotone(trace) -> None:
    evens = even_deductions(trace)
    assert all(a <= b for a, b in zip(evens, evens[1:])), [str(d) for d in evens]


def ptc_zero_scenario() -> Scenario:
    # Income so high that every feasible deduction leaves it above four
    # times the poverty line: the credit is identically zero.
    return Scenario(
        poverty_line=D(12000),
        benchmark_premium=D(5000),
        purchased_premium=D(5000),
        income=D(200000),
        tax_year="2018",
    )


def test_step_brooklyn(brooklyn_dollar_ctx):
    p1 = IterationPoint(D(0), D(10390), 1)
    p2 = step(brooklyn_dollar_ctx, p1)
    assert (p2.credit, p2.deduction, p2.index) == (D(4581), D(5809), 2)
    p3 = step(brooklyn_dollar_ctx, p2)
    assert (p3.credit, p3.deduction, p3.index) == (D(0), D(10390), 3)


def test_step_fixed_point_when_credit_zero(params_2018):
    ctx = PtcContext(ptc_zero_scenario(), params_2018, RoundingMode.DOLLAR)
    p = IterationPoint(D(0), D(5000), 1)
    nxt = step(ctx, p)
    assert (nxt.credit, nxt.deduction) == (D(0), D(5000))


def test_brooklyn_divergence_trace(brooklyn_dollar_ctx):
    outcome = run_iteration(brooklyn_dollar_ctx)
    assert outcome.status is IterationStatus.DIVERGED_DO_NOT_USE
    got = [(p.credit, p.deduction) for p in outcome.trace]
    assert got == [
        (D(0), D(10390)),
        (D(4581), D(5809)),
        (D(0), D(10390)),
    ]
    assert outcome.cycle is not None
    assert outcome.cycle.period == 2
    assert {(p.credit, p.deduction) for p in outcome.cycle.points} == {
        (D(0), D(10390)),
        (D(4581), D(5809)),
    }
    assert outcome.liminf_d == D(5809)
    assert not outcome.start_clamped
    assert_even_subsequence_monotone(outcome.trace)


def test_brooklyn_diverges_in_cent_mode_too(brooklyn_cent_ctx):
    outcome = run_iteration(brooklyn_cent_ctx)
    assert outcome.status is IterationStatus.DIVERGED_DO_NOT_USE


def test_credit_zero_converges_in_one_step(params_2018):
    ctx = PtcContext(ptc_zero_scenario(), params_2018)
    outcome = run_iteration(ctx)
    assert outcome.status is IterationStatus.CONVERGED_IRS_SENSE
    assert outcome.settled is not None
    assert (outcome.settled.credit, outcome.settled.deduction) == (D(0), D(5000))
    assert len(outcome.trace) == 2


def test_convergent_brooklyn_variant(brooklyn, params_2018):
    ctx = PtcContext(brooklyn.with_income(D(50000)), params_2018)
    outcome = run_iteration(ctx)
    assert outcome.status is IterationStatus.CONVERGED_IRS_SENSE
    settled = outcome.settled
    assert settled is not None
    # The settled point nearly attains the constraint with equality.
    credit = ctx.credit_cents
    residual = abs(settled.deduction.cents + credit(settled.deduction.cents) - 1039000)
    assert residual < 100
    # Fixed-point consistency: one more application moves it less than $1.
    assert sup_gap(step(ctx, settled), settled) < D(1)
    assert_even_subsequence_monotone(outcome.trace)


def test_divergence_iff_no_close_successive_pair(brooklyn, params_2018):
    # The do-not-use condition must match the trace: diverged exactly when
    # no successive pair ever came within $1 before the revisit.
    rng = random.Random(7)
    for _ in range(50):
        income = D(rng.randrange(10390, 90001))
        ctx = PtcContext(brooklyn.with_income(income), params_2018)
        outcome = run_iteration(ctx)
        gaps = [
            sup_gap(a, b) for a, b in zip(outcome.trace, outcome.trace[1:])
        ]
        if outcome.status is IterationStatus.DIVERGED_DO_NOT_USE:
            assert all(g >= D(1) for g in gaps)
        elif outcome.status is IterationStatus.CONVERGED_IRS_SENSE:
            assert gaps[-1] < D(1)
            assert all(g >= D(1) for g in gaps[:-1])
        assert_even_subsequence_monotone(outcome.trace)


def test_determinism(brooklyn_dollar_ctx):
    first = run_iteration(brooklyn_dollar_ctx)
    second = run_iteration(brooklyn_dollar_ctx)
    assert first == second


def test_simplified_method_brooklyn(brooklyn_dollar_ctx):
    assert simplified_method(brooklyn_dollar_ctx) == (D(5809), D(0))


def test_simplified_method_credit_zero(params_2018):
    ctx = PtcContext(ptc_zero_scenario(), params_2018)
    assert simplified_method(ctx) == (D(5000), D(0))


def test_simplified_method_convergent_case(brooklyn, params_2018):
    ctx = PtcContext(brooklyn.with_income(D(50000)), params_2018)
    d2, c3 = simplified_method(ctx)
    credit = ctx.credit_cents
    assert c3 == Money(credit(d2.cents))


def test_liminf(brooklyn_dollar_ctx, params_2018):
    outcome = run_iteration(brooklyn_dollar_ctx)
    assert liminf_deduction(outcome) == D(5809)
    ctx = PtcContext(ptc_zero_scenario(), params_2018)
    settled_outcome = run_iteration(ctx)
    assert liminf_deduction(settled_outcome) == settled_outcome.settled.deduction
    starved = run_iteration(brooklyn_dollar_ctx, max_iter=2)
    if starved.status is IterationStatus.BUDGET_EXHAUSTED:
        with pytest.raises(ValueError):
            liminf_deduction(starved)


def test_budget_exhausted_is_not_silent(brooklyn, params_2018):
    # A two-step budget cannot settle the convergent variant, whose orbit
    # contracts geometrically but needs several steps to close within $1.
    ctx = PtcContext(brooklyn.with_income(D(50000)), params_2018)
    outcome = run_iteration(ctx, max_iter=2)
    assert outcome.status is IterationStatus.BUDGET_EXHAUSTED
    assert outcome.settled is None and outcome.cycle is None
    with pytest.raises(ValueError):
        run_iteration(ctx, max_iter=1)


def test_start_clamped_for_low_income(brooklyn, params_2018):
    # Income low enough that deducting the whole premium would drop the
    # household below the poverty line: the start is clamped to I - F.
    sc = brooklyn.with_income(D(22100))
    ctx = PtcContext(sc, params_2018)
    start, clamped = default_start(ctx)
    assert clamped
    assert start.deduction == D(22100 - 16240)
    outcome = run_iteration(ctx)
    assert outcome.start_clamped
    assert_even_subsequence_monotone(outcome.trace)


def test_custom_start_respected(brooklyn_dollar_ctx):
    custom = IterationPoint(D(0), D(8000), 1)
    outcome = run_iteration(brooklyn_dollar_ctx, start=custom)
    assert outcome.trace[0] == custom
    assert not outcome.start_clamped
