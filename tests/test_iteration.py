from __future__ import annotations

import dataclasses
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
from ptcsolver.cli import main
from ptcsolver.iteration import IterationOutcome, _simplified, default_start
from ptcsolver.money import Money
from ptcsolver.ptc import ptc_of_deduction
from ptcsolver.scenario import dump_scenario

D = Money.from_dollars


def sup_gap(p: IterationPoint, q: IterationPoint) -> Money:
    """Sup-norm distance between two iterates."""
    return Money(max(abs(p.credit.cents - q.credit.cents), abs(p.deduction.cents - q.deduction.cents)))


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


def test_a_gap_of_exactly_one_dollar_does_not_settle(params_2018):
    ctx = PtcContext(ptc_zero_scenario(), params_2018)
    outcome = run_iteration(ctx, start=IterationPoint(D(0), D(4999), 1))
    assert [p.deduction for p in outcome.trace] == [D(4999), D(5000), D(5000)]
    assert outcome.settled == IterationPoint(D(0), D(5000), 3)


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


def test_liminf(brooklyn, brooklyn_dollar_ctx, params_2018):
    outcome = run_iteration(brooklyn_dollar_ctx)
    assert liminf_deduction(outcome) == D(5809)
    ctx = PtcContext(ptc_zero_scenario(), params_2018)
    settled_outcome = run_iteration(ctx)
    assert liminf_deduction(settled_outcome) == settled_outcome.settled.deduction
    starved = run_iteration(PtcContext(brooklyn.with_income(D(50000)), params_2018), max_iter=2)
    assert starved.status is IterationStatus.BUDGET_EXHAUSTED
    with pytest.raises(ValueError, match="budget was exhausted"):
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
    assert start == (22100 - 16240) * 100
    outcome = run_iteration(ctx)
    assert outcome.start_clamped
    assert_even_subsequence_monotone(outcome.trace)


def test_custom_start_respected(brooklyn_dollar_ctx):
    custom = IterationPoint(D(0), D(8000), 1)
    outcome = run_iteration(brooklyn_dollar_ctx, start=custom)
    assert outcome.trace[0] == custom
    assert not outcome.start_clamped


def _advance_payment_scenario(rng: random.Random) -> Scenario:
    # Odd cents on every amount, and APTC drawn over all of [0, Q].
    f = rng.randrange(1_200_000, 4_500_000)
    q = rng.randrange(50_000, 1_500_000)
    return Scenario(
        poverty_line=Money(f),
        benchmark_premium=Money(max(100, q * rng.randrange(60, 131) // 100)),
        purchased_premium=Money(q),
        income=Money(max(q, f * rng.randrange(70, 450) // 100)),
        tax_year="2018",
        advance_credit=Money(rng.randrange(0, q + 1)),
        other_deductions=Money(rng.choice((0, 0, 123_456))),
        below_poverty_exception=rng.random() < 0.2,
        student_loan_cap=None if rng.random() < 0.8 else Money(180_001),
    )


@pytest.mark.parametrize("mode", list(RoundingMode))
def test_iterates_stay_in_billed_domain_with_advance_payments(mode, params_2018):
    # Every iterate, the simplified method's deduction and the liminf that
    # compare credits lie in [0, Q - APTC], so ptc_of_deduction accepts them.
    rng = random.Random(19)
    for _ in range(2000):
        sc = _advance_payment_scenario(rng)
        ctx = PtcContext(sc, params_2018, mode)
        outcome = run_iteration(ctx)
        billed = sc.billed_balance
        assert all(Money(0) <= p.deduction <= billed for p in outcome.trace), sc
        assert Money(0) <= simplified_method(ctx)[0] <= billed, sc
        if outcome.status is not IterationStatus.BUDGET_EXHAUSTED:
            ptc_of_deduction(ctx, liminf_deduction(outcome))


def test_step_caps_q_minus_credit_at_the_billed_balance(params_2018):
    # The cap at Q - APTC leaves the guidance's map alone when nothing is
    # advanced, and binds with APTC: the reproducer's first step.
    rng = random.Random(5)
    for _ in range(200):
        sc = dataclasses.replace(_advance_payment_scenario(rng), advance_credit=Money(0))
        ctx = PtcContext(sc, params_2018)
        d = Money(rng.randrange(0, sc.purchased_premium.cents + 1))
        nxt = step(ctx, IterationPoint(D(0), d, 1))
        assert nxt.deduction == sc.purchased_premium - nxt.credit
    sc = Scenario(
        poverty_line=D(15706),
        benchmark_premium=D(4001),
        purchased_premium=D(4001),
        income=D(26163),
        tax_year="2018",
        advance_credit=D(3015),
    )
    nxt = step(PtcContext(sc, params_2018), IterationPoint(D(0), D(986), 1))
    assert (nxt.credit, nxt.deduction) == (D("2866.54"), D(986))


@pytest.mark.parametrize("mode", ["cent", "dollar"])
def test_compare_exits_zero_with_advance_payments(mode, tmp_path, capsys):
    rng = random.Random(41)
    path = tmp_path / "aptc.scenario"
    for _ in range(15):
        sc = _advance_payment_scenario(rng)
        path.write_text(dump_scenario(sc), encoding="utf-8")
        assert main(["compare", str(path), "--mode", mode]) == 0, sc
    capsys.readouterr()


def test_outcome_checks_converged_and_diverged_fields():
    with pytest.raises(ValueError, match="settled point"):
        IterationOutcome(IterationStatus.CONVERGED_IRS_SENSE, ((0, 500_000), (0, 500_000)))
    with pytest.raises(ValueError, match="liminf"):
        IterationOutcome(IterationStatus.DIVERGED_DO_NOT_USE, ((0, 500_000), (400, 100), (0, 500_000)))


def reference_run(ctx: PtcContext, start: IterationPoint, max_iter: int):
    """The generic detector: a gap under $1, or a revisit of any earlier state."""
    trace = [start]
    seen = {(start.credit, start.deduction): 0}
    for _ in range(max_iter):
        nxt = step(ctx, trace[-1])
        trace.append(nxt)
        if sup_gap(nxt, trace[-2]) < D(1):
            return IterationStatus.CONVERGED_IRS_SENSE, tuple(trace), nxt, None, nxt.deduction
        state = (nxt.credit, nxt.deduction)
        if state in seen:
            cycle = tuple(trace[seen[state]:-1])
            return IterationStatus.DIVERGED_DO_NOT_USE, tuple(trace), None, cycle, min(p.deduction for p in cycle)
        seen[state] = len(trace) - 1
    return IterationStatus.BUDGET_EXHAUSTED, tuple(trace), None, None, None


def assert_matches_reference(ctx: PtcContext, start: IterationPoint | None = None, max_iter: int = 500):
    outcome = run_iteration(ctx, start, max_iter)
    if start is None:
        d, clamped = default_start(ctx)
        start = IterationPoint(D(0), Money(d), 1)
        assert outcome.start_clamped == clamped
        second = step(ctx, start)
        assert _simplified(ctx, outcome.pairs) == simplified_method(ctx) == (
            second.deduction, step(ctx, second).credit)
    status, trace, settled, cycle, liminf = reference_run(ctx, start, max_iter)
    assert outcome.status is status
    assert outcome.trace == trace
    assert outcome.pairs == tuple((p.credit.cents, p.deduction.cents) for p in trace)
    assert outcome.settled == settled
    assert (outcome.cycle and outcome.cycle.points) == cycle
    assert outcome.cycle is None or outcome.cycle.period == len(cycle) == 2
    assert outcome.liminf_d == liminf
    return outcome


@pytest.mark.parametrize("mode", list(RoundingMode))
def test_two_back_detector_matches_reference_on_seeded_scenarios(mode, params_2018):
    # APTC over all of [0, Q], d0, student-loan caps and the exception, from
    # the default start (clamped or not), a custom start and short budgets.
    rng = random.Random(20)
    statuses = {s: 0 for s in IterationStatus}
    clamped = custom = 0
    for _ in range(2000):
        sc = _advance_payment_scenario(rng)
        if rng.random() < 0.3:  # deductions in [0, B] straddle the 4F cliff, with credit below it
            cliff = 4 * sc.poverty_line.cents + sc.other_deductions.cents
            sc = dataclasses.replace(sc, income=Money(cliff + rng.randrange(sc.billed_balance.cents + 1)),
                                     benchmark_premium=Money(sc.poverty_line.cents // 2))
        ctx = PtcContext(sc, params_2018, mode)
        budget = rng.choice((2, 3, 500, 500, 500, 500, 500, 500, 500, 500))
        outcome = assert_matches_reference(ctx, max_iter=budget)
        statuses[outcome.status] += 1
        clamped += outcome.start_clamped
        if rng.random() < 0.25:
            q, billed = sc.purchased_premium.cents, sc.billed_balance.cents
            start = IterationPoint(Money(rng.randrange(q + 1)), Money(rng.randrange(billed + 1)), rng.randrange(1, 6))
            assert_matches_reference(ctx, start, budget)
            custom += 1
    assert min(statuses.values()) > 50 and clamped > 50 and custom > 300, (statuses, clamped, custom)


@pytest.mark.parametrize("mode", list(RoundingMode))
def test_two_back_detector_matches_reference_on_criterion_grids(mode, brooklyn, params_2018):
    for lo, hi, grid in ((60000, 75000, 50), (21800, 22400, 10)):
        for income in range(lo, hi + 1, grid):
            assert_matches_reference(PtcContext(brooklyn.with_income(D(income)), params_2018, mode))


def test_dollar_mode_credit_never_exceeds_the_premium(params_2018):
    # The kernel clamps the credit at Q; rounding it to whole dollars must
    # not carry it past a Q with 50 or more cents.
    rng = random.Random(27)
    at_q = 0
    for _ in range(2000):
        sc = _advance_payment_scenario(rng)
        ctx = PtcContext(sc, params_2018, RoundingMode.DOLLAR)
        q = sc.purchased_premium
        credits = [p.credit for p in run_iteration(ctx).trace]
        assert max(credits) <= q and simplified_method(ctx)[1] <= q, sc
        at_q += q in credits and q.cents % 100 >= 50
    assert at_q > 20, at_q
