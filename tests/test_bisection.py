from __future__ import annotations

import math
import random

import pytest

from ptcsolver import (
    InfeasibleAtLowerBound,
    PtcContext,
    RoundingMode,
    Scenario,
    SolveMethod,
    ThresholdProblem,
    brute_force_max_feasible,
    liminf_deduction,
    optimal_deduction,
    run_iteration,
    threshold_search,
    whole_dollar_view,
)
from ptcsolver.iteration import IterationStatus
from ptcsolver.money import Money
from ptcsolver.ptc import credit_cents_fn

D = Money.from_dollars


def test_threshold_search_identity():
    problem = ThresholdProblem(
        fn=lambda d: d,
        lo=D(0),
        hi=D(100),
        threshold=D(60),
        tolerance=Money(1),
        midpoint_rounding=RoundingMode.CENT,
    )
    found, trace = threshold_search(problem)
    assert abs(found - D(60)) <= Money(1)
    assert found <= D(60)
    assert trace


def test_threshold_search_all_feasible_returns_hi():
    problem = ThresholdProblem(fn=lambda d: d, lo=D(0), hi=D(50), threshold=D(60))
    found, trace = threshold_search(problem)
    assert found == D(50)
    assert trace == ()


def test_threshold_search_precondition():
    problem = ThresholdProblem(fn=lambda d: d + D(100), lo=D(0), hi=D(50), threshold=D(60))
    with pytest.raises(InfeasibleAtLowerBound):
        threshold_search(problem)


def jump_fn(d: Money) -> Money:
    # Monotone and left-discontinuous from the right: a $10 jump at $50.
    return d if d < D(50) else d + D(10)


def test_threshold_search_jump_function():
    # Independent oracle: exhaustive cent-lattice scan for the largest
    # point with value <= $55.
    oracle = max(
        Money(c) for c in range(0, 10001) if jump_fn(Money(c)) <= D(55)
    )
    assert oracle == D(50) - Money(1)
    problem = ThresholdProblem(
        fn=jump_fn, lo=D(0), hi=D(100), threshold=D(55), tolerance=Money(1)
    )
    found, _ = threshold_search(problem)
    assert jump_fn(found) <= D(55)
    assert abs(found - oracle) <= Money(1)


def test_threshold_search_trace_contracts():
    problem = ThresholdProblem(
        fn=jump_fn, lo=D(0), hi=D(100), threshold=D(55), tolerance=Money(1)
    )
    _, trace = threshold_search(problem)
    for (a1, b1), (a2, b2) in zip(trace, trace[1:]):
        assert a1 <= a2 <= b2 <= b1  # nesting
        assert (b2 - a2).cents <= (b1 - a1).cents // 2 + 1  # halving, up to rounding
    a_values = [a for a, _ in trace]
    assert a_values == sorted(a_values)
    bound = math.ceil(math.log2((D(100) - D(0)).cents / problem.tolerance.cents)) + 2
    assert len(trace) - 1 <= bound


def test_brooklyn_paper_mode(brooklyn_dollar_ctx):
    solution = optimal_deduction(brooklyn_dollar_ctx)
    assert solution.deduction == D(6208)
    assert solution.ptc == D(4182)
    assert solution.method is SolveMethod.BISECTION
    assert solution.deduction + solution.ptc == D(10390)  # attains Q exactly
    assert solution.certificate.value_at == D(10390)
    assert solution.certificate.value_above is not None
    assert solution.certificate.value_above > D(10390)
    assert solution.certificate.holds()
    assert solution.iterations > 12  # "more than a dozen" halvings
    bound = math.ceil(math.log2(1039000 / 100)) + 2
    assert solution.iterations <= bound
    # The bracket sequence of the worked example, as demos/03 prints it.
    assert solution.trace == tuple(
        (D(a), D(b))
        for a, b in (
            (0, 10390), (5195, 10390), (5195, 7793), (5195, 6494), (5845, 6494),
            (6170, 6494), (6170, 6332), (6170, 6251), (6170, 6211), (6191, 6211),
            (6201, 6211), (6206, 6211), (6206, 6209), (6208, 6209),
        )
    )


def test_brooklyn_cent_mode_matches_oracle(brooklyn_cent_ctx):
    solution = optimal_deduction(brooklyn_cent_ctx)
    oracle = brute_force_max_feasible(brooklyn_cent_ctx, Money(100))
    assert abs(solution.deduction - oracle) <= D(1)
    assert solution.certificate.holds()


def test_brooklyn_improves_on_simplified(brooklyn_dollar_ctx):
    solution = optimal_deduction(brooklyn_dollar_ctx)
    outcome = run_iteration(brooklyn_dollar_ctx)
    assert solution.ptc == D(4182)  # versus $0 from the simplified method
    assert solution.deduction >= liminf_deduction(outcome)


def test_boundary_case(params_2018):
    # Wealthless premium relative to income: the whole interval is
    # feasible and the search returns its upper end without bisecting.
    sc = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(2000),
        purchased_premium=D(2000),
        income=D(60000),
        tax_year="2018",
    )
    ctx = PtcContext(sc, params_2018)
    solution = optimal_deduction(ctx)
    assert solution.method is SolveMethod.BOUNDARY_B0
    assert solution.deduction == D(2000)  # b0 = min(Q, I - F)
    assert solution.iterations == 0
    assert solution.certificate.at_boundary


def test_ineligible_below_poverty_line(params_2018):
    sc = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(4000),
        purchased_premium=D(4000),
        income=D(10000),
        tax_year="2018",
    )
    solution = optimal_deduction(PtcContext(sc, params_2018))
    assert solution.method is SolveMethod.INELIGIBLE_FULL_DEDUCTION
    assert solution.deduction == D(4000)  # the full premium
    assert solution.ptc == D(0)


def test_aptc_equal_to_premium(params_2018, brooklyn):
    sc = Scenario(
        poverty_line=brooklyn.poverty_line,
        benchmark_premium=brooklyn.benchmark_premium,
        purchased_premium=brooklyn.purchased_premium,
        income=brooklyn.income,
        tax_year="2018",
        advance_credit=brooklyn.purchased_premium,
    )
    solution = optimal_deduction(PtcContext(sc, params_2018))
    assert solution.method is SolveMethod.BOUNDARY_B0
    assert solution.deduction == D(0)


@pytest.mark.parametrize("aptc,max_d", [(2000, 8390), (10000, 390)])
def test_brooklyn_with_advance_payments(brooklyn, params_2018, aptc, max_d):
    sc = Scenario(
        poverty_line=brooklyn.poverty_line,
        benchmark_premium=brooklyn.benchmark_premium,
        purchased_premium=brooklyn.purchased_premium,
        income=brooklyn.income,
        tax_year="2018",
        advance_credit=D(aptc),
    )
    ctx = PtcContext(sc, params_2018)
    solution = optimal_deduction(ctx)
    assert solution.deduction <= D(max_d)
    oracle = brute_force_max_feasible(ctx, Money(100))
    assert abs(solution.deduction - oracle) <= D(1)
    assert solution.certificate.holds()


def test_aptc_leaves_unconstrained_optimum_alone(brooklyn, params_2018):
    # With $2,000 advanced, the bound shrinks to $8,390 but the paper-mode
    # optimum of $6,208 still fits inside it.
    sc = Scenario(
        poverty_line=brooklyn.poverty_line,
        benchmark_premium=brooklyn.benchmark_premium,
        purchased_premium=brooklyn.purchased_premium,
        income=brooklyn.income,
        tax_year="2018",
        advance_credit=D(2000),
    )
    solution = optimal_deduction(PtcContext(sc, params_2018, RoundingMode.DOLLAR))
    assert solution.deduction == D(6208)
    assert solution.ptc == D(4182)


def test_certificate_values_recomputed(brooklyn_cent_ctx):
    solution = optimal_deduction(brooklyn_cent_ctx)
    credit = credit_cents_fn(brooklyn_cent_ctx)
    d = solution.deduction
    assert solution.certificate.value_at == d + Money(credit(d.cents))
    above = d + D(1)
    assert solution.certificate.value_above == above + Money(credit(above.cents))


def test_equation_gap_certificate(brooklyn, params_2018):
    # Near 133% of the poverty line the constraint d + credit(d) = Q can
    # be unattainable; the solution must still be certified maximal.
    ctx = PtcContext(brooklyn.with_income(D(22100)), params_2018)
    solution = optimal_deduction(ctx)
    q = D(10390)
    assert solution.certificate.value_at < q - D(1)  # gap: equality unattained
    assert solution.certificate.value_above is not None
    assert solution.certificate.value_above > q
    oracle = brute_force_max_feasible(ctx, Money(1))  # cent lattice
    assert solution.deduction == oracle


def test_whole_dollar_view(brooklyn_cent_ctx):
    solution = optimal_deduction(brooklyn_cent_ctx)
    d, ptc = whole_dollar_view(brooklyn_cent_ctx, solution)
    assert d.cents % 100 == 0
    assert d <= solution.deduction < d + D(1)
    credit = credit_cents_fn(brooklyn_cent_ctx)
    assert d + Money(credit(d.cents)) <= D(10390)
    assert ptc == Money(credit(d.cents))


def _random_scenario(rng: random.Random) -> Scenario:
    f = rng.randrange(12000, 50001)
    pq = rng.randrange(3000, 30001)
    i = rng.randrange(max(f, pq), 6 * f + 1)
    aptc = 0 if rng.random() < 0.5 else rng.randrange(0, pq + 1)
    return Scenario(
        poverty_line=D(f),
        benchmark_premium=D(pq),
        purchased_premium=D(pq),
        income=D(i),
        tax_year="2018",
        advance_credit=D(aptc),
        below_poverty_exception=rng.random() < 0.25,
    )


def test_oracle_equivalence_sample(params_2018):
    rng = random.Random(2024)
    for _ in range(150):
        sc = _random_scenario(rng)
        ctx = PtcContext(sc, params_2018)
        solution = optimal_deduction(ctx)
        oracle = brute_force_max_feasible(ctx, Money(100))
        assert abs(solution.deduction - oracle) <= D(1), sc
        assert solution.deduction + solution.ptc <= sc.purchased_premium


def test_solution_dominates_iteration_outcomes(params_2018):
    rng = random.Random(77)
    for _ in range(60):
        sc = _random_scenario(rng)
        ctx = PtcContext(sc, params_2018)
        solution = optimal_deduction(ctx)
        outcome = run_iteration(ctx)
        if outcome.status is IterationStatus.BUDGET_EXHAUSTED:
            continue
        assert solution.deduction >= liminf_deduction(outcome) - D(1)
