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
    InfeasibleAtLowerBound,
    PtcContext,
    RoundingMode,
    Scenario,
    SolveMethod,
    applicable_figure,
    brute_force_max_feasible,
    last_true,
    liminf_deduction,
    optimal_deduction,
    reconcile,
    run_iteration,
    tax_year_params,
    whole_dollar_view,
)
from ptcsolver import bisection
from ptcsolver.iteration import IterationStatus
from ptcsolver.money import Money

D = Money.from_dollars


def test_last_true_identity():
    found, trace = last_true(lambda c: c <= 6000, 0, 10000, 1)
    assert found == 6000  # exact on the cent lattice
    assert trace


def test_last_true_all_true_returns_hi():
    found, trace = last_true(lambda c: c <= 6000, 0, 5000, 1)
    assert found == 5000
    assert trace == ()


def test_last_true_precondition():
    with pytest.raises(InfeasibleAtLowerBound):
        last_true(lambda c: c + 10000 <= 6000, 0, 5000, 1)


@pytest.mark.parametrize("lo,hi,step", [(1, 0, 1), (0, 100, 0), (0, 100, 50)])
def test_last_true_rejects_bad_arguments(lo, hi, step):
    with pytest.raises(ValueError):
        last_true(lambda c: True, lo, hi, step)


def jump_fn(c: int) -> int:
    # Monotone and left-discontinuous from the right: a $10 jump at $50.
    return c if c < 5000 else c + 1000


def test_last_true_jump_function():
    # Independent oracle: exhaustive cent-lattice scan for the largest
    # point with value <= $55.
    oracle = max(c for c in range(0, 10001) if jump_fn(c) <= 5500)
    assert oracle == 5000 - 1
    found, _ = last_true(lambda c: jump_fn(c) <= 5500, 0, 10000, 1)
    assert jump_fn(found) <= 5500
    assert found == oracle


def test_last_true_trace_contracts():
    _, trace = last_true(lambda c: jump_fn(c) <= 5500, 0, 10000, 1)
    for (a1, b1), (a2, b2) in zip(trace, trace[1:]):
        assert a1 <= a2 <= b2 <= b1  # nesting
        assert b2 - a2 <= (b1 - a1) // 2 + 1  # halving, up to rounding
    a_values = [a for a, _ in trace]
    assert a_values == sorted(a_values)
    bound = math.ceil(math.log2(10000 / 1)) + 2
    assert len(trace) - 1 <= bound


def test_last_true_dollar_step():
    # Whole-dollar midpoints (ties away from zero) and a $1 stopping width.
    found, trace = last_true(lambda c: c <= 6050, 0, 10000, 100)
    assert found <= 6050 < found + 100
    assert trace[:3] == ((0, 10000), (5000, 10000), (5000, 7500))
    assert all(a % 100 == 0 and b % 100 == 0 for a, b in trace)
    assert trace[-1][1] - trace[-1][0] <= 100


class _Probe(Exception):
    pass


def _first_midpoint(lo: int, hi: int, step: int) -> int | None:
    def pred(x: int) -> bool:
        if x in (lo, hi):
            return x == lo
        raise _Probe(x)

    try:
        last_true(pred, lo, hi, step)
    except _Probe as probe:
        return probe.args[0]
    return None


@pytest.mark.parametrize("step", [1, 100])
def test_last_true_midpoints_land_strictly_inside(step):
    # Every bracket [lo, hi] with hi - lo <= 450, lo a multiple of step or
    # not, negative or not: rounding the midpoint to a multiple of step
    # never puts it on an end.
    for lo in range(-300, 101):
        for hi in range(lo + 1, lo + 451):
            mid = _first_midpoint(lo, hi, step)
            if hi - lo <= step:
                assert mid is None
            else:
                assert lo < mid < hi and mid % step == 0, (lo, hi)


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


def _boundary_ctx(params) -> PtcContext:
    sc = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(2000),
        purchased_premium=D(2000),
        income=D(60000),
        tax_year="2018",
    )
    return PtcContext(sc, params)


def _ineligible_ctx(params) -> PtcContext:
    sc = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(4000),
        purchased_premium=D(4000),
        income=D(10000),
        tax_year="2018",
    )
    return PtcContext(sc, params)


def test_boundary_case(params_2018):
    # Wealthless premium relative to income: the whole interval is
    # feasible and the search returns its upper end without bisecting.
    solution = optimal_deduction(_boundary_ctx(params_2018))
    assert solution.method is SolveMethod.BOUNDARY_B0
    assert solution.deduction == D(2000)  # b0 = min(Q, I - F)
    assert solution.iterations == 0
    assert solution.certificate.at_boundary


def test_ineligible_below_poverty_line(params_2018):
    solution = optimal_deduction(_ineligible_ctx(params_2018))
    assert solution.method is SolveMethod.INELIGIBLE_FULL_DEDUCTION
    assert solution.deduction == D(4000)  # the full premium
    assert solution.ptc == D(0)


def _branch_contexts(brooklyn, params) -> dict[SolveMethod | str, PtcContext]:
    return {
        "cent": PtcContext(brooklyn, params, RoundingMode.CENT),
        "dollar": PtcContext(brooklyn, params, RoundingMode.DOLLAR),
        SolveMethod.BOUNDARY_B0: _boundary_ctx(params),
        SolveMethod.INELIGIBLE_FULL_DEDUCTION: _ineligible_ctx(params),
    }


@pytest.mark.parametrize(
    "branch", ["cent", "dollar", SolveMethod.BOUNDARY_B0, SolveMethod.INELIGIBLE_FULL_DEDUCTION]
)
def test_trace_is_built_on_read_from_int_brackets(brooklyn, params_2018, branch):
    solution = optimal_deduction(_branch_contexts(brooklyn, params_2018)[branch])
    assert solution.method is (SolveMethod.BISECTION if isinstance(branch, str) else branch)
    assert all(isinstance(c, int) for bracket in solution.brackets for c in bracket)
    assert solution.iterations == max(0, len(solution.brackets) - 1)
    assert "trace" not in vars(solution)  # nothing built before the first read
    trace = solution.trace
    assert trace == tuple((Money(a), Money(b)) for a, b in solution.brackets)
    assert solution.trace is trace  # kept after the first read
    assert bool(trace) is (branch in ("cent", "dollar"))


def test_replace_still_checks_no_double_dipping(brooklyn_cent_ctx):
    solution = optimal_deduction(brooklyn_cent_ctx)
    assert solution.trace  # a kept trace is not carried into the copy
    moved = dataclasses.replace(solution, deduction=solution.deduction - D(1))
    assert moved.brackets == solution.brackets and "trace" not in vars(moved)
    with pytest.raises(ValueError, match="no-double-dipping"):
        dataclasses.replace(solution, deduction=solution.deduction + D(1))


def test_solve_builds_money_independent_of_steps(monkeypatch, brooklyn, params_2018):
    # Money is built for the returned values only, never per bracket.
    contexts = _branch_contexts(brooklyn, params_2018)
    built = []
    real = Money.__post_init__

    def counting(self) -> None:
        built.append(self.cents)
        real(self)

    monkeypatch.setattr(Money, "__post_init__", counting)
    counts = {}
    for branch in ("cent", "dollar", SolveMethod.BOUNDARY_B0):
        built.clear()
        solution = optimal_deduction(contexts[branch])
        # A boundary certificate has no value one dollar above the domain.
        counts[branch] = len(built) - (solution.certificate.value_above is not None)
        if branch == "cent":
            assert len(solution.brackets) == 21
            built.clear()
            solution.trace
            assert len(built) == 42
    assert counts["cent"] == counts["dollar"] == counts[SolveMethod.BOUNDARY_B0]


@pytest.mark.parametrize(
    "branch,extra",
    # Beyond the probes: the credit at d, at d + $1 for the certificate and at
    # whole dollars; boundary and ineligible certificates have no d + $1.
    [
        ("cent", 3),
        ("dollar", 3),
        (SolveMethod.BOUNDARY_B0, 2),
        (SolveMethod.INELIGIBLE_FULL_DEDUCTION, 2),
    ],
)
def test_filed_return_kernel_calls(monkeypatch, brooklyn, params_2018, branch, extra):
    # Only the search probes the kernel: no sampling check rides along.
    ctx = _branch_contexts(brooklyn, params_2018)[branch]
    kernel = ctx.credit_cents
    calls, probes = [], []
    vars(ctx)["credit_cents"] = lambda dc: calls.append(dc) or kernel(dc)

    def counted_last_true(pred, lo, hi, step):
        return last_true(lambda x: probes.append(x) or pred(x), lo, hi, step)

    monkeypatch.setattr(bisection, "last_true", counted_last_true)
    solution = optimal_deduction(ctx)
    reconcile(ctx, solution)
    whole_dollar_view(ctx, solution)
    assert solution.method is (SolveMethod.BISECTION if isinstance(branch, str) else branch)
    assert len(calls) == len(probes) + extra


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
    credit = brooklyn_cent_ctx.credit_cents
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
    credit = brooklyn_cent_ctx.credit_cents
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


@st.composite
def _small_premium_scenarios(draw) -> Scenario:
    # Q at $3,000 or less keeps the cent-lattice oracle short.  Income sits
    # near a breakpoint multiple of the poverty line or inside the
    # student-loan phase-out window, where the credit jumps or bends, and
    # the benchmark premium near the expected contribution there, so the
    # credit is neither always zero nor always Q.
    year = draw(st.sampled_from(["2018", "2019"]))
    f = draw(st.integers(1_200_000, 5_000_000))
    q = draw(st.integers(100, 300_000))
    d0 = draw(st.sampled_from([0, 0, 50_001]))
    if draw(st.booleans()):
        anchor = math.ceil(draw(st.sampled_from(BREAKPOINTS)) * f)
    else:
        anchor = draw(st.integers(7_000_000, 8_500_000))
    multiple = min(Fraction(anchor, f), BREAKPOINTS[-1])
    contribution = math.ceil(applicable_figure(multiple, tax_year_params(year).figure_table) * anchor)
    return Scenario(
        poverty_line=Money(f),
        benchmark_premium=Money(max(100, contribution + draw(st.integers(-q // 2, 2 * q)))),
        purchased_premium=Money(q),
        income=Money(max(q, anchor + d0 + draw(st.integers(-q, q)))),
        tax_year=year,
        advance_credit=Money(draw(st.sampled_from([0, 0, q // 3, q]))),
        other_deductions=Money(d0),
        below_poverty_exception=draw(st.booleans()),
        student_loan_cap=draw(st.sampled_from([None, Money(250_001), Money(99_997)])),
    )


@given(sc=_small_premium_scenarios(), mode=st.sampled_from(list(RoundingMode)))
@settings(derandomize=True, deadline=None, max_examples=200)
def test_solution_matches_lattice_oracle_over_option_space(sc, mode):
    ctx = PtcContext(sc, tax_year_params(sc.tax_year), mode)
    solution = optimal_deduction(ctx)
    assert solution.certificate.holds()
    if mode is RoundingMode.CENT:
        assert solution.deduction == brute_force_max_feasible(ctx, Money(1))
    else:
        assert abs(solution.deduction - brute_force_max_feasible(ctx, Money(100))) <= D(1)
