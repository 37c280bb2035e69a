"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not calibrated elsewhere.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

from ptcsolver import (
    BREAKPOINTS,
    FigureTable,
    FilingStatus,
    PtcContext,
    RoundingMode,
    Scenario,
    applicable_figure,
    brute_force_max_feasible,
    optimal_deduction,
    ptc_base,
    reconcile,
    repayment_limitation,
    run_iteration,
    scan_divergence,
    tax_year_params,
)
from ptcsolver.analysis import scan_point
from ptcsolver.bisection import search_domain_upper
from ptcsolver.cli import main as cli_main
from ptcsolver.iteration import IterationStatus
from ptcsolver.money import Money
from ptcsolver.params import RepaymentTable, TaxYearParams
from ptcsolver.reconcile import UNLIMITED

D = Money.from_dollars
F = Fraction


def _report(number: int, text: str) -> None:
    print(f"PASS  criterion {number:2d}: {text}")


def _brooklyn() -> Scenario:
    return Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(10390),
        purchased_premium=D(10390),
        income=D(71150),
        tax_year="2018",
    )


def _best_of(fn, runs: int = 5) -> float:
    fn()  # warm caches before timing
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


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
    )


def _even_subsequence_monotone(trace) -> bool:
    evens = [p.deduction for p in trace if p.index % 2 == 0]
    return all(a <= b for a, b in zip(evens, evens[1:]))


def test_criterion_01_brooklyn_divergence_trace():
    ctx = PtcContext(_brooklyn(), tax_year_params("2018"), RoundingMode.DOLLAR)
    outcome = run_iteration(ctx)
    assert outcome.status is IterationStatus.DIVERGED_DO_NOT_USE
    assert [(p.credit, p.deduction) for p in outcome.trace] == [
        (D(0), D(10390)),
        (D(4581), D(5809)),
        (D(0), D(10390)),
    ]
    elapsed = _best_of(lambda: run_iteration(ctx))
    assert elapsed < 0.001, f"iteration took {elapsed * 1000:.3f} ms"
    _report(1, "divergence trace (0,10390)->(4581,5809)->(0,10390), do-not-use, <1ms")


def test_criterion_02_brooklyn_bisection_via_cli(tmp_path, capsys):
    path = tmp_path / "brooklyn.scenario"
    path.write_text("F = 16240\nP = 10390\nQ = 10390\nI = 71150\ntax_year = 2018\n")
    code = cli_main(["solve", str(path), "--mode", "dollar", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["d"] == "6208.00"
    assert payload["ptc"] == "4182.00"
    assert payload["certificate"]["at"] == payload["certificate"]["threshold"] == "10390.00"
    ctx = PtcContext(_brooklyn(), tax_year_params("2018"), RoundingMode.DOLLAR)
    elapsed = _best_of(lambda: optimal_deduction(ctx))
    assert elapsed < 0.001, f"solve took {elapsed * 1000:.3f} ms"
    with capsys.disabled():
        print()
        _report(2, "solve returns d=$6,208, ptc=$4,182, d+ptc=Q exactly, <1ms")


def test_criterion_03_flat_figure_base_credit():
    params = TaxYearParams(
        year="flat",
        figure_table=FigureTable.from_decimals(*["0.09"] * 6),
        repayment_table=RepaymentTable(D(300), D(775), D(1300)),
    )
    sc = Scenario(
        poverty_line=D(12000),
        benchmark_premium=D(6000),
        purchased_premium=D(6000),
        income=D(48000),
        tax_year="flat",
    )
    ctx = PtcContext(sc, params, RoundingMode.DOLLAR)
    assert ptc_base(ctx, D(48000)) == D(1680)
    _report(3, "constant-0.09 table, P=$6,000, M=$48,000 -> base credit $1,680 exactly")


def test_criterion_04_figure_tables():
    expected = {
        "2018": ("0.0201", "0.0302", "0.0403", "0.0634", "0.0810", "0.0956", "0.0956"),
        "2019": ("0.0208", "0.0311", "0.0415", "0.0654", "0.0836", "0.0986", "0.0986"),
    }
    for year, values in expected.items():
        table = tax_year_params(year).figure_table
        for m, want in zip(BREAKPOINTS, values):
            got = applicable_figure(m, table)
            assert got == F(want), (year, m, got)
            assert (got * 10000).denominator == 1
    _report(4, "2018/2019 figure tables exact at m in {1,1.33,1.5,2,2.5,3,4}")


def test_criterion_05_repayment_tables():
    cases = {
        "2018": (D(300), D(775), D(1300)),
        "2019": (D(300), D(800), D(1325)),
    }
    probes = [(F("0.5"), 0), (F(1), 0), (F("1.99"), 0), (F(2), 1), (F("2.5"), 1), (F(3), 2), (F("3.99"), 2)]
    for year, (r, s, t) in cases.items():
        table = tax_year_params(year).repayment_table
        bands = (r, s, t)
        for m, band in probes:
            assert repayment_limitation(m, FilingStatus.SINGLE, table) == bands[band]
            assert repayment_limitation(m, FilingStatus.OTHER, table) == bands[band] * 2
        for m in (F(4), F(6)):
            assert repayment_limitation(m, FilingStatus.SINGLE, table) is UNLIMITED
            assert repayment_limitation(m, FilingStatus.OTHER, table) is UNLIMITED
    _report(5, "repayment limits (300,775,1300)/(300,800,1325), doubling, unlimited at m>=4")


def test_criterion_06_oracle_equivalence_1000():
    params = tax_year_params("2018")
    rng = random.Random(20180962)
    t0 = time.perf_counter()
    worst = Money(0)
    for _ in range(1000):
        sc = _random_scenario(rng)
        ctx = PtcContext(sc, params)
        solution = optimal_deduction(ctx)
        oracle = brute_force_max_feasible(ctx, D(1))
        gap = abs(solution.deduction - oracle)
        worst = max(worst, gap)
        assert gap <= D(1), sc
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"suite took {elapsed:.1f} s"
    _report(6, f"1,000 random scenarios within $1 of the $1-lattice oracle "
               f"(worst {worst}, {elapsed:.1f}s)")


def test_criterion_07_monotonicity_continuity():
    eps = F(1, 10**9)
    for year in ("2018", "2019"):
        table = tax_year_params(year).figure_table
        for beta in BREAKPOINTS[1:-1]:
            assert abs(applicable_figure(beta + eps, table) - applicable_figure(beta, table)) < F(1, 10**6)

    params = tax_year_params("2018")
    rng = random.Random(77077)
    for _ in range(200):
        sc = _random_scenario(rng)
        ctx = PtcContext(sc, params)
        credit = ctx.credit_cents
        upper = search_domain_upper(ctx)
        if upper < Money(0):
            continue
        values = [credit(dc) for dc in range(0, upper.cents + 1, 100)]
        assert all(a <= b for a, b in zip(values, values[1:])), sc
        # g strictly increasing on the credit-eligible range.
        outlays = [dc + v for dc, v in zip(range(0, upper.cents + 1, 100), values)]
        assert all(a < b for a, b in zip(outlays, outlays[1:])), sc
    _report(7, "figure right-continuity at breakpoints; credit nondecreasing and "
               "outlay strictly increasing on 200 scenarios at $1 steps")


def test_criterion_08_divergence_interval():
    params = tax_year_params("2018")
    t0 = time.perf_counter()
    result = scan_divergence(_brooklyn(), D(60000), D(75000), D(50), params)
    elapsed = time.perf_counter() - t0
    spans = result.intervals["irs_diverges"]
    containing = [s for s in spans if s[0] <= D(71150) <= s[1]]
    assert containing, f"no divergence interval contains $71,150: {spans}"
    # Predicted upper breakdown edge: income above which even the
    # maximal eligible deduction cannot satisfy the constraint,
    # 4F + f(4)*4F with the 2018 figure at the top segment.
    four_f = 4 * D(16240)
    predicted = four_f.dollars + F("0.0956") * four_f.dollars
    upper_edge = containing[0][1].dollars
    assert abs(upper_edge - predicted) <= 200, (upper_edge, float(predicted))
    assert elapsed < 10, f"scan took {elapsed:.1f} s"
    _report(8, f"divergence interval {containing[0][0]}..{containing[0][1]} contains "
               f"$71,150; upper edge within $200 of 4F+f(4)*4F (~$71,170); {elapsed:.1f}s")


def test_criterion_09_equation_gap_near_jump():
    params = tax_year_params("2018")
    template = _brooklyn()
    result = scan_divergence(template, D(21800), D(22400), D(10), params)
    gap_records = [r for r in result.records if not r.equation_solvable]
    assert gap_records, "no equation-gap income located near the 1.33 jump"
    record = gap_records[len(gap_records) // 2]
    ctx = PtcContext(template.with_income(record.income), params)
    solution = optimal_deduction(ctx)
    q = ctx.scenario.purchased_premium

    # The constraint misses Q by at least $1 at the optimum...
    assert solution.certificate.value_at <= q - D(1)
    # ...yet the certificate still proves maximality,
    assert solution.certificate.value_above is not None
    assert solution.certificate.value_above > q
    # verified against the full cent-lattice brute force,
    assert solution.deduction == brute_force_max_feasible(ctx, Money(1))
    # and the income sits just over 133% of the poverty line.
    m_at_zero = Fraction(ctx.scenario.income.cents, ctx.scenario.poverty_line.cents)
    assert F("1.33") < m_at_zero < F("1.45")
    # The iteration diverges at that income.
    assert run_iteration(ctx).status is IterationStatus.DIVERGED_DO_NOT_USE
    assert record.irs_status == "diverged"
    _report(9, f"equation gap at income {record.income}: d+PTC(d)=Q unattained "
               "within $1, certificate holds, iteration diverges")


def test_criterion_10_even_subsequence_monotonicity():
    params = tax_year_params("2018")
    checked = 0

    # Criterion 1 trace.
    ctx = PtcContext(_brooklyn(), params, RoundingMode.DOLLAR)
    assert _even_subsequence_monotone(run_iteration(ctx).trace)
    checked += 1

    # Criterion 6 scenario stream (same seed, same scenarios).
    rng = random.Random(20180962)
    for _ in range(1000):
        sc = _random_scenario(rng)
        trace = run_iteration(PtcContext(sc, params)).trace
        assert _even_subsequence_monotone(trace), sc
        checked += 1

    # Criterion 8 grid.
    income = D(60000)
    while income <= D(75000):
        trace = run_iteration(PtcContext(_brooklyn().with_income(income), params)).trace
        assert _even_subsequence_monotone(trace), income
        checked += 1
        income = income + D(50)

    _report(10, f"D2 <= D4 <= D6 <= ... held on all {checked} traces from criteria 1, 6, 8")


def test_criterion_10_odd_subsequence_monotonicity():
    # D1 >= D3 >= D5 >= ... while the deductions stay at or below U, the
    # largest one that keeps the household eligible from below.  Only a
    # clamped start (D1 = U < B) can leave that range; the step after an
    # iterate above U deducts B with no credit, and the run settles there.
    params = tax_year_params("2018")
    rng = random.Random(20180962)
    contexts = [PtcContext(_random_scenario(rng), params) for _ in range(1000)]
    income = D(60000)
    while income <= D(75000):
        contexts.append(PtcContext(_brooklyn().with_income(income), params))
        income = income + D(50)
    left = 0
    for ctx in contexts:
        outcome = run_iteration(ctx)
        upper, billed = search_domain_upper(ctx), ctx.scenario.billed_balance
        deductions = [p.deduction for p in outcome.trace]
        stay = next((k for k, d in enumerate(deductions) if d > upper), len(deductions))
        odds = deductions[:stay:2]
        assert all(a >= b for a, b in zip(odds, odds[1:])), ctx.scenario
        if stay < len(deductions):
            assert outcome.start_clamped and deductions[stay + 1:] == [billed, billed], ctx.scenario
            assert outcome.status is IterationStatus.CONVERGED_IRS_SENSE
            left += 1
    _report(10, f"D1 >= D3 >= D5 >= ... held on all {len(contexts)} traces from criteria 6 and 8 "
                f"while D <= U; {left} clamped starts left [0, U] and settled at B")


def test_criterion_11_reconciliation_bounds():
    params = tax_year_params("2019")
    rng = random.Random(1125)
    checked = 0
    attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000, "could not find enough repayment-branch scenarios"
        f = rng.randrange(12000, 50001)
        pq = rng.randrange(3000, 30001)
        i = rng.randrange(max(f, pq), 6 * f + 1)
        sc = Scenario(
            poverty_line=D(f),
            benchmark_premium=D(pq),
            purchased_premium=D(pq),
            income=D(i),
            tax_year="2019",
            advance_credit=D(rng.randrange(1, pq + 1)),
            filing_status=rng.choice((FilingStatus.SINGLE, FilingStatus.OTHER)),
        )
        ctx = PtcContext(sc, params)
        solution = optimal_deduction(ctx)
        outcome = reconcile(ctx, solution)
        if outcome.total_benefit is None:
            continue  # advance did not exceed the credit
        checked += 1
        assert solution.ptc <= outcome.total_benefit < sc.advance_credit, sc
        assert solution.deduction + outcome.total_benefit <= sc.purchased_premium, sc
    _report(11, f"PTC(D) <= B(D) < APTC and D+B(D) <= Q on {checked} repayment scenarios")
