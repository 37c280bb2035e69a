from __future__ import annotations

import io

import pytest

from ptcsolver import (
    PtcContext,
    RoundingMode,
    Scenario,
    brute_force_max_feasible,
    scan_divergence,
    scan_records,
    summarize_intervals,
    write_csv,
)
from ptcsolver.analysis import CSV_HEADER, ScanRecord, record_csv_row, scan_point
from ptcsolver.money import Money

D = Money.from_dollars


def test_oracle_brooklyn(brooklyn_dollar_ctx, brooklyn_cent_ctx):
    assert brute_force_max_feasible(brooklyn_dollar_ctx, D(1)) == D(6208)
    assert brute_force_max_feasible(brooklyn_cent_ctx, D(1)) == D(6208)


def test_oracle_credit_zero_scenario(params_2018):
    sc = Scenario(
        poverty_line=D(12000),
        benchmark_premium=D(5000),
        purchased_premium=D(5000),
        income=D(200000),
        tax_year="2018",
    )
    ctx = PtcContext(sc, params_2018)
    # Constraint reduces to d <= Q: the whole domain is feasible.
    assert brute_force_max_feasible(ctx, D(1)) == D(5000)


def test_oracle_step_validation(brooklyn_cent_ctx):
    with pytest.raises(ValueError):
        brute_force_max_feasible(brooklyn_cent_ctx, D(5))


def test_oracle_includes_fractional_upper(params_2018):
    # The domain's upper end I - F carries cents and is feasible here
    # (cheap benchmark, so the credit is small): the oracle must probe it
    # even though it is off the $1 lattice.
    sc = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(3000),
        purchased_premium=D(18000),
        income=D("18240.50"),
        tax_year="2018",
    )
    ctx = PtcContext(sc, params_2018)
    assert brute_force_max_feasible(ctx, D(1)) == D("2000.50")


def test_scan_point_brooklyn_dollar(brooklyn, params_2018):
    record = scan_point(brooklyn, D(71150), params_2018, RoundingMode.DOLLAR)
    assert record.irs_status == "diverged"
    assert record.simplified_ptc == D(0)
    assert record.bisection_ptc == D(4182)
    assert record.bisection_d == D(6208)
    assert record.benefit_gap == D(4182)
    assert record.equation_solvable  # d + credit(d) lands on Q exactly
    assert abs(record.bisection_d - record.oracle_d) <= D(1)


def test_scan_records_ordering_and_determinism(brooklyn, params_2018):
    args = (brooklyn, D(70000), D(72000), D(500), params_2018)
    first = list(scan_records(*args))
    second = list(scan_records(*args))
    assert first == second
    incomes = [r.income for r in first]
    assert incomes == sorted(incomes)
    assert incomes[0] == D(70000) and incomes[-1] == D(72000)
    out1, out2 = io.StringIO(), io.StringIO()
    write_csv(first, out1)
    write_csv(second, out2)
    assert out1.getvalue() == out2.getvalue()


def test_scan_far_above_eligibility(params_2018):
    template = Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(10390),
        purchased_premium=D(10390),
        income=D(100000),
        tax_year="2018",
    )
    # Everything above 4F + Q + F: credit identically zero, iteration fixed.
    records = list(scan_records(template, D(95000), D(98000), D(1000), params_2018))
    assert all(r.irs_status == "converged" for r in records)
    assert all(r.bisection_ptc == D(0) for r in records)
    assert all(r.simplified_ptc == D(0) for r in records)
    assert all(r.equation_solvable for r in records)


def test_single_point_range(brooklyn, params_2018):
    records = list(scan_records(brooklyn, D(71150), D(71150), D(100), params_2018))
    assert len(records) == 1
    assert records[0].income == D(71150)


def test_failures_recorded_not_raised(brooklyn, params_2018):
    # Grid incomes below the purchased premium are invalid scenarios; the
    # sweep must record and continue.
    result = scan_divergence(brooklyn, D(10000), D(12000), D(1000), params_2018)
    failed_incomes = [income for income, _ in result.failures]
    assert D(10000) in failed_incomes
    assert any(r.income == D(11000) for r in result.records)


def test_point_errors_other_than_validation_propagate(brooklyn, params_2018, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken iteration")

    monkeypatch.setattr("ptcsolver.analysis.run_iteration", broken)
    skipped = []
    points = scan_records(
        brooklyn, D(71050), D(71250), D(50), params_2018,
        on_error=lambda income, exc: skipped.append(income),
    )
    with pytest.raises(RuntimeError, match="broken iteration"):
        list(points)
    assert skipped == []


def _record(income, status="converged", solvable=True, gap=0):
    return ScanRecord(
        income=D(income),
        irs_status=status,
        simplified_ptc=D(0),
        bisection_ptc=D(gap),
        bisection_d=D(0),
        oracle_d=D(0),
        equation_solvable=solvable,
        benefit_gap=D(gap),
    )


def test_summarize_intervals_merging():
    records = [
        _record(100),
        _record(150, status="diverged", gap=10),
        _record(200, status="diverged", gap=10),
        _record(250),
        _record(300, status="diverged", gap=0),  # harmless divergence: excluded
        _record(350, solvable=False),
        _record(400, solvable=False),
    ]
    intervals = summarize_intervals(records)
    assert intervals["irs_diverges"] == [(D(150), D(200))]
    assert intervals["equation_gap"] == [(D(350), D(400))]


def test_summarize_open_interval_at_range_end():
    records = [_record(100, status="diverged", gap=5), _record(150, status="diverged", gap=5)]
    intervals = summarize_intervals(records)
    assert intervals["irs_diverges"] == [(D(100), D(150))]


def test_csv_rendering():
    record = _record(22100, status="diverged", solvable=False, gap=4182)
    row = record_csv_row(record)
    assert row == "22100,diverged,0,4182,0,0,false,4182"
    row_cents = record_csv_row(record, cents=True)
    assert row_cents == "22100.00,diverged,0.00,4182.00,0.00,0.00,false,4182.00"
    out = io.StringIO()
    write_csv([record], out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == row


def test_refine_sharpens_edges(brooklyn, params_2018):
    coarse = scan_divergence(brooklyn, D(70000), D(72000), D(500), params_2018)
    refined = scan_divergence(brooklyn, D(70000), D(72000), D(500), params_2018, refine=True)
    assert coarse.intervals["irs_diverges"], "expected a divergence interval in range"
    (c_lo, c_hi), (r_lo, r_hi) = coarse.intervals["irs_diverges"][0], refined.intervals["irs_diverges"][0]
    # Refined edges stay within one grid step of the coarse ones and mark
    # a genuine classification flip at $1 resolution.
    assert c_lo - D(500) <= r_lo <= c_lo
    assert c_hi <= r_hi <= c_hi + D(500)
    flip_out = scan_point(brooklyn, r_lo - D(1), params_2018)
    flip_in = scan_point(brooklyn, r_lo, params_2018)
    assert not (flip_out.irs_status == "diverged" and flip_out.benefit_gap > D(0))
    assert flip_in.irs_status == "diverged" and flip_in.benefit_gap > D(0)
