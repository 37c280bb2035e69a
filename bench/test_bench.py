"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import dataclasses

import run

run.import_source()

import workloads  # noqa: E402  (needs the source path set above)
from ptcsolver import Money, ScanRecord, ScanResult  # noqa: E402
from tracing import Tracer, latency_summary, percentile, tail_percentile  # noqa: E402


def test_wrong_solve_output_counts_as_failed(monkeypatch):
    real = workloads.optimal_deduction
    tampered = []

    def a_dollar_short(ctx):
        solution = real(ctx)
        if solution.deduction < Money(100):
            return solution
        tampered.append(ctx)
        return dataclasses.replace(solution, deduction=solution.deduction - Money(100))

    monkeypatch.setattr(workloads, "optimal_deduction", a_dollar_short)
    out = workloads.run_returns(workloads.setup_returns(seed=5), 0.001, None)
    assert out.attempted == workloads.RETURNS_BATCH
    assert tampered
    assert out.failed == sum(out.failures.values()) == len(tampered)


def test_scan_result_failures_count_as_failed_points():
    state = workloads.setup_scan(seed=5)
    sweep = state.sweeps[-1]  # the seeded sweep has no interval fact to check
    good = ScanRecord(sweep.lo, "converged", Money(0), Money(0), Money(500), Money(500), True, Money(0))
    off = dataclasses.replace(good, income=sweep.lo + sweep.step, oracle_d=Money(800))
    result = ScanResult(
        records=[good, off],
        intervals={"irs_diverges": [], "equation_gap": []},
        failures=[(sweep.lo + sweep.step * 2, "boom"), (sweep.lo + sweep.step * 3, "boom")],
    )
    out = workloads.Outcome("scan")
    verified = workloads.count_sweep(state, sweep, result, out)
    assert (out.attempted, out.failed, verified) == (4, 3, 1)
    assert out.failures["bisection_d not within $1 of oracle_d"] == 1


def test_traced_self_times_add_up_to_the_untraced_time():
    out = workloads.run_returns(workloads.setup_returns(seed=5), 3.0, Tracer())
    self_times = [value for name, (value, _) in out.metrics.items() if name.startswith("self_us.")]
    assert {"self_us.scenario", "self_us.bisection", "self_us.reconcile"} <= set(
        name for name in out.metrics if name.startswith("self_us."))
    untraced = out.metrics["trace.untraced_mean_us"][0]
    overhead = out.metrics["trace.overhead_us"][0]
    assert abs(sum(self_times) - untraced) <= abs(overhead)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert [tail_percentile(n) for n in (5, 20, 99, 100, 999, 1000, 10**6)] == [
        50.0, 50.0, 50.0, 90.0, 90.0, 99.0, 99.0]


def test_one_disturbed_stretch_does_not_set_the_tail():
    calm, disturbed = [1.0] * 2000, [1.0] * 1800 + [9.0] * 200
    samples = calm * 2 + disturbed + calm * 2
    assert percentile(sorted(samples), 99) == 9.0
    summary = latency_summary(samples)
    assert (summary["tail_percentile"], summary["tail"]) == (99.0, 1.0)


def test_scan_reports_the_gated_end_to_end_names():
    out = workloads.run_scan(workloads.setup_scan(seed=5), 0.001, None)
    assert {"ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"} <= set(out.metrics)
    assert out.attempted == sum(sweep.points() for sweep in workloads.setup_scan(seed=5).sweeps)
