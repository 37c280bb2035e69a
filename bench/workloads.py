"""The benchmark's three workloads: seeded inputs, closed timed loops, checks.

Each workload is one caller in one process that sends its next operation
only after the previous one completed (a closed loop with one client).

* ``returns``: a stream of distinct household returns, each filed the way
  embedded tax software would file it: ``parse_scenario`` -> ``PtcContext``
  -> ``optimal_deduction`` -> ``reconcile`` -> ``whole_dollar_view``.
* ``scan``: back-to-back ``scan_divergence`` sweeps over the criterion-8
  and criterion-9 income grids and one seeded template.
* ``cli``: ``python -m ptcsolver.cli solve <file> --json`` as one
  subprocess at a time over seeded scenario files.

Operations are timed one by one; inputs are generated and outputs are
checked outside the timed window.  With a tracer, untraced and traced
work alternates over one input stream until each has run the requested
time (each return filed both ways, round by round of ``ptcsolve`` runs,
rotation by rotation of sweeps), so the tracing overhead is measured
under the same machine conditions.
Only names from ``ptcsolver.__all__``, ``ptc_of_deduction_reference``,
``search_domain_upper`` and ``cli.main`` are called.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import shutil
from array import array
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from statistics import fmean, median
from time import perf_counter
from typing import Callable

import ptcsolver
from ptcsolver import (
    IterationStatus,
    Money,
    PtcContext,
    RoundingMode,
    ScanResult,
    Scenario,
    TaxYearParams,
    brute_force_max_feasible,
    bundled_years,
    optimal_deduction,
    parse_scenario,
    ptc_of_deduction,
    reconcile,
    run_iteration,
    scan_divergence,
    simplified_method,
    summarize_intervals,
    tax_year_params,
    whole_dollar_view,
)
from ptcsolver import cli
from ptcsolver.bisection import search_domain_upper

from checks import (
    Digest,
    check_return,
    check_scan_records,
    criterion8_fact,
    criterion9_fact,
    return_record,
    scan_csv,
)
from calibration import NOMINAL_PROCESS_S, Calibration, interpreter_start, run_child
from tracing import Tracer, direct, latency_summary, percentile

SRC = Path(ptcsolver.__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

RETURNS_BATCH = 512
CALIBRATION_CHUNK = 128  # returns between two runs of the reference work
CLI_POOL = 32
PROBES = 5

D = Money.from_dollars
BROOKLYN_TEXT = "F = 16240\nP = 10390\nQ = 10390\nI = 71150\ntax_year = 2018\n"

Metric = tuple[float | None, str]


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps a metric name to ``(value, unit)``; ``failures`` counts
    failed operations by kind; ``tails`` records the percentile behind
    each tail metric.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    metrics: dict[str, Metric] = field(default_factory=dict)
    tails: dict[str, float] = field(default_factory=dict)
    ops: dict[str, int] = field(default_factory=dict)
    digest: str | None = None
    notes: list[str] = field(default_factory=list)

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.failures[kind] += count

    def latency(self, name: str, key: str, samples, factor: float, unit: str) -> None:
        """Add the ``p50`` or ``tail`` (``key``) of samples in seconds, times ``factor``."""
        summary = latency_summary(samples)
        value = summary[key]
        self.metrics[name] = (None if value is None else value * factor, unit)
        if key == "tail":
            self.tails[name] = summary["tail_percentile"]

    def operations(self, phase: "Phase", name: str, factor: float, unit: str, per_s: str) -> None:
        """Throughput and latency of a phase.

        Wall-time metrics go under the workload's own names; the gated
        ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms`` are calibrated.
        """
        self.metrics[per_s] = (phase.verified / phase.timed, "1/s")
        self.latency(f"{name}_p50_{unit}", "p50", phase.latencies, factor, unit)
        self.latency(f"{name}_tail_{unit}", "tail", phase.latencies, factor, unit)
        self.metrics["ops_per_s"] = (phase.verified / phase.timed_calibrated, "1/s")
        self.latency("op_p50_ms", "p50", phase.calibrated, 1e3, "ms")
        self.latency("op_tail_ms", "tail", phase.calibrated, 1e3, "ms")

    def calibration(self, calibration: Calibration) -> None:
        self.metrics["calibration.reference_ms"] = (median(calibration.reference_s) * 1e3, "ms")


class Phase:
    """Samples of the untraced or of the traced stretches of a run.

    ``timed`` is wall time and decides when the run ends; the calibrated
    samples (see ``calibration.py``) feed the metrics BENCHMARK.json gates.
    """

    def __init__(self) -> None:
        self.latencies = array("d")  # wall seconds; inf for failed operations
        self.calibrated = array("d")  # calibrated seconds; inf for failed operations
        self.timed = 0.0
        self.timed_calibrated = 0.0
        self.count = 0
        self.verified = 0

    def score(self, seconds: float, ok: bool, scale: float) -> None:
        """Count a checked operation whose wall time is already in ``timed``."""
        self.count += 1
        self.verified += ok
        self.timed_calibrated += seconds * scale
        self.latencies.append(seconds if ok else math.inf)
        self.calibrated.append(seconds * scale if ok else math.inf)

    def mean_us(self) -> float:
        """Timed seconds per operation attempted, in microseconds."""
        return self.timed / self.count * 1e6 if self.count else math.nan


def _stretches(seconds: float, tracer: Tracer | None, plain: Phase, traced: Phase):
    """Yield the tracer to use for each next stretch, alternating, until
    the untraced stretches (and the traced ones, when tracing) total
    ``seconds`` of timed work.  The first stretch is always untraced."""
    while plain.timed < seconds or (tracer is not None and traced.timed < seconds):
        if plain.timed < seconds:
            yield None
        if tracer is not None and traced.timed < seconds:
            yield tracer


def child_env() -> dict[str, str]:
    """Environment for every child process: the package from this checkout.

    Bytecode writing is switched back on because an installed package
    ships compiled modules; without it every ``ptcsolve`` process would
    recompile the package and the cli workload would time the compiler.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _fresh_workdir(kind: str) -> Path:
    path = WORK / f"{kind}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------- inputs


def _amount(rng: random.Random, lo: int, hi: int, cents: bool) -> int:
    value = rng.randrange(lo * 100, hi * 100 + 1)
    return value if cents else value - value % 100


def _fmt(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def household_return(rng: random.Random) -> tuple[str, RoundingMode]:
    """One seeded return: scenario document text and rounding mode.

    Covers 2018 and 2019, cent and dollar mode, APTC on and off, ``d0``,
    ``student_loan_k``, the below-poverty exception and both filing
    statuses.  No statistics of real filers stand behind the weights:
    the options are drawn so that each is common enough to be measured,
    and incomes, from 0.65 to 5.6 times the poverty line, are set so that
    the solves split about 54% bisection, 40% ``boundary_b0`` and 6%
    ineligible, the split the benchmark was specified with.
    """
    dollar = rng.random() < 0.5
    cents = not dollar and rng.random() < 0.5
    f = _amount(rng, 12000, 45000, False)
    p = _amount(rng, 3000, 25000, cents)
    q = max(50000, p * rng.randrange(60, 131) // 100)
    i = max(q, int(f * rng.uniform(0.65, 5.6)))
    lines = [f"F = {_fmt(f)}", f"P = {_fmt(p)}", f"Q = {_fmt(q)}", f"I = {_fmt(i)}",
             f"tax_year = {rng.choice(('2018', '2019'))}"]
    if rng.random() < 0.4:
        lines.append(f"APTC = {_fmt(rng.randrange(0, q + 1))}")
    if rng.random() < 0.3:
        lines.append(f"d0 = {_fmt(_amount(rng, 0, 5000, cents))}")
    if rng.random() < 0.2:
        lines.append(f"student_loan_k = {_fmt(_amount(rng, 500, 2500, cents))}")
    if rng.random() < 0.15:
        lines.append("below_poverty_exception = true")
    lines.append(f"filing_status = {rng.choice(('single', 'other'))}")
    return "\n".join(lines) + "\n", RoundingMode.DOLLAR if dollar else RoundingMode.CENT


def _load_params() -> dict[str, TaxYearParams]:
    return {year: tax_year_params(year) for year in bundled_years()}


def file_return(item: tuple[str, RoundingMode], params: dict[str, TaxYearParams],
                call: Callable = direct):
    """File one return through the library, each step through ``call``."""
    text, rounding = item
    scenario = call("scenario.parse_scenario", parse_scenario, io.StringIO(text))
    ctx = call("ptc.PtcContext", PtcContext, scenario, params[scenario.tax_year], rounding)
    solution = call("bisection.optimal_deduction", optimal_deduction, ctx)
    net = call("reconcile.reconcile", reconcile, ctx, solution)
    whole = call("bisection.whole_dollar_view", whole_dollar_view, ctx, solution)
    return ctx, solution, net, whole


def _kernel_probe(tracer: Tracer, filed) -> None:
    """One public kernel call at the solved deduction, outside the return's span."""
    ctx, solution = filed[0], filed[1]
    tracer.op("ptc.ptc_of_deduction", ptc_of_deduction, ctx, solution.deduction)


def _library_layers(out: Outcome, tracer: Tracer, solved: Counter) -> None:
    """Per-layer metrics of the library calls a return makes.

    ``solved`` counts the checked solutions by ``(method, iterations)``.
    """
    def p50_us(name: str) -> float | None:
        samples = sorted(tracer.durations_us(name))
        return percentile(samples, 50) if samples else None

    out.metrics["scenario.parse_us"] = (p50_us("scenario.parse_scenario"), "us")
    out.metrics["ptc.ptc_of_deduction_us"] = (p50_us("ptc.ptc_of_deduction"), "us")
    out.metrics["bisection.whole_dollar_view_us"] = (p50_us("bisection.whole_dollar_view"), "us")
    out.metrics["reconcile.reconcile_us"] = (p50_us("reconcile.reconcile"), "us")
    solve = latency_summary(tracer.durations_us("bisection.optimal_deduction"))
    out.metrics["bisection.optimal_deduction_us"] = (solve["p50"], "us")
    out.metrics["bisection.optimal_deduction_tail_us"] = (solve["tail"], "us")
    out.tails["bisection.optimal_deduction_tail_us"] = solve["tail_percentile"]
    total = sum(solved.values())
    if total:
        steps = sum(iterations * n for (_, iterations), n in solved.items())
        out.metrics["bisection.steps"] = (steps / total, "count")
        for method in ("bisection", "boundary_b0", "ineligible_full_deduction"):
            share = sum(n for (m, _), n in solved.items() if m == method) / total
            out.metrics[f"bisection.branch_share.{method}"] = (share, "share")


def _self_times(out: Outcome, tracer: Tracer, root: str) -> None:
    totals, ops = tracer.self_time_us(root)
    for layer, total in sorted(totals.items()):
        out.metrics[f"self_us.{layer}"] = (total / ops, "us")


def _overhead(out: Outcome, plain: Phase, traced: Phase) -> None:
    """Traced minus untraced mean time per operation."""
    out.metrics["trace.overhead_us"] = (traced.mean_us() - plain.mean_us(), "us")
    out.metrics["trace.untraced_mean_us"] = (plain.mean_us(), "us")
    out.metrics["trace.traced_mean_us"] = (traced.mean_us(), "us")


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------- returns


@dataclass
class ReturnsState:
    params: dict[str, TaxYearParams]
    rng: random.Random
    first_batch: list[tuple[str, RoundingMode]]

    def close(self) -> None:
        pass


def setup_returns(seed: int) -> ReturnsState:
    rng = random.Random(seed)
    return ReturnsState(_load_params(), rng, [household_return(rng) for _ in range(RETURNS_BATCH)])


def _returns_batch(batch, params, tracer: Tracer | None, plain: Phase, traced: Phase, out: Outcome,
                   digest: Digest | None, solved: Counter, calibration: Calibration) -> None:
    """File a batch; with a tracer, every return is filed untraced and traced.

    Filing the same return both ways, in alternating order, puts the two
    under the same machine conditions and the same input, so the mean
    difference is the tracing overhead and neither a change in the
    machine's speed nor a difference between returns.
    """
    results = []
    for first in range(0, len(batch), CALIBRATION_CHUNK):
        chunk = []
        for index, item in enumerate(batch[first:first + CALIBRATION_CHUNK], start=first):
            order = (None,) if tracer is None else (None, tracer) if index % 2 else (tracer, None)
            probe = None
            for span in order:
                start = perf_counter()
                try:
                    if span is None:
                        result = file_return(item, params)
                    else:
                        result = span.op("bench.return", file_return, item, params, span.call)
                except Exception as exc:  # a failing return is counted, never fatal
                    result = exc
                chunk.append((perf_counter() - start, result, span is not None))
                if span is not None and not isinstance(result, Exception):
                    probe = result
            if probe is not None:
                _kernel_probe(tracer, probe)
        scale = calibration.scale()
        results.extend((seconds, result, was_traced, scale) for seconds, result, was_traced in chunk)

    for seconds, result, was_traced, scale in results:  # checks, outside the timed window
        phase = traced if was_traced else plain
        phase.timed += seconds
        out.attempted += 1
        if isinstance(result, Exception):
            reason = type(result).__name__
        else:
            reason = check_return(*result)
        if reason:
            out.fail(reason)
        elif was_traced:
            solved[result[1].method.value, result[1].iterations] += 1
        phase.score(seconds, not reason, scale)
        if digest is not None and not was_traced:
            digest.add(f"error: {reason}" if reason else return_record(*result[1:]))


def run_returns(state: ReturnsState, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome("returns")
    plain, traced = Phase(), Phase()
    calibration = Calibration()
    solved: Counter = Counter()
    digest = Digest()
    batch, first = state.first_batch, digest
    while plain.timed < seconds or (tracer is not None and traced.timed < seconds):
        _returns_batch(batch, state.params, tracer, plain, traced, out, first, solved, calibration)
        batch, first = [household_return(state.rng) for _ in range(RETURNS_BATCH)], None

    out.digest = digest.hexdigest()
    out.ops = {"returns": len(plain.latencies), "traced_returns": len(traced.latencies),
               "digest_returns": RETURNS_BATCH}
    out.operations(plain, "return", 1e6, "us", "returns_per_s")
    out.calibration(calibration)
    if tracer is not None:
        _library_layers(out, tracer, solved)
        _self_times(out, tracer, "bench.return")
        _overhead(out, plain, traced)
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(resource.RUSAGE_SELF), "MB")
    return out


# ------------------------------------------------------------------- scan


@dataclass(frozen=True)
class Sweep:
    name: str
    template: Scenario
    params: TaxYearParams
    lo: Money
    hi: Money
    step: Money
    rounding: RoundingMode

    def points(self) -> int:
        return (self.hi.cents - self.lo.cents) // self.step.cents + 1

    def ctx_at(self, income: Money) -> PtcContext:
        return PtcContext(self.template.with_income(income), self.params, self.rounding)

    def run(self) -> ScanResult:
        return scan_divergence(self.template, self.lo, self.hi, self.step, self.params, self.rounding)


@dataclass
class ScanState:
    sweeps: list[Sweep]
    verdicts: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)

    def close(self) -> None:
        pass


def _seeded_template(rng: random.Random) -> tuple[str, RoundingMode, Money]:
    """A non-Brooklyn sweep template in dollar mode, with APTC, or both."""
    dollar = rng.random() < 0.5
    with_aptc = not dollar or rng.random() < 0.5
    f = _amount(rng, 12000, 40000, False)
    p = _amount(rng, 4000, 16000, False)
    q = p * rng.randrange(80, 121) // 100 // 100 * 100
    lines = [f"F = {_fmt(f)}", f"P = {_fmt(p)}", f"Q = {_fmt(q)}", f"I = {_fmt(q)}",
             f"tax_year = {rng.choice(('2018', '2019'))}"]
    if with_aptc:
        lines.append(f"APTC = {_fmt(rng.randrange(0, q // 2) // 100 * 100)}")
    lo = -(-max(q, int(f * rng.uniform(1.25, 3.6))) // 1000) * 1000
    return "\n".join(lines) + "\n", RoundingMode.DOLLAR if dollar else RoundingMode.CENT, Money(lo)


def setup_scan(seed: int) -> ScanState:
    params = _load_params()
    brooklyn = parse_scenario(io.StringIO(BROOKLYN_TEXT))
    text, rounding, lo = _seeded_template(random.Random(seed))
    seeded = parse_scenario(io.StringIO(text))
    return ScanState([
        Sweep("criterion8", brooklyn, params["2018"], D(60000), D(75000), D(50), RoundingMode.CENT),
        Sweep("criterion9", brooklyn, params["2018"], D(21800), D(22400), D(10), RoundingMode.CENT),
        Sweep("seeded", seeded, params[seeded.tax_year], lo, lo + D(5000), D(50), rounding),
    ])


def replay_point(sweep: Sweep, income: Money, call: Callable = direct) -> tuple[str | None, dict]:
    """Make, one by one, the public calls a scan point makes.

    Every call is attempted even when an earlier one raised, so each
    layer is measured.  Returns the kind of the first failure in
    ``scan_point`` order (or None) and the results of the calls that
    succeeded.
    """
    ctx = call("ptc.PtcContext", PtcContext, sweep.template.with_income(income), sweep.params, sweep.rounding)
    calls = (
        ("iteration.run_iteration", run_iteration, (ctx, None, 2000)),
        ("iteration.simplified_method", simplified_method, (ctx,)),
        ("bisection.optimal_deduction", optimal_deduction, (ctx,)),
        ("analysis.brute_force_max_feasible", brute_force_max_feasible, (ctx, Money(100))),
    )
    first_failure, results = None, {"ctx": ctx}
    for name, fn, args in calls:
        try:
            results[name] = call(name, fn, *args)
        except Exception as exc:  # the replay measures every layer, failing or not
            first_failure = first_failure or type(exc).__name__
    return first_failure, results


def count_sweep(state: ScanState, sweep: Sweep, result: ScanResult, out: Outcome) -> int:
    """Count a sweep's points as attempted and failed; returns verified points.

    Every entry of ``ScanResult.failures`` is a failed point, counted by
    the exception kind a replay of that point raises.  Records whose
    bisection deduction is more than $1 from the oracle's fail too, and a
    broken criterion-8 or criterion-9 fact fails every point of the sweep.
    """
    attempted = len(result.records) + len(result.failures)
    out.attempted += attempted
    failed = 0
    for income, _ in result.failures:
        key = (sweep.name, income)
        if key not in state.kinds:
            state.kinds[key] = replay_point(sweep, income)[0] or "unknown"
        out.fail(state.kinds[key])
        failed += 1
    for _, reason in check_scan_records(result):
        out.fail(reason)
        failed += 1
    fact = _sweep_fact(state, sweep, result)
    if fact:
        note = f"{sweep.name}: {fact}"
        if note not in out.notes:
            out.notes.append(note)
        if attempted > failed:
            out.fail(f"fact: {fact}", attempted - failed)
        failed = attempted
    return attempted - failed


def _sweep_fact(state: ScanState, sweep: Sweep, result: ScanResult) -> str | None:
    key = (sweep.name, scan_csv(result))
    if key not in state.verdicts:
        if sweep.name == "criterion8":
            table = sweep.params.figure_table
            state.verdicts[key] = criterion8_fact(
                result, sweep.template.poverty_line, table.as_tuple()[-1], D(71150))
        elif sweep.name == "criterion9":
            state.verdicts[key] = criterion9_fact(result, sweep.ctx_at)
        else:
            state.verdicts[key] = None
    return state.verdicts[key]


def run_scan(state: ScanState, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome("scan")
    plain, traced = Phase(), Phase()
    calibration = Calibration()
    digest = Digest()
    traced_results = []
    sweeps = 0
    for stretch in _stretches(seconds, tracer, plain, traced):
        phase = plain if stretch is None else traced
        first = phase is plain and plain.timed == 0
        for sweep in state.sweeps:
            start = perf_counter()
            if stretch is None:
                result = sweep.run()
            else:
                result = stretch.op("analysis.scan_divergence", sweep.run)
            elapsed = perf_counter() - start
            scale = calibration.scale()
            attempted_before = out.attempted
            verified = count_sweep(state, sweep, result, out)  # outside the timed window
            points = out.attempted - attempted_before
            phase.timed += elapsed
            # One sweep times its points together: each gets the sweep's mean.
            for position in range(points):
                phase.score(elapsed / points, position < verified, scale)
            sweeps += 1
            if first:
                digest.add(scan_csv(result))
            if stretch is not None:
                traced_results.append(result)

    out.digest = digest.hexdigest()
    out.ops = {"points": out.attempted, "sweeps": sweeps,
               "points_per_rotation": sum(s.points() for s in state.sweeps)}
    out.operations(plain, "scan_point", 1e3, "ms", "scan_points_per_s")
    out.calibration(calibration)
    if tracer is not None:
        _scan_layers(state, out, tracer, traced_results)
        _overhead(out, plain, traced)
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(resource.RUSAGE_SELF), "MB")
    return out


def _scan_layers(state: ScanState, out: Outcome, tracer: Tracer, results: list[ScanResult]) -> None:
    """Replay one rotation point by point, then time ``summarize_intervals``."""
    outcomes, lattice_points, first_failures = [], 0, Counter()
    for sweep in state.sweeps:
        income = sweep.lo
        while income <= sweep.hi:
            failure, done = tracer.op("bench.scan_point", replay_point, sweep, income, tracer.call)
            if failure:
                first_failures[failure] += 1
            if "iteration.run_iteration" in done:
                outcomes.append(done["iteration.run_iteration"])
            if "analysis.brute_force_max_feasible" in done:
                upper = search_domain_upper(done["ctx"])
                if upper < Money(0):
                    upper = done["ctx"].scenario.billed_balance
                lattice_points += upper.cents // 100 + 1
            income = income + sweep.step
    for result in results:
        tracer.op("analysis.summarize_intervals", summarize_intervals, result.records)

    def p50(name: str, ok_only: bool = True) -> float | None:
        samples = sorted(tracer.durations_us(name, ok_only))
        return percentile(samples, 50) if samples else None

    attempts = len(tracer.durations_us("iteration.run_iteration", ok_only=False))
    out.metrics["iteration.run_iteration_us"] = (p50("iteration.run_iteration", False), "us")
    out.metrics["iteration.simplified_method_us"] = (p50("iteration.simplified_method", False), "us")
    out.metrics["iteration.steps"] = (
        fmean(len(o.trace) - 1 for o in outcomes) if outcomes else None, "count")
    converged = sum(o.status is IterationStatus.CONVERGED_IRS_SENSE for o in outcomes)
    out.metrics["iteration.converged_share"] = (converged / attempts if attempts else None, "share")
    solve = latency_summary(tracer.durations_us("bisection.optimal_deduction"))
    out.metrics["bisection.optimal_deduction_us"] = (solve["p50"], "us")
    out.metrics["bisection.optimal_deduction_tail_us"] = (solve["tail"], "us")
    out.tails["bisection.optimal_deduction_tail_us"] = solve["tail_percentile"]
    oracle = tracer.durations_us("analysis.brute_force_max_feasible")
    oracle_p50 = p50("analysis.brute_force_max_feasible")
    out.metrics["analysis.oracle_ms"] = (None if oracle_p50 is None else oracle_p50 / 1000, "ms")
    out.metrics["analysis.oracle_ns_per_lattice_point"] = (
        sum(oracle) * 1000 / lattice_points if lattice_points else None, "ns")
    out.metrics["analysis.summarize_intervals_us"] = (p50("analysis.summarize_intervals"), "us")
    for kind, count in sorted(first_failures.items()):
        out.metrics[f"analysis.failed_points.{kind}"] = (count, "count")
    _self_times(out, tracer, "bench.scan_point")


# -------------------------------------------------------------------- cli


@dataclass
class CliState:
    params: dict[str, TaxYearParams]
    workdir: Path
    items: list[tuple[str, RoundingMode]]
    argvs: list[list[str]]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup_cli(seed: int) -> CliState:
    """Write the seeded scenario files; the first is Brooklyn in dollar mode."""
    rng = random.Random(seed)
    items = [(BROOKLYN_TEXT, RoundingMode.DOLLAR)]
    items += [household_return(rng) for _ in range(CLI_POOL - 1)]
    workdir = _fresh_workdir("cli")
    argvs = []
    for index, (text, rounding) in enumerate(items):
        name = f"s{index:03d}.scenario"
        (workdir / name).write_text(text, encoding="utf-8")
        argvs.append(["solve", name, "--json", "--whole-dollars", "--mode", rounding.value])
    return CliState(_load_params(), workdir, items, argvs)


def _solve_process(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[int, bytes]:
    return run_child(["-m", "ptcsolver.cli", *argv], env, cwd=cwd, capture=True)


def cli_in_process(state: CliState, call: Callable = direct) -> list[tuple[int, str]]:
    """``cli.main`` on every pool file in this interpreter: (exit code, stdout)."""
    outputs = []
    for argv in state.argvs:
        absolute = [argv[0], str(state.workdir / argv[1]), *argv[2:]]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = call("cli.main", cli.main, absolute)
        outputs.append((code, buffer.getvalue()))
    return outputs


def _check_cli_output(index: int, code: int, stdout: str, expected: list, library: list) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if (code, payload) != expected[index]:
        return "output differs from the in-process result"
    if isinstance(library[index], str):
        return library[index]
    _, solution, _, whole = library[index]
    if (payload["d"], payload["ptc"]) != (solution.deduction.as_decimal(), solution.ptc.as_decimal()):
        return "output differs from the library solve"
    if payload["whole_dollars"] != {"d": whole[0].as_decimal(), "ptc": whole[1].as_decimal()}:
        return "whole-dollar entry differs from the library"
    if index == 0 and (payload["d"], payload["ptc"]) != ("6208.00", "4182.00"):
        return "Brooklyn dollar-mode result is not $6,208 / $4,182"
    return None


def run_cli(state: CliState, seconds: float, tracer: Tracer | None) -> Outcome:
    out = Outcome("cli")
    env = child_env()
    _solve_process(state.argvs[0], state.workdir, env)  # warm-up: bytecode and page cache
    plain, traced = Phase(), Phase()
    calibration = Calibration(partial(interpreter_start, env), NOMINAL_PROCESS_S)
    runs = []
    for stretch in _stretches(seconds, tracer, plain, traced):
        phase = plain if stretch is None else traced
        for index, argv in enumerate(state.argvs):
            start = perf_counter()
            if stretch is None:
                code, stdout = _solve_process(argv, state.workdir, env)
            else:
                code, stdout = stretch.op("cli.solve_process", _solve_process, argv, state.workdir, env)
            elapsed = perf_counter() - start
            result = (code, stdout.decode("utf-8", "replace"))
            phase.timed += elapsed
            runs.append((index, elapsed, phase, result, calibration.scale()))
    out.metrics["peak_rss_mb"] = (_peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")

    # Checks, after the timed loop: the in-process CLI and library results.
    expected = [(code, json.loads(text) if code == 0 else text)
                for code, text in cli_in_process(state)]
    library = []
    for item in state.items:
        try:
            filed = (tracer.op("bench.return", file_return, item, state.params, tracer.call)
                     if tracer else file_return(item, state.params))
        except Exception as exc:  # a failing return is counted, never fatal
            library.append(type(exc).__name__)
            continue
        if tracer is not None:
            _kernel_probe(tracer, filed)
        library.append(check_return(*filed) or filed)
    digest = Digest()
    for position, (index, elapsed, phase, result, scale) in enumerate(runs):
        out.attempted += 1
        reason = _check_cli_output(index, *result, expected, library)
        if reason:
            out.fail(reason)
        phase.score(elapsed, not reason, scale)
        if position < CLI_POOL:  # the first stretch is one untraced round over the pool
            digest.add(reason or result[1])

    out.digest = digest.hexdigest()
    out.ops = {"processes": len(plain.latencies), "traced_processes": len(traced.latencies),
               "scenario_files": CLI_POOL}
    out.operations(plain, "cli", 1e3, "ms", "cli_per_s")
    out.calibration(calibration)
    if tracer is not None:
        solved = Counter((f[1].method.value, f[1].iterations) for f in library if not isinstance(f, str))
        _library_layers(out, tracer, solved)
        _self_times(out, tracer, "cli.solve_process")
        _overhead(out, plain, traced)
    return out


# ----------------------------------------------------------------- probes


def _timed_child(args: list[str], env: dict[str, str]) -> str:
    code, out = run_child(args, env, capture=True)
    if code != 0:
        raise RuntimeError(f"probe python {' '.join(args)} exited with {code}")
    return out.decode()


def startup_probes(out: Outcome, tracer: Tracer, seed: int, cli_state: CliState | None) -> None:
    """Time what a ``ptcsolve`` process pays before and around solving.

    ``cli.interpreter_ms`` is ``python -c pass``, the floor no change to
    the package can move; ``cli.import_ms`` is ``import ptcsolver.cli``
    timed inside a child; ``params.tax_year_params_ms`` loads a bundled
    table; ``cli.main_solve_ms`` is an in-process ``cli.main`` solve on a
    warm interpreter.  Together they should account for ``cli_p50_ms``.
    """
    env = child_env()
    _timed_child(["-c", "pass"], env)  # warm-up
    for _ in range(PROBES):
        tracer.op("cli.interpreter", _timed_child, ["-c", "pass"], env)
    interpreter = median(tracer.durations_us("cli.interpreter")) / 1000
    code = "import time; t = time.perf_counter(); import ptcsolver.cli; print(time.perf_counter() - t)"
    imports = [float(tracer.op("cli.import", _timed_child, ["-c", code], env)) for _ in range(PROBES)]
    for _ in range(PROBES):
        for year in bundled_years():
            tracer.op("params.tax_year_params", tax_year_params, year)
    state = cli_state or setup_cli(seed)
    try:
        cli_in_process(state)  # warm-up
        cli_in_process(state, tracer.call)
    finally:
        if cli_state is None:
            state.close()
    out.metrics["cli.interpreter_ms"] = (interpreter, "ms")
    out.metrics["cli.import_ms"] = (median(imports) * 1000, "ms")
    out.metrics["params.tax_year_params_ms"] = (median(tracer.durations_us("params.tax_year_params")) / 1000, "ms")
    out.metrics["cli.main_solve_ms"] = (median(tracer.durations_us("cli.main")) / 1000, "ms")
    if "cli_p50_ms" in out.metrics and out.metrics["cli_p50_ms"][0] is not None:
        parts = ("cli.interpreter_ms", "cli.import_ms", "params.tax_year_params_ms", "cli.main_solve_ms")
        out.metrics["cli.unaccounted_ms"] = (
            out.metrics["cli_p50_ms"][0] - sum(out.metrics[p][0] for p in parts), "ms")


WORKLOADS = {
    "returns": (setup_returns, run_returns),
    "scan": (setup_scan, run_scan),
    "cli": (setup_cli, run_cli),
}
