"""ptcsolver benchmark: the ``returns``, ``scan`` and ``cli`` workloads.

Run every workload and print every metric with its unit and check result::

    python3 bench/run.py

Run one workload, as ``BENCHMARK.json`` describes::

    python3 bench/run.py --workload returns --seed 7 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.  ``--trace 0`` reports end-to-end metrics
measured with tracing off.  ``--trace 1`` runs untraced and traced
stretches of equal length, reports per-layer metrics, self time per
layer and the tracing overhead, and writes the spans to
``bench/results/``.  Every run also writes its full result, with the
environment it ran in, to ``bench/results/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Each workload prints its metrics under its own names (``returns_per_s``,
``return_p50_us``, ``scan_points_per_s``, ``cli_p50_ms``, ...), in wall
time.  ``BENCHMARK.json`` gates generic names that every workload
reports: ``ops_per_s`` is verified operations (returns, processes, scan
points) per second, ``op_p50_ms`` the p50 of the time per operation and
``op_tail_ms`` its tail, the highest of p50/p90/p99 with at least ten
samples beyond it (the median of that percentile over up to
five consecutive stretches of at least 1,000 operations), all three in
calibrated time (see ``calibration.py``).  ``setup_s`` is the
median time from starting a fresh process to its first timed operation,
over several processes that only set up; ``peak_rss_mb`` is the peak
resident memory of the process that runs the workload (of the largest
child process on ``cli``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from functools import partial
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
SETUP_PROBES = 7


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("returns", "scan", "cli", "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per stretch (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up, print 'ready' and exit (measures setup_s)")
    return parser.parse_args(argv)


def import_source() -> None:
    """Put this checkout's ``src/`` first on the path and refuse any other copy."""
    if not (SRC / "ptcsolver" / "__init__.py").is_file():
        raise SystemExit(f"error: no ptcsolver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ptcsolver

    if Path(ptcsolver.__file__).resolve().parent != SRC / "ptcsolver":
        raise SystemExit(f"error: imported ptcsolver from {ptcsolver.__file__}, not {SRC}")


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git checkout."""
    if not (ROOT / ".git").exists():  # never report the HEAD of an enclosing repository
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (git not found)"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment(args: argparse.Namespace, seconds: float) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "conditions": "shared machine: other tenants' load, the page cache and the "
                      "CPU frequency are not controlled",
    }


def _measure_setup(workload: str, seed: int, env: dict[str, str]) -> tuple[float, float]:
    """Median seconds from starting a process to the end of its set-up,
    calibrated and in wall time."""
    from calibration import NOMINAL_PROCESS_S, Calibration, interpreter_start

    calibration = Calibration(partial(interpreter_start, env), NOMINAL_PROCESS_S)
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    wall, calibrated = [], []
    for probe in range(SETUP_PROBES + 1):  # the first one warms the bytecode cache
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up probe for {workload} failed")
        scale = calibration.scale()
        if probe:
            wall.append(ready - start)
            calibrated.append((ready - start) * scale)
    return median(calibrated), median(wall)


def _metric_json(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _final_metrics(outcome, spec: dict, trace: int) -> dict:
    """The metrics of the last output line: BENCHMARK.json's list for its
    workloads, less any per-layer name the workload does not measure, and
    everything measured for the others."""
    metrics = outcome.metrics
    listed = {w["name"] for w in spec["workloads"]}
    if outcome.workload not in listed:
        return {k: _metric_json(*v) for k, v in metrics.items()}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: _metric_json(metrics[m["name"]][0], m["unit"])
            for m in wanted if m["name"] in metrics}


def _print_report(outcome, env: dict, correct: bool) -> None:
    verdict = "ok" if correct else "FAILED"
    print(f"== {outcome.workload}: seed {env['seed']}, {env['seconds']:g} s per stretch, "
          f"trace {env['trace']} ==")
    for name, (value, unit) in outcome.metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        tail = f" (p{outcome.tails[name]:g})" if name in outcome.tails else ""
        print(f"  {name:<44} {shown:>14} {unit:<6} {verdict}{tail}")
    kinds = ", ".join(f"{kind}: {count}" for kind, count in outcome.failures.most_common())
    print(f"  check: {verdict}; {outcome.failed} of {outcome.attempted} operations failed"
          + (f" ({kinds})" if kinds else ""))
    for note in outcome.notes:
        print(f"  note: {note}")
    print(f"  ops: {json.dumps(outcome.ops, sort_keys=True)}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")


def run_workload(args: argparse.Namespace, seconds: float) -> int:
    import workloads
    from tracing import Tracer

    setup, run = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        state = setup(args.seed)
        print("ready", flush=True)
        state.close()
        return 0

    spec = _benchmark_spec()
    state = setup(args.seed)
    tracer = Tracer() if args.trace else None
    try:
        outcome = run(state, seconds, tracer)
        if tracer is not None:
            cli_state = state if args.workload == "cli" else None
            workloads.startup_probes(outcome, tracer, args.seed, cli_state)
    finally:
        state.close()
    setup_s, setup_wall_s = _measure_setup(args.workload, args.seed, workloads.child_env())
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "failed_share": (outcome.failed / outcome.attempted, "share"),
        **outcome.metrics,
    }

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digest_ok = True
    recorded = golden["digests"].get(args.workload)
    if args.seed == golden["seed"] and recorded is None:
        outcome.notes.append(f"no output digest recorded for {args.workload}; not compared")
    elif args.seed == golden["seed"]:
        digest_ok = outcome.digest == recorded
        if not digest_ok:
            outcome.notes.append(f"output digest {outcome.digest} differs from the recorded {recorded}")
    correct = outcome.failed == 0 and digest_ok
    env = _environment(args, seconds)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.csv")
    final = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": _final_metrics(outcome, spec, args.trace),
    }
    detail = {
        "environment": env,
        "ops": outcome.ops,
        "tail_percentiles": outcome.tails,
        "failures": dict(outcome.failures),
        "notes": outcome.notes,
        "digest": outcome.digest,
        "metrics": {k: _metric_json(*v) for k, v in outcome.metrics.items()},
        "result": final,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    _print_report(outcome, env, correct)
    print(json.dumps(final, sort_keys=True))
    return 0


def run_all(args: argparse.Namespace, seconds: float) -> int:
    """Every workload in a fresh process of its own, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("returns", "scan", "cli"):
        command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    import_source()
    seconds = args.seconds if args.seconds is not None else _benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args, seconds)
    return run_workload(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
