"""Spans around the benchmark's calls into ptcsolver, and statistics over samples.

The package itself is not instrumented.  Every span is opened by the
benchmark's own code around one call into a public function and is named
``<module>.<function>``; the module part names the layer.  Spans stay in
memory while the workload runs and are written out once it ends.
"""

from __future__ import annotations

import math
from statistics import median
from time import perf_counter_ns
from typing import Callable, Iterable, Sequence

# Tail percentiles the report may pick from.  The ladder stops at p99: on a
# shared machine the rarer percentiles are set by how often other tenants
# preempt the benchmark, which varies from run to run far more than any
# change to the program, and a faster program that fits more operations
# into a run must not silently switch its tail to a rarer percentile.
TAIL_LADDER = (50.0, 90.0, 99.0)
MIN_BEYOND_TAIL = 10
# The tail is the median of the tails of up to TAIL_STRETCHES consecutive
# stretches of at least TAIL_STRETCH_MIN samples, so that one stretch
# disturbed by another tenant does not set it.
TAIL_STRETCHES = 5
TAIL_STRETCH_MIN = 1000


def direct(name: str, fn: Callable, *args):
    """Untraced stand-in for :meth:`Tracer.call`: just make the call."""
    return fn(*args)


class Tracer:
    """In-memory span recorder.

    A span is ``(span_id, parent_id, op_id, name, start_ns, end_ns, ok)``.
    ``parent_id`` 0 marks a root; the spans of one operation share
    ``op_id``.  ``ok`` is False when the call raised.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, bool]] = []
        self._stack = [0]
        self._next_id = 0
        self._op = 0

    def op(self, name: str, fn: Callable, *args):
        """Call ``fn`` as the root span of a new operation."""
        self._op += 1
        return self.call(name, fn, *args)

    def call(self, name: str, fn: Callable, *args):
        """Call ``fn`` inside a span that is a child of the open one."""
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1]
        self._stack.append(span_id)
        ok = False
        start = perf_counter_ns()
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, self._op, name, start, end, ok))

    def durations_us(self, name: str, ok_only: bool = True) -> list[float]:
        """Durations of the spans called ``name``, in microseconds."""
        return [
            (end - start) / 1000
            for _, _, _, span_name, start, end, ok in self.spans
            if span_name == name and (ok or not ok_only)
        ]

    def self_time_us(self, root: str) -> tuple[dict[str, float], int]:
        """Self time per layer summed over the operations rooted at ``root``.

        A span's self time is its duration minus the durations of its
        direct children.  Returns ``({layer: microseconds}, operations)``.
        """
        ops = {op for _, parent, op, name, *_ in self.spans if parent == 0 and name == root}
        children: dict[int, int] = {}
        for _, parent, op, _, start, end, _ in self.spans:
            if op in ops and parent:
                children[parent] = children.get(parent, 0) + end - start
        totals: dict[str, float] = {}
        for span_id, _, op, name, start, end, _ in self.spans:
            if op in ops:
                layer = name.split(".", 1)[0]
                own = end - start - children.get(span_id, 0)
                totals[layer] = totals.get(layer, 0.0) + own / 1000
        return totals, len(ops)

    def write(self, path) -> None:
        """Write every span as one CSV row (times in ns from the first span)."""
        origin = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span_id,parent_id,op_id,name,start_ns,end_ns,ok\n")
            for span_id, parent, op, name, start, end, ok in self.spans:
                out.write(f"{span_id},{parent},{op},{name},{start - origin},{end - origin},{int(ok)}\n")


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= MIN_BEYOND_TAIL:
            chosen = p
    return chosen


def latency_summary(samples: Iterable[float]) -> dict[str, float | None]:
    """p50 and tail of latency samples in time order, with the tail's percentile.

    Failed operations are recorded as ``inf`` so that they rank slower
    than every successful one; a percentile that lands on one is None.
    """
    values = list(samples)
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return {"p50": None, "tail": None, "tail_percentile": None, "samples": 0}
    p = tail_percentile(n)
    parts = max(1, min(TAIL_STRETCHES, n // TAIL_STRETCH_MIN))
    tail = median(percentile(sorted(values[i * n // parts:(i + 1) * n // parts]), p)
                  for i in range(parts))

    def finite(value: float) -> float | None:
        return value if math.isfinite(value) else None

    return {
        "p50": finite(percentile(ordered, 50)),
        "tail": finite(tail),
        "tail_percentile": p,
        "samples": len(ordered),
    }
