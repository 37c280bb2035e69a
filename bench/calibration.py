"""Calibrated time: wall time corrected for the speed of a shared machine.

On a shared machine the same code runs up to a third slower for
stretches of seconds to minutes, so raw wall times of two runs made a
minute apart differ by far more than any change worth measuring.  The
benchmark therefore runs a fixed piece of reference work right after
every short chunk of operations and scales the chunk's times by
``nominal / reference time``: the time the chunk would have taken had
the reference work run in exactly its nominal time.

There are two references, one per kind of operation.  In-process
operations are calibrated against ``reference_work``, a fixed loop of
pure-Python arithmetic.  Operations that start a process (``ptcsolve``
runs, set-up probes) are calibrated against starting a bare interpreter,
``python -c pass``, which no change to the package can speed up or slow
down.  Neither reference may change: each defines the unit its
calibrated metrics are expressed in.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter
from typing import Callable

# Nominal times of the two references, close to their typical wall time on
# a 2-vCPU x86-64 host with CPython 3.11.
NOMINAL_S = 0.004
NOMINAL_PROCESS_S = 0.05
CHILD_TIMEOUT_S = 60


def reference_work() -> int:
    """Fixed pure-Python work: exact rationals, small tuples, dict stores."""
    acc = Fraction(0)
    table: dict[int, tuple[int, int]] = {}
    for i in range(1, 1500):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        table[i % 251] = (acc.numerator % 1000, i)
    return len(table)


def run_child(args: list[str], env: dict[str, str], cwd=None, capture: bool = False) -> tuple[int, bytes]:
    """Run ``python <args>`` to completion: (exit code, stdout and stderr).

    The waits block.  A wait with a timeout would poll with sleeps that
    double up to 50 ms, and the measured time would be the poll that saw
    the exit, not the exit; instead a timer kills a child that runs past
    ``CHILD_TIMEOUT_S``, which shows as a negative exit code.
    """
    output = subprocess.PIPE if capture else subprocess.DEVNULL
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=output,
                            stderr=subprocess.STDOUT if capture else None)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out or b""


def interpreter_start(env: dict[str, str]) -> None:
    """Start a bare interpreter and wait for it to exit."""
    code, _ = run_child(["-c", "pass"], env)
    if code != 0:
        raise RuntimeError(f"python -c pass exited with {code}")


class Calibration:
    """Times a reference on demand and keeps every measurement."""

    def __init__(self, reference: Callable[[], object] = reference_work,
                 nominal_s: float = NOMINAL_S) -> None:
        self.reference = reference
        self.nominal_s = nominal_s
        self.reference_s: list[float] = []

    def scale(self) -> float:
        """Run the reference once; return its nominal time over its time."""
        start = perf_counter()
        self.reference()
        elapsed = perf_counter() - start
        self.reference_s.append(elapsed)
        return self.nominal_s / elapsed
