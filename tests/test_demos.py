"""Smoke test: every demo script runs to completion in its own interpreter."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
CSV_DATA_ROW = re.compile(r"^\d+,(converged|diverged|budget_exhausted),")
DEMO_NAMES = sorted(p.name for p in DEMOS.glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert len(DEMO_NAMES) == 5


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_runs(name, child_env):
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    if name == "05_income_scan.py":
        assert any(CSV_DATA_ROW.match(line) for line in done.stdout.splitlines())
