"""CLI outputs that must not change, byte for byte, with their exit codes.

Each case runs ``ptcsolve`` on ``golden/brooklyn.scenario`` and compares
stdout with ``golden/<case>.out`` and stderr with ``golden/<case>.err``
(empty when that file is absent).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ptcsolver.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Overrides every key of the Brooklyn file: $3,015 of a $4,001 premium advanced.
APTC_CASE = [
    arg
    for kv in ("F=15706", "P=4001", "Q=4001", "I=26163", "tax_year=2018", "APTC=3015")
    for arg in ("--set", kv)
]

# case name -> (subcommand and options, exit code)
CASES = {
    "solve_cent": (["solve"], 0),
    "solve_cent_json": (["solve", "--json"], 0),
    "solve_dollar": (["solve", "--mode", "dollar"], 0),
    "solve_dollar_json": (["solve", "--mode", "dollar", "--json"], 0),
    "solve_whole_dollars": (["solve", "--whole-dollars"], 0),
    "solve_whole_dollars_json": (["solve", "--whole-dollars", "--json"], 0),
    "solve_cent_trace": (["solve", "--trace"], 0),
    "solve_dollar_trace": (["solve", "--mode", "dollar", "--trace"], 0),
    "iterate_cent": (["iterate", "--trace"], 4),
    "iterate_cent_json": (["iterate", "--json"], 4),
    "iterate_dollar": (["iterate", "--mode", "dollar", "--trace"], 4),
    "iterate_dollar_json": (["iterate", "--mode", "dollar", "--json"], 4),
    "compare_cent": (["compare"], 0),
    "compare_cent_json": (["compare", "--json"], 0),
    "compare_dollar": (["compare", "--mode", "dollar"], 0),
    "compare_dollar_json": (["compare", "--mode", "dollar", "--json"], 0),
    # Advance payments where the guidance's map used to leave [0, Q - APTC].
    "iterate_aptc": (["iterate", "--trace", *APTC_CASE], 0),
    "iterate_aptc_json": (["iterate", "--json", *APTC_CASE], 0),
    "compare_aptc": (["compare", *APTC_CASE], 0),
    "compare_aptc_json": (["compare", "--json", *APTC_CASE], 0),
    # The criterion-8 sweep, and the criterion-9 sweep in cents and dollar mode.
    "scan_criterion8": (["scan", "--from", "60000", "--to", "75000", "--step", "50"], 0),
    "scan_criterion9": (
        ["scan", "--from", "21800", "--to", "22400", "--step", "10", "--cents", "--mode", "dollar"],
        0,
    ),
}


def run_case(name: str, capsys) -> tuple[int, str, str]:
    command, *options = CASES[name][0]
    code = main([command, str(GOLDEN / "brooklyn.scenario"), *options])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _golden(name: str, suffix: str) -> str:
    path = GOLDEN / f"{name}{suffix}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, capsys):
    code, out, err = run_case(name, capsys)
    assert code == CASES[name][1]
    assert out == _golden(name, ".out")
    assert err == _golden(name, ".err")
