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


def _sets(*pairs: str) -> list[str]:
    return [arg for kv in pairs for arg in ("--set", kv)]


# Overrides every key of the Brooklyn file: $3,015 of a $4,001 premium advanced.
APTC_CASE = _sets("F=15706", "P=4001", "Q=4001", "I=26163", "tax_year=2018", "APTC=3015")
# Dollar mode, and a credit the kernel clamps at Q = $9,735.50.
Q_CAP_CASE = ["--mode", "dollar", *_sets(
    "F=41628.62", "P=12169.37", "Q=9735.50", "I=54117.20", "tax_year=2018", "APTC=2621.15",
    "below_poverty_exception=true")]
# tests/test_reconcile.py's 2019 worked example: a $1,200 shortfall capped at $800.
REPAY_CAPPED_CASE = ["--mode", "dollar", *_sets(
    "F=20000", "P=8303", "Q=10000", "I=57000", "tax_year=2019", "APTC=5000")]
# A convergent income with too small a step budget: the run ends unsettled.
BUDGET_CASE = [*_sets("I=50000"), "--max-iter", "2"]
# Income under the poverty line: the full premium is deducted, no credit.
INELIGIBLE_CASE = _sets("F=16240", "P=4000", "Q=4000", "I=10000", "tax_year=2018")

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
    # The rounded credit stays at or below Q.
    "iterate_q_cap": (["iterate", "--trace", *Q_CAP_CASE], 0),
    "iterate_q_cap_json": (["iterate", "--json", *Q_CAP_CASE], 0),
    "compare_q_cap": (["compare", *Q_CAP_CASE], 0),
    "compare_q_cap_json": (["compare", "--json", *Q_CAP_CASE], 0),
    # Repayment of excess advance payments: the unlimited band and a capped band.
    "solve_repay_unlimited": (["solve", *_sets("APTC=8000")], 0),
    "solve_repay_unlimited_json": (["solve", "--json", *_sets("APTC=8000")], 0),
    "solve_repay_capped": (["solve", *REPAY_CAPPED_CASE], 0),
    "solve_repay_capped_json": (["solve", "--json", *REPAY_CAPPED_CASE], 0),
    # A budget that runs out before the iteration settles.
    "iterate_budget": (["iterate", "--trace", *BUDGET_CASE], 5),
    "iterate_budget_json": (["iterate", "--json", *BUDGET_CASE], 5),
    "compare_budget": (["compare", *BUDGET_CASE], 0),
    "compare_budget_json": (["compare", "--json", *BUDGET_CASE], 0),
    # A low income clamps the starting deduction.
    "iterate_clamped": (["iterate", "--trace", *_sets("I=16000")], 0),
    "iterate_clamped_json": (["iterate", "--json", *_sets("I=16000")], 0),
    # The below-poverty branch, with every optional solve field.
    "solve_ineligible": (["solve", "--trace", "--whole-dollars", *INELIGIBLE_CASE], 0),
    "solve_ineligible_json": (["solve", "--trace", "--whole-dollars", "--json", *INELIGIBLE_CASE], 0),
    # The criterion-8 sweep, and the criterion-9 sweep in cents and dollar mode.
    "scan_criterion8": (["scan", "--from", "60000", "--to", "75000", "--step", "50"], 0),
    "scan_criterion9": (
        ["scan", "--from", "21800", "--to", "22400", "--step", "10", "--cents", "--mode", "dollar"],
        0,
    ),
    # Two incomes below Q are skipped, each with one stderr line.
    "scan_skipped": (["scan", "--from", "10200", "--to", "10500", "--step", "100"], 0),
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
