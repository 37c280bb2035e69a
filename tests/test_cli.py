from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from ptcsolver.cli import canonical_json, main
from ptcsolver.money import Money
from ptcsolver.reconcile import UNLIMITED

BROOKLYN = """\
F = 16240
P = 10390
Q = 10390
I = 71150
tax_year = 2018
"""


@pytest.fixture
def brooklyn_file(tmp_path):
    path = tmp_path / "brooklyn.scenario"
    path.write_text(BROOKLYN, encoding="utf-8")
    return str(path)


def test_solve_paper_mode(brooklyn_file, capsys):
    code = main(["solve", brooklyn_file, "--mode", "dollar"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deduction: $6,208.00" in out
    assert "credit:    $4,182.00" in out
    assert "method:    bisection" in out
    assert "$10,390.00" in out  # certificate attains Q exactly


@pytest.mark.parametrize("mode", ["cent", "dollar"])
def test_solve_json_trace_lists_the_brackets(brooklyn_file, capsys, mode):
    assert main(["solve", brooklyn_file, "--mode", mode, "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(["solve", brooklyn_file, "--mode", mode, "--json", "--trace"]) == 0
    traced = json.loads(capsys.readouterr().out)
    rows = traced.pop("trace")
    assert traced == plain
    assert [row["k"] for row in rows] == list(range(plain["iterations"] + 1))
    assert rows[0] == {"k": 0, "a": "0.00", "b": "10390.00"}
    assert rows[-1]["a"] == plain["d"]


def test_solve_json_round_trips(brooklyn_file, capsys):
    code = main(["solve", brooklyn_file, "--mode", "dollar", "--json"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == "6208.00"
    assert payload["ptc"] == "4182.00"
    assert payload["method"] == "bisection"
    assert payload["certificate"]["at"] == "10390.00"
    assert payload["reconciliation"]["additional_credit"] == "4182.00"
    rerendered = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert rerendered == out


def test_canonical_json_renders_report_values():
    report = {"d": Money(620800), "limitation": UNLIMITED, "above": None, "n": 3}
    assert canonical_json(report) == '{"above":null,"d":"6208.00","limitation":"unlimited","n":3}'
    with pytest.raises(TypeError, match="Fraction is not a report value"):
        canonical_json({"d": Fraction(1, 3)})


def test_solve_whole_dollars(brooklyn_file, capsys):
    code = main(["solve", brooklyn_file, "--whole-dollars", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    whole = payload["whole_dollars"]
    assert whole["d"].endswith(".00")
    assert whole["d"] == "6208.00"


def test_solve_ineligible(capsys):
    code = main(
        [
            "solve",
            "--set", "F=16240",
            "--set", "P=4000",
            "--set", "Q=4000",
            "--set", "I=10000",
            "--set", "tax_year=2018",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ineligible_full_deduction" in out
    assert "deduction: $4,000.00" in out
    assert "credit:    $0.00" in out


def test_set_overrides_file(brooklyn_file, capsys):
    code = main(["solve", brooklyn_file, "--set", "I=50000", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["d"] != "6208.00"


def test_invalid_scenario_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text("F = 16240\nP = 10390\nQ = 10390\nI = 9000\ntax_year = 2018\n")
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid scenario" in err


def test_malformed_thousands_exit_2(brooklyn_file, capsys):
    # A comma outside a thousands group is not read as $1,039,050.
    code = main(["solve", brooklyn_file, "--set", "P=10390,50"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: invalid scenario")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("override", ["P=10390,50", "Z=1", "below_poverty_exception=maybe"])
def test_set_errors_name_the_flag(brooklyn_file, capsys, override):
    # An override has no line in any file, so the error names --set instead.
    code = main(["solve", brooklyn_file, "--set", override])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" not in err
    assert f"--set {override}" in err
    assert err.count("\n") == 1


def test_undecodable_scenario_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_bytes(b"F = 16240\nP = 10390\xff\n")
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: invalid scenario: ")
    assert "byte offset 19" in captured.err
    assert captured.err.count("\n") == 1


def test_byte_order_mark_scenario_file(tmp_path, capsys):
    golden = Path(__file__).parent / "golden"
    path = tmp_path / "bom.scenario"
    path.write_bytes(b"\xef\xbb\xbf" + (golden / "brooklyn.scenario").read_bytes())
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (golden / "solve_cent.out").read_text(encoding="utf-8")
    assert captured.err == ""


def test_undecodable_params_file_exit_3(brooklyn_file, tmp_path, capsys):
    path = tmp_path / "bad.params"
    path.write_bytes(b"schema_version = 1\nyear = 2018\xff\n")
    code = main(["solve", brooklyn_file, "--params", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: bad parameter file: ")
    assert "byte offset 30" in captured.err
    assert captured.err.count("\n") == 1


def test_superscript_repayment_limit_exit_3(brooklyn_file, tmp_path, capsys):
    path = tmp_path / "superscript.params"
    text = (resources.files("ptcsolver.data") / "2018.params").read_text(encoding="utf-8")
    path.write_text(text.replace("repay.single.r = 300", "repay.single.r = \u00b3"), encoding="utf-8")
    code = main(["solve", brooklyn_file, "--params", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: bad parameter file: ")
    assert "(key 'repay.single.r', line 14)" in captured.err
    assert captured.err.count("\n") == 1


def test_missing_scenario_exit_2(capsys):
    assert main(["solve"]) == 2
    assert main(["solve", "--set", "F"]) == 2


def test_unknown_tax_year_exit_3(brooklyn_file, capsys):
    code = main(["solve", brooklyn_file, "--set", "tax_year=1999"])
    err = capsys.readouterr().err
    assert code == 3
    assert "unknown tax year" in err


def test_custom_params_file(brooklyn_file, tmp_path, capsys):
    params = tmp_path / "custom.params"
    params.write_text(
        "schema_version = 1\nyear = 2018\n"
        "figure.j = 0.0201\nfigure.k = 0.0302\nfigure.l = 0.0403\n"
        "figure.a = 0.0634\nfigure.b = 0.0810\nfigure.c = 0.0956\n"
        "repay.single.r = 300\nrepay.single.s = 775\nrepay.single.t = 1300\n"
    )
    code = main(["solve", brooklyn_file, "--params", str(params), "--mode", "dollar", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["d"] == "6208.00"


def test_iterate_divergence_exit_4(brooklyn_file, capsys):
    code = main(["iterate", brooklyn_file, "--mode", "dollar", "--trace"])
    out = capsys.readouterr().out
    assert code == 4
    assert "diverged_do_not_use" in out
    assert "1,0.00,10390.00" in out
    assert "2,4581.00,5809.00" in out
    assert "3,0.00,10390.00" in out
    assert "liminf deduction: $5,809.00" in out
    assert "simplified method: deduction $5,809.00, credit $0.00" in out


def test_iterate_convergent_exit_0(brooklyn_file, capsys):
    code = main(["iterate", brooklyn_file, "--set", "I=50000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged_irs_sense" in out
    assert "settled at" in out


def test_iterate_budget_exit_5(brooklyn_file, capsys):
    code = main(["iterate", brooklyn_file, "--set", "I=50000", "--max-iter", "2"])
    assert code == 5


def test_iterate_json(brooklyn_file, capsys):
    code = main(["iterate", brooklyn_file, "--mode", "dollar", "--json"])
    out = capsys.readouterr().out.strip()
    assert code == 4
    payload = json.loads(out)
    assert payload["status"] == "diverged_do_not_use"
    assert payload["cycle"]["period"] == 2
    assert payload["liminf_d"] == "5809.00"
    assert payload["simplified"] == {"d2": "5809.00", "c3": "0.00"}
    assert [p["n"] for p in payload["trace"]] == [1, 2, 3]
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out


def test_compare_brooklyn(brooklyn_file, capsys):
    code = main(["compare", brooklyn_file, "--mode", "dollar"])
    out = capsys.readouterr().out
    assert code == 0
    assert "benefit gap (bisection - simplified): $4,182.00" in out
    assert "bisection" in out and "simplified" in out and "oracle" in out


def test_compare_json_round_trips(brooklyn_file, capsys):
    code = main(["compare", brooklyn_file, "--mode", "dollar", "--json"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    payload = json.loads(out)
    assert payload["bisection"] == {"d": "6208.00", "ptc": "4182.00"}
    assert payload["simplified"] == {"d": "5809.00", "ptc": "0.00"}
    assert payload["iterative"]["status"] == "diverged_do_not_use"
    assert payload["benefit_gap"] == "4182.00"
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out


def test_compare_all_methods_agree_when_convergent(brooklyn_file, capsys):
    code = main(["compare", brooklyn_file, "--set", "I=50000", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    d_values = [
        payload["iterative"]["d"],
        payload["liminf"]["d"],
        payload["bisection"]["d"],
        payload["oracle"]["d"],
    ]
    cents = [round(float(v) * 100) for v in d_values]
    assert max(cents) - min(cents) <= 100 + 1  # all within about $1


def test_compare_zero_liminf_row(brooklyn_file, capsys):
    # An advance credit of the whole premium leaves a $0.00 liminf deduction,
    # which is a value, not a missing one.
    argv = ["compare", brooklyn_file, "--set", "APTC=10390"]
    assert main([*argv, "--json"]) == 0
    liminf = json.loads(capsys.readouterr().out)["liminf"]
    assert main(argv) == 0
    row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("liminf"))
    assert liminf == {"d": "0.00", "ptc": "0.00"}
    assert row.split()[2:] == [f"${liminf['d']}", f"${liminf['ptc']}"]


def test_scan_stdout_and_summary(brooklyn_file, capsys):
    code = main(["scan", brooklyn_file, "--from", "71050", "--to", "71250", "--step", "50"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("income,irs_status,")
    assert len(lines) == 6
    assert any(line.startswith("71150,") for line in lines)
    assert "irs_diverges:" in captured.err
    assert "equation_gap:" in captured.err


def test_scan_to_file_with_cents(brooklyn_file, tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code = main(
        [
            "scan", brooklyn_file,
            "--from", "71150", "--to", "71150", "--step", "50",
            "--out", str(out_path), "--cents", "--mode", "dollar",
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("71150.00,diverged,0.00,4182.00,6208.00,6208.00,")


def test_scan_unopenable_out_exit_2(brooklyn_file, tmp_path, capsys):
    # An output path that cannot be opened is a bad option value.
    missing = tmp_path / "missing" / "scan.csv"
    code = main(["scan", brooklyn_file, "--from", "71150", "--to", "71150", "--out", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not missing.parent.exists()


def test_scan_rejects_reversed_range(brooklyn_file, capsys):
    assert main(["scan", brooklyn_file, "--from", "200", "--to", "100"]) == 2


# argv with the scenario path as its second word: "{brooklyn}" or a file that does not exist.
BAD_OPTION_VALUES = [
    (["scan", "{brooklyn}", "--from", "71050", "--to", "71250", "--step", "0.5"], 2),
    (["scan", "{brooklyn}", "--from", "71050", "--to", "71250", "--step", "-5"], 2),
    (["iterate", "{brooklyn}", "--max-iter", "1"], 2),
    (["compare", "{brooklyn}", "--max-iter", "1"], 2),
    (["scan", "{brooklyn}", "--from", "abc", "--to", "71250"], 2),
    (["solve", "{missing}"], 2),
    (["solve", "{brooklyn}", "--params", "{params_2019}"], 3),
]


@pytest.mark.parametrize(
    "argv, expected",
    BAD_OPTION_VALUES,
    ids=[f"argv{i}" for i in range(len(BAD_OPTION_VALUES))],
)
def test_bad_option_values_exit_2(brooklyn_file, tmp_path, capsys, argv, expected):
    paths = {
        "brooklyn": brooklyn_file,
        "missing": str(tmp_path / "missing.scenario"),
        "params_2019": str(resources.files("ptcsolver.data") / "2019.params"),
    }
    code = main([word.format(**paths) for word in argv])
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if expected == 3:
        assert "parameter file is for 2019, scenario wants 2018" in captured.err
