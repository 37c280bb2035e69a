"""The text output of ``solve``, ``iterate`` and ``compare`` is a view of ``--json``.

Each command runs twice on the same seeded scenario, once with ``--json``.
Every ``$`` amount in the text must equal, in cents, the report field its
line names below, and every ``-`` cell must be a JSON null.  The scenarios
cover advance payments over [0, Q], other deductions, the student-loan
phase-out, the below-poverty exception, incomes near the 4F cliff and a
step budget too small to settle.
"""

from __future__ import annotations

import itertools
import json
import random
import re

import pytest

from ptcsolver.cli import main

AMOUNT = r"-?\$\d{1,3}(?:,\d{3})*\.\d{2}"
# An amount, a "-" table cell (two spaces before it), or a word standing for a field.
TOKEN = re.compile(rf"{AMOUNT}|(?<=  )-(?=\s|$)|UNLIMITED|domain boundary")
WORDS = {"-": None, "domain boundary": None, "UNLIMITED": "unlimited"}

# line prefix -> (report fields of the line's tokens, in order; when the line shows).
# "when" is a field that must be non-null for the line to show ("!" for null), or "".
SOLVE_LINES = {
    "deduction:": (["d"], ""),
    "credit:": (["ptc"], ""),
    "certificate:": (["certificate.at", "certificate.threshold", "certificate.above"], ""),
    "whole-dollar entry:": (["whole_dollars.d", "whole_dollars.ptc"], "whole_dollars"),
    "repayment:": (["reconciliation.repayment", "reconciliation.limitation"], "reconciliation.total_benefit"),
    "total benefit kept:": (["reconciliation.total_benefit"], "reconciliation.total_benefit"),
    "additional credit at filing:": (["reconciliation.additional_credit"], "!reconciliation.total_benefit"),
}
ITERATE_LINES = {
    "settled at": (["settled.c", "settled.d"], "settled"),
    "cycle of period": (
        ["cycle.points.0.c", "cycle.points.0.d", "cycle.points.1.c", "cycle.points.1.d"],
        "cycle",
    ),
    "liminf deduction:": (["liminf_d"], "liminf_d"),
    "simplified method:": (["simplified.d2", "simplified.c3"], ""),
}
COMPARE_LINES = {
    "iterative": (["iterative.d", "iterative.ptc"], ""),
    "simplified": (["simplified.d", "simplified.ptc"], ""),
    "liminf extension": (["liminf.d", "liminf.ptc"], ""),
    "bisection": (["bisection.d", "bisection.ptc"], ""),
    "oracle ($1 lattice)": (["oracle.d"], ""),
    "benefit gap (bisection - simplified):": (["benefit_gap"], ""),
}
LINES = {"solve": SOLVE_LINES, "iterate": ITERATE_LINES, "compare": COMPARE_LINES}
# The CSV rows each command prints under --trace, and the report's trace columns.
TRACE = {"solve": ("k,a,b", ("k", "a", "b")), "iterate": ("n,C,D", ("n", "c", "d"))}


def _cents(amount: str) -> int:
    """``"$1,234.56"``, ``"-$5.00"`` or ``"1234.56"`` as integer cents."""
    return int(amount.replace("$", "").replace(",", "").replace(".", ""))


def _field(report: dict, path: str) -> object:
    value: object = report
    for part in path.split("."):
        if value is None:
            return None
        value = value[int(part)] if isinstance(value, list) else value.get(part)
    return value


def _as_view(value: object) -> object:
    """A JSON field as the text shows it: decimal strings as cents."""
    if isinstance(value, str) and re.fullmatch(r"-?\d+\.\d{2}", value):
        return _cents(value)
    return value


def _token(token: str) -> object:
    return WORDS[token] if token in WORDS else _cents(token)


def _scenario(rng: random.Random) -> list[str]:
    """``--set`` flags for one household over the whole option space."""
    f = rng.randrange(12000, 40001)
    q = rng.randrange(2000, 15001)
    if rng.random() < 0.4:  # near the 4F cliff, on either side of the deduction
        income = max(q, 4 * f + rng.randrange(-q, q + 1))
    else:
        income = rng.randrange(q, 6 * f + 1)
    pairs = {"F": f, "P": rng.randrange(q // 2, q + 1), "Q": q, "I": income,
             "tax_year": rng.choice(["2018", "2019"])}
    if rng.random() < 0.5:
        pairs["APTC"] = rng.choice([0, q, rng.randrange(0, q + 1)])
    if rng.random() < 0.3:
        pairs["d0"] = rng.randrange(0, 5001)
    if rng.random() < 0.3:
        pairs["student_loan_k"] = rng.randrange(0, 2501)
    if rng.random() < 0.3:
        pairs["below_poverty_exception"] = "true"
    if rng.random() < 0.3:
        pairs["filing_status"] = "other"
    return [arg for key, value in pairs.items() for arg in ("--set", f"{key}={value}")]


def _options(command: str, rng: random.Random) -> list[str]:
    if command == "solve":
        return [flag for flag in ("--trace", "--whole-dollars") if rng.random() < 0.5]
    options = ["--max-iter", "2"] if rng.random() < 0.2 else []
    return options + (["--trace"] if command == "iterate" else [])


def _check_view(command: str, text: str, report: dict) -> None:
    rules = LINES[command]
    seen = set()
    for line in text.splitlines():
        prefix = next((p for p in rules if line.startswith(p)), None)
        tokens = TOKEN.findall(line)
        if prefix is None:
            assert "$" not in line and not tokens, f"unchecked amount in {line!r}"
            continue
        fields, _ = rules[prefix]
        seen.add(prefix)
        view = [_as_view(_field(report, path)) for path in fields]
        assert [_token(t) for t in tokens] == view, (line, fields)
    for prefix, (_, when) in rules.items():
        shown = True if not when else (_field(report, when.lstrip("!")) is None) == when.startswith("!")
        assert (prefix in seen) == shown, (prefix, report)


def _check_trace(command: str, text: str, report: dict) -> None:
    header, columns = TRACE[command]
    lines = text.splitlines()
    rest = lines[lines.index(header) + 1:]
    rows = list(itertools.takewhile(re.compile(r"\d+,-?\d+\.\d{2},-?\d+\.\d{2}").fullmatch, rest))
    expected = [",".join(str(row[c]) for c in columns) for row in report["trace"]]
    assert rows == expected


@pytest.mark.parametrize("mode", ["cent", "dollar"])
@pytest.mark.parametrize("command", ["solve", "iterate", "compare"])
def test_text_is_a_view_of_the_json_report(command, mode, capsys):
    rng = random.Random(f"{command}-{mode}")
    for _ in range(200):
        argv = [command, "--mode", mode, *_scenario(rng), *_options(command, rng)]
        text_code = main(argv)
        text = capsys.readouterr().out
        json_code = main([*argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert text_code == json_code
        _check_view(command, text, report)
        if "--trace" in argv:
            _check_trace(command, text, report)
