"""Command line interface: solve, iterate, compare, and scan.

Scenarios come from a ``key = value`` file, from repeatable
``--set KEY=VALUE`` flags, or both (flags win key-by-key, so a file can
serve as a sweep template).  ``solve``, ``iterate`` and ``compare`` each
build one report of the command's values: ``--json`` prints it, and the
text output is a view of the same report.  Exit codes are a stable contract:

* 0 - success (for ``iterate``: converged)
* 2 - invalid scenario or option value
* 3 - unknown tax year or bad parameter file
* 4 - ``iterate`` hit the guidance's do-not-use divergence condition
* 5 - ``iterate`` exhausted its step budget
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ._kv import DocumentError
from .bisection import optimal_deduction, whole_dollar_view
from .money import Money, RoundingMode
from .params import TaxYearParams, load_tax_year_params, tax_year_params
from .ptc import PtcContext, ptc_of_deduction
from .reconcile import Unlimited, reconcile
from .scenario import _FIELDS, Scenario, parse_scenario

if TYPE_CHECKING:
    from .iteration import IterationPoint

EXIT_OK = 0
EXIT_BAD_SCENARIO = 2
EXIT_BAD_TAX_YEAR = 3
EXIT_DIVERGED = 4
EXIT_BUDGET = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_scenario(args: argparse.Namespace) -> Scenario:
    overrides: dict[str, str] = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise _CliError(f"--set expects KEY=VALUE, got {item!r}", EXIT_BAD_SCENARIO)
        overrides[key.strip()] = value.strip()
    source = Path(args.scenario) if args.scenario else None
    if source is None and not overrides:
        raise _CliError("no scenario given: pass a scenario file or --set flags", EXIT_BAD_SCENARIO)
    try:
        return parse_scenario(source, overrides)
    except DocumentError as exc:
        message = f"invalid scenario: {exc}"
        if exc.line is None and exc.key in overrides:  # no line number: an override
            message += f" from --set {exc.key}={overrides[exc.key]}"
        raise _CliError(message, EXIT_BAD_SCENARIO) from None
    except OSError as exc:
        raise _CliError(f"invalid scenario: {exc}", EXIT_BAD_SCENARIO) from None


def _load_params(args: argparse.Namespace, scenario: Scenario) -> TaxYearParams:
    try:
        if args.params:
            params = load_tax_year_params(Path(args.params))
            if params.year != scenario.tax_year:
                raise _CliError(
                    f"parameter file is for {params.year}, scenario wants {scenario.tax_year}",
                    EXIT_BAD_TAX_YEAR,
                )
            return params
        return tax_year_params(scenario.tax_year)
    except KeyError as exc:
        raise _CliError(f"unknown tax year: {exc.args[0]}", EXIT_BAD_TAX_YEAR) from None
    except (DocumentError, OSError) as exc:
        raise _CliError(f"bad parameter file: {exc}", EXIT_BAD_TAX_YEAR) from None


def _context(args: argparse.Namespace) -> PtcContext:
    scenario = _load_scenario(args)
    params = _load_params(args, scenario)
    rounding = RoundingMode.DOLLAR if args.mode == "dollar" else RoundingMode.CENT
    return PtcContext(scenario, params, rounding)


def _report_value(value: object) -> str:
    if isinstance(value, Money):
        return value.as_decimal()
    if isinstance(value, Unlimited):
        return "unlimited"
    raise TypeError(f"{type(value).__name__} is not a report value")


def canonical_json(payload: object) -> str:
    """Stable rendering: parsing and re-rendering yields identical bytes.
    ``Money`` renders as ``"6208.00"``, ``UNLIMITED`` as ``"unlimited"``."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_report_value)


def _print_csv(header: str, rows: list[dict]) -> None:
    print(header)
    for row in rows:
        print(",".join(v.as_decimal() if isinstance(v, Money) else str(v) for v in row.values()))


def _cmd_solve(args: argparse.Namespace) -> int:
    ctx = _context(args)
    solution = optimal_deduction(ctx)
    cert, outcome = solution.certificate, reconcile(ctx, solution)
    report = {
        "d": solution.deduction,
        "ptc": solution.ptc,
        "method": solution.method.value,
        "iterations": solution.iterations,
        "certificate": {"at": cert.value_at, "above": cert.value_above, "threshold": cert.threshold},
        "reconciliation": {"additional_credit": outcome.additional_credit, "repayment": outcome.repayment,
                           "total_benefit": outcome.total_benefit, "limitation": outcome.limitation},
    }
    if args.whole_dollars:
        d, ptc = whole_dollar_view(ctx, solution)
        report["whole_dollars"] = {"d": d, "ptc": ptc}
    if args.trace:
        report["trace"] = [{"k": k, "a": a, "b": b} for k, (a, b) in enumerate(solution.trace)]
    if args.json:
        print(canonical_json(report))
    else:
        _print_solve(report)
    return EXIT_OK


def _print_solve(r: dict) -> None:
    print(f"deduction: {r['d']}")
    print(f"credit:    {r['ptc']}")
    print(f"method:    {r['method']} ({r['iterations']} bisection steps)")
    if "trace" in r:
        _print_csv("k,a,b", r["trace"])
    cert = r["certificate"]
    above = "domain boundary" if cert["above"] is None else f"{cert['above']} > Q"
    print(f"certificate: d + PTC(d) = {cert['at']} <= Q = {cert['threshold']}; at d + $1: {above}")
    if "whole_dollars" in r:
        print(f"whole-dollar entry: deduction {r['whole_dollars']['d']}, credit {r['whole_dollars']['ptc']}")
    rec = r["reconciliation"]
    if rec["total_benefit"] is not None:
        print(f"repayment: {rec['repayment']} (limitation {rec['limitation']})")
        print(f"total benefit kept: {rec['total_benefit']}")
    else:
        print(f"additional credit at filing: {rec['additional_credit']}")


def _check_max_iter(args: argparse.Namespace) -> None:
    if args.max_iter < 2:
        raise _CliError(f"--max-iter must be at least 2, got {args.max_iter}", EXIT_BAD_SCENARIO)


def _point(p: IterationPoint | None) -> dict | None:
    return None if p is None else {"n": p.index, "c": p.credit, "d": p.deduction}


def _cmd_iterate(args: argparse.Namespace) -> int:
    from .iteration import IterationStatus, _simplified, run_iteration

    _check_max_iter(args)
    ctx = _context(args)
    outcome = run_iteration(ctx, max_iter=args.max_iter)
    d2, c3 = _simplified(ctx, outcome.pairs)
    cycle = outcome.cycle
    report = {
        "status": outcome.status.value,
        "settled": _point(outcome.settled),
        "cycle": None if cycle is None else {"period": cycle.period, "points": [_point(p) for p in cycle.points]},
        "liminf_d": outcome.liminf_d,
        "simplified": {"d2": d2, "c3": c3},
        "trace": [_point(p) for p in outcome.trace],
        "start_clamped": outcome.start_clamped,
    }
    if args.json:
        print(canonical_json(report))
    else:
        _print_iterate(report, args.trace)
    return {
        IterationStatus.CONVERGED_IRS_SENSE: EXIT_OK,
        IterationStatus.DIVERGED_DO_NOT_USE: EXIT_DIVERGED,
        IterationStatus.BUDGET_EXHAUSTED: EXIT_BUDGET,
    }[outcome.status]


def _print_iterate(r: dict, trace: bool) -> None:
    print(f"status: {r['status']}")
    if r["start_clamped"]:
        print("note: starting deduction clamped to keep the first step credit-eligible")
    if trace:
        _print_csv("n,C,D", r["trace"])
    if r["settled"] is not None:
        s = r["settled"]
        print(f"settled at n={s['n']}: credit {s['c']}, deduction {s['d']}")
    if r["cycle"] is not None:
        pts = " -> ".join(f"({p['c']}, {p['d']})" for p in r["cycle"]["points"])
        print(f"cycle of period {r['cycle']['period']}: {pts}")
    if r["liminf_d"] is not None:
        print(f"liminf deduction: {r['liminf_d']}")
    print(f"simplified method: deduction {r['simplified']['d2']}, credit {r['simplified']['c3']}")


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import brute_force_max_feasible
    from .iteration import _simplified, run_iteration

    _check_max_iter(args)
    ctx = _context(args)
    outcome = run_iteration(ctx, max_iter=args.max_iter)
    d2, c3 = _simplified(ctx, outcome.pairs)
    solution = optimal_deduction(ctx)
    settled, d0 = outcome.settled, outcome.liminf_d
    report = {
        "iterative": {
            "status": outcome.status.value,
            "d": None if settled is None else settled.deduction,
            "ptc": None if settled is None else settled.credit,
        },
        "simplified": {"d": d2, "ptc": c3},
        "liminf": {"d": d0, "ptc": None if d0 is None else ptc_of_deduction(ctx, d0)},
        "bisection": {"d": solution.deduction, "ptc": solution.ptc},
        "oracle": {"d": brute_force_max_feasible(ctx, Money(100))},
        "benefit_gap": solution.ptc - c3,
    }
    if args.json:
        print(canonical_json(report))
    else:
        _print_compare(report)
    return EXIT_OK


def _print_compare(r: dict) -> None:
    iterative = r["iterative"]
    labels = {
        "iterative": "iterative" if iterative["d"] is not None else f"iterative ({iterative['status']})",
        "simplified": "simplified",
        "liminf": "liminf extension",
        "bisection": "bisection",
        "oracle": "oracle ($1 lattice)",
    }
    rows = [("method", "deduction", "credit")]
    for key, label in labels.items():
        cells = (r[key]["d"], r[key].get("ptc", ""))
        rows.append((label, *("-" if v is None else str(v) for v in cells)))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    print(f"benefit gap (bisection - simplified): {r['benefit_gap']}")


def _parse_cli_money(label: str, raw: str) -> Money:
    try:
        return Money.from_dollars(raw)
    except (ValueError, TypeError) as exc:
        raise _CliError(f"bad {label}: {exc}", EXIT_BAD_SCENARIO) from None


def _cmd_scan(args: argparse.Namespace) -> int:
    from .analysis import print_interval_summary, scan_divergence, write_csv

    ctx = _context(args)
    lo = _parse_cli_money("--from", args.income_from)
    hi = _parse_cli_money("--to", args.income_to)
    step = _parse_cli_money("--step", args.step)
    if step < Money(100):
        raise _CliError(f"--step must be at least $1, got {step}", EXIT_BAD_SCENARIO)
    if lo > hi:
        raise _CliError(f"--from {lo} exceeds --to {hi}", EXIT_BAD_SCENARIO)
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise _CliError(f"cannot write --out: {exc}", EXIT_BAD_SCENARIO) from None
    with out as stream:
        result = scan_divergence(ctx.scenario, lo, hi, step, ctx.params, ctx.rounding)
        write_csv(result.records, stream, cents=args.cents)
    for income, message in result.failures:
        print(f"skipped {income}: {message}", file=sys.stderr)
    print_interval_summary(result.intervals, sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptcsolve",
        description="Solve the circular premium-tax-credit / self-employed "
        "health-insurance-deduction calculation exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", nargs="?", help="scenario file (key = value lines)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help=f"set or override a scenario key ({', '.join(_FIELDS)})",
        )
        p.add_argument("--params", help="tax-year parameter file (default: bundled by tax_year)")
        p.add_argument(
            "--mode",
            choices=("cent", "dollar"),
            default="cent",
            help="intermediate rounding: cent (default) or dollar (reproduces "
            "whole-dollar worked examples)",
        )

    p_solve = sub.add_parser("solve", help="optimal deduction and credit, with certificate")
    add_common(p_solve)
    p_solve.add_argument("--whole-dollars", action="store_true", help="also report form-ready whole-dollar values")
    p_solve.add_argument("--trace", action="store_true", help="print every bisection bracket")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(fn=_cmd_solve)

    p_iter = sub.add_parser("iterate", help="run the guidance's iterative calculation method")
    add_common(p_iter)
    p_iter.add_argument("--max-iter", type=int, default=500)
    p_iter.add_argument("--trace", action="store_true", help="print every iterate")
    p_iter.add_argument("--json", action="store_true")
    p_iter.set_defaults(fn=_cmd_iterate)

    p_cmp = sub.add_parser("compare", help="all methods side by side")
    add_common(p_cmp)
    p_cmp.add_argument("--max-iter", type=int, default=500)
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_scan = sub.add_parser("scan", help="sweep incomes and map breakdown intervals")
    add_common(p_scan)
    p_scan.add_argument("--from", dest="income_from", required=True, help="first income")
    p_scan.add_argument("--to", dest="income_to", required=True, help="last income")
    p_scan.add_argument("--step", default="50", help="income grid step (default $50)")
    p_scan.add_argument("--out", help="CSV output path (default stdout)")
    p_scan.add_argument("--cents", action="store_true", help="CSV amounts at cent precision")
    p_scan.set_defaults(fn=_cmd_scan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
