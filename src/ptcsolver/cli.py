"""Command line interface: solve, iterate, compare, and scan.

Scenarios come from a ``key = value`` file, from repeatable
``--set KEY=VALUE`` flags, or both (flags win key-by-key, so a file can
serve as a sweep template).  Exit codes are a stable contract:

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
from .bisection import Solution, optimal_deduction, whole_dollar_view
from .money import Money, RoundingMode
from .params import TaxYearParams, load_tax_year_params, tax_year_params
from .ptc import PtcContext, ptc_of_deduction
from .reconcile import NetOutcome, Unlimited, reconcile
from .scenario import Scenario, parse_scenario

if TYPE_CHECKING:
    from .iteration import IterationOutcome

EXIT_OK = 0
EXIT_BAD_SCENARIO = 2
EXIT_BAD_TAX_YEAR = 3
EXIT_DIVERGED = 4
EXIT_BUDGET = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _rounding(mode: str) -> RoundingMode:
    return RoundingMode.DOLLAR if mode == "dollar" else RoundingMode.CENT


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
    return PtcContext(scenario, params, _rounding(args.mode))


def canonical_json(payload: object) -> str:
    """Stable rendering: parsing and re-rendering yields identical bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _money_str(amount: Money) -> str:
    return amount.as_decimal()


def _limitation_json(outcome: NetOutcome) -> object:
    if outcome.limitation is None:
        return None
    if isinstance(outcome.limitation, Unlimited):
        return "unlimited"
    return _money_str(outcome.limitation)


def _reconciliation_json(outcome: NetOutcome) -> dict:
    return {
        "additional_credit": _money_str(outcome.additional_credit),
        "repayment": _money_str(outcome.repayment),
        "total_benefit": None if outcome.total_benefit is None else _money_str(outcome.total_benefit),
        "limitation": _limitation_json(outcome),
    }


def _solution_json(ctx: PtcContext, solution: Solution, whole: bool) -> dict:
    payload = {
        "d": _money_str(solution.deduction),
        "ptc": _money_str(solution.ptc),
        "method": solution.method.value,
        "iterations": solution.iterations,
        "certificate": {
            "at": _money_str(solution.certificate.value_at),
            "above": None
            if solution.certificate.value_above is None
            else _money_str(solution.certificate.value_above),
            "threshold": _money_str(solution.certificate.threshold),
        },
        "reconciliation": _reconciliation_json(reconcile(ctx, solution)),
    }
    if whole:
        d, ptc = whole_dollar_view(ctx, solution)
        payload["whole_dollars"] = {"d": _money_str(d), "ptc": _money_str(ptc)}
    return payload


def _print_reconciliation(outcome: NetOutcome) -> None:
    if outcome.repayment > Money(0) or outcome.total_benefit is not None:
        limit = outcome.limitation
        limit_text = repr(limit) if isinstance(limit, Unlimited) else str(limit)
        print(f"repayment: {outcome.repayment} (limitation {limit_text})")
        print(f"total benefit kept: {outcome.total_benefit}")
    else:
        print(f"additional credit at filing: {outcome.additional_credit}")


def _cmd_solve(args: argparse.Namespace) -> int:
    ctx = _context(args)
    solution = optimal_deduction(ctx)
    if args.json:
        print(canonical_json(_solution_json(ctx, solution, args.whole_dollars)))
        return EXIT_OK
    print(f"deduction: {solution.deduction}")
    print(f"credit:    {solution.ptc}")
    print(f"method:    {solution.method.value} ({solution.iterations} bisection steps)")
    cert = solution.certificate
    above = "domain boundary" if cert.value_above is None else f"{cert.value_above} > Q"
    print(f"certificate: d + PTC(d) = {cert.value_at} <= Q = {cert.threshold}; at d + $1: {above}")
    if args.whole_dollars:
        d, ptc = whole_dollar_view(ctx, solution)
        print(f"whole-dollar entry: deduction {d}, credit {ptc}")
    _print_reconciliation(reconcile(ctx, solution))
    return EXIT_OK


def _iterate_json(ctx: PtcContext, outcome: IterationOutcome) -> dict:
    from .iteration import simplified_method

    def point(p) -> dict:
        return {"n": p.index, "c": _money_str(p.credit), "d": _money_str(p.deduction)}

    d2, c3 = simplified_method(ctx)
    payload = {
        "status": outcome.status.value,
        "settled": None if outcome.settled is None else point(outcome.settled),
        "cycle": None
        if outcome.cycle is None
        else {"period": outcome.cycle.period, "points": [point(p) for p in outcome.cycle.points]},
        "liminf_d": None if outcome.liminf_d is None else _money_str(outcome.liminf_d),
        "simplified": {"d2": _money_str(d2), "c3": _money_str(c3)},
        "trace": [point(p) for p in outcome.trace],
        "start_clamped": outcome.start_clamped,
    }
    return payload


def _check_max_iter(args: argparse.Namespace) -> None:
    if args.max_iter < 2:
        raise _CliError(f"--max-iter must be at least 2, got {args.max_iter}", EXIT_BAD_SCENARIO)


def _cmd_iterate(args: argparse.Namespace) -> int:
    from .iteration import IterationStatus, liminf_deduction, run_iteration, simplified_method

    _check_max_iter(args)
    ctx = _context(args)
    outcome = run_iteration(ctx, max_iter=args.max_iter)
    code = {
        IterationStatus.CONVERGED_IRS_SENSE: EXIT_OK,
        IterationStatus.DIVERGED_DO_NOT_USE: EXIT_DIVERGED,
        IterationStatus.BUDGET_EXHAUSTED: EXIT_BUDGET,
    }[outcome.status]
    if args.json:
        print(canonical_json(_iterate_json(ctx, outcome)))
        return code

    print(f"status: {outcome.status.value}")
    if outcome.start_clamped:
        print("note: starting deduction clamped to keep the first step credit-eligible")
    if args.trace:
        print("n,C,D")
        for p in outcome.trace:
            print(f"{p.index},{p.credit.as_decimal()},{p.deduction.as_decimal()}")
    if outcome.settled is not None:
        s = outcome.settled
        print(f"settled at n={s.index}: credit {s.credit}, deduction {s.deduction}")
    if outcome.cycle is not None:
        pts = " -> ".join(f"({p.credit}, {p.deduction})" for p in outcome.cycle.points)
        print(f"cycle of period {outcome.cycle.period}: {pts}")
    if outcome.status is not IterationStatus.BUDGET_EXHAUSTED:
        print(f"liminf deduction: {liminf_deduction(outcome)}")
    d2, c3 = simplified_method(ctx)
    print(f"simplified method: deduction {d2}, credit {c3}")
    return code


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import brute_force_max_feasible
    from .iteration import IterationStatus, liminf_deduction, run_iteration, simplified_method

    _check_max_iter(args)
    ctx = _context(args)
    outcome = run_iteration(ctx, max_iter=args.max_iter)
    d2, c3 = simplified_method(ctx)
    solution = optimal_deduction(ctx)
    oracle_d = brute_force_max_feasible(ctx, Money(100))
    gap = solution.ptc - c3
    d0: Money | None = None
    d0_ptc: Money | None = None
    if outcome.status is not IterationStatus.BUDGET_EXHAUSTED:
        d0 = liminf_deduction(outcome)
        d0_ptc = ptc_of_deduction(ctx, d0)

    if args.json:
        def pair(d: Money | None, ptc: Money | None) -> dict:
            return {
                "d": None if d is None else _money_str(d),
                "ptc": None if ptc is None else _money_str(ptc),
            }

        payload = {
            "iterative": {
                "status": outcome.status.value,
                **pair(
                    None if outcome.settled is None else outcome.settled.deduction,
                    None if outcome.settled is None else outcome.settled.credit,
                ),
            },
            "simplified": pair(d2, c3),
            "liminf": pair(d0, d0_ptc),
            "bisection": pair(solution.deduction, solution.ptc),
            "oracle": {"d": _money_str(oracle_d)},
            "benefit_gap": _money_str(gap),
        }
        print(canonical_json(payload))
        return EXIT_OK

    rows = [("method", "deduction", "credit")]
    if outcome.settled is not None:
        rows.append(("iterative", str(outcome.settled.deduction), str(outcome.settled.credit)))
    else:
        rows.append((f"iterative ({outcome.status.value})", "-", "-"))
    rows.append(("simplified", str(d2), str(c3)))
    rows.append(("liminf extension", str(d0) if d0 is not None else "-", str(d0_ptc) if d0_ptc is not None else "-"))
    rows.append(("bisection", str(solution.deduction), str(solution.ptc)))
    rows.append(("oracle ($1 lattice)", str(oracle_d), ""))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    print(f"benefit gap (bisection - simplified): {gap}")
    return EXIT_OK


def _parse_cli_money(label: str, raw: str) -> Money:
    try:
        return Money.from_dollars(raw)
    except (ValueError, TypeError) as exc:
        raise _CliError(f"bad {label}: {exc}", EXIT_BAD_SCENARIO) from None


def _cmd_scan(args: argparse.Namespace) -> int:
    from .analysis import print_interval_summary, scan_divergence, write_csv

    scenario = _load_scenario(args)
    params = _load_params(args, scenario)
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
        result = scan_divergence(scenario, lo, hi, step, params, _rounding(args.mode))
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
            help="set or override a scenario key (F, P, Q, I, APTC, d0, filing_status, "
            "tax_year, below_poverty_exception, student_loan_k)",
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
