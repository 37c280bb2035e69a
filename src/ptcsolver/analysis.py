"""Independent verification and breakdown mapping.

Two jobs live here.  First, a brute-force oracle: an exhaustive lattice
scan for the largest feasible deduction, used to verify the bisection
solver without sharing any of its search logic.  Second, an income
scanner that sweeps a scenario template across an income range and maps
where the guidance's iteration fails and where the constraint equation
``d + credit(d) = Q`` has no solution, both of which happen on real
parameter tables because the credit function jumps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TextIO

from .bisection import optimal_deduction, search_domain_upper
from .iteration import IterationStatus, _simplified, run_iteration
from .money import Money, RoundingMode, round_cents
from .params import TaxYearParams
from .ptc import PtcContext
from .scenario import Scenario
from .search import last_true

CSV_HEADER = "income,irs_status,simplified_ptc,bisection_ptc,bisection_d,oracle_d,equation_solvable,benefit_gap"

_STATUS_LABEL = {
    IterationStatus.CONVERGED_IRS_SENSE: "converged",
    IterationStatus.DIVERGED_DO_NOT_USE: "diverged",
    IterationStatus.BUDGET_EXHAUSTED: "budget_exhausted",
}


@dataclass(frozen=True)
class ScanRecord:
    """Per-income comparison of every method against the oracle."""

    income: Money
    irs_status: str
    simplified_ptc: Money
    bisection_ptc: Money
    bisection_d: Money
    oracle_d: Money
    equation_solvable: bool
    benefit_gap: Money


@dataclass
class ScanResult:
    records: list[ScanRecord]
    intervals: dict[str, list[tuple[Money, Money]]]
    failures: list[tuple[Money, str]] = field(default_factory=list)


def brute_force_max_feasible(ctx: PtcContext, step: Money = Money(100)) -> Money:
    """Largest feasible deduction by exhaustive scan of the lattice.

    Walks d = 0, step, 2*step, ... up to (and including) the search
    domain's upper end, keeping the largest d with d + credit(d) <= Q.
    Makes no monotonicity assumption; this is the independent check the
    solver is measured against.  Ineligible households scan the whole
    billed balance, mirroring the solver's full-deduction fallback.
    """
    if step.cents not in (1, 100):
        raise ValueError(f"oracle step must be $0.01 or $1, got {step}")
    sc = ctx.scenario
    upper = search_domain_upper(ctx)
    if upper < Money(0):
        upper = sc.billed_balance
    credit = ctx.credit_cents
    threshold_c = sc.purchased_premium.cents
    upper_c, step_c = upper.cents, step.cents

    best = 0
    for dc in range(0, upper_c + 1, step_c):
        if dc + credit(dc) <= threshold_c:
            best = dc
    if upper_c % step_c and upper_c + credit(upper_c) <= threshold_c:
        best = max(best, upper_c)
    return Money(best)


def _grid(lo: Money, hi: Money, step: Money) -> Iterator[Money]:
    if lo > hi:
        raise ValueError(f"empty income range [{lo}, {hi}]")
    if step < Money(100):
        raise ValueError(f"income step must be at least $1, got {step}")
    current = lo
    while current <= hi:
        yield current
        current = current + step


def scan_point(template: Scenario, income: Money, params: TaxYearParams,
               rounding: RoundingMode = RoundingMode.CENT) -> ScanRecord:
    """Run every method at one income and package the comparison."""
    return _scan_scenario(template.with_income(income), params, rounding)


def _scan_scenario(scenario: Scenario, params: TaxYearParams, rounding: RoundingMode) -> ScanRecord:
    ctx = PtcContext(scenario, params, rounding)
    outcome = run_iteration(ctx, max_iter=2000)
    _, simplified_credit = _simplified(ctx, outcome.pairs)
    solution = optimal_deduction(ctx)
    oracle_d = brute_force_max_feasible(ctx, Money(100))
    slack = ctx.scenario.purchased_premium - (solution.deduction + solution.ptc)
    return ScanRecord(
        income=scenario.income,
        irs_status=_STATUS_LABEL[outcome.status],
        simplified_ptc=simplified_credit,
        bisection_ptc=solution.ptc,
        bisection_d=solution.deduction,
        oracle_d=oracle_d,
        equation_solvable=slack < Money(100),
        benefit_gap=solution.ptc - simplified_credit,
    )


def scan_records(
    template: Scenario,
    income_lo: Money,
    income_hi: Money,
    step: Money,
    params: TaxYearParams,
    rounding: RoundingMode = RoundingMode.CENT,
    on_error: Callable[[Money, ValueError], None] | None = None,
) -> Iterator[ScanRecord]:
    """Stream scan records in ascending income order.

    A grid income the template cannot take (for example one below the
    purchased premium) makes scenario validation raise ``ValueError``;
    with ``on_error`` set that point goes to it and the sweep goes on.
    Any other error, and every error without ``on_error``, propagates.
    """
    for income in _grid(income_lo, income_hi, step):
        try:
            scenario = template.with_income(income)
        except ValueError as exc:
            if on_error is None:
                raise
            on_error(income, exc)
            continue
        yield _scan_scenario(scenario, params, rounding)


def _classify(record: ScanRecord) -> dict[str, bool]:
    # A diverging iteration only makes the interval map when it costs the
    # household credit; harmless divergence above the eligible range is
    # visible in the per-record status but is not a breakdown interval.
    return {
        "irs_diverges": record.irs_status == "diverged" and record.benefit_gap > Money(0),
        "equation_gap": not record.equation_solvable,
    }


def summarize_intervals(records: Iterable[ScanRecord]) -> dict[str, list[tuple[Money, Money]]]:
    """Merge adjacent grid points with the same classification.

    Returns, per classification, maximal [low, high] income intervals at
    grid resolution.
    """
    intervals: dict[str, list[tuple[Money, Money]]] = {"irs_diverges": [], "equation_gap": []}
    open_spans: dict[str, tuple[Money, Money] | None] = {k: None for k in intervals}
    for record in records:
        flags = _classify(record)
        for kind, active in flags.items():
            span = open_spans[kind]
            if active:
                open_spans[kind] = (span[0] if span else record.income, record.income)
            elif span is not None:
                intervals[kind].append(span)
                open_spans[kind] = None
    for kind, span in open_spans.items():
        if span is not None:
            intervals[kind].append(span)
    return intervals


def _refine_edge(
    template: Scenario,
    params: TaxYearParams,
    rounding: RoundingMode,
    kind: str,
    inside: Money,
    outside: Money,
) -> Money:
    """Bisect a classification boundary down to $1 grid resolution.

    Returns the income nearest ``outside`` still classified ``kind``.  An
    edge below its interval is searched on negated incomes, so the
    predicate holds on the near side in both directions.
    """
    sign = 1 if inside < outside else -1

    def is_inside(x: int) -> bool:
        return _classify(scan_point(template, Money(sign * x), params, rounding))[kind]

    edge, _ = last_true(is_inside, sign * inside.cents, sign * outside.cents, 100)
    return Money(sign * edge)


def scan_divergence(
    template: Scenario,
    income_lo: Money,
    income_hi: Money,
    step: Money,
    params: TaxYearParams,
    rounding: RoundingMode = RoundingMode.CENT,
    refine: bool = False,
) -> ScanResult:
    """Sweep the income grid and summarize breakdown intervals.

    With ``refine`` the interval endpoints are sharpened to $1 resolution
    by bisecting each classification boundary; by default they are
    reported at grid resolution.
    """
    failures: list[tuple[Money, str]] = []
    records = list(
        scan_records(
            template,
            income_lo,
            income_hi,
            step,
            params,
            rounding,
            on_error=lambda income, exc: failures.append((income, str(exc))),
        )
    )
    intervals = summarize_intervals(records)
    if refine and records:
        for kind, spans in intervals.items():
            sharpened = []
            for lo, hi in spans:
                new_lo, new_hi = lo, hi
                if lo - step >= income_lo:
                    new_lo = _refine_edge(template, params, rounding, kind, lo, lo - step)
                if hi + step <= income_hi:
                    new_hi = _refine_edge(template, params, rounding, kind, hi, hi + step)
                sharpened.append((new_lo, new_hi))
            intervals[kind] = sharpened
    return ScanResult(records=records, intervals=intervals, failures=failures)


def _format_amount(amount: Money, cents: bool) -> str:
    if cents:
        return amount.as_decimal()
    return str(round_cents(amount.cents, RoundingMode.DOLLAR) // 100)


def record_csv_row(record: ScanRecord, cents: bool = False) -> str:
    fields = [
        _format_amount(record.income, cents),
        record.irs_status,
        _format_amount(record.simplified_ptc, cents),
        _format_amount(record.bisection_ptc, cents),
        _format_amount(record.bisection_d, cents),
        _format_amount(record.oracle_d, cents),
        "true" if record.equation_solvable else "false",
        _format_amount(record.benefit_gap, cents),
    ]
    return ",".join(fields)


def write_csv(records: Iterable[ScanRecord], stream: TextIO, cents: bool = False) -> None:
    """Stream records as CSV; rows are written as they arrive."""
    print(CSV_HEADER, file=stream)
    for record in records:
        print(record_csv_row(record, cents), file=stream)


def print_interval_summary(
    intervals: dict[str, list[tuple[Money, Money]]], stream: TextIO = sys.stderr
) -> None:
    for kind in ("irs_diverges", "equation_gap"):
        rendered = ", ".join(f"[{lo}, {hi}]" for lo, hi in intervals.get(kind, []))
        print(f"{kind}: {rendered or 'none'}", file=stream)
