"""Output checks that share no search logic with the solver.

Every check recomputes what it needs from the scenario with public
building blocks: the ``Fraction`` credit twin ``ptc_of_deduction_reference``,
the income helpers and the repayment tables.  None of it calls the
bisection, the integer kernel's search or the reconciliation being
checked.  A check returns None when the output is right, or a short
reason naming what is wrong.
"""

from __future__ import annotations

import hashlib
import io
import json
from fractions import Fraction
from typing import Callable

from ptcsolver import (
    UNLIMITED,
    FilingStatus,
    IterationStatus,
    Money,
    NetOutcome,
    PtcContext,
    ScanResult,
    Solution,
    SolveMethod,
    brute_force_max_feasible,
    household_income,
    optimal_deduction,
    run_iteration,
    student_loan_deduction,
    write_csv,
)
from ptcsolver.bisection import search_domain_upper
from ptcsolver.ptc import ptc_of_deduction_reference

ONE_DOLLAR = Money(100)


def _outlay(ctx: PtcContext, deduction: Money) -> Money:
    """g(d) = d + credit(d), with the credit from the Fraction reference."""
    return deduction + ptc_of_deduction_reference(ctx, deduction)


def check_solution(ctx: PtcContext, solution: Solution) -> str | None:
    """The certificate must hold and agree with the reference recomputation."""
    sc = ctx.scenario
    q = sc.purchased_premium
    d = solution.deduction
    cert = solution.certificate
    if not Money(0) <= d <= sc.billed_balance:
        return "deduction outside [0, Q - APTC]"
    if solution.ptc != ptc_of_deduction_reference(ctx, d):
        return "credit differs from the reference credit at d"
    if cert.threshold != q:
        return "certificate threshold is not Q"
    g_at = _outlay(ctx, d)
    if cert.value_at != g_at:
        return "certificate g(d) differs from the reference"
    if g_at > q:
        return "g(d) exceeds Q"
    if solution.method is SolveMethod.INELIGIBLE_FULL_DEDUCTION:
        if d != sc.billed_balance or cert.value_above is not None:
            return "ineligible return does not deduct the whole billed balance"
        return None
    above = d + ONE_DOLLAR
    if above > search_domain_upper(ctx):
        if cert.value_above is not None:
            return "certificate evaluates g beyond the search domain"
        return None
    g_above = _outlay(ctx, above)
    if cert.value_above != g_above:
        return "certificate g(d + $1) differs from the reference"
    if g_above <= q:
        return "not maximal: g(d + $1) <= Q"
    return None


def _expected_outcome(ctx: PtcContext, solution: Solution) -> NetOutcome:
    sc = ctx.scenario
    advance, ptc = sc.advance_credit, solution.ptc
    if ptc >= advance:
        return NetOutcome(ptc - advance, Money(0), None, None)
    income = household_income(ctx, solution.deduction)
    if sc.student_loan_cap is not None:
        income = income - student_loan_deduction(sc.student_loan_cap, income)
    m = max(Fraction(0), Fraction(income.cents, sc.poverty_line.cents))
    table = ctx.params.repayment_table
    r, s, t = table.single_limits() if sc.filing_status is FilingStatus.SINGLE else table.other_limits()
    limitation = UNLIMITED if m >= 4 else r if m < 2 else s if m < 3 else t
    shortfall = advance - ptc
    repayment = shortfall if limitation is UNLIMITED else min(shortfall, limitation)
    return NetOutcome(Money(0), repayment, advance - repayment, limitation)


def check_return(ctx: PtcContext, solution: Solution, net: NetOutcome,
                 whole: tuple[Money, Money]) -> str | None:
    """Check one filed return: solve, reconciliation and whole-dollar entry."""
    reason = check_solution(ctx, solution)
    if reason:
        return reason
    if net != _expected_outcome(ctx, solution):
        return "reconciliation differs from the repayment table"
    floored = Money(solution.deduction.cents // 100 * 100)
    if whole != (floored, ptc_of_deduction_reference(ctx, floored)):
        return "whole-dollar view differs from the reference"
    return None


def return_record(solution: Solution, net: NetOutcome, whole: tuple[Money, Money]) -> dict:
    """The solve fields a user sees, as plain strings, for the output digest."""
    def amount(value: Money | None) -> str | None:
        return None if value is None else value.as_decimal()

    limitation = net.limitation
    return {
        "d": amount(solution.deduction),
        "ptc": amount(solution.ptc),
        "method": solution.method.value,
        "iterations": solution.iterations,
        "certificate": [amount(solution.certificate.value_at),
                        amount(solution.certificate.value_above),
                        amount(solution.certificate.threshold)],
        "reconciliation": [amount(net.additional_credit), amount(net.repayment),
                           amount(net.total_benefit),
                           "unlimited" if limitation is UNLIMITED else amount(limitation)],
        "whole_dollars": [amount(whole[0]), amount(whole[1])],
    }


class Digest:
    """SHA-256 over canonical JSON lines or text blocks, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, item: object) -> None:
        text = item if isinstance(item, str) else json.dumps(item, sort_keys=True, separators=(",", ":"))
        self._hash.update(text.encode("utf-8") + b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def scan_csv(result: ScanResult) -> str:
    """The sweep's CSV report at cent precision, as ``ptcsolve scan --cents`` writes it."""
    out = io.StringIO()
    write_csv(result.records, out, cents=True)
    return out.getvalue()


def check_scan_records(result: ScanResult) -> list[tuple[Money, str]]:
    """Records whose bisection deduction is more than $1 from the oracle's."""
    return [
        (r.income, "bisection_d not within $1 of oracle_d")
        for r in result.records
        if abs(r.bisection_d - r.oracle_d) > ONE_DOLLAR
    ]


def criterion8_fact(result: ScanResult, poverty_line: Money, top_figure: Fraction,
                    income: Money) -> str | None:
    """A divergence interval holds ``income``; its upper edge is near 4F + f(4)*4F."""
    containing = [s for s in result.intervals.get("irs_diverges", []) if s[0] <= income <= s[1]]
    if not containing:
        return f"no irs_diverges interval contains {income}"
    four_f = (poverty_line * 4).dollars
    predicted = four_f + top_figure * four_f
    if abs(containing[0][1].dollars - predicted) > 200:
        return "divergence upper edge more than $200 from 4F + f(4)*4F"
    return None


def criterion9_fact(result: ScanResult, ctx_at: Callable[[Money], PtcContext]) -> str | None:
    """Near the 133% jump, d + PTC(d) = Q has no solution within $1, yet the
    certificate proves maximality and the iteration diverges.

    ``ctx_at(income)`` builds the sweep's context at an income.
    """
    gaps = [r for r in result.records if not r.equation_solvable]
    if not gaps:
        return "no equation-gap income near the 133% jump"
    record = gaps[len(gaps) // 2]
    ctx = ctx_at(record.income)
    q = ctx.scenario.purchased_premium
    solution = optimal_deduction(ctx)
    cert = solution.certificate
    if not cert.value_at <= q - ONE_DOLLAR:
        return "equation-gap income attains Q within $1"
    if cert.value_above is None or not cert.value_above > q:
        return "equation-gap certificate does not prove maximality"
    if solution.deduction != brute_force_max_feasible(ctx, Money(1)):
        return "equation-gap solve differs from the cent-lattice oracle"
    m = Fraction(ctx.scenario.income.cents, ctx.scenario.poverty_line.cents)
    if not Fraction("1.33") < m < Fraction("1.45"):
        return "equation-gap income is not just above 133% of the poverty line"
    if run_iteration(ctx).status is not IterationStatus.DIVERGED_DO_NOT_USE or record.irs_status != "diverged":
        return "iteration does not diverge at the equation-gap income"
    return None

