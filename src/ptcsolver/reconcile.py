"""Reconciling advance credit payments against the credit actually due.

When advance payments exceed the credit the return supports, the excess
must be repaid, but only up to a banded repayment limitation; at or above
four times the poverty line the limitation disappears.  The household's
total benefit is then the advance kept: APTC minus the repayment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bisection import Solution
from .money import Money
from .params import RepaymentTable
from .ptc import PtcContext, chained_income_cents
from .scenario import FilingStatus


class Unlimited:
    """Marker for the no-limitation band; deliberately supports no arithmetic."""

    _instance: "Unlimited | None" = None

    def __new__(cls) -> "Unlimited":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNLIMITED"


UNLIMITED = Unlimited()


def repayment_limitation(
    m: Fraction, status: FilingStatus, table: RepaymentTable
) -> Money | Unlimited:
    """Cap on repaying excess advance credit for an income multiple ``m``.

    Banded at the single-filer amounts (doubled for any other status)
    below twice, three times and four times the poverty line; unlimited
    from four times up.
    """
    if m < 0:
        raise ValueError(f"income multiple must be non-negative, got {m}")
    return _band_limitation(m.numerator, m.denominator, status, table)


def _band_limitation(
    num: int, den: int, status: FilingStatus, table: RepaymentTable
) -> Money | Unlimited:
    """The band rule on the income multiple ``num / den`` (``den > 0``);
    a negative multiple falls in the lowest band."""
    if num >= 4 * den:
        return UNLIMITED
    limits = (
        table.single_limits() if status is FilingStatus.SINGLE else table.other_limits()
    )
    return limits[(num >= 2 * den) + (num >= 3 * den)]


@dataclass(frozen=True)
class NetOutcome:
    """What reconciliation leaves the household with.

    Exactly one of ``additional_credit`` / ``repayment`` can be positive.
    ``total_benefit`` is the advance kept (APTC minus repayment); it is
    reported only in the repayment branch, where it can exceed the credit
    itself thanks to the limitation.
    """

    additional_credit: Money
    repayment: Money
    total_benefit: Money | None
    limitation: Money | Unlimited | None


def reconcile(ctx: PtcContext, solution: Solution) -> NetOutcome:
    """Settle the advance against the solved credit.

    If the credit covers the advance, the difference is paid out and no
    repayment arises.  Otherwise the shortfall is repaid up to the
    repayment limitation at the household's final income multiple.
    """
    sc = ctx.scenario
    advance = sc.advance_credit
    ptc = solution.ptc
    if ptc >= advance:
        return NetOutcome(
            additional_credit=ptc - advance,
            repayment=Money(0),
            total_benefit=None,
            limitation=None,
        )
    income = sc.effective_income.cents - solution.deduction.cents
    if sc.student_loan_cap is not None:
        income = chained_income_cents(income, sc.student_loan_cap.cents)
    limitation = _band_limitation(
        income, sc.poverty_line.cents, sc.filing_status, ctx.params.repayment_table
    )
    shortfall = advance - ptc
    repayment = shortfall if isinstance(limitation, Unlimited) else min(shortfall, limitation)
    return NetOutcome(
        additional_credit=Money(0),
        repayment=repayment,
        total_benefit=advance - repayment,
        limitation=limitation,
    )
