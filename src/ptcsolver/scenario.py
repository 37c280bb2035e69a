"""Household scenarios: one return's inputs to the deduction/credit solver."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO

from ._kv import DocumentError, read_kv
from .money import Money


class FilingStatus(Enum):
    SINGLE = "single"
    OTHER = "other"


@dataclass(frozen=True)
class Scenario:
    """Inputs for a simple self-employed return.

    ``poverty_line`` (file key ``F``), ``benchmark_premium`` (``P``) and
    ``purchased_premium`` (``Q``) must be positive; ``income`` (``I``) is
    the relevant income before the health-insurance deduction and
    ``other_deductions`` (``d0``), and must cover the purchased premium.
    ``advance_credit`` (``APTC``) is capped by the purchased premium.
    ``below_poverty_exception`` keeps the household credit-eligible below
    the poverty line, using the 100%-of-poverty-line figure.
    ``student_loan_cap`` (``student_loan_k``), when present, chains the
    student-loan interest phase-out into household income.
    """

    poverty_line: Money
    benchmark_premium: Money
    purchased_premium: Money
    income: Money
    tax_year: str
    advance_credit: Money = Money(0)
    other_deductions: Money = Money(0)
    filing_status: FilingStatus = FilingStatus.SINGLE
    below_poverty_exception: bool = False
    student_loan_cap: Money | None = None

    def __post_init__(self) -> None:
        zero = Money(0)
        if not self.poverty_line > zero:
            raise ValueError(f"F must be positive, got {self.poverty_line}")
        if not self.benchmark_premium > zero:
            raise ValueError(f"P must be positive, got {self.benchmark_premium}")
        if not self.purchased_premium > zero:
            raise ValueError(f"Q must be positive, got {self.purchased_premium}")
        if self.income < self.purchased_premium:
            raise ValueError(
                f"I must be at least Q, got I={self.income} < Q={self.purchased_premium}"
            )
        if not zero <= self.advance_credit <= self.purchased_premium:
            raise ValueError(
                f"APTC must lie in [0, Q], got {self.advance_credit} with Q={self.purchased_premium}"
            )
        if self.other_deductions < zero:
            raise ValueError(f"d0 must be non-negative, got {self.other_deductions}")
        if self.student_loan_cap is not None and self.student_loan_cap < zero:
            raise ValueError(f"student_loan_k must be non-negative, got {self.student_loan_cap}")
        if not self.tax_year:
            raise ValueError("tax_year must be non-empty")

    @property
    def billed_balance(self) -> Money:
        """Premium actually billed after advance payments: Q - APTC."""
        return self.purchased_premium - self.advance_credit

    @property
    def effective_income(self) -> Money:
        """Income after the non-circular above-the-line deductions: I - d0."""
        return self.income - self.other_deductions

    def with_income(self, income: Money) -> "Scenario":
        """Copy with a different income; used by the income scanner."""
        return replace(self, income=income)


_FIELD_KEYS = (
    "F",
    "P",
    "Q",
    "I",
    "APTC",
    "d0",
    "filing_status",
    "tax_year",
    "below_poverty_exception",
    "student_loan_k",
)
_REQUIRED_KEYS = ("F", "P", "Q", "I", "tax_year")


def _parse_bool(key: str, raw: str, line: int | None) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise DocumentError(f"expected true/false, got {raw!r}", key=key, line=line)


def parse_scenario(
    source: str | Path | IO[str] | None, overrides: dict[str, str] | None = None
) -> Scenario:
    """Parse a scenario document, with optional key-by-key overrides.

    ``source`` is the document text as a ``str``, a file as a
    :class:`~pathlib.Path` or an open text file, or ``None`` for a
    scenario made of ``overrides`` alone.  A file name passed as a ``str``
    is read as text and fails with :class:`DocumentError`.

    ``overrides`` maps document keys (``F``, ``I``, ...) to raw values and
    wins over the document, which lets one file act as a sweep template.
    Raises :class:`DocumentError` naming the offending key and, for a
    document entry, its line; an override has no line (``line`` is None).
    """
    entries: dict[str, tuple[str, int | None]] = dict(read_kv(source)) if source is not None else {}
    for key, value in (overrides or {}).items():
        entries[key] = (value, None)

    for key in entries:
        if key not in _FIELD_KEYS:
            raise DocumentError("unknown field", key=key, line=entries[key][1])
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise DocumentError("missing required field", key=key)

    def money_of(key: str) -> Money:
        raw, line = entries[key]
        try:
            return Money.from_dollars(raw)
        except (ValueError, TypeError) as exc:
            raise DocumentError(str(exc), key=key, line=line) from None

    kwargs: dict[str, object] = {
        "poverty_line": money_of("F"),
        "benchmark_premium": money_of("P"),
        "purchased_premium": money_of("Q"),
        "income": money_of("I"),
        "tax_year": entries["tax_year"][0],
    }
    if "APTC" in entries:
        kwargs["advance_credit"] = money_of("APTC")
    if "d0" in entries:
        kwargs["other_deductions"] = money_of("d0")
    if "filing_status" in entries:
        raw, line = entries["filing_status"]
        try:
            kwargs["filing_status"] = FilingStatus(raw.lower())
        except ValueError:
            raise DocumentError(
                f"expected one of {[s.value for s in FilingStatus]}, got {raw!r}",
                key="filing_status",
                line=line,
            ) from None
    if "below_poverty_exception" in entries:
        raw, line = entries["below_poverty_exception"]
        kwargs["below_poverty_exception"] = _parse_bool("below_poverty_exception", raw, line)
    if "student_loan_k" in entries:
        kwargs["student_loan_cap"] = money_of("student_loan_k")

    try:
        return Scenario(**kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to the document format."""
    lines = [
        f"F = {scenario.poverty_line.as_decimal()}",
        f"P = {scenario.benchmark_premium.as_decimal()}",
        f"Q = {scenario.purchased_premium.as_decimal()}",
        f"I = {scenario.income.as_decimal()}",
        f"APTC = {scenario.advance_credit.as_decimal()}",
        f"d0 = {scenario.other_deductions.as_decimal()}",
        f"filing_status = {scenario.filing_status.value}",
        f"tax_year = {scenario.tax_year}",
        f"below_poverty_exception = {str(scenario.below_poverty_exception).lower()}",
    ]
    if scenario.student_loan_cap is not None:
        lines.append(f"student_loan_k = {scenario.student_loan_cap.as_decimal()}")
    return "\n".join(lines) + "\n"
