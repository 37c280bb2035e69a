"""Household scenarios: one return's inputs to the deduction/credit solver."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO

from ._kv import DocumentError, check_value, read_kv
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
        if not self.poverty_line.cents > 0:
            raise ValueError(f"F must be positive, got {self.poverty_line}")
        if not self.benchmark_premium.cents > 0:
            raise ValueError(f"P must be positive, got {self.benchmark_premium}")
        if not self.purchased_premium.cents > 0:
            raise ValueError(f"Q must be positive, got {self.purchased_premium}")
        if self.income.cents < self.purchased_premium.cents:
            raise ValueError(
                f"I must be at least Q, got I={self.income} < Q={self.purchased_premium}"
            )
        if not 0 <= self.advance_credit.cents <= self.purchased_premium.cents:
            raise ValueError(
                f"APTC must lie in [0, Q], got {self.advance_credit} with Q={self.purchased_premium}"
            )
        if self.other_deductions.cents < 0:
            raise ValueError(f"d0 must be non-negative, got {self.other_deductions}")
        if self.student_loan_cap is not None and self.student_loan_cap.cents < 0:
            raise ValueError(f"student_loan_k must be non-negative, got {self.student_loan_cap}")
        check_value("tax_year", self.tax_year)

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


def _parse_status(raw: str) -> FilingStatus:
    try:
        return FilingStatus(raw.lower())
    except ValueError:
        raise ValueError(
            f"expected one of {[s.value for s in FilingStatus]}, got {raw!r}"
        ) from None


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


# The document format: key -> (Scenario field, parser, renderer), in the
# order ``dump_scenario`` writes the keys.  A parser raises ValueError or
# TypeError for a bad raw value.
_FIELDS = {
    "F": ("poverty_line", Money.from_dollars, Money.as_decimal),
    "P": ("benchmark_premium", Money.from_dollars, Money.as_decimal),
    "Q": ("purchased_premium", Money.from_dollars, Money.as_decimal),
    "I": ("income", Money.from_dollars, Money.as_decimal),
    "APTC": ("advance_credit", Money.from_dollars, Money.as_decimal),
    "d0": ("other_deductions", Money.from_dollars, Money.as_decimal),
    "filing_status": ("filing_status", _parse_status, lambda s: s.value),
    "tax_year": ("tax_year", str, str),
    "below_poverty_exception": ("below_poverty_exception", _parse_bool, lambda b: str(b).lower()),
    "student_loan_k": ("student_loan_cap", Money.from_dollars, Money.as_decimal),
}
_REQUIRED_KEYS = ("F", "P", "Q", "I", "tax_year")


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

    for key, (_, line) in entries.items():
        if key not in _FIELDS:
            raise DocumentError("unknown field", key=key, line=line)
    for key in _REQUIRED_KEYS:
        if key not in entries:
            raise DocumentError("missing required field", key=key)

    kwargs: dict[str, object] = {}
    for key, (field, parse, _) in _FIELDS.items():
        if key in entries:
            raw, line = entries[key]
            try:
                kwargs[field] = parse(raw)
            except (ValueError, TypeError) as exc:
                raise DocumentError(str(exc), key=key, line=line) from None

    try:
        return Scenario(**kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to the document format."""
    lines = []
    for key, (field, _, render) in _FIELDS.items():
        value = getattr(scenario, field)
        if value is not None:
            lines.append(f"{key} = {render(value)}")
    return "\n".join(lines) + "\n"
