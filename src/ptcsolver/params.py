"""Per-tax-year parameters: figure table and repayment limitation table.

Parameter documents are plain ``key = value`` text with a required
``schema_version``.  Files for 2018 and 2019 ship with the package; other
years load from user-supplied files of the same format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import IO

from ._kv import DocumentError, check_value, read_kv
from .figures import FigureTable
from .money import Money

SCHEMA_VERSION = 1

_FIGURE_KEYS = ("figure.j", "figure.k", "figure.l", "figure.a", "figure.b", "figure.c")
_REPAY_KEYS = ("repay.single.r", "repay.single.s", "repay.single.t")
_REPAY_OTHER_KEYS = ("repay.other.r", "repay.other.s", "repay.other.t")

# Digits and up to four decimals: the figure in ten-thousandths.  The
# integer part is bounded so that no value costs a long int conversion.
_FIGURE_RE = re.compile(r"(\d{1,9})(?:\.(\d{1,4}))?")


@dataclass(frozen=True)
class RepaymentTable:
    """Caps on repaying excess advance credit, banded by income multiple.

    ``r``, ``s`` and ``t`` are the single-filer limits for the bands
    m < 2, 2 <= m < 3 and 3 <= m < 4; at m >= 4 repayment is unlimited.
    Limits for every other filing status default to double the single
    amounts unless the parameter file overrides them explicitly.
    """

    r: Money
    s: Money
    t: Money
    other_r: Money | None = None
    other_s: Money | None = None
    other_t: Money | None = None

    def __post_init__(self) -> None:
        if not Money(0) < self.r <= self.s <= self.t:
            raise ValueError(
                f"repayment limits must satisfy 0 < r <= s <= t, got "
                f"({self.r}, {self.s}, {self.t})"
            )
        overrides = (self.other_r, self.other_s, self.other_t)
        if any(v is not None for v in overrides):
            if any(v is None for v in overrides):
                raise ValueError("repay.other.* keys must be given all together or not at all")
            if not Money(0) < self.other_r <= self.other_s <= self.other_t:  # type: ignore[operator]
                raise ValueError("repay.other.* limits must satisfy 0 < r <= s <= t")

    def single_limits(self) -> tuple[Money, Money, Money]:
        return (self.r, self.s, self.t)

    def other_limits(self) -> tuple[Money, Money, Money]:
        """Limits for any non-single filing status (doubling rule by default)."""
        if self.other_r is not None:
            return (self.other_r, self.other_s, self.other_t)  # type: ignore[return-value]
        return (self.r * 2, self.s * 2, self.t * 2)


@dataclass(frozen=True)
class TaxYearParams:
    """Everything year-specific the solver needs."""

    year: str
    figure_table: FigureTable
    repayment_table: RepaymentTable

    def __post_init__(self) -> None:
        check_value("year", self.year)


def _parse_figure_value(key: str, raw: str, line: int) -> Fraction:
    match = _FIGURE_RE.fullmatch(raw)
    if not match:
        raise DocumentError(
            f"expected a decimal with at most four places, got {raw!r}", key=key, line=line
        )
    whole, frac = match.groups("")
    return Fraction(int(whole) * 10000 + int(frac.ljust(4, "0")), 10000)


def _parse_whole_dollars(key: str, raw: str, line: int) -> Money:
    if not raw.isdecimal():
        raise DocumentError(f"expected whole dollars, got {raw!r}", key=key, line=line)
    return Money(int(raw) * 100)


def load_tax_year_params(source: str | Path | IO[str]) -> TaxYearParams:
    """Load and validate a tax-year parameter document.

    ``source`` is the document text as a ``str``, or a file as a
    :class:`~pathlib.Path` or an open text file; a file name passed as a
    ``str`` is read as text and fails.

    Raises :class:`DocumentError` naming the offending key for malformed
    values, missing fields, or figure values that violate the table
    invariants (non-monotone, out of range, too precise).
    """
    entries = read_kv(source)

    def require(key: str) -> tuple[str, int]:
        if key not in entries:
            raise DocumentError("missing required field", key=key)
        return entries[key]

    version_raw, version_line = require("schema_version")
    if version_raw != str(SCHEMA_VERSION):
        raise DocumentError(
            f"unsupported schema_version {version_raw!r} (expected {SCHEMA_VERSION})",
            key="schema_version",
            line=version_line,
        )
    year, year_line = require("year")
    if not year:
        raise DocumentError("year must be non-empty", key="year", line=year_line)

    figure_values = []
    for key in _FIGURE_KEYS:
        raw, line = require(key)
        figure_values.append(_parse_figure_value(key, raw, line))
    try:
        figure_table = FigureTable(*figure_values)
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc), key="figure.*") from None

    repay_values = [_parse_whole_dollars(key, *require(key)) for key in _REPAY_KEYS]
    other_values = [
        _parse_whole_dollars(key, *entries[key]) if key in entries else None
        for key in _REPAY_OTHER_KEYS
    ]
    try:
        repayment_table = RepaymentTable(*repay_values, *other_values)
    except ValueError as exc:
        raise DocumentError(str(exc), key="repay.*") from None

    known = {"schema_version", "year", *_FIGURE_KEYS, *_REPAY_KEYS, *_REPAY_OTHER_KEYS}
    for key, (_, line) in entries.items():
        if key not in known:
            raise DocumentError("unknown field", key=key, line=line)

    return TaxYearParams(year=year, figure_table=figure_table, repayment_table=repayment_table)


def dump_tax_year_params(params: TaxYearParams) -> str:
    """Serialize to the document format; loading the result round-trips."""
    lines = [f"schema_version = {SCHEMA_VERSION}", f"year = {params.year}"]
    for key, value in zip(_FIGURE_KEYS, params.figure_table.as_tuple()):
        n = int(value * 10000)
        lines.append(f"{key} = {n // 10000}.{n % 10000:04d}")
    table = params.repayment_table
    limits = (table.r, table.s, table.t, table.other_r, table.other_s, table.other_t)
    for key, value in zip(_REPAY_KEYS + _REPAY_OTHER_KEYS, limits):
        if value is not None:
            lines.append(f"{key} = {value.cents // 100}")
    return "\n".join(lines) + "\n"


def bundled_years() -> tuple[str, ...]:
    """Tax years with parameter files shipped in the package."""
    files = resources.files("ptcsolver.data")
    return tuple(sorted(p.name[:-7] for p in files.iterdir() if p.name.endswith(".params")))


def tax_year_params(year: str) -> TaxYearParams:
    """Load the bundled parameters for ``year``.

    Raises KeyError for years without a bundled file; callers with their
    own parameter document should use :func:`load_tax_year_params`.
    """
    resource = resources.files("ptcsolver.data") / f"{year}.params"
    if not resource.is_file():
        raise KeyError(f"no bundled parameters for tax year {year!r}")
    params = load_tax_year_params(resource.read_text(encoding="utf-8"))
    if params.year != year:
        raise DocumentError(f"bundled file for {year} declares year {params.year}", key="year")
    return params
