"""Exact US-dollar amounts stored as integer cents.

Every monetary quantity in this package flows through :class:`Money`.
Amounts are never held as binary floats: segment classification against
income breakpoints and the $1 convergence test both need cent-exact
comparisons, which floats cannot guarantee.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class RoundingMode(Enum):
    """Granularity applied to intermediate products and differences.

    CENT rounds each intermediate to the nearest penny, DOLLAR to the
    nearest whole dollar (both half-away-from-zero).
    """

    CENT = "cent"
    DOLLAR = "dollar"


# Sign, digits or comma groups of three ("1,234"), up to two decimals: the cents.
_MONEY_RE = re.compile(r"^(-?)\$?(\d{1,3}(?:,\d{3})+|\d+)(?:\.(\d{1,2}))?$")


def div_half_away(n: int, d: int) -> int:
    """The integer nearest ``n / d`` (``d > 0``), ties away from zero.

    The one rounding primitive: every half-away-from-zero rounding in
    the package goes through it.
    """
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


@dataclass(frozen=True, order=True)
class Money:
    """A signed count of US cents."""

    cents: int

    def __post_init__(self) -> None:
        if not isinstance(self.cents, int):
            raise TypeError(f"Money requires integer cents, got {type(self.cents).__name__}")

    @staticmethod
    def from_dollars(amount: int | str | Fraction) -> "Money":
        """Build from an exact dollar amount (int, decimal string, or Fraction).

        Strings may carry a leading ``$`` and thousands commas in groups of
        three (``"$1,234.56"``); they are read straight to integer cents.
        Floats and bools are rejected.  Raises ValueError for a malformed
        string or an amount finer than one cent.
        """
        if isinstance(amount, str):
            match = _MONEY_RE.match(amount.strip())
            if not match:
                raise ValueError(f"not a dollar amount: {amount!r}")
            sign, whole, frac = match.groups("")
            cents = int(whole.replace(",", "")) * 100 + int(frac.ljust(2, "0"))
            return Money(-cents if sign else cents)
        if isinstance(amount, (bool, float)):
            kind = type(amount).__name__
            raise TypeError(f"Money.from_dollars rejects {kind}; pass int, str, or Fraction")
        cents = Fraction(amount) * 100
        if cents.denominator != 1:
            raise ValueError(f"amount {amount} is not representable in whole cents")
        return Money(cents.numerator)

    @property
    def dollars(self) -> Fraction:
        return Fraction(self.cents, 100)

    def __add__(self, other: "Money") -> "Money":
        return Money(self.cents + other.cents)

    def __sub__(self, other: "Money") -> "Money":
        return Money(self.cents - other.cents)

    def __neg__(self) -> "Money":
        return Money(-self.cents)

    def __mul__(self, factor: int) -> "Money":
        if not isinstance(factor, int):
            raise TypeError("Money can only be multiplied by an integer")
        return Money(self.cents * factor)

    __rmul__ = __mul__

    def __abs__(self) -> "Money":
        return Money(abs(self.cents))

    def __bool__(self) -> bool:
        return self.cents != 0

    def as_decimal(self) -> str:
        """Plain two-decimal rendering, e.g. ``6208.00``."""
        sign = "-" if self.cents < 0 else ""
        whole, frac = divmod(abs(self.cents), 100)
        return f"{sign}{whole}.{frac:02d}"

    def __str__(self) -> str:
        sign = "-" if self.cents < 0 else ""
        whole, frac = divmod(abs(self.cents), 100)
        return f"{sign}${whole:,}.{frac:02d}"


def round_money(dollars: Fraction, mode: RoundingMode) -> Money:
    """Round an exact dollar value to Money per the rounding mode.

    CENT rounds half-away-from-zero at the cent; DOLLAR rounds
    half-away-from-zero at the whole dollar.
    """
    value = Fraction(dollars)
    if mode is RoundingMode.DOLLAR:
        return Money(div_half_away(value.numerator, value.denominator) * 100)
    return Money(div_half_away(value.numerator * 100, value.denominator))


def round_cents(cents: int, mode: RoundingMode) -> int:
    """Integer-cents variant of :func:`round_money` for hot paths."""
    if mode is not RoundingMode.DOLLAR:
        return cents
    return div_half_away(cents, 100) * 100


def round_fraction(value: Fraction, step: Fraction) -> Fraction:
    """Round to the nearest multiple of ``step``, ties away from zero."""
    q = value / step
    return div_half_away(q.numerator, q.denominator) * step


def money_ratio(numerator: Money, denominator: Money) -> Fraction:
    """Exact ratio of two amounts, e.g. household income over poverty line."""
    if denominator.cents <= 0:
        raise ValueError("ratio denominator must be positive")
    return Fraction(numerator.cents, denominator.cents)
