from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptcsolver.money import Money, RoundingMode, money_ratio, round_cents, round_money

D = Money.from_dollars


def test_construction_from_strings():
    assert D("10390").cents == 1039000
    assert D("865.81").cents == 86581
    assert D("$1,234.56").cents == 123456
    assert D("0").cents == 0
    assert D("1,234,567").cents == 123456700
    # Commas only in groups of three: "10390,50" is not $1,039,050.
    for text in ("0,5", "7,1150", "1,,0", "10390,50", ",123", "1,234,", "12,34.50"):
        with pytest.raises(ValueError):
            D(text)


def test_floats_rejected():
    with pytest.raises(TypeError):
        D(865.81)
    with pytest.raises(TypeError):
        Money(1.0)


def test_sub_cent_amounts_rejected():
    with pytest.raises(ValueError):
        D(Fraction(1, 3))
    with pytest.raises(ValueError):
        D("1.234")


def test_arithmetic_is_exact():
    assert D(71150) - D(10390) == D(60760)
    assert D("0.10") + D("0.20") == D("0.30")
    assert 3 * D("0.01") == D("0.03")
    assert -D(5) == D(-5)


def test_ordering():
    assert D(1) < D(2) <= D(2)
    assert max(D(3), D(7)) == D(7)


@pytest.mark.parametrize(
    "value,mode,expected",
    [
        # Worked-example roundings: intermediate credit and annualized premium.
        (Fraction("4581.344"), RoundingMode.DOLLAR, D(4581)),
        (Fraction("865.81") * 12, RoundingMode.DOLLAR, D(10390)),
        (Fraction(0), RoundingMode.CENT, D(0)),
        (Fraction(0), RoundingMode.DOLLAR, D(0)),
        (Fraction("-5808.656"), RoundingMode.CENT, D("-5808.66")),
        (Fraction("5808.656"), RoundingMode.DOLLAR, D(5809)),
        (Fraction("5808.656"), RoundingMode.CENT, D("5808.66")),
        (Fraction("2.5"), RoundingMode.DOLLAR, D(3)),  # ties go away from zero
        (Fraction("-2.5"), RoundingMode.DOLLAR, D(-3)),
        (Fraction("0.005"), RoundingMode.CENT, D("0.01")),
        (Fraction("-0.005"), RoundingMode.CENT, D("-0.01")),
    ],
)
def test_round_money(value, mode, expected):
    assert round_money(value, mode) == expected


@given(st.fractions(min_value=-10**7, max_value=10**7))
def test_rounding_error_bounds(x):
    assert abs(round_money(x, RoundingMode.DOLLAR).dollars - x) <= Fraction(1, 2)
    assert abs(round_money(x, RoundingMode.CENT).dollars - x) <= Fraction(1, 200)


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_round_cents_matches_round_money(cents):
    for mode in RoundingMode:
        assert round_cents(cents, mode) == round_money(Fraction(cents, 100), mode).cents


def test_money_ratio_exact():
    m = money_ratio(D(60760), D(16240))
    assert m == Fraction(6076000, 1624000) == Fraction(1519, 406)
    assert m > Fraction(133, 100)
    with pytest.raises(ValueError):
        money_ratio(D(1), D(0))


def test_rendering():
    assert str(D(6208)) == "$6,208.00"
    assert str(D("-0.05")) == "-$0.05"
    assert D("4181.58").as_decimal() == "4181.58"
    assert D(0).as_decimal() == "0.00"
