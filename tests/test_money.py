from __future__ import annotations

import random
import re
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


@pytest.mark.parametrize("value,kind", [(True, "bool"), (False, "bool"), (865.81, "float")])
def test_rejected_type_is_named(value, kind):
    with pytest.raises(TypeError, match=f"^Money.from_dollars rejects {kind}; pass int, str, or Fraction$"):
        D(value)


# The string path as it was defined before it read cents from the regex
# groups: validate, then parse the text through Fraction.
_REFERENCE_RE = re.compile(r"^-?\$?(\d{1,3}(,\d{3})+|\d+)(\.\d{1,2})?$")


def _reference_from_dollars(amount: str) -> Money:
    text = amount.strip()
    if not _REFERENCE_RE.match(text):
        raise ValueError(f"not a dollar amount: {amount!r}")
    cents = Fraction(text.replace("$", "").replace(",", "")) * 100
    if cents.denominator != 1:
        raise ValueError(f"amount {amount} is not representable in whole cents")
    return Money(cents.numerator)


def _outcome(parse, text: str):
    try:
        return parse(text).cents
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text,cents",
    [
        ("-0", 0),
        ("-$0.05", -5),
        ("1.5", 150),
        ("$1,234.56", 123456),
        (" 7 ", 700),
        ("\u0661\u0662", 1200),  # Arabic-Indic digits: \d and int() accept them
        ("1.", None),
        (".5", None),
        ("0,500", 50000),
        ("$-5", None),
        ("1,234,567.8", 123456780),
        ("12\n", 1200),
        ("+5", None),
        ("1e3", None),
        ("1_000", None),
    ],
)
def test_string_parse_matches_reference(text, cents):
    expected = _outcome(_reference_from_dollars, text)
    assert _outcome(D, text) == expected
    assert expected == (cents if cents is not None else (ValueError, f"not a dollar amount: {text!r}"))


def test_string_parse_matches_reference_on_random_strings():
    # Single characters, digits weighted up, plus chunks that make comma
    # groups and decimals: about a third of the strings are valid amounts.
    pieces = [*"0123456789" * 4, *",.$-$- \t\n+e_\u0661\u0969\uff11"]
    pieces += [",000", ",250", ",\u0969\u0661\uff11", ".5", ".05"]
    rng = random.Random(20181231)
    accepted = 0
    for _ in range(100_000):
        text = "".join(rng.choices(pieces, k=rng.randint(0, 8)))
        expected = _outcome(_reference_from_dollars, text)
        assert _outcome(D, text) == expected, text
        accepted += isinstance(expected, int)
    assert accepted > 20_000


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
    with pytest.raises(TypeError, match="multiplied by an integer"):
        D(1) * Fraction(1, 2)


def test_truth_is_nonzero():
    assert [bool(D(x)) for x in ("0.01", -1, 0)] == [True, True, False]


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
