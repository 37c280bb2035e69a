from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptcsolver import (
    BREAKPOINTS,
    FigureTable,
    PtcContext,
    TaxYearParams,
    applicable_figure,
    bisection,
    optimal_deduction,
    tax_year_params,
)
from ptcsolver.figures import check_monotone_rows

F = Fraction
EPS = F(1, 10**9)

# Published segment-start values for the two bundled years.
KNOTS_2018 = ("0.0201", "0.0302", "0.0403", "0.0634", "0.0810", "0.0956")
KNOTS_2019 = ("0.0208", "0.0311", "0.0415", "0.0654", "0.0836", "0.0986")


@pytest.fixture(scope="module")
def table_2018():
    return FigureTable.from_decimals(*KNOTS_2018)


@pytest.fixture(scope="module")
def table_2019():
    return FigureTable.from_decimals(*KNOTS_2019)


def test_breakpoint_values_2018(table_2018):
    expected = [F(v) for v in KNOTS_2018] + [F("0.0956")]
    for m, want in zip(BREAKPOINTS, expected):
        assert applicable_figure(m, table_2018) == want


def test_breakpoint_values_2019(table_2019):
    expected = [F(v) for v in KNOTS_2019] + [F("0.0986")]
    for m, want in zip(BREAKPOINTS, expected):
        assert applicable_figure(m, table_2019) == want


def test_flat_segments(table_2018):
    assert applicable_figure(F(0), table_2018) == F("0.0201")  # extension below 1
    assert applicable_figure(F(1, 2), table_2018) == F("0.0201")
    assert applicable_figure(F(132, 100), table_2018) == F("0.0201")  # just under the jump
    assert applicable_figure(F(35, 10), table_2018) == F("0.0956")
    assert applicable_figure(F(4), table_2018) == F("0.0956")


def test_midpoint_interpolation_2018(table_2018):
    # Independent derivation: halfway across [2, 2.5), the value is the
    # segment-start plus half the rise: 0.0634 + (0.0810 - 0.0634)/2.
    assert applicable_figure(F(9, 4), table_2018) == F("0.0634") + (F("0.0810") - F("0.0634")) / 2
    assert applicable_figure(F(9, 4), table_2018) == F("0.0722")
    assert applicable_figure(F(9, 4), table_2018, quantize=True) == F("0.0722")


def test_out_of_range_rejected(table_2018):
    for m in (F(-1, 100), F(401, 100), F(5)):
        with pytest.raises(ValueError):
            applicable_figure(m, table_2018)


def test_right_continuity_at_breakpoints(table_2018, table_2019):
    for table in (table_2018, table_2019):
        for beta in BREAKPOINTS[1:-1]:  # 1.33, 1.5, 2, 2.5, 3
            at = applicable_figure(beta, table)
            just_right = applicable_figure(beta + EPS, table)
            assert abs(just_right - at) < F(1, 10**6)


def test_jump_at_133(table_2018, table_2019):
    beta = F(133, 100)
    for table, j, k in ((table_2018, "0.0201", "0.0302"), (table_2019, "0.0208", "0.0311")):
        below = applicable_figure(beta - EPS, table)
        at = applicable_figure(beta, table)
        assert below == F(j)
        assert at == F(k)
        assert at - below == F(k) - F(j) > 0


@given(
    m1=st.fractions(min_value=0, max_value=4),
    m2=st.fractions(min_value=0, max_value=4),
)
def test_monotone_nondecreasing(table_2018, m1, m2):
    lo, hi = sorted((m1, m2))
    assert applicable_figure(lo, table_2018) <= applicable_figure(hi, table_2018)


@pytest.mark.parametrize("n", range(100, 401, 7))
def test_quantized_close_to_exact(table_2018, n):
    m = F(n, 100)
    exact = applicable_figure(m, table_2018)
    quantized = applicable_figure(m, table_2018, quantize=True)
    assert abs(quantized - exact) <= F(5, 10**5)
    assert (quantized * 10000).denominator == 1


def test_table_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        FigureTable.from_decimals("0.03", "0.02", "0.04", "0.06", "0.08", "0.09")
    with pytest.raises(ValueError, match="positive"):
        FigureTable.from_decimals("0", "0.02", "0.04", "0.06", "0.08", "0.09")
    with pytest.raises(ValueError, match="below 0.1"):
        FigureTable.from_decimals("0.02", "0.03", "0.04", "0.06", "0.08", "0.1")
    with pytest.raises(ValueError, match="ten-thousandth"):
        FigureTable(F(1, 3), F("0.03"), F("0.04"), F("0.06"), F("0.08"), F("0.09"))
    # A constant table is legal: used for single-figure illustrations.
    flat = FigureTable.from_decimals(*["0.09"] * 6)
    assert applicable_figure(F(4), flat) == F("0.09")


def _bypassed(values=KNOTS_2018, segments=None) -> FigureTable:
    """A table built around ``__post_init__``, optionally with its rows set directly."""
    table = object.__new__(FigureTable)
    for name, value in zip("jklabc", values):
        object.__setattr__(table, name, F(value))
    if segments is not None:
        vars(table)["segments"] = segments
    return table


def _with_row(i: int, row) -> tuple:
    rows = list(FigureTable.from_decimals(*KNOTS_2018).segments)
    rows[i] = row
    return tuple(rows)


def _knots_with(i: int, value: str) -> tuple[str, ...]:
    knots = list(KNOTS_2018)
    knots[i] = value
    return tuple(knots)


# One hostile table per row, each with the figure falling somewhere in it,
# plus a drop at the 133% jump and figures that are not positive: each
# case's table and the row check's complaint.
FALLS = "figure decreases with income"
ROW_0_FALLS = _with_row(0, (F(1), F("0.0201"), F("-0.001")))
ROW_5_FALLS = _with_row(5, (F(3), F("0.0956"), F("-0.0001")))
ROW_0_NEGATIVE_AT_0 = _with_row(0, (F(1), F("0.0201"), F("0.03")))
BAD_TABLES = {
    "row 0 falls": (lambda: _bypassed(segments=ROW_0_FALLS), f"row 0 .*{FALLS}"),
    "row 1 falls": (lambda: _bypassed(_knots_with(2, "0.0300")), f"row 1 .*{FALLS}"),
    "row 2 falls": (lambda: _bypassed(_knots_with(3, "0.0400")), f"row 2 .*{FALLS}"),
    "row 3 falls": (lambda: _bypassed(_knots_with(4, "0.0600")), f"row 3 .*{FALLS}"),
    "row 4 falls": (lambda: _bypassed(_knots_with(5, "0.0800")), f"row 4 .*{FALLS}"),
    "row 5 falls": (lambda: _bypassed(segments=ROW_5_FALLS), f"row 5 .*{FALLS}"),
    "drop at the jump": (lambda: _bypassed(_knots_with(1, "0.0200")), "row 1 .*below the previous"),
    "zero figure": (lambda: _bypassed(_knots_with(0, "0")), "row 0 .*must be positive"),
    "negative below the poverty line": (
        lambda: _bypassed(segments=ROW_0_NEGATIVE_AT_0),
        "row 0 .*must be positive",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_non_monotone_table_is_rejected_before_any_solve(case, monkeypatch, brooklyn):
    def no_search(*args):
        raise AssertionError("the search ran on a table that is not monotone")

    monkeypatch.setattr(bisection, "last_true", no_search)
    build, complaint = BAD_TABLES[case]
    params = TaxYearParams("2018", build(), tax_year_params("2018").repayment_table)
    with pytest.raises(ValueError, match=f"figure {complaint}"):
        optimal_deduction(PtcContext(brooklyn, params))


@pytest.mark.parametrize("den", [0, -1, -10000])
def test_row_denominator_must_be_positive(table_2018, den):
    rows = list(table_2018.integer_segments)
    a, b, _ = rows[2]
    rows[2] = (a, b, den)
    with pytest.raises(ValueError, match="figure row 2 .*denominator must be positive"):
        check_monotone_rows(tuple(rows))


def test_valid_tables_pass_the_row_check(table_2018, table_2019):
    for table in (table_2018, table_2019, FigureTable.from_decimals(*["0.09"] * 6)):
        assert check_monotone_rows(table.integer_segments) == table.integer_segments
