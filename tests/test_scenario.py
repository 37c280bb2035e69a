from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptcsolver import DocumentError, FilingStatus, Scenario, dump_scenario, parse_scenario
from ptcsolver.money import Money

D = Money.from_dollars

BROOKLYN_DOC = """\
# The return that defeats the iterative method.
F = 16240
P = 10390
Q = 10390
I = 71150
tax_year = 2018
"""


def test_parse_minimal_document():
    sc = parse_scenario(BROOKLYN_DOC)
    assert sc.poverty_line == D(16240)
    assert sc.income == D(71150)
    assert sc.advance_credit == D(0)
    assert sc.other_deductions == D(0)
    assert sc.filing_status is FilingStatus.SINGLE
    assert sc.below_poverty_exception is False
    assert sc.student_loan_cap is None
    assert sc.billed_balance == D(10390)


def test_parse_full_document():
    doc = BROOKLYN_DOC + (
        "APTC = 2000\nd0 = 1500.25\nfiling_status = other\n"
        "below_poverty_exception = true\nstudent_loan_k = 2500\n"
    )
    sc = parse_scenario(doc)
    assert sc.advance_credit == D(2000)
    assert sc.other_deductions == D("1500.25")
    assert sc.filing_status is FilingStatus.OTHER
    assert sc.below_poverty_exception is True
    assert sc.student_loan_cap == D(2500)
    assert sc.billed_balance == D(8390)
    assert sc.effective_income == D("69649.75")


def test_overrides_win_key_by_key():
    sc = parse_scenario(BROOKLYN_DOC, {"I": "50000", "APTC": "100"})
    assert sc.income == D(50000)
    assert sc.advance_credit == D(100)
    assert sc.poverty_line == D(16240)  # untouched keys survive


def test_flags_only_scenario():
    sc = parse_scenario(
        None,
        {"F": "12000", "P": "6000", "Q": "6000", "I": "48000", "tax_year": "2018"},
    )
    assert sc.benchmark_premium == D(6000)


@pytest.mark.parametrize(
    "doc,key",
    [
        (BROOKLYN_DOC.replace("I = 71150", "I = 9000"), None),  # I < Q
        (BROOKLYN_DOC + "APTC = 99999\n", None),  # APTC > Q
        (BROOKLYN_DOC.replace("F = 16240", "F = 0"), None),
        (BROOKLYN_DOC + "filing_status = widowed\n", "filing_status"),
        (BROOKLYN_DOC + "below_poverty_exception = maybe\n", "below_poverty_exception"),
        (BROOKLYN_DOC + "APTC = twelve\n", "APTC"),
        (BROOKLYN_DOC + "windfall = 1\n", "windfall"),
        (BROOKLYN_DOC.replace("Q = 10390\n", ""), "Q"),
        # Each document below breaks one Scenario check and passes the others.
        (BROOKLYN_DOC.replace("P = 10390", "P = 0"), None),
        (BROOKLYN_DOC.replace("Q = 10390", "Q = 0"), None),
        (BROOKLYN_DOC + "d0 = -0.01\n", None),
        (BROOKLYN_DOC + "student_loan_k = -1\n", None),
        (BROOKLYN_DOC + "I = 1\n", "I"),  # a duplicate key
    ],
)
def test_invalid_documents(doc, key):
    with pytest.raises(DocumentError) as err:
        parse_scenario(doc)
    if key is not None:
        assert err.value.key == key


def test_direct_construction_validates():
    with pytest.raises(ValueError, match="APTC"):
        Scenario(
            poverty_line=D(16240),
            benchmark_premium=D(10390),
            purchased_premium=D(10390),
            income=D(71150),
            tax_year="2018",
            advance_credit=D(-1),
        )


def test_dump_round_trips():
    doc = BROOKLYN_DOC + "APTC = 2000\nstudent_loan_k = 2500\n"
    sc = parse_scenario(doc)
    assert parse_scenario(dump_scenario(sc)) == sc

    every_key = parse_scenario(
        BROOKLYN_DOC + "APTC = 2000\nd0 = 1500.25\nfiling_status = OTHER\n"
        "below_poverty_exception = yes\nstudent_loan_k = 2500.5\n"
    )
    assert dump_scenario(every_key) == (
        "F = 16240.00\nP = 10390.00\nQ = 10390.00\nI = 71150.00\nAPTC = 2000.00\n"
        "d0 = 1500.25\nfiling_status = other\ntax_year = 2018\n"
        "below_poverty_exception = true\nstudent_loan_k = 2500.50\n"
    )
    assert parse_scenario(dump_scenario(every_key)) == every_key


def test_with_income():
    sc = parse_scenario(BROOKLYN_DOC)
    assert sc.with_income(D(60000)).income == D(60000)
    with pytest.raises(ValueError):
        sc.with_income(D(100))  # below Q


def test_file_passed_as_path_or_open_file(tmp_path):
    path = tmp_path / "a=b.scenario"
    path.write_text(BROOKLYN_DOC, encoding="utf-8")
    assert parse_scenario(path) == parse_scenario(BROOKLYN_DOC)
    with path.open(encoding="utf-8") as stream:
        assert parse_scenario(stream) == parse_scenario(BROOKLYN_DOC)


@pytest.mark.parametrize("name", ["brooklyn.scenario", "a=b.scenario"])
def test_file_name_as_str_is_read_as_text(tmp_path, monkeypatch, name):
    (tmp_path / name).write_text(BROOKLYN_DOC, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DocumentError):
        parse_scenario(name)


def test_undecodable_file_names_the_byte(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_bytes(b"F = 16240\nP = 10390\xff\n")
    with pytest.raises(DocumentError, match="byte offset 19") as err:
        parse_scenario(path)
    assert err.value.line == 2
    with path.open(encoding="utf-8") as stream, pytest.raises(DocumentError, match="byte offset 19"):
        parse_scenario(stream)


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "bom.scenario"
    path.write_text("\ufeff" + BROOKLYN_DOC, encoding="utf-8")
    assert parse_scenario(path) == parse_scenario(BROOKLYN_DOC)
    with path.open(encoding="utf-8") as stream:
        assert parse_scenario(stream) == parse_scenario(BROOKLYN_DOC)


EVERY_AMOUNT_DOC = BROOKLYN_DOC.replace("F = 16240", "F = $16,240.00") + (
    "APTC = -$0\nd0 = 1,500.25\nstudent_loan_k = 2500.5\n"
    "filing_status = other\nbelow_poverty_exception = true\n"
)


def test_amounts_parse_without_fraction(monkeypatch):
    expected = [parse_scenario(BROOKLYN_DOC), parse_scenario(EVERY_AMOUNT_DOC)]

    def no_fraction(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built while parsing a scenario")

    monkeypatch.setattr(Fraction, "__new__", staticmethod(no_fraction))
    with pytest.raises(AssertionError):
        Fraction(1)
    assert [parse_scenario(BROOKLYN_DOC), parse_scenario(EVERY_AMOUNT_DOC)] == expected
    assert expected[1].other_deductions == D("1500.25")
    assert expected[1].student_loan_cap == D("2500.50")


def _brooklyn(tax_year: str) -> Scenario:
    return Scenario(
        poverty_line=D(16240),
        benchmark_premium=D(10390),
        purchased_premium=D(10390),
        income=D(71150),
        tax_year=tax_year,
    )


@pytest.mark.parametrize(
    "tax_year",
    ["", "2018 # draft", "#", " 2018", "2018 ", "2018\n", "20\n18", "20\r18", "20\u202818", "\t2018"],
)
def test_tax_year_that_would_not_read_back_is_rejected(tax_year):
    with pytest.raises(ValueError, match="tax_year must be a non-empty line"):
        _brooklyn(tax_year)
    with pytest.raises(DocumentError, match="tax_year must be a non-empty line"):
        parse_scenario(BROOKLYN_DOC, {"tax_year": tax_year})


@pytest.mark.parametrize("tax_year", ["2018", "flat", "tax year 2018", "2018=draft", "2018\u00a0\u00e9"])
def test_tax_year_round_trips(tax_year):
    sc = _brooklyn(tax_year)
    assert parse_scenario(dump_scenario(sc)) == sc


@given(st.text(max_size=12))
def test_any_accepted_tax_year_round_trips(tax_year):
    try:
        sc = _brooklyn(tax_year)
    except ValueError:
        return
    assert parse_scenario(dump_scenario(sc)) == sc
