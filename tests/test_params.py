from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from ptcsolver import (
    DocumentError,
    bundled_years,
    dump_tax_year_params,
    load_tax_year_params,
    tax_year_params,
)
from ptcsolver import params as params_module
from ptcsolver.money import Money

GOOD_DOC = """\
schema_version = 1
year = 2018
figure.j = 0.0201
figure.k = 0.0302
figure.l = 0.0403
figure.a = 0.0634
figure.b = 0.0810
figure.c = 0.0956
repay.single.r = 300
repay.single.s = 775
repay.single.t = 1300
"""


def test_load_good_document():
    params = load_tax_year_params(GOOD_DOC)
    assert params.year == "2018"
    assert params.figure_table.as_tuple() == tuple(
        Fraction(v) for v in ("0.0201", "0.0302", "0.0403", "0.0634", "0.0810", "0.0956")
    )
    assert params.repayment_table.single_limits() == (
        Money.from_dollars(300),
        Money.from_dollars(775),
        Money.from_dollars(1300),
    )


def test_bundled_years_match_published_values():
    assert bundled_years() == ("2018", "2019")
    p18 = tax_year_params("2018")
    p19 = tax_year_params("2019")
    assert p18.figure_table.as_tuple() == tuple(
        Fraction(n, 10000) for n in (201, 302, 403, 634, 810, 956)
    )
    assert p19.figure_table.as_tuple() == tuple(
        Fraction(n, 10000) for n in (208, 311, 415, 654, 836, 986)
    )
    assert p19.repayment_table.single_limits() == (
        Money.from_dollars(300),
        Money.from_dollars(800),
        Money.from_dollars(1325),
    )


def test_unknown_year():
    with pytest.raises(KeyError):
        tax_year_params("1999")


def test_bundled_file_must_declare_its_year(monkeypatch):
    load = params_module.load_tax_year_params
    monkeypatch.setattr(
        params_module, "load_tax_year_params", lambda text: dataclasses.replace(load(text), year="2017")
    )
    with pytest.raises(DocumentError, match="bundled file for 2018 declares year 2017") as err:
        tax_year_params("2018")
    assert err.value.key == "year"


def test_round_trip():
    for year in bundled_years():
        params = tax_year_params(year)
        reloaded = load_tax_year_params(dump_tax_year_params(params))
        assert reloaded == params


@pytest.mark.parametrize("year", ["", "2018 # draft", " 2018", "2018 ", "20\n18", "20\u202818"])
def test_year_that_would_not_read_back_is_rejected(year):
    params = load_tax_year_params(GOOD_DOC)
    with pytest.raises(ValueError, match="year must be a non-empty line"):
        dataclasses.replace(params, year=year)


@pytest.mark.parametrize("year", ["flat", "2018 draft", "2018=draft"])
def test_year_round_trips(year):
    params = dataclasses.replace(load_tax_year_params(GOOD_DOC), year=year)
    assert load_tax_year_params(dump_tax_year_params(params)) == params


def test_doubling_rule_default_and_override():
    params = load_tax_year_params(GOOD_DOC)
    assert dump_tax_year_params(params) == GOOD_DOC
    assert params.repayment_table.other_limits() == (
        Money.from_dollars(600),
        Money.from_dollars(1550),
        Money.from_dollars(2600),
    )
    doc = GOOD_DOC + "repay.other.r = 500\nrepay.other.s = 900\nrepay.other.t = 1500\n"
    override = load_tax_year_params(doc)
    assert override.repayment_table.other_limits() == (
        Money.from_dollars(500),
        Money.from_dollars(900),
        Money.from_dollars(1500),
    )
    assert dump_tax_year_params(override) == doc
    assert load_tax_year_params(dump_tax_year_params(override)) == override


@pytest.mark.parametrize(
    "mangle,key",
    [
        (lambda d: d.replace("figure.k = 0.0302", "figure.k = 0.0150"), "figure.*"),
        (lambda d: d.replace("figure.c = 0.0956", "figure.c = 0.15"), "figure.*"),
        (lambda d: d.replace("figure.j = 0.0201\n", ""), "figure.j"),
        (lambda d: d.replace("repay.single.s = 775", "repay.single.s = abc"), "repay.single.s"),
        (lambda d: d.replace("repay.single.t = 1300", "repay.single.t = 100"), "repay.*"),
        (lambda d: d.replace("schema_version = 1", "schema_version = 9"), "schema_version"),
        (lambda d: d + "mystery.key = 1\n", "mystery.key"),
        (lambda d: d + "repay.other.r = 500\n", "repay.*"),
        (lambda d: d + "repay.other.r = 900\nrepay.other.s = 500\nrepay.other.t = 1500\n", "repay.*"),
        pytest.param(lambda d: d.replace("0.0201", "1/50"), "figure.j", id="figure-slash"),
        pytest.param(lambda d: d.replace("0.0201", "0.0201e0"), "figure.j", id="figure-exponent"),
        pytest.param(lambda d: d.replace("0.0201", "1e-4000"), "figure.j", id="figure-tiny-exponent"),
        pytest.param(lambda d: d.replace("0.0302", "0.03021"), "figure.k", id="figure-fifth-decimal"),
        pytest.param(lambda d: d.replace("0.0302", ".0302"), "figure.k", id="figure-no-integer-part"),
        pytest.param(lambda d: d.replace("0.0302", "-0.0302"), "figure.k", id="figure-sign"),
        pytest.param(lambda d: d.replace("0.0302", "0.0302."), "figure.k", id="figure-trailing-dot"),
        pytest.param(lambda d: d.replace("0.0956", "9" * 5000), "figure.c", id="figure-5000-digits"),
        pytest.param(lambda d: d.replace("year = 2018", "year ="), "year", id="empty-year"),
        pytest.param(lambda d: d + "repay.single.r = 300\n", "repay.single.r", id="duplicate-key"),
    ],
)
def test_errors_name_offending_key(mangle, key):
    doc = mangle(GOOD_DOC)
    with pytest.raises(DocumentError) as err:
        load_tax_year_params(doc)
    assert err.value.key == key
    lines = doc.splitlines()
    if any(line.startswith(f"{key} =") for line in lines):
        # A key that is in the document is named with its line.
        assert lines[err.value.line - 1].startswith(f"{key} =")


def test_figure_values_read_exactly():
    doc = GOOD_DOC.replace("figure.j = 0.0201", "figure.j = 0.02").replace("0.0956", "00.0956")
    table = load_tax_year_params(doc).figure_table
    assert (table.j, table.c) == (Fraction(2, 100), Fraction(956, 10000))


@pytest.mark.parametrize("raw", ["\u00b3", "1\u00b2", "\u2460"])
def test_whole_dollars_reject_what_int_would_not_read(raw):
    # Superscript and circled digits pass str.isdigit but not int().
    with pytest.raises(DocumentError) as err:
        load_tax_year_params(GOOD_DOC.replace("repay.single.r = 300", f"repay.single.r = {raw}"))
    assert (err.value.key, err.value.line) == ("repay.single.r", 9)
    assert repr(raw) in str(err.value)


def test_whole_dollars_accept_decimal_digits_of_any_script():
    doc = GOOD_DOC.replace("repay.single.r = 300", "repay.single.r = \u0663\u0660\u0660")
    assert load_tax_year_params(doc) == load_tax_year_params(GOOD_DOC)


def test_malformed_line_reports_line_number():
    with pytest.raises(DocumentError) as err:
        load_tax_year_params("schema_version = 1\nnot a kv line\n")
    assert err.value.line == 2
    with pytest.raises(DocumentError, match="missing key before '='") as err:
        load_tax_year_params("schema_version = 1\n = 1\n")
    assert (err.value.key, err.value.line) == (None, 2)


def test_decreasing_values_rejected():
    doc = GOOD_DOC.replace("figure.b = 0.0810", "figure.b = 0.0500")
    with pytest.raises(DocumentError, match="nondecreasing"):
        load_tax_year_params(doc)


def test_file_passed_as_path(tmp_path):
    path = tmp_path / "a=b.params"
    path.write_text(GOOD_DOC, encoding="utf-8")
    assert load_tax_year_params(path) == load_tax_year_params(GOOD_DOC)


@pytest.mark.parametrize("name", ["2018.params", "a=b.params"])
def test_file_name_as_str_is_read_as_text(tmp_path, monkeypatch, name):
    (tmp_path / name).write_text(GOOD_DOC, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DocumentError):
        load_tax_year_params(name)


def test_undecodable_file_names_the_byte(tmp_path):
    path = tmp_path / "bad.params"
    path.write_bytes(GOOD_DOC.encode() + b"# caf\xe9\n")
    with pytest.raises(DocumentError, match=f"byte offset {len(GOOD_DOC) + 5}") as err:
        load_tax_year_params(path)
    assert err.value.line == 12


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "bom.params"
    path.write_text("\ufeff" + GOOD_DOC, encoding="utf-8")
    assert load_tax_year_params(path) == load_tax_year_params(GOOD_DOC)
    with path.open(encoding="utf-8") as stream:
        assert load_tax_year_params(stream) == load_tax_year_params(GOOD_DOC)
