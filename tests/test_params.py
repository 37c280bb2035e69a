from __future__ import annotations

from fractions import Fraction

import pytest

from ptcsolver import (
    DocumentError,
    bundled_years,
    dump_tax_year_params,
    load_tax_year_params,
    tax_year_params,
)
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


def test_round_trip():
    for year in bundled_years():
        params = tax_year_params(year)
        reloaded = load_tax_year_params(dump_tax_year_params(params))
        assert reloaded == params


def test_doubling_rule_default_and_override():
    params = load_tax_year_params(GOOD_DOC)
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
    ],
)
def test_errors_name_offending_key(mangle, key):
    with pytest.raises(DocumentError) as err:
        load_tax_year_params(mangle(GOOD_DOC))
    assert err.value.key == key


def test_malformed_line_reports_line_number():
    with pytest.raises(DocumentError) as err:
        load_tax_year_params("schema_version = 1\nnot a kv line\n")
    assert err.value.line == 2


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
