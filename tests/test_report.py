from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpade import IntervalReal, Poly
from gpade.errors import PreconditionError
from gpade.report import (
    Record,
    ReportWriter,
    fmt_fraction,
    fmt_interval,
    fmt_poly,
    format_value,
    parse_interval,
    parse_report,
)

fractions = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9))


@given(fractions)
@settings(max_examples=150)
def test_fraction_round_trip(f):
    assert Fraction(fmt_fraction(f)) == f


def test_fraction_integers_have_no_slash():
    assert fmt_fraction(Fraction(42)) == "42"
    assert fmt_fraction(-7) == "-7"
    assert fmt_fraction(Fraction(1, 3)) == "1/3"


@given(fractions, fractions)
@settings(max_examples=100)
def test_interval_round_trip(a, b):
    iv = IntervalReal(min(a, b), max(a, b))
    assert parse_interval(fmt_interval(iv)) == iv


def test_interval_format_shows_decimals():
    s = fmt_interval(IntervalReal(Fraction(1, 3), Fraction(1, 2)), decimals=4)
    assert s.startswith("[1/3, 1/2] ~ 0.3333..0.5000")
    with pytest.raises(PreconditionError):
        parse_interval("not an interval")


def test_poly_zero_renders_as_zero():
    assert fmt_poly(Poly()) == "0"
    assert fmt_poly(Poly([Fraction(1, 2), 0, -3])) == "1/2 0 -3"


def test_format_value_dispatch():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(Fraction(1, 2)) == "1/2"
    assert format_value(Poly([1, 2])) == "1 2"
    assert format_value(None) == "indeterminate"
    assert format_value("already-a-string") == "already-a-string"


def test_writer_shape_and_statuses():
    first = Record("first-check")
    first.add("value", Fraction(3, 7))
    second = Record("second-check")
    second.add("ok", False, False)
    w = ReportWriter("demo run", 64, [first, second])
    text = w.render()
    assert w.any_violated
    header, records = parse_report(text)
    assert header["gpade-report"] == "1"
    assert header["command"] == "demo run"
    assert header["precision"] == "64"
    assert [r["record"] for r in records] == ["first-check", "second-check"]
    assert records[0]["value"] == "3/7"
    assert records[0]["status"] == "certified"
    assert records[1]["status"] == "violated"


def test_writer_rejects_bad_keys_and_statuses():
    rec = Record("x")
    with pytest.raises(PreconditionError):
        rec.add("bad: key", 1)
    with pytest.raises(PreconditionError):
        rec.add("new\nline", 1)
    with pytest.raises(PreconditionError):
        rec.add("k", 1, "sort-of-ok")
    assert rec.fields == {} and rec.status is None
    assert not ReportWriter("x", 64, [rec]).any_violated


def test_writer_deterministic():
    def build():
        rec = Record("r")
        rec.add("iv", IntervalReal(Fraction(1, 3), Fraction(2, 3)))
        return ReportWriter("same", 32, [rec]).render()
    assert build() == build()


SEVERITY = ["certified", "indeterminate", "hypothesis-unmet", "violated"]


@pytest.mark.parametrize("lower, higher", [
    (lo, hi) for i, hi in enumerate(SEVERITY) for lo in SEVERITY[:i]])
def test_record_status_is_the_most_severe(lower, higher):
    for order in ((lower, higher), (higher, lower)):
        rec = Record("r")
        for i, status in enumerate(order):
            rec.add(f"f{i}", i, status)
        assert rec.status == higher, order


@pytest.mark.parametrize("ok, status", [
    (True, "certified"), (None, "indeterminate"), (False, "violated"),
    ("hypothesis-unmet", "hypothesis-unmet")])
def test_record_ok_values(ok, status):
    rec = Record("r")
    rec.add("k", 1, ok)
    assert rec.status == status


def test_record_from_fields_has_no_status():
    rec = Record("summary", {"violated": False})
    assert rec.status is None
    text = ReportWriter("c", 64, [rec]).render()
    assert text.endswith("\nrecord: summary\nviolated: false\n")
    assert "status" not in parse_report(text)[1][0]


def test_parse_report_rejects_garbage():
    with pytest.raises(PreconditionError):
        parse_report("command: no version header\n")
    with pytest.raises(PreconditionError):
        parse_report("gpade-report: 1\nline without separator\n")


def test_parse_report_blank_line_tolerance():
    text = "gpade-report: 1\ncommand: c\n\n\nrecord: a\nk: v\n\n"
    header, records = parse_report(text)
    assert records == [{"record": "a", "k": "v"}]
