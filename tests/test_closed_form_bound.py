"""The Theorem 1 bound decided on its closed form.

`verify_theorem1` compares |F_j(a/b) - n/(B b^m)| with 1/X, X = B b^m (|a|+1)^E, through
`IntervalReal.ge_reciprocal` and a `PowerProduct`, which reads bit-length bounds on log2 X
and builds X only when they straddle.  The replaced decision was `iv.ge(Fraction(1, X))`
on the exact X; every verdict, every rung `decide` asks for and every printed `rhs` must
be what that decision gave.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpade.cli
import gpade.intervals
import gpade.verify
from gpade import IntervalReal, resolve_system, scan_nearest, verify_theorem1
from gpade.acceptance import CHAIN_INSTANCES
from gpade.cli import RHS_EXACT_DIGITS
from gpade.intervals import PowerProduct
from gpade.report import parse_report


@st.composite
def reciprocal_cases(draw):
    """(X, x, lo, hi, den, kind): X = B b^m c^e with x its closed form, and [lo, hi]/den
    placed at 0, at an exact tie with 1/X, just below it, straddling it, or at random
    magnitudes around it."""
    B, b, m = draw(st.integers(1, 60)), draw(st.integers(2, 16)), draw(st.integers(1, 8))
    c, e = draw(st.integers(1, 50)), draw(st.integers(0, 400))
    X = B * b ** m * c ** e
    kind = draw(st.sampled_from(["zero", "tie", "below", "near", "far"]))
    t = draw(st.integers(1, 10 ** 6))
    den = t * X                      # so the numerator t is exactly 1/X
    if kind == "zero":
        lo, hi = 0, draw(st.sampled_from([0, t - 1, t, t + 1, 2 ** 4000]))
    elif kind == "tie":
        lo = t
        hi = lo + draw(st.integers(0, 5))
    elif kind == "below":
        hi = t - 1 - draw(st.integers(0, 3))
        lo = hi - draw(st.integers(0, 5))
    elif kind == "near":
        lo = t + draw(st.integers(-5, 5))
        hi = lo + draw(st.integers(0, 10))
    else:
        den = draw(st.integers(1, 2 ** 64)) << max(0, X.bit_length() + draw(st.integers(-90, 90)))
        lo = draw(st.integers(-2 ** 64, 2 ** 64))
        hi = lo + draw(st.integers(0, 2 ** 66))
    return X, PowerProduct(B * b ** m, c, e), lo, hi, den, kind


@given(reciprocal_cases())
@settings(max_examples=600, deadline=None)
@example((1, PowerProduct(1, 1, 0), 1, 1, 1, "tie"))
@example((2 ** 64, PowerProduct(1, 2, 64), 0, 0, 1, "zero"))
def test_ge_reciprocal_is_ge_of_the_exact_fraction(case):
    X, x, lo, hi, den, kind = case
    iv = IntervalReal._of(lo, hi, den)
    assert iv.ge_reciprocal(x) is iv.ge(Fraction(1, X))
    # an end at exactly 1/X cannot be told from the bounds: the exact path ran
    if kind == "tie":
        assert x._value == X
    # lo64 <= 64 log2 X < hi64, read as 2^lo64 <= X^64 < 2^hi64
    k = (X ** 64).bit_length()
    assert x.lo64 <= k - 1 and k <= x.hi64


@given(st.integers(1, 10 ** 6), st.integers(1, 40), st.integers(0, 300), st.integers(0, 400))
@settings(max_examples=400, deadline=None)
@example(9 * 10 ** 6, 10, 99993, 100000)
@example(10 ** 7, 10, 99993, 100000)
@example(10 ** 6 - 1, 1, 0, 6)
@example(1, 1, 0, 0)
def test_below_power_of_ten_is_the_exact_comparison(s, c, e, r):
    assert PowerProduct(s, c, e).below_power_of_ten(r) is (s * c ** e < 10 ** r)


def test_an_exponent_of_ten_to_the_fifteen_is_decided_from_the_bounds_alone(monkeypatch):
    # X = 10^600 (3^40 + 1)^(10^15) has about 1.9 10^16 digits and could never be built
    x = PowerProduct(10 ** 600, 3 ** 40 + 1, 10 ** 15)
    assert IntervalReal(Fraction(1, 1000), Fraction(2, 1000)).ge_reciprocal(x) is True
    assert IntervalReal(0, 0).ge_reciprocal(x) is False
    assert IntervalReal(0, 1).ge_reciprocal(x) is None
    assert x.below_power_of_ten(RHS_EXACT_DIGITS) is False
    assert x._value is None

    # the same through verify and its report, with c4 set so that E = floor(c4 m) = 10^15
    def never(self):
        raise AssertionError("the closed form built X")

    monkeypatch.setattr(gpade.intervals.PowerProduct, "value", never)
    original = gpade.verify.compute_constants
    monkeypatch.setattr(gpade.verify, "compute_constants", lambda *a, **kw: dataclasses.replace(
        original(*a, **kw), c4=IntervalReal.point(10 ** 15)))
    log1m = resolve_system("log1m")
    rep = verify_theorem1(log1m, 1, 10, 1, 1, -1)
    assert (rep.rhs_exponent, rep.status) == (10 ** 15, "certified")
    assert rep.rhs_denominator.below_power_of_ten(RHS_EXACT_DIGITS) is False


# (system, a, b, B, m, n or None for the nearest, pqh): every verify_theorem1 case of
# test_verify.py, the Corollary's Theorem 1 instances there, and the suite's chain
VERIFY_CASES = [
    ("log1m", 1, 10, 1, 2, -11, None),
    ("log1m", 1, 10, 1, 1, -1, None),
    ("log1m", 1, 10, 1, 1, -1, (3, 2, 2)),
    ("polylog2", 1, 10 ** 400, 1, 5, None, None),
    ("polylog2", 1, 10 ** 400, 1, 5, 10 ** 2000, None),
    ("polylog2", 1, 10, 1, 1, 0, None),
    ("log1m", -1, 10, 1, 2, 95, None),
    ("log1m", 1, 10, 1, 5, -10536, None),
    ("log1m", -1, 10, 1, 2, 10, None),
    ("log1m", -1, 10, 1, 5, 9531, None),
] + [(arg, a, b, B, m, n, (p, q, h)) for arg, a, b, B, m, n, p, q, h in CHAIN_INSTANCES]


def _run_recording_rungs(monkeypatch, sys, args, pqh, digits, bound_verdict=None):
    """verify_theorem1 with every decide of gpade.verify recorded as (rungs, verdict); with
    bound_verdict, the first one, the Theorem 1 bound, decides by it instead."""
    calls = []
    real = gpade.intervals.decide

    def recording(produce, verdict, start):
        rungs = []
        if bound_verdict is not None and not calls:
            verdict = bound_verdict
        answer, result = real(lambda d: rungs.append(d) or produce(d), verdict, start)
        calls.append((rungs, answer, result))
        return answer, result

    monkeypatch.setattr(gpade.verify, "decide", recording)
    return verify_theorem1(sys, *args, digits=digits, pqh=pqh), calls


@pytest.mark.parametrize("case", VERIFY_CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[4]}-{c[6]}")
def test_the_rungs_and_reports_are_those_of_the_exact_rhs(monkeypatch, case):
    arg, a, b, B, m, n, pqh = case
    sys = resolve_system(arg)
    n = scan_nearest(sys, a, b, B, m) if n is None else n
    for digits in (64, 200) if case[:6] == ("log1m", 1, 10, 1, 2, -11) else (64,):
        rep, calls = _run_recording_rungs(monkeypatch, sys, (a, b, B, m, n), pqh, digits)
        # the replaced code's rhs, and the decision it made on it
        c4m = rep.constants.c4.lo * m
        rhs = Fraction(1, B * b ** m * (abs(a) + 1) ** (c4m.numerator // c4m.denominator))
        assert rep.rhs == rhs
        old, old_calls = _run_recording_rungs(monkeypatch, sys, (a, b, B, m, n), pqh, digits,
                                              lambda iv: iv.ge(rhs))
        assert [(r, v) for r, v, _ in calls] == [(r, v) for r, v, _ in old_calls]
        assert all(iv == old_iv for (_, _, iv), (_, _, old_iv) in zip(calls, old_calls))
        assert (rep.status, rep.lhs, rep.rhs_exponent) == (old.status, old.lhs, old.rhs_exponent)
        assert len(calls) == (1 if pqh is None else 4)


def _verify_rhs_line(monkeypatch, capsys, **fields):
    """The rhs field `gpade verify` prints for a report with these fields replaced."""
    monkeypatch.setattr(gpade.cli, "verify_theorem1", lambda *a, **kw: dataclasses.replace(
        verify_theorem1(*a, **kw), **fields))
    code = gpade.cli.main(["verify", "--system", "log1m", "--a", "1", "--b", "10", "--B", "1",
                           "--m", "1", "--n", "-1"])
    assert code == 0
    return parse_report(capsys.readouterr().out)[1][0]["rhs"]


def test_verify_rhs_line_at_the_exact_digits_boundary(monkeypatch, capsys):
    # X = 9 10^99999 has RHS_EXACT_DIGITS digits and prints exactly; 10^100000 has one more
    assert RHS_EXACT_DIGITS == 10 ** 5
    line = _verify_rhs_line(monkeypatch, capsys, B=9, b=10, m=99999, rhs_exponent=0)
    assert line == str(Fraction(1, 9 * 10 ** 99999))
    line = _verify_rhs_line(monkeypatch, capsys, B=10, b=10, m=99999, rhs_exponent=0)
    assert line == "1/(10*10^99999*2^0)"
    # far past the boundary the closed form prints with no X built
    def never(self):
        raise AssertionError("the closed form built X")

    monkeypatch.setattr(gpade.intervals.PowerProduct, "value", never)
    line = _verify_rhs_line(monkeypatch, capsys, rhs_exponent=10 ** 15)
    assert line == f"1/(1*10^1*2^{10 ** 15})"
