from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpade import IntervalReal, exp_frac, exp_interval, log_frac, log_interval, pow_interval
from gpade.errors import PreconditionError
from gpade.intervals import precision_cap
from gpade.transcend import le_epower, log2_enclosure, log10_enclosure

mpmath.mp.dps = 60


def mp_frac(x: "mpmath.mpf") -> Fraction:
    return Fraction(mpmath.nstr(x, 50, strip_zeros=False))


def test_exp_known_values():
    e = exp_frac(Fraction(1), 30)
    assert e.width <= Fraction(1, 10**29)
    assert mp_frac(mpmath.e) in e


def test_exp_zero_and_negative():
    assert 1 in exp_frac(Fraction(0), 10)
    iv = exp_frac(Fraction(-3, 2), 25)
    assert mp_frac(mpmath.exp(mpmath.mpf("-1.5"))) in iv


def test_exp_large_argument():
    iv = exp_frac(Fraction(187, 3), 20)
    assert mp_frac(mpmath.exp(mpmath.mpf(187) / 3)) in iv
    # relative width stays tight even though the value is ~10^27
    assert iv.width / iv.lo <= Fraction(1, 10**18)


def test_log_known_values():
    l2 = log2_enclosure(30)
    l10 = log10_enclosure(30)
    assert mp_frac(mpmath.log(2)) in l2
    assert mp_frac(mpmath.log(10)) in l10
    assert l2.width <= Fraction(1, 10**29)


def test_log_frac_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        log_frac(Fraction(0), 8)
    with pytest.raises(PreconditionError):
        log_frac(Fraction(-1), 8)


def test_log_reciprocal_antisymmetry():
    a = log_frac(Fraction(7, 3), 25)
    b = log_frac(Fraction(3, 7), 25)
    assert 0 in a + b


def test_log_one_is_exact():
    assert log_frac(Fraction(1), 10) == IntervalReal.point(0)


@given(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)))
@settings(max_examples=60, deadline=None)
def test_log_frac_matches_mpmath(x):
    iv = log_frac(x, 25)
    assert iv.width <= Fraction(2, 10**25)
    got = mp_frac(mpmath.log(mpmath.mpf(x.numerator) / x.denominator))
    # mpmath value is itself rounded; allow its own print-off error
    assert iv.lo - Fraction(1, 10**40) <= got <= iv.hi + Fraction(1, 10**40)


@given(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7)))
@settings(max_examples=60, deadline=None)
def test_exp_frac_matches_mpmath(x):
    iv = exp_frac(x, 25)
    got = mp_frac(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))
    slack = got * Fraction(1, 10**38)
    assert iv.lo - abs(slack) <= got <= iv.hi + abs(slack)


@given(st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)))
@settings(max_examples=40, deadline=None)
def test_exp_log_round_trip(x):
    inner = log_frac(x, 30)
    outer = exp_interval(inner, 25)
    assert x in outer


def test_log_interval_monotone():
    iv = log_interval(IntervalReal(2, 4), 20)
    assert mp_frac(mpmath.log(2)) >= iv.lo - Fraction(1, 10**18)
    assert mp_frac(mpmath.log(4)) <= iv.hi + Fraction(1, 10**18)
    with pytest.raises(PreconditionError):
        log_interval(IntervalReal(0, 1), 10)


def test_pow_interval_against_exact():
    # 2^10 through the exp/log path must enclose 1024
    iv = pow_interval(IntervalReal.point(2), IntervalReal.point(10), 20)
    assert 1024 in iv
    assert iv.width <= Fraction(1, 10**10)


def test_pow_interval_fractional_exponent():
    iv = pow_interval(IntervalReal.point(10), IntervalReal(Fraction(289, 50), Fraction(289, 50)), 15)
    got = mp_frac(mpmath.power(10, mpmath.mpf(289) / 50))
    assert iv.lo - 1 <= got <= iv.hi + 1


def test_enclosures_shrink_with_digits():
    prev = None
    for d in (5, 10, 20, 40):
        iv = log_frac(Fraction(3), d)
        if prev is not None:
            assert iv.width < prev
        prev = iv.width


def test_le_epower_rational_is_exact_at_first_call():
    # (31/8)^3 = 29791/512; a cap equal to the start precision allows one call only
    with precision_cap(4):
        assert le_epower(Fraction(29791, 512), (Fraction(31, 8), Fraction(0)), 3, 4)
        assert not le_epower(Fraction(29791, 512) + 1, (Fraction(31, 8), Fraction(0)), 3, 4)
    assert le_epower(2 ** 189, (Fraction(2 ** 21), Fraction(0)), 9, 16)
    assert not le_epower(2 ** 189 + 1, (Fraction(2 ** 21), Fraction(0)), 9, 16)


def test_le_epower_decides_e_powers():
    # 4 e^66 = 184287465373251661707092737712.24..., 30 digits before the point
    floor = 184287465373251661707092737712
    assert le_epower(floor, (Fraction(4), Fraction(66)), 1, 16)
    assert not le_epower(floor + 1, (Fraction(4), Fraction(66)), 1, 16)
    # a negative exponent, as for an inverse: (e^{-1})^2 = 0.1353...
    assert le_epower(Fraction(1, 8), (Fraction(1), Fraction(-1)), 2, 16)
    assert not le_epower(Fraction(1, 7), (Fraction(1), Fraction(-1)), 2, 16)
