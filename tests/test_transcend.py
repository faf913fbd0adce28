from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import IntervalReal, exp_frac, exp_interval, log_frac, log_interval
from gpade.errors import PreconditionError
from gpade.intervals import precision_cap
from gpade.transcend import _atanh_series, _e_enclosure, _e_power, _exp_series_01, le_epower, \
    log2_enclosure, log10_enclosure

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



def test_exp_frac_reuses_cached_e_power():
    # the cached e^n gives the interval the uncached expression gave
    for x, digits in [(Fraction(187, 3), 20), (Fraction(7, 2), 40), (Fraction(10), 300)]:
        n, f = divmod(x, 1)
        guard = digits + len(str(n)) + 6
        uncached = (_e_enclosure(guard).pow_int(n, sig=guard)
                    * _exp_series_01(f, guard)).round_sig(digits + 2)
        assert exp_frac(x, digits) == uncached
    _e_power.cache_clear()
    first = exp_frac(Fraction(187, 3), 20)
    assert _e_power.cache_info().misses == 1
    assert exp_frac(Fraction(187, 3), 20) == first
    assert _e_power.cache_info().hits == 1


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


# The term-by-term Fraction loops that the power-sum kernel replaced, kept here
# as references: the kernel must return the very same enclosures.

def _exp_series_01_fraction(x: Fraction, digits: int) -> IntervalReal:
    target = Fraction(1, 10 ** (digits + 1))
    total = Fraction(1)
    term = Fraction(1)
    i = 0
    while True:
        i += 1
        term = term * x / i
        total += term
        tail = 2 * term * x / (i + 1)
        if tail <= target:
            return IntervalReal(total, total + tail).round_out(digits + 1)


def _atanh_series_fraction(u: Fraction, digits: int) -> IntervalReal:
    if u == 0:
        return IntervalReal.point(0)
    target = Fraction(1, 10 ** (digits + 1))
    u2 = u * u
    total = u
    term = u
    k = 0
    while True:
        k += 1
        term = term * u2
        total += term / (2 * k + 1)
        tail = abs(term) * abs(u2) / ((2 * k + 3) * (1 - u2))
        if tail <= target:
            if u > 0:
                return IntervalReal(total, total + tail).round_out(digits + 1)
            return IntervalReal(total - tail, total).round_out(digits + 1)


unit_interval = st.integers(1, 10**4).flatmap(
    lambda d: st.builds(Fraction, st.integers(0, d), st.just(d)))
half_interval = st.integers(2, 10**4).flatmap(
    lambda d: st.builds(Fraction, st.integers(-(d // 2), d // 2), st.just(d)))


def _triple(iv: IntervalReal) -> tuple[int, int, int]:
    """The stored (lo, hi, den): after round_out it leaves no choice of representation."""
    return iv._lo, iv._hi, iv._den


# a 60-digit numerator and denominator, as log_interval(c6) hands atanh in the constant chain
_U60 = Fraction(123456789012345678901234567890123456789012345678901234567891,
                987654321098765432109876543210987654321098765432109876543211)


@given(unit_interval, st.integers(1, 400))
@example(Fraction(0), 20)
@example(Fraction(1), 400)
@example(Fraction(1), 1)
@example(Fraction(1, 10 ** 6), 5)      # K = 1: the sum is 1 + x
@example(Fraction(1, 10 ** 6), 11)     # K = 1 with the tail exactly at 10^-12
@settings(max_examples=40, deadline=None)
def test_exp_series_equals_fraction_loop(x, digits):
    assert _triple(_exp_series_01(x, digits)) == _triple(_exp_series_01_fraction(x, digits))


@given(half_interval, st.integers(1, 400))
@example(Fraction(0), 20)
@example(Fraction(-1, 2), 300)
@example(Fraction(1, 3), 400)
@example(Fraction(-1, 3), 2)          # stops one term earlier than a (2K+1) tail would
@example(_U60, 300)
@example(-_U60, 60)
@settings(max_examples=40, deadline=None)
def test_atanh_series_equals_fraction_loop(u, digits):
    assert _triple(_atanh_series(u, digits)) == _triple(_atanh_series_fraction(u, digits))
