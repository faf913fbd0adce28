from fractions import Fraction
from math import ceil, floor
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import IntervalReal, exp_frac, exp_interval, log_frac, log_interval
from gpade.errors import PreconditionError
from gpade.intervals import precision_cap
from gpade import transcend
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
@example(Fraction(0), 20)               # this and the next three fall back to the exact sum
@example(Fraction(1, 10), 1)
@example(Fraction(1, 5), 3)
@example(Fraction(1, 50), 7)
@example(Fraction(1), 400)
@example(Fraction(1), 1)
@example(Fraction(1, 10 ** 6), 5)      # K = 1: the sum is 1 + x
@example(Fraction(1, 10 ** 6), 11)     # K = 1 with the tail exactly at 10^-12
@settings(max_examples=40, deadline=None)
def test_exp_series_equals_fraction_loop(x, digits):
    assert _triple(_exp_series_01(x, digits)) == _triple(_exp_series_01_fraction(x, digits))


@given(half_interval, st.integers(1, 400))
@example(Fraction(0), 20)
@example(Fraction(1, 2), 1)            # S + T = 0.55 exactly: falls back to the exact sum
@example(Fraction(-1, 2), 1)
@example(Fraction(-1, 2), 300)
@example(Fraction(1, 3), 400)
@example(Fraction(-1, 3), 2)          # stops one term earlier than a (2K+1) tail would
@example(_U60, 300)
@example(-_U60, 60)
@settings(max_examples=40, deadline=None)
def test_atanh_series_equals_fraction_loop(u, digits):
    assert _triple(_atanh_series(u, digits)) == _triple(_atanh_series_fraction(u, digits))


# The fixed-point sums must round to the triples of the exact sums they fall back to, at
# argument heights up to 70 digits, both signs and 0 to 2,000 digits.  The ties that the
# fixed-point bounds cannot round are pinned above, against the Fraction loops.

def _fraction_of_height(lo, hi):
    """p/q with q of 1 to 70 digits and lo <= p/q <= hi."""
    return st.integers(1, 70).flatmap(lambda h: st.integers(10 ** (h - 1), 10 ** h)).flatmap(
        lambda q: st.builds(Fraction, st.integers(ceil(lo * q), floor(hi * q)), st.just(q)))


def _exact_sum(series, x: Fraction, digits: int) -> tuple[int, int, int]:
    """The triple of `series` at x when every fixed-point rounding declines: its exact sum."""
    with mock.patch.object(transcend, "round_fixed", lambda *bounds: None):
        return _triple(series(x, digits))


_FALLBACK_EXP = [(Fraction(0), 0), (Fraction(0), 20), (Fraction(1, 10), 1),
                 (Fraction(1, 5), 3), (Fraction(1, 50), 7)]
_FALLBACK_ATANH = [(Fraction(1, 2), 1), (Fraction(-1, 2), 1)]


@given(_fraction_of_height(0, 1), st.integers(0, 2000))
@example(Fraction(1), 0)
@example(Fraction(347, 811), 1900)
@settings(max_examples=60, deadline=None)
def test_exp_series_fixed_point_equals_exact_sum(x, digits):
    assert _triple(_exp_series_01(x, digits)) == _exact_sum(_exp_series_01, x, digits)


@given(_fraction_of_height(Fraction(-1, 2), Fraction(1, 2)).filter(bool), st.integers(0, 2000))
@example(Fraction(-1, 2), 2000)
@example(_U60, 76)
@example(-_U60, 0)
@settings(max_examples=60, deadline=None)
def test_atanh_series_fixed_point_equals_exact_sum(u, digits):
    assert _triple(_atanh_series(u, digits)) == _exact_sum(_atanh_series, u, digits)


def _count_exact_calls(monkeypatch):
    """The arguments of each exact enclosure the series build, recorded as they run."""
    calls = []
    exact = transcend.enclose_sum
    monkeypatch.setattr(transcend, "enclose_sum", lambda *args: calls.append(args) or exact(*args))
    return calls


def test_ties_reach_the_exact_sum(monkeypatch):
    calls = _count_exact_calls(monkeypatch)
    for series, cases in ((_exp_series_01, _FALLBACK_EXP), (_atanh_series, _FALLBACK_ATANH)):
        for x, digits in cases:
            before = len(calls)
            series(x, digits)
            assert len(calls) == before + 1, (x, digits)


def test_ties_are_stopped_by_the_exact_tail_check(monkeypatch):
    # the tail bound 2 x^2/2! at K = 1 is 10^-r exactly (10^-12 at x = 10^-6, 10^-2 at x = 1/10),
    # so the walk's fixed-point bounds on it straddle the target and the exact check decides
    checked = []
    walk = transcend.series_walk
    monkeypatch.setattr(transcend, "series_walk", lambda m0, steps, rho, tail, digits: walk(
        m0, steps, rho, lambda K: checked.append(K) or tail(K), digits))
    for x, digits in ((Fraction(1, 10 ** 6), 11), (Fraction(1, 10), 1)):
        checked.clear()
        assert _triple(_exp_series_01(x, digits)) == _triple(_exp_series_01_fraction(x, digits))
        assert checked == [1], (x, digits)
    checked.clear()
    _exp_series_01(Fraction(347, 811), 1900)
    assert checked == []


def test_deep_top_rungs_never_fall_back(monkeypatch):
    # the highest precisions of perfbench's deep ladder, and atanh at log_interval(c6)'s
    # 60-digit argument, round from the fixed-point sum alone
    cases = [(_exp_series_01, Fraction(347, 811), 1900),
             (_atanh_series, Fraction(97, 811), 2000),
             (_atanh_series, _U60, 76),
             (_atanh_series, -_U60, 76)]
    expected = [_exact_sum(series, x, digits) for series, x, digits in cases]
    calls = _count_exact_calls(monkeypatch)
    assert [_triple(series(x, digits)) for series, x, digits in cases] == expected
    assert calls == []


def test_exp_frac_of_an_integer_is_the_e_power():
    # exp_frac(n) skips the series at 0, an exact tie: e^n times the point exp(0) = 1
    # is the same interval
    for n in (1, 2, 7, 66, 132, 1000):
        for digits in (5, 16, 48, 72, 300):
            guard = digits + len(str(n)) + 6
            product = (_e_power(n, guard) * _exp_series_01(Fraction(0), guard)).round_sig(digits + 2)
            assert _triple(exp_frac(n, digits)) == _triple(product)


def test_negative_precision_rejected():
    for entry, x in [(log_frac, Fraction(7, 3)), (log_frac, Fraction(1, 3)), (log_frac, Fraction(1)),
                     (exp_frac, Fraction(1, 3)), (exp_frac, Fraction(5)), (exp_frac, Fraction(-2))]:
        with pytest.raises(PreconditionError):
            entry(x, -1)
    assert mp_frac(mpmath.log(mpmath.mpf(7) / 3)) in log_frac(Fraction(7, 3), 0)
    assert mp_frac(mpmath.exp(mpmath.mpf(1) / 3)) in exp_frac(Fraction(1, 3), 0)
