"""The fixed-point exp and atanh series against the code that the one series walk replaced.

`_exp_tail`, `_exp_series_01`, `_exp_series_exact`, `_atanh_tail`, `_atanh_series`,
`_atanh_series_exact` and `round_fixed` are that code, kept verbatim: each series
searched its term count with one big multiplication per term, then summed, and
`round_fixed` charged 2 units of error to each floored term.  The walk must give the
same (lo, hi, den) for every argument, including the exact ties that fall back to
the exact sum.
"""

from fractions import Fraction
from itertools import accumulate
from math import ceil, factorial, floor
from operator import floordiv
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import transcend
from gpade.errors import PreconditionError
from gpade.intervals import FIXED_GUARD, IntervalReal
from gpade.polynomial import power_sum


def _exp_tail(a: int, b: int, r: int) -> tuple[int, int, int]:
    """(K, tn, td) for the first K >= 1 whose exp tail 2 x^{K+1}/(K+1)!, x = a/b, is
    tn / (td 10^r) <= 10^-r."""
    tn, td, K = 2 * a * a * 10 ** r, 2 * b * b, 1
    while tn > td:
        K += 1
        tn *= a
        td *= b * (K + 1)
    return K, tn, td


def _exp_series_01(x: Fraction, digits: int) -> IntervalReal:
    """Enclosure of exp(x) for 0 <= x <= 1: the fixed-point sum, else the exact one."""
    a, b, r = x.numerator, x.denominator, digits + 1
    K, tn, td = _exp_tail(a, b, r)
    # t_i = floor(t_{i-1} x / i) lies below W x^i/i! by less than 2, as x/i <= 1
    t = s = 10 ** r * FIXED_GUARD
    for i in range(1, K + 1):
        t = t * a // (b * i)
        s += t
    iv = round_fixed(s, K + 1, tn * FIXED_GUARD // td, r)
    return _exp_series_exact(x, digits) if iv is None else iv


def _exp_series_exact(x: Fraction, digits: int) -> IntervalReal:
    """The exact sum behind _exp_series_01, for ties its fixed-point bounds cannot round."""
    a, b = x.numerator, x.denominator
    K, tn, td = _exp_tail(a, b, digits + 1)
    # K! times the sum has integer coefficients K!/i!, made by exact division as summed: all
    # K + 1 at once, built up from K, would hold about K^2 log10(K) / 2 digits
    kfact = factorial(K)
    s, sd = power_sum(accumulate(range(1, K + 1), floordiv, initial=kfact), x)
    # the sum s / (sd K!) and the tail over one denominator
    sd, td = sd * kfact, td * 10 ** (digits + 1)
    lo = s * td
    return IntervalReal._of(lo, lo + tn * sd, sd * td).round_out(digits + 1)


def _atanh_tail(a: int, b: int, r: int) -> tuple[int, int, int]:
    """(K, tn, td) for the first K >= 1 whose atanh tail |u|^{2K+3}/((2K+3)(1-u^2)),
    |u| = a/b, is tn / ((2K+3) td 10^r) <= 10^-r."""
    tn, td, K = a ** 5 * 10 ** r, b ** 3 * (b * b - a * a), 1
    while tn > (2 * K + 3) * td:
        K += 1
        tn *= a * a
        td *= b * b
    return K, tn, td


def _atanh_series(u: Fraction, digits: int) -> IntervalReal:
    """Enclosure of atanh(u) for |u| <= 1/2: the fixed-point sum, else the exact one."""
    if abs(u) > Fraction(1, 2):
        raise PreconditionError("atanh series argument must have |u| <= 1/2")
    if u == 0:
        return IntervalReal.point(0)
    a, b, r = abs(u.numerator), u.denominator, digits + 1
    K, tn, td = _atanh_tail(a, b, r)
    # t_k lies below W |u|^{2k+1}/(2k+1) by less than 4/3: each floor loses under 1, and
    # the ratio u^2 (2k+1)/(2k+3) of successive terms is at most 1/4
    a2, b2 = a * a, b * b
    t = s = 10 ** r * FIXED_GUARD * a // b
    for k in range(K):
        t = t * (a2 * (2 * k + 1)) // (b2 * (2 * k + 3))
        s += t
    iv = round_fixed(s, K + 1, tn * FIXED_GUARD // ((2 * K + 3) * td), r)
    if iv is None:
        return _atanh_series_exact(u, digits)
    # atanh is odd: the enclosure of atanh(-|u|) is the negated one of atanh(|u|)
    return iv if u > 0 else -iv


def _atanh_series_exact(u: Fraction, digits: int) -> IntervalReal:
    """The exact sum behind _atanh_series, for ties its fixed-point bounds cannot round."""
    a, b = abs(u.numerator), u.denominator
    K, tn, td = _atanh_tail(a, b, digits + 1)
    s, sd = power_sum((Fraction(1, 2 * k + 1) for k in range(K + 1)), u * u)
    # the sum u s / sd and the tail over one denominator; the tail lies on u's side
    sd, td = sd * u.denominator, td * (2 * K + 3) * 10 ** (digits + 1)
    mid, t = u.numerator * s * td, tn * sd
    lo, hi = (mid, mid + t) if u > 0 else (mid - t, mid)
    return IntervalReal._of(lo, hi, sd * td).round_out(digits + 1)


def round_fixed(s: int, n: int, tail: int, digits: int) -> Optional[IntervalReal]:
    """The round_out(digits) of [S, S + T], or None when the fixed-point bounds below
    leave an end unsettled (Ziv's rounding test).  In units of 10^-digits / FIXED_GUARD the
    caller proves s <= S < s + 2n (n floored terms, each less than 2 below its exact
    value) and tail <= T < tail + 1."""
    g, err = FIXED_GUARD, 2 * n
    lo, hi = s // g, -(-(s + tail) // g)
    if lo != (s + err) // g or hi != -(-(s + err + tail + 1) // g):
        return None
    return IntervalReal._of(lo, hi, 10 ** digits)


def _triple(iv: IntervalReal) -> tuple[int, int, int]:
    return iv._lo, iv._hi, iv._den


def _of_height(lo, hi):
    """p/q with q of 1 to 70 digits and lo <= p/q <= hi."""
    return st.integers(1, 70).flatmap(lambda h: st.integers(10 ** (h - 1), 10 ** h)).flatmap(
        lambda q: st.builds(Fraction, st.integers(ceil(lo * q), floor(hi * q)), st.just(q)))


@given(_of_height(0, 1), st.integers(0, 2000))
@example(Fraction(0), 0)
@example(Fraction(1), 2000)
@settings(max_examples=80, deadline=None)
def test_exp_series_equals_the_replaced_code(x, digits):
    assert _triple(transcend._exp_series_01(x, digits)) == _triple(_exp_series_01(x, digits))


@given(_of_height(Fraction(-1, 2), Fraction(1, 2)), st.integers(0, 2000))
@example(Fraction(-1, 2), 2000)
@example(Fraction(0), 5)
@settings(max_examples=80, deadline=None)
def test_atanh_series_equals_the_replaced_code(u, digits):
    assert _triple(transcend._atanh_series(u, digits)) == _triple(_atanh_series(u, digits))


# every a/b with b < 60 at small precisions, where the exact ties are
_SMALL = sorted({Fraction(a, b) for b in range(1, 60) for a in range(b + 1)})


@pytest.mark.parametrize("digits", [0, 1, 2, 3, 5, 8, 13])
def test_small_arguments_equal_the_replaced_code(digits):
    for x in _SMALL:
        assert _triple(transcend._exp_series_01(x, digits)) == _triple(_exp_series_01(x, digits)), x
    for u in (s * x for x in _SMALL if x <= Fraction(1, 2) for s in (1, -1)):
        assert _triple(transcend._atanh_series(u, digits)) == _triple(_atanh_series(u, digits)), u
