"""Certified enclosures for exp and log, from rational series with proved error bounds.

Each function returns an IntervalReal whose endpoints are exact rationals on a
decimal grid.  A series is summed through the first K >= 1 whose tail is at most
10^-r, r = digits+1, and [sum, sum + tail] is rounded out to the 10^-r grid.  The
tail bounds are:

  exp(x), 0 <= x <= 1:   sum_{i>K} x^i/i! <= 2 x^{K+1}/(K+1)!
  atanh(u), |u| <= 1/2:  sum_{i>K} u^{2i+1}/(2i+1) <= |u|^{2K+3}/((2K+3)(1-u^2))

The sum is first taken in fixed point, in units of 10^-r / G, G = intervals.FIXED_GUARD.
Each term is the floor of the previous one times the term ratio (x/i for exp,
u^2 (2k+1)/(2k+3) <= 1/4 for atanh), so each lies less than 2 below its exact value,
and the K+1 terms less than 2(K+1) below the exact sum; the floored tail is short by
less than 1.  `intervals.round_fixed` (Ziv's rounding test) returns the rounded ends
when neither error window holds a grid point, as the exact sum rounds to them.
Otherwise (an exact tie such as exp(0), or a window over a grid point) the exact sum
runs: by binary splitting in polynomial.power_sum, the integer sum (exp's times K!,
over coefficients K!/i!) and the tail meet over one denominator and are rounded out
once.  Both paths give the same (lo, hi, den).

Large arguments are reduced first (exp: integer part via powers of an e
enclosure; log: powers of 10 and 2), so series arguments stay small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import floordiv
from typing import Union

from .errors import PreconditionError
from .intervals import FIXED_GUARD, IntervalReal, _decimal_digits, _frac, round_fixed, settle
from .polynomial import power_sum

Scalar = Union[int, Fraction]
EPower = tuple[Fraction, Fraction]      # (coef, e_exp): coef * e^e_exp, coef > 0


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


@lru_cache(maxsize=None)
def _e_enclosure(digits: int) -> IntervalReal:
    return _exp_series_01(Fraction(1), digits)


@lru_cache(maxsize=None)
def _e_power(n: int, guard: int) -> IntervalReal:
    """e^n from the e enclosure at `guard` digits; shared, so never mutated."""
    return _e_enclosure(guard).pow_int(n, sig=guard)


def exp_frac(x: Scalar, digits: int) -> IntervalReal:
    """Enclosure of exp(x) for rational x, ~digits significant digits."""
    if digits < 0:
        raise PreconditionError("exp_frac needs digits >= 0")
    x = _frac(x)
    if x < 0:
        inner = exp_frac(-x, digits + 4)
        return (Fraction(1) / inner).round_sig(digits + 2)
    n = x.numerator // x.denominator
    f = x - n
    if n == 0:
        return _exp_series_01(f, digits)
    # guard digits cover relative-error growth through the n-fold product
    guard = digits + _decimal_digits(n) + 6
    if f == 0:
        # exp(0) is the exact point 1, and round_sig reads normalized endpoints
        return _e_power(n, guard).round_sig(digits + 2)
    return (_e_power(n, guard) * _exp_series_01(f, guard)).round_sig(digits + 2)


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


@lru_cache(maxsize=None)
def log2_enclosure(digits: int) -> IntervalReal:
    # log 2 = 2 atanh(1/3)
    return (2 * _atanh_series(Fraction(1, 3), digits + 1)).round_out(digits)


@lru_cache(maxsize=None)
def log10_enclosure(digits: int) -> IntervalReal:
    # log 10 = 3 log 2 + log(5/4) = 3 log 2 + 2 atanh(1/9)
    iv = 3 * log2_enclosure(digits + 2) + 2 * _atanh_series(Fraction(1, 9), digits + 2)
    return iv.round_out(digits)


def log_frac(x: Scalar, digits: int) -> IntervalReal:
    """Enclosure of log(x) for rational x > 0, width ~10^-digits."""
    if digits < 0:
        raise PreconditionError("log_frac needs digits >= 0")
    x = _frac(x)
    if x <= 0:
        raise PreconditionError("log_frac needs x > 0")
    if x == 1:
        return IntervalReal.point(0)
    if x < 1:
        return -log_frac(1 / x, digits)
    guard = digits + 4
    # strip powers of 10 (cheap via digit counts), then powers of 2
    k10 = max(0, _decimal_digits(x.numerator) - _decimal_digits(x.denominator) - 1)
    m = x / Fraction(10 ** k10)
    k2 = 0
    while m > Fraction(4, 3):
        m /= 2
        k2 += 1
    # now m in (2/3, 4/3]; u = (m-1)/(m+1) in (-1/5, 1/7]
    u = (m - 1) / (m + 1)
    iv = 2 * _atanh_series(u, guard)
    if k10:
        iv = iv + k10 * log10_enclosure(guard)
    if k2:
        iv = iv + k2 * log2_enclosure(guard)
    return iv.round_out(digits)


def log_epower(sym: EPower, digits: int) -> IntervalReal:
    """Enclosure of log(coef * e^e_exp) = log(coef) + e_exp."""
    coef, e_exp = sym
    return log_frac(coef, digits) + IntervalReal.point(e_exp)


def le_epower(value: Scalar, sym: EPower, power: int, digits: int) -> bool:
    """Decide value <= (coef * e^e_exp)^power by escalating enclosures: exactly at the
    first call when e_exp = 0, else against a transcendental that never equals value."""
    coef, e_exp = sym
    le, _ = settle(lambda dg: (coef ** power) * exp_frac(e_exp * power, dg),
                   lambda iv: iv.ge(value), digits, "closed-form comparison")
    return le


def exp_interval(x: IntervalReal, digits: int) -> IntervalReal:
    """Monotone extension of exp_frac to interval arguments."""
    lo = exp_frac(x.lo, digits + 2)
    hi = exp_frac(x.hi, digits + 2)
    return IntervalReal(lo.lo, hi.hi)


def log_interval(x: IntervalReal, digits: int) -> IntervalReal:
    if x.lo <= 0:
        raise PreconditionError("log_interval needs a strictly positive interval")
    lo = log_frac(x.lo, digits + 2)
    hi = log_frac(x.hi, digits + 2)
    return IntervalReal(lo.lo, hi.hi)
