"""Certified enclosures for exp and log, from rational series with proved error bounds.

Each function returns an IntervalReal whose endpoints are exact rationals on a
decimal grid.  A series whose terms m_n (in size) have ratio m_{n+1}/m_n <= rho < 1
has its tail past K at most m_{K+1}/(1 - rho).  It is summed through the first
K >= 1 whose tail bound is at most 10^-r, r = digits+1, and [sum, sum + tail] is
rounded out to the 10^-r grid:

  exp(x), 0 <= x <= 1:   m_i = x^i/i!, ratio x/(i+1) <= 1/2 past i = 0,
                         tail 2 x^{K+1}/(K+1)!
  atanh(u), |u| <= 1/2:  m_k = |u|^{2k+1}/(2k+1), ratio u^2 (2k+1)/(2k+3) <= u^2,
                         tail |u|^{2K+3}/((2K+3)(1-u^2)), on u's side of the sum

`intervals.series_walk` sums in fixed point, W = 10^r 10^12 units to 1, and finds
K as it sums.  From t_0 = floor(W m_0) and e_0 = 1, each ratio p/q gives t_k =
floor(t_{k-1} p/q) and e_k = ceil(e_{k-1} p/q) + 1, and t_k <= W m_k < t_k + e_k:
t_k <= t_{k-1} p/q <= W m_k < (t_{k-1} + e_{k-1}) p/q < t_k + 1 + e_{k-1} p/q.  So
s = t_0 + ... + t_K has s <= W S < s + e_0 + ... + e_K, and t_{K+1}, e_{K+1} bound
W m_{K+1}, hence W T; the exact tail is compared with 10^-r only when they
straddle it.  `intervals.round_fixed` (Ziv's rounding test) returns the ends the
exact [S, S + T] rounds to when neither error window holds a grid point.
Otherwise (a tie such as exp(0), or a window over a grid point by chance) the
exact sum over the same K runs, by binary splitting in polynomial.power_sum, and
`intervals.enclose_sum` rounds it and the exact tail out once.  Both paths give
the same (lo, hi, den).

Large arguments are reduced first (exp: integer part via powers of an e
enclosure; log: powers of 10 and 2), so series arguments stay small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, repeat
from math import factorial
from operator import floordiv
from typing import Union

from .errors import PreconditionError
from .intervals import IntervalReal, _decimal_digits, _frac, enclose_sum, round_fixed, \
    series_walk, settle
from .polynomial import power_sum

Scalar = Union[int, Fraction]
EPower = tuple[Fraction, Fraction]      # (coef, e_exp): coef * e^e_exp, coef > 0


def _exp_series_01(x: Fraction, digits: int) -> IntervalReal:
    """Enclosure of exp(x) for 0 <= x <= 1: the fixed-point sum, else the exact one."""
    a, b, r = x.numerator, x.denominator, digits + 1

    def tail(K: int) -> tuple[int, int]:
        return 2 * a ** (K + 1), b ** (K + 1) * factorial(K + 1)

    K, s, err, tl, th = series_walk((1, 1), zip(repeat(a), count(b, b)), (1, 2), tail, r)
    iv = round_fixed(s, err, tl, th, r)
    if iv is not None:
        return iv
    # K! times the sum has integer coefficients K!/i!, made by exact division as summed: all
    # K + 1 at once, built up from K, would hold about K^2 log10(K) / 2 digits
    kfact = factorial(K)
    s, sd = power_sum(accumulate(range(1, K + 1), floordiv, initial=kfact), x)
    return enclose_sum(s, sd * kfact, *tail(K), (0, 1), r)


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


def _atanh_series(u: Fraction, digits: int) -> IntervalReal:
    """Enclosure of atanh(u) for |u| <= 1/2: the fixed-point sum, else the exact one."""
    if abs(u) > Fraction(1, 2):
        raise PreconditionError("atanh series argument must have |u| <= 1/2")
    if u == 0:
        return IntervalReal.point(0)
    a, b, r = abs(u.numerator), u.denominator, digits + 1
    a2, b2 = a * a, b * b

    def tail(K: int) -> tuple[int, int]:
        return a ** (2 * K + 3), (2 * K + 3) * b ** (2 * K + 1) * (b2 - a2)

    # the ratios a2 (2k+1) / (b2 (2k+3)), k = 0, 1, ...
    steps = zip(count(a2, 2 * a2), count(3 * b2, 2 * b2))
    K, s, err, tl, th = series_walk((a, b), steps, (a2, b2), tail, r)
    iv = round_fixed(s, err, tl, th, r)
    if iv is None:
        s, sd = power_sum((Fraction(1, 2 * k + 1) for k in range(K + 1)), u * u)
        # the sum u s / sd, with the tail on u's side
        return enclose_sum(u.numerator * s, sd * b, *tail(K), (0, 1) if u > 0 else (-1, 0), r)
    # atanh is odd: the enclosure of atanh(-|u|) is the negated one of atanh(|u|)
    return iv if u > 0 else -iv


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
