"""Certified enclosures for exp, log and powers, from exact rational series.

Each function returns an IntervalReal whose endpoints are exact rationals on a
decimal grid.  Tail bounds are the classical explicit ones:

  exp(x), 0 <= x <= 1:   sum_{i>K} x^i/i! <= 2 x^{K+1}/(K+1)!
  atanh(u), |u| <= 1/2:  sum_{i>K} u^{2i+1}/(2i+1) <= |u|^{2K+3}/((2K+3)(1-u^2))

Large arguments are reduced first (exp: integer part via powers of an e
enclosure; log: powers of 10 and 2), so series arguments stay small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import InsufficientPrecisionError, PreconditionError
from .intervals import IntervalReal, _decimal_digits, _frac, decide

Scalar = Union[int, Fraction]
EPower = tuple[Fraction, Fraction]      # (coef, e_exp): coef * e^e_exp, coef > 0


def _exp_series_01(x: Fraction, digits: int) -> IntervalReal:
    """Enclosure of exp(x) for 0 <= x <= 1."""
    target = Fraction(1, 10 ** (digits + 1))
    total = Fraction(1)
    term = Fraction(1)
    i = 0
    while True:
        i += 1
        term = term * x / i
        total += term
        # remaining tail after the i-th term: <= 2 * x^{i+1}/(i+1)!
        tail = 2 * term * x / (i + 1)
        if tail <= target:
            return IntervalReal(total, total + tail).round_out(digits + 1)


@lru_cache(maxsize=None)
def _e_enclosure(digits: int) -> IntervalReal:
    return _exp_series_01(Fraction(1), digits)


def exp_frac(x: Scalar, digits: int) -> IntervalReal:
    """Enclosure of exp(x) for rational x, ~digits significant digits."""
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
    en = _e_enclosure(guard).pow_int(n, sig=guard)
    ef = _exp_series_01(f, guard)
    return (en * ef).round_sig(digits + 2)


def _atanh_series(u: Fraction, digits: int) -> IntervalReal:
    """Enclosure of atanh(u) for |u| <= 1/2."""
    if abs(u) > Fraction(1, 2):
        raise PreconditionError("atanh series argument must have |u| <= 1/2")
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
    le, _ = decide(lambda dg: (coef ** power) * exp_frac(e_exp * power, dg),
                   lambda iv: iv.ge(value), digits)
    if le is None:
        raise InsufficientPrecisionError("closed-form comparison undecided at precision cap")
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


def pow_interval(base: IntervalReal, exponent: IntervalReal, digits: int) -> IntervalReal:
    """Enclosure of base**exponent via exp(exponent * log base); base must be > 0."""
    return exp_interval(exponent * log_interval(base, digits + 4), digits)
