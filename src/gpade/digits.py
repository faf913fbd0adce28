"""Certified b-ary digit expansion, repetition statistics, and the
convergents built from repeated digit blocks.

A digit a_i (1-indexed after the radix point) is *certified* when the value's
enclosure lies inside a single cell of the b^-i grid, so no refinement can
change it.  The repetition count of pattern length t at position n is the
largest ell with (a_n ... a_{n+t-1}) repeated ell times starting at n; it is
only reported when enough certified digits exist to see the repetition break.
Digits are read off floor(value * b^count) by splitting it in halves: a few
big-integer divisions, not one per digit.

The block convergent at (t, n) has q_n = b^{n-1}(b^t - 1) and matches the
value's first n + t*count - 1 digits.  The classical floor-identity argument
gives |value - p_n/q_n| <= b / b^{n + t*count}; the stronger numerator (b-1)
is also checked and reported separately.  With M = n - 1 + t*count the
distance is |frac(b^M value) - block/(b^t - 1)| / b^M.  The two terms lie in
the closed cells of their first digits a_{n+t*count} and a_n, so their gap is
at most (|a_{n+t*count} - a_n| + 1) / b, and the (b-1) form can fail only on
a carry boundary {a_n, a_{n+t*count}} = {0, b-1}; it need not fail there.

`gpade digits` and the Theorem 2 check share one set-up, digit_profile: the
value F_j(a/b^s) at the signed point, which the caller keeps and decides the
block convergent on, its expansion and its repetition profile.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .catalog import GFunctionSystem
from .constants import compute_constants, eps_threshold
from .errors import InsufficientDigitsError, PreconditionError
from .intervals import (PRECISION_CAP, CertifiedReal, IntervalReal, decide, settled_floor,
                        width_digits)
from .transcend import le_epower, log_frac
from .verify import value_producer

Value = Union[Fraction, int, CertifiedReal]


@dataclass
class DigitString:
    base: int
    integer_part: int
    digits: tuple[int, ...]       # fractional digits a_1 a_2 ..., each in [0, base)
    certified_len: int
    scaled: int = field(repr=False, compare=False)   # floor(value * base^certified_len)
    exact: bool = False           # expansion of an exact rational (terminating convention)

    def digit(self, i: int) -> int:
        """1-indexed fractional digit a_i; must be certified."""
        if not (1 <= i <= self.certified_len):
            raise InsufficientDigitsError(
                f"digit {i} beyond certified length {self.certified_len}; extend expansion")
        return self.digits[i - 1]

    def as_str(self, limit: Optional[int] = None) -> str:
        n = self.certified_len if limit is None else min(limit, self.certified_len)
        if self.base <= 10:
            return "".join(str(d) for d in self.digits[:n])
        return " ".join(str(d) for d in self.digits[:n])

    def floor_scaled(self, i: int) -> int:
        """floor(value * base^i), i <= certified_len (the integer part for i <= 0): the
        stored floor at depth certified_len cut to i digits by one division."""
        if i > self.certified_len:
            raise InsufficientDigitsError("extend expansion")
        return self.scaled // self.base ** (self.certified_len - max(i, 0))


def _expand_exact(value: Fraction, base: int, count: int) -> DigitString:
    return _digits_from_floor(value.numerator * base ** count // value.denominator,
                              base, count, exact=True)


def expand_digits(value: Value, base: int, count: int) -> DigitString:
    """Certified expansion to `count` fractional digits.

    Exact rationals expand from the exact floor of value * base^count
    (terminating values continue with zeros).  Certified values refine until
    the enclosure settles inside one cell at depth `count`; if the precision
    cap is hit first, the returned certified_len is the deepest level that
    did settle, read off the floors of the two endpoints at depth `count`.
    """
    if base < 2:
        raise PreconditionError("base must be >= 2")
    if count < 1:
        raise PreconditionError("count must be >= 1")
    if isinstance(value, (int, Fraction)):
        return _expand_exact(Fraction(value), base, count)

    # decimal digits needed so the interval is narrower than one cell at depth count
    need = width_digits(Fraction(1, base ** (count + 1)))
    scale = base ** count
    floor, iv = decide(value.enclosure, lambda iv: settled_floor(iv * scale), need + 2)
    if floor is not None:
        return _digits_from_floor(floor, base, count)
    # floor(x b^l) is floor(x b^count) cut to l digits, so the deepest level where the cell
    # is unambiguous ends the common prefix of the endpoints' floors; bisect for its end
    lo, hi = math.floor(iv.lo * scale), math.floor(iv.hi * scale)
    split = bisect.bisect(range(count), False,
                          key=lambda lvl: lo // base ** (count - lvl) != hi // base ** (count - lvl))
    if split < 2:
        raise InsufficientDigitsError("no digit certifiable at precision cap")
    return _digits_from_floor(lo // base ** (count - split + 1), base, split - 1)


def _digits_from_floor(scaled_floor: int, base: int, count: int,
                       exact: bool = False) -> DigitString:
    integer_part, rest = divmod(scaled_floor, base ** count)
    return DigitString(base, integer_part, tuple(_split_digits(rest, base, count)), count,
                       scaled_floor, exact)


def _split_digits(x: int, base: int, n: int) -> list[int]:
    """The n digits of 0 <= x < base^n, most significant first, split in halves."""
    if n > 64:
        high, low = divmod(x, base ** (n - n // 2))
        return _split_digits(high, base, n // 2) + _split_digits(low, base, n - n // 2)
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        x, digits[i] = divmod(x, base)
    return digits


def repetition_count(ds: DigitString, t: int, n: int) -> int:
    """Largest ell such that the digit block at n of length t repeats ell times.

    Requires enough certified digits to witness the end of the run:
    n + t*(ell+1) - 1 <= certified_len.
    """
    if t < 1 or n < 1:
        raise PreconditionError("need t >= 1 and n >= 1")
    if n + 2 * t - 1 > ds.certified_len:
        raise InsufficientDigitsError(
            f"need digits through {n + 2 * t - 1}, certified {ds.certified_len}; extend expansion")
    block = [ds.digit(n + i) for i in range(t)]
    ell = 1
    while True:
        start = n + ell * t
        if start + t - 1 > ds.certified_len:
            raise InsufficientDigitsError(
                f"repetition still running at certified digit {ds.certified_len}; extend expansion")
        if all(ds.digit(start + i) == block[i] for i in range(t)):
            ell += 1
        else:
            return ell


@dataclass
class BlockConvergent:
    t: int
    n: int
    count: int                   # repetition count at (t, n)
    p_n: int
    q_n: int
    bound: Fraction              # (base-1) / base^{n + t*count}; can fail only
                                 # when {a_n, a_{n+t*count}} = {0, base-1}
    bound_relaxed: Fraction      # base / base^{n + t*count} (always provable)
    holds: Optional[bool]
    holds_relaxed: Optional[bool]
    distance: IntervalReal


def theorem2_convergent(ds: DigitString, value: Value, t: int, n: int) -> BlockConvergent:
    """Build the block convergent p_n/q_n and certify the digit-match bounds."""
    count = repetition_count(ds, t, n)
    b = ds.base
    q_n = b ** (n - 1) * (b ** t - 1)
    head = ds.floor_scaled(n - 1) if n > 1 else ds.integer_part
    tail = 0
    for i in range(t):
        tail = tail * b + ds.digit(n + i)
    p_n = (b ** t - 1) * head + tail
    bound = Fraction(b - 1, b ** (n + t * count))
    bound_relaxed = Fraction(b, b ** (n + t * count))

    target = Fraction(p_n, q_n)

    def verdicts(iv: IntervalReal) -> tuple[Optional[bool], Optional[bool]]:
        return iv.le(bound), iv.le(bound_relaxed)

    if isinstance(value, (int, Fraction)):
        iv = IntervalReal.point(abs(Fraction(value) - target))
        pair = verdicts(iv)
    else:
        # the enclosures are nested, so a bound decided once stays decided; a cell the
        # cap leaves open keeps whichever bound its last enclosure settles
        pair, iv = decide(lambda dg: abs(value.enclosure(dg) - target),
                          lambda iv: None if None in (v := verdicts(iv)) else v, 24)
        pair = pair or verdicts(iv)
    return BlockConvergent(t=t, n=n, count=count, p_n=p_n, q_n=q_n,
                           bound=bound, bound_relaxed=bound_relaxed,
                           holds=pair[0], holds_relaxed=pair[1], distance=iv)


@dataclass
class RepetitionProfile:
    t: int
    window: tuple[int, int]
    values: list[tuple[int, int]]          # (n, repetition count)
    max_ratio: Fraction                    # max over window of count/n
    empirical_vb: Optional[Fraction]       # descriptive fit, NOT certified


def repetition_profile(ds: DigitString, t: int, window: tuple[int, int],
                       value: Optional[CertifiedReal] = None) -> RepetitionProfile:
    """Repetition counts over a window, plus a descriptive approximation-exponent fit."""
    n_lo, n_hi = window
    if n_lo < 1 or n_hi < n_lo:
        raise PreconditionError("window must satisfy 1 <= n_lo <= n_hi")
    values = []
    max_ratio = Fraction(0)
    for n in range(n_lo, n_hi + 1):
        cnt = repetition_count(ds, t, n)
        values.append((n, cnt))
        ratio = Fraction(cnt, n)
        if ratio > max_ratio:
            max_ratio = ratio
    vb = _empirical_exponent(ds, value) if value is not None else None
    return RepetitionProfile(t=t, window=window, values=values,
                             max_ratio=max_ratio, empirical_vb=vb)


def _empirical_exponent(ds: DigitString, value: CertifiedReal) -> Fraction:
    """max_m of the exponent e with |value - n/b^m| = b^{-e m} at the nearest n,
    over about 24 samples of m.

    Descriptive only: computed from midpoints at fixed precision.
    """
    b = ds.base
    m_max = max(2, ds.certified_len - 2)
    step = max(1, m_max // 24)
    best = Fraction(0)
    logb = log_frac(Fraction(b), 12)
    for m in range(2, m_max + 1, step):
        near = ds.floor_scaled(m)

        def nearest_distance(dg: int) -> IntervalReal:
            iv = value.enclosure(dg)
            return min((abs(iv - Fraction(c, b ** m)) for c in (near, near + 1)),
                       key=lambda d: d.lo)

        ok, dist = decide(nearest_distance, lambda d: d.lo > 0 or None, 12)
        if ok is None:
            continue
        # e = -log(dist) / (m log b), crude midpoint arithmetic
        ln = log_frac(dist.midpoint(), 12) if dist.midpoint() > 0 else None
        if ln is None:
            continue
        e_mid = -ln.midpoint() / (m * logb.midpoint())
        e_frac = Fraction(round(e_mid * 1000), 1000)
        if e_frac > best:
            best = e_frac
    return best


def profile_with_expansion(value: Value, base: int, t: int,
                           window: tuple[int, int],
                           count: Optional[int] = None) -> tuple[DigitString, RepetitionProfile]:
    """Expand far enough that every repetition count in the window certifies.

    The retry loop stops at the precision cap (as a digit count) on values
    whose expansion is eventually periodic (a repetition that never breaks
    cannot be counted).
    """
    if count is None:
        count = window[1] + 4 * t + 16
    max_count = PRECISION_CAP.get()
    cval = value if isinstance(value, CertifiedReal) else None
    while True:
        ds = expand_digits(value, base, count)
        try:
            return ds, repetition_profile(ds, t, window, value=cval)
        except InsufficientDigitsError:
            if count >= max_count:
                raise
            count = min(max_count, count * 3 // 2 + t)


def digit_profile(sys: GFunctionSystem, a: int, b: int, s: int, t: int,
                  window: tuple[int, int], j: Optional[int] = None,
                  count: Optional[int] = None
                  ) -> tuple[CertifiedReal, DigitString, RepetitionProfile]:
    """F_j(a/b^s) (j = N by default, 1 <= j <= N), with its base-b expansion and the
    repetition profile of pattern length t over `window`."""
    if b < 2 or s < 1 or a == 0:
        raise PreconditionError("need b >= 2, s >= 1, a != 0")
    z = Fraction(a, b ** s)
    if sys.C * abs(z) >= 1:
        raise PreconditionError("C |a|/b^s must be < 1 for certified evaluation")
    value = value_producer(sys, sys.N if j is None else j, z)
    return (value, *profile_with_expansion(value, b, t, window, count=count))


@dataclass
class Theorem2Report:
    system_name: str
    a: int
    b: int
    s: int
    t: int
    eps: Fraction
    window: tuple[int, int]
    profile: RepetitionProfile
    empirical_ok: bool                     # max_ratio <= eps / t
    hyp_growth_ok: bool                    # b^s > (c1 |a|)^{c2}
    hyp_digit_ok: Optional[bool]           # b^s >= (|a|+1)^{2 c4 / eps}
    digits_used: int


def theorem2_bound_check(sys: GFunctionSystem, a: int, b: int, s: int, t: int,
                         eps: Fraction, window: tuple[int, int],
                         j: Optional[int] = None, digits: int = 64) -> Theorem2Report:
    """Empirical repetition profile of F(a/b^s) in base b plus hypothesis flags."""
    eps = Fraction(eps)
    if eps <= 0 or t < 1:
        raise PreconditionError("need eps > 0 and t >= 1")
    _, ds, profile = digit_profile(sys, a, b, s, t, window, j=j)
    # the constants take |a|, and no field of them depends on the system's sign
    constants = compute_constants(sys, a, b, Fraction(t), s, digits=digits, allow_desk_scale=True)
    coef, e_exp = constants.c1_sym
    hyp1 = not le_epower(b ** s, (coef * abs(a), e_exp), constants.c2, digits)
    hyp2 = (s * log_frac(Fraction(b), digits)).ge(eps_threshold(constants, eps, digits))

    return Theorem2Report(system_name=sys.name, a=a, b=b, s=s, t=t, eps=eps,
                          window=window, profile=profile,
                          empirical_ok=profile.max_ratio <= eps / t,
                          hyp_growth_ok=hyp1, hyp_digit_ok=hyp2,
                          digits_used=ds.certified_len)
