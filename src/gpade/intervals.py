"""Certified real intervals with exact rational endpoints.

An IntervalReal [lo, hi] asserts lo <= x <= hi for the represented real x.
It stores integer numerators over one positive denominator, not necessarily
reduced, so arithmetic and comparisons run on ints; a gcd runs only where the
endpoints are read as Fractions, or in `round_sig` over a denominator not of the
form 2^i 5^j.  All endpoint arithmetic is exact; `round_out` and `round_sig` trade
endpoint size for width, always outward, so containment is never lost.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

from .errors import InsufficientPrecisionError, PreconditionError

Scalar = Union[int, Fraction]
Pair = tuple[int, int]

DEFAULT_DIGIT_CAP = 4096

# the one escalation cap: no certified decision works at more decimal digits
PRECISION_CAP: ContextVar[int] = ContextVar("precision_cap", default=DEFAULT_DIGIT_CAP)

R = TypeVar("R")
V = TypeVar("V")


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def inth_root_floor(x: int, n: int) -> int:
    """floor(x**(1/n)) for x >= 0, n >= 1, by integer Newton iteration."""
    if x < 0 or n < 1:
        raise PreconditionError("inth_root_floor needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    # initial overestimate from bit length
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    return r


def _decimal_digits(n: int) -> int:
    """Exact count of decimal digits of |n|, without str() (which caps size)."""
    n = abs(n)
    if n == 0:
        return 1
    d = (n.bit_length() * 30103) // 100000   # >= floor(log10 n): n < 2^bits, 0.30103 > log10 2
    p = 10 ** d                              # one power, stepped down
    while p > n:
        p, d = p // 10, d - 1
    return d + 1


def _grid_gcd(n: int, den: int) -> int:
    """gcd(n, den), den > 0: from the powers of 2 and 5 in n when den = 2^i 5^j (every
    decimal grid and every product of them), so no big division runs; else math.gcd."""
    i = (den & -den).bit_length() - 1
    # 5^j has bit length floor(j log2 5) + 1, and 2321928094887362 / 10^15 < log2 5
    j = -(-((den >> i).bit_length() - 1) * 10 ** 15 // 2321928094887362)
    if n == 0 or den >> i != 5 ** j:
        return gcd(n, den)
    k = 0
    while k < j and n % 5 == 0:
        n, k = n // 5, k + 1
    return 5 ** k << min(i, (n & -n).bit_length() - 1)


# Fixed-point series sums carry this many units per unit of their last returned digit.  The walk's
# error for exp and atanh is under 2 units a term, so an end of a K-term sum is left unsettled only
# by an exact tie, or by chance with probability under (2K + 6) / 10^12 per end.
FIXED_GUARD = 10 ** 12


def series_walk(m0: tuple[int, int], steps: Iterable[tuple[int, int]], rho: tuple[int, int],
                tail: Callable[[int], tuple[int, int]],
                digits: int) -> tuple[int, int, int, int, int]:
    """Fixed-point sum, W = 10^digits FIXED_GUARD units to 1, of the positive terms m_0 =
    m0[0]/m0[1] and m_k = m_{k-1} p_k/q_k, (p_k, q_k) the k-th of the unending `steps`, through
    the first K >= 1 whose tail bound T = m_{K+1}/(1 - rho), rho = (p, q), is at most
    10^-digits; tail(K) is T exactly, as (tn, td).  Returns (K, s, err, tl, th) with
    s <= W (m_0 + ... + m_K) < s + err and tl <= W T < th (proved in gpade.transcend)."""
    rp, rq = rho
    # W m_{K+1} lies in [t, t + e): W T <= FIXED_GUARD holds if t + e <= tmax, fails if t > tmax
    tmax = FIXED_GUARD * (rq - rp) // rq
    t = s = 10 ** digits * FIXED_GUARD * m0[0] // m0[1]
    err = e = 1
    K = 0
    for p, q in steps:
        t, e = t * p // q, -(-e * p // q) + 1
        if K >= 1 and t <= tmax:
            tn, td = (0, 1) if t + e <= tmax else tail(K)
            if tn * 10 ** digits <= td:
                return K, s, err, t * rq // (rq - rp), -(-(t + e) * rq // (rq - rp))
        s, err, K = s + t, err + e, K + 1


def round_fixed(s: int, err: int, tl: int, th: int, digits: int) -> Optional[IntervalReal]:
    """The round_out(digits) of [S, S + T], or None when the fixed-point bounds below
    leave an end unsettled (Ziv's rounding test).  In units of 10^-digits / FIXED_GUARD the
    caller proves s <= S < s + err and tl <= T < th, as `series_walk` returns them."""
    g = FIXED_GUARD
    lo, hi = s // g, -(-(s + tl) // g)
    if lo != (s + err) // g or hi != -(-(s + err + th) // g):
        return None
    return IntervalReal._of(lo, hi, 10 ** digits)


def enclose_sum(s: int, sd: int, tn: int, td: int, sides: tuple[int, int],
                digits: int) -> IntervalReal:
    """[S + sides[0] T, S + sides[1] T] for S = s/sd and T = tn/td >= 0, sd, td > 0, put
    over one denominator and rounded out to the 10^-digits grid once: the exact enclosure
    of a series sum S with its tail bound T on the side(s) `sides` names."""
    mid, t = s * td, tn * sd
    return IntervalReal._of(mid + sides[0] * t, mid + sides[1] * t, sd * td).round_out(digits)


def _parts(x) -> tuple[int, int, int]:
    """(lo, hi, den) of an interval operand; a scalar is a point."""
    if isinstance(x, IntervalReal):
        return x._lo, x._hi, x._den
    if type(x) is int:
        return x, x, 1
    x = _frac(x)
    return x.numerator, x.numerator, x.denominator


class IntervalReal:
    """Closed interval [lo/den, hi/den], den > 0; `.lo` and `.hi` are normalized views."""

    __slots__ = ("_lo", "_hi", "_den")

    def __init__(self, lo: Scalar, hi: Scalar):
        lo, hi = _frac(lo), _frac(hi)
        ld, hd = lo.denominator, hi.denominator
        g = gcd(ld, hd)
        self._lo, self._hi, self._den = lo.numerator * (hd // g), hi.numerator * (ld // g), ld // g * hd
        if self._lo > self._hi:
            raise PreconditionError(f"interval endpoints out of order: {lo} > {hi}")

    @classmethod
    def _of(cls, lo: int, hi: int, den: int) -> "IntervalReal":
        """Unchecked constructor of internal results: the caller ensures lo <= hi, den > 0."""
        iv = object.__new__(cls)
        iv._lo, iv._hi, iv._den = lo, hi, den
        return iv

    @classmethod
    def point(cls, x: Scalar) -> "IntervalReal":
        x = _frac(x)
        return cls._of(x.numerator, x.numerator, x.denominator)

    lo = property(lambda self: Fraction(self._lo, self._den), doc="lower endpoint, normalized")
    hi = property(lambda self: Fraction(self._hi, self._den), doc="upper endpoint, normalized")

    @property
    def width(self) -> Fraction:
        return Fraction(self._hi - self._lo, self._den)

    def midpoint(self) -> Fraction:
        return Fraction(self._lo + self._hi, 2 * self._den)

    def __repr__(self) -> str:
        return f"IntervalReal({self.lo}, {self.hi})"

    def __contains__(self, x) -> bool:
        lo, hi, den = _parts(x)
        return self._lo * den <= lo * self._den and hi * self._den <= self._hi * den

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalReal):
            return NotImplemented
        d, od = self._den, other._den
        return self._lo * od == other._lo * d and self._hi * od == other._hi * d

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic (exact endpoints) ----------------------------------

    def _add(self, lo: int, hi: int, den: int) -> "IntervalReal":
        d = self._den
        g = gcd(d, den)
        s, t = den // g, d // g
        return IntervalReal._of(self._lo * s + lo * t, self._hi * s + hi * t, d * s)

    def __add__(self, other) -> "IntervalReal":
        return self._add(*_parts(other))

    __radd__ = __add__

    def __neg__(self) -> "IntervalReal":
        return IntervalReal._of(-self._hi, -self._lo, self._den)

    def __sub__(self, other) -> "IntervalReal":
        lo, hi, den = _parts(other)
        return self._add(-hi, -lo, den)

    def __rsub__(self, other) -> "IntervalReal":
        return (-self)._add(*_parts(other))

    def __mul__(self, other) -> "IntervalReal":
        olo, ohi, oden = _parts(other)
        lo, hi, den = self._lo, self._hi, self._den * oden
        # by signs: a point or two nonnegative operands need two products, no min/max
        if olo == ohi:
            return IntervalReal._of(lo * olo, hi * olo, den) if olo >= 0 \
                else IntervalReal._of(hi * olo, lo * olo, den)
        if lo >= 0 and olo >= 0:
            return IntervalReal._of(lo * olo, hi * ohi, den)
        products = (lo * olo, lo * ohi, hi * olo, hi * ohi)
        return IntervalReal._of(min(products), max(products), den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IntervalReal":
        lo, hi, den = _parts(other)
        if lo <= 0 <= hi:
            raise PreconditionError("interval division by interval containing 0")
        # 1/[lo/den, hi/den] = [den lo, den hi]/(lo hi), as lo hi > 0 for either sign
        return self * IntervalReal._of(den * lo, den * hi, lo * hi)

    def __rtruediv__(self, other) -> "IntervalReal":
        return IntervalReal.point(other) / self

    def __abs__(self) -> "IntervalReal":
        if self._lo >= 0:
            return self
        if self._hi <= 0:
            return -self
        return IntervalReal._of(0, max(-self._lo, self._hi), self._den)

    def pow_int(self, k: int, sig: Optional[int] = None) -> "IntervalReal":
        """Integer power; optional per-step outward rounding to `sig` significant digits."""
        if k < 0:
            return (Fraction(1) / self).pow_int(-k, sig)
        result = IntervalReal._of(1, 1, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
                if sig is not None:
                    result = result.round_sig(sig)
            k >>= 1
            if k:
                base = base * base
                if sig is not None:
                    base = base.round_sig(sig)
        return result

    # -- rounding / comparisons ---------------------------------------

    def round_out(self, digits: int) -> "IntervalReal":
        """Outward round endpoints to the 10^-digits grid (never narrows).  One long
        division: the upper end is the lower one's quotient plus ceil((rem + width)/den)."""
        scale = 10 ** digits
        q, r = divmod(self._lo * scale, self._den)
        return IntervalReal._of(q, q - (-(r + (self._hi - self._lo) * scale) // self._den), scale)

    def round_sig(self, sig: int) -> "IntervalReal":
        """Outward round keeping ~sig significant decimal digits.  The magnitude is read
        from each endpoint in lowest terms (an unreduced pair's can be one off), and each
        end is rounded at its own places, onto the finer of the two grids."""
        def places(n: int) -> int:
            g = _grid_gcd(n, self._den)
            return max(0, sig - _decimal_digits(n // g) + _decimal_digits(self._den // g))
        pl, ph = places(self._lo), places(self._hi)
        if pl == ph:
            return self.round_out(pl)
        p = max(pl, ph)
        return IntervalReal._of(self._lo * 10 ** pl // self._den * 10 ** (p - pl),
                                -(-self._hi * 10 ** ph // self._den) * 10 ** (p - ph), 10 ** p)

    def intersect(self, other: "IntervalReal") -> "IntervalReal":
        g = gcd(self._den, other._den)
        s, t = other._den // g, self._den // g
        lo, hi = max(self._lo * s, other._lo * t), min(self._hi * s, other._hi * t)
        if lo > hi:
            raise PreconditionError("intersection of disjoint enclosures (inconsistent certificates)")
        return IntervalReal._of(lo, hi, self._den * s)

    # tristate comparisons of every point of self with every point of other:
    # True or False when all pairs agree, None when the enclosures overlap

    def ge(self, other) -> Optional[bool]:
        (lo, hi, den), d = _parts(other), self._den
        return True if self._lo * den >= hi * d else False if self._hi * den < lo * d else None

    def lt(self, other) -> Optional[bool]:
        ge = self.ge(other)
        return None if ge is None else not ge

    def le(self, other) -> Optional[bool]:
        (lo, hi, den), d = _parts(other), self._den
        return True if self._hi * den <= lo * d else False if self._lo * den > hi * d else None

    def abs_affine_le(self, q: Pair, p: Pair, bound: Pair) -> Optional[bool]:
        """abs(self * q - p).le(bound) for the points q = qn/qd, p and bound, each an
        unnormalized int pair (n, d) with d > 0: the same endpoints, compared in one
        pass of integer products, with no interval built."""
        (qn, qd), (pn, pd), (bn, bd) = q, p, bound
        den = self._den * qd
        lo, hi = (self._lo, self._hi) if qn >= 0 else (self._hi, self._lo)
        # self * q - p = [lo, hi] / (den pd); its absolute value runs from `near` to `far`
        lo, hi = lo * qn * pd - pn * den, hi * qn * pd - pn * den
        far, near = max(-lo, hi), lo if lo > 0 else -hi if hi < 0 else 0
        r = bn * den * pd
        return True if far * bd <= r else False if near * bd > r else None

    def decimal_str(self, digits: int = 12) -> str:
        """Outward-rounded decimal rendering 'lo..hi' (for reports)."""
        r = self.round_out(digits)
        def fmt(n: int) -> str:
            sign = "-" if n < 0 else ""
            s = str(abs(n)).rjust(digits + 1, "0")
            return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"
        return f"{fmt(r._lo)}..{fmt(r._hi)}"


def frac_nth_root(f: Fraction, n: int, digits: int) -> IntervalReal:
    """Enclosure of f**(1/n) for f >= 0: endpoints on the 10^-digits grid."""
    f = _frac(f)
    if f < 0 or n < 1:
        raise PreconditionError("frac_nth_root needs f >= 0, n >= 1")
    if f == 0:
        return IntervalReal.point(0)
    scale = 10 ** digits
    # lo = floor(f^{1/n} * scale)/scale via integer root of floor(f * scale^n)
    m = (f.numerator * scale ** n) // f.denominator
    lo = inth_root_floor(m, n)
    hi = lo if lo ** n * f.denominator == f.numerator * scale ** n else lo + 1
    return IntervalReal._of(lo, hi, scale)


def frac_pow(f: Fraction, e: Fraction, digits: int) -> IntervalReal:
    """Enclosure of f**e for rational f > 0 and rational exponent e."""
    f, e = _frac(f), _frac(e)
    if f <= 0:
        raise PreconditionError("frac_pow needs positive base")
    if e == 0 or f == 1:
        return IntervalReal.point(1)
    if e < 0:
        inner = frac_pow(f, -e, digits + 2)
        return (Fraction(1) / inner).round_sig(digits)
    a, b = e.numerator, e.denominator
    powed = f ** a  # exact rational
    if b == 1:
        return IntervalReal.point(powed)
    # relative precision: root once, at enough places for ~digits significant digits
    mag = _decimal_digits(powed.numerator) - _decimal_digits(powed.denominator)
    return frac_nth_root(powed, b, max(0, digits + 2 - (mag // b)))


@contextmanager
def precision_cap(n: int) -> Iterator[None]:
    """Run the block with `n` decimal digits as the escalation cap of `decide`."""
    if n < 1:
        raise PreconditionError(f"precision cap must be >= 1, got {n}")
    token = PRECISION_CAP.set(n)
    try:
        yield
    finally:
        PRECISION_CAP.reset(token)


def decide(produce: Callable[[int], R], verdict: Callable[[R], Optional[V]],
           start: int) -> tuple[Optional[V], R]:
    """The one precision-escalation loop of the package.

    Calls produce(d) at d = start, 2 start, 4 start, ..., from at least 1 and
    clamped to the precision cap, and returns (verdict(result), result) at the
    first verdict that is not None, or (None, last result) once d has reached
    the cap.  No call ever asks for more digits than the cap.
    """
    cap = PRECISION_CAP.get()
    d = min(max(start, 1), cap)
    while True:
        result = produce(d)
        answer = verdict(result)
        if answer is not None or d >= cap:
            return answer, result
        d = min(2 * d, cap)


def settle(produce: Callable[[int], R], verdict: Callable[[R], Optional[V]],
           start: int, what: str) -> tuple[V, R]:
    """`decide` for a decision that must be made: raises InsufficientPrecisionError,
    naming `what` and the cap, when the verdict is still None at the cap."""
    answer, result = decide(produce, verdict, start)
    if answer is None:
        raise InsufficientPrecisionError(f"{what} undecided at precision cap {PRECISION_CAP.get()}")
    return answer, result


def settled_floor(iv: IntervalReal) -> Optional[int]:
    """floor of every point of `iv` when they all share it, else None."""
    lo = iv._lo // iv._den
    return lo if lo == iv._hi // iv._den else None


Producer = Callable[[int], IntervalReal]


class CertifiedReal:
    """A real number backed by a producer: digits -> enclosure of width < 3/2 10^-digits.

    Successive enclosures are intersected, so refinement never widens.  No
    enclosure is produced beyond the precision cap.
    """

    def __init__(self, producer: Producer, name: str = ""):
        self._producer = producer
        self.name = name
        self._best: Optional[IntervalReal] = None
        self._best_digits = 0

    def enclosure(self, digits: int) -> IntervalReal:
        if self._best is not None and self._best_digits >= digits:
            return self._best
        if digits > PRECISION_CAP.get():
            raise InsufficientPrecisionError(
                f"requested {digits} digits exceeds cap {PRECISION_CAP.get()} "
                f"for {self.name or 'value'}")
        fresh = self._producer(digits)
        if self._best is not None:
            fresh = fresh.intersect(self._best)
        self._best = fresh
        self._best_digits = digits
        return fresh


def width_digits(width: Fraction) -> int:
    """Smallest d >= 0 with 10^-d <= width: the decimal digits that reach `width`.
    It is D(den) - D(num) or one more (D = decimal digit count), clamped at 0."""
    num, den = width.numerator, width.denominator
    if num <= 0:
        raise PreconditionError("width must be positive")
    d = max(0, _decimal_digits(den) - _decimal_digits(num))
    return d if 10 ** d * num >= den else d + 1
