"""Certified real intervals with exact rational endpoints.

An IntervalReal [lo, hi] asserts lo <= x <= hi for the represented real x.
All endpoint arithmetic is exact; explicit `round_out` calls trade endpoint
size for width, always outward, so containment is never lost.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, Iterator, Optional, TypeVar, Union

from .errors import InsufficientPrecisionError, PreconditionError

Scalar = Union[int, Fraction]

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
    d = (n.bit_length() * 30103) // 100000   # floor(bits * log10(2)) underestimates
    while 10 ** (d + 1) <= n:
        d += 1
    while 10 ** d > n:
        d -= 1
    return d + 1


def round_down(f: Fraction, digits: int) -> Fraction:
    """Largest multiple of 10^-digits that is <= f."""
    scale = 10 ** digits
    return Fraction(f.numerator * scale // f.denominator, scale)

def round_up(f: Fraction, digits: int) -> Fraction:
    scale = 10 ** digits
    return Fraction(-((-f.numerator) * scale // f.denominator), scale)


def round_sig_down(f: Fraction, sig: int) -> Fraction:
    """Round toward -inf keeping ~sig significant decimal digits."""
    if f == 0:
        return f
    mag = _decimal_digits(f.numerator) - _decimal_digits(f.denominator)
    return round_down(f, max(0, sig - mag))

def round_sig_up(f: Fraction, sig: int) -> Fraction:
    if f == 0:
        return f
    mag = _decimal_digits(f.numerator) - _decimal_digits(f.denominator)
    return round_up(f, max(0, sig - mag))


class IntervalReal:
    """Closed interval with exact Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Scalar, hi: Scalar):
        lo, hi = _frac(lo), _frac(hi)
        if lo > hi:
            raise PreconditionError(f"interval endpoints out of order: {lo} > {hi}")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x: Scalar) -> "IntervalReal":
        x = _frac(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"IntervalReal({self.lo}, {self.hi})"

    def __contains__(self, x) -> bool:
        if isinstance(x, IntervalReal):
            return self.lo <= x.lo and x.hi <= self.hi
        x = _frac(x)
        return self.lo <= x <= self.hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalReal):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic (exact endpoints) ----------------------------------

    def __add__(self, other) -> "IntervalReal":
        other = self._coerce(other)
        return IntervalReal(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "IntervalReal":
        return IntervalReal(-self.hi, -self.lo)

    def __sub__(self, other) -> "IntervalReal":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "IntervalReal":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "IntervalReal":
        other = self._coerce(other)
        lo, hi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        # by signs: a point or two nonnegative operands need two products, no min/max
        if olo == ohi:
            return IntervalReal(lo * olo, hi * olo) if olo >= 0 else IntervalReal(hi * olo, lo * olo)
        if lo >= 0 and olo >= 0:
            return IntervalReal(lo * olo, hi * ohi)
        products = (lo * olo, lo * ohi, hi * olo, hi * ohi)
        return IntervalReal(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IntervalReal":
        other = self._coerce(other)
        if other.lo <= 0 <= other.hi:
            raise PreconditionError("interval division by interval containing 0")
        return self * IntervalReal(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other) -> "IntervalReal":
        return self._coerce(other) / self

    def __abs__(self) -> "IntervalReal":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return IntervalReal(0, max(-self.lo, self.hi))

    def pow_int(self, k: int, sig: Optional[int] = None) -> "IntervalReal":
        """Integer power; optional per-step outward rounding to `sig` significant digits."""
        if k < 0:
            return (Fraction(1) / self).pow_int(-k, sig)
        result = IntervalReal.point(1)
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

    @staticmethod
    def _coerce(x) -> "IntervalReal":
        if isinstance(x, IntervalReal):
            return x
        return IntervalReal.point(_frac(x))

    # -- rounding / comparisons ---------------------------------------

    def round_out(self, digits: int) -> "IntervalReal":
        """Outward round endpoints to the 10^-digits grid (never narrows)."""
        return IntervalReal(round_down(self.lo, digits), round_up(self.hi, digits))

    def round_sig(self, sig: int) -> "IntervalReal":
        return IntervalReal(round_sig_down(self.lo, sig), round_sig_up(self.hi, sig))

    def intersect(self, other: "IntervalReal") -> "IntervalReal":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise PreconditionError("intersection of disjoint enclosures (inconsistent certificates)")
        return IntervalReal(lo, hi)

    # tristate comparisons of every point of self with every point of other:
    # True or False when all pairs agree, None when the enclosures overlap

    def ge(self, other) -> Optional[bool]:
        other = self._coerce(other)
        return True if self.lo >= other.hi else False if self.hi < other.lo else None

    def lt(self, other) -> Optional[bool]:
        ge = self.ge(other)
        return None if ge is None else not ge

    def le(self, other) -> Optional[bool]:
        other = self._coerce(other)
        return True if self.hi <= other.lo else False if self.lo > other.hi else None

    def decimal_str(self, digits: int = 12) -> str:
        """Outward-rounded decimal rendering 'lo..hi' (for reports)."""
        r = self.round_out(digits)
        def fmt(f: Fraction) -> str:
            scaled = f * 10 ** digits
            n = scaled.numerator // scaled.denominator
            sign = "-" if n < 0 else ""
            n = abs(n)
            s = str(n).rjust(digits + 1, "0")
            return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"
        return f"{fmt(r.lo)}..{fmt(r.hi)}"


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
    return IntervalReal(Fraction(lo, scale), Fraction(hi, scale))


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
    # relative-precision root: scale into a comfortable window first
    return frac_nth_root_rel(powed, b, digits)


def frac_nth_root_rel(f: Fraction, n: int, sig: int) -> IntervalReal:
    """Enclosure of f**(1/n), f > 0, with ~sig significant digits."""
    f = _frac(f)
    if f <= 0 or n < 1:
        raise PreconditionError("frac_nth_root_rel needs f > 0, n >= 1")
    # choose k so that f * 10^(n*k) has at least sig*n digits, then root once
    mag = _decimal_digits(f.numerator) - _decimal_digits(f.denominator)
    return frac_nth_root(f, n, max(0, sig + 2 - (mag // n)))


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

    Calls produce(d) at d = start, 2 start, 4 start, ..., clamped to the
    precision cap, and returns (verdict(result), result) at the first verdict
    that is not None, or (None, last result) once d has reached the cap.  No
    call ever asks for more digits than the cap.
    """
    cap = PRECISION_CAP.get()
    d = min(start, cap)
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
    lo = iv.lo.numerator // iv.lo.denominator
    return lo if lo == iv.hi.numerator // iv.hi.denominator else None


Producer = Callable[[int], IntervalReal]


class CertifiedReal:
    """A real number backed by a producer: digits -> enclosure of width <= 10^-digits.

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

    def refine(self, width: Fraction) -> IntervalReal:
        """Cached enclosure of width <= `width`, escalating the producer as needed."""
        width = _frac(width)
        if width <= 0:
            raise PreconditionError("target width must be positive")
        _, iv = settle(self.enclosure, lambda iv: iv.width <= width or None,
                       max(self._best_digits, width_digits(width) + 1),
                       f"{self.name or 'value'} to width {width}")
        return iv


def width_digits(width: Fraction) -> int:
    """Smallest d >= 0 with 10^-d <= width: the decimal digits that reach `width`.
    It is D(den) - D(num) or one more (D = decimal digit count), clamped at 0."""
    num, den = width.numerator, width.denominator
    if num <= 0:
        raise PreconditionError("width must be positive")
    d = max(0, _decimal_digits(den) - _decimal_digits(num))
    return d if 10 ** d * num >= den else d + 1
