"""The integer IntervalReal against the Fraction-endpoint class it replaced.

`_FractionInterval` is that class, and `round_sig_down`/`round_sig_up` the
helpers it rounded with, kept verbatim (the class renamed).  Every operation,
rounding and tristate comparison must give equal endpoints, values and
exceptions, also on intervals whose numerators and denominator share a factor.
"""

import operator
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpade.errors import PreconditionError
from gpade.intervals import IntervalReal, Scalar, _decimal_digits, _frac
from test_rounding_equivalence import round_down, round_up


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


class _FractionInterval:
    """Closed interval with exact Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Scalar, hi: Scalar):
        lo, hi = _frac(lo), _frac(hi)
        if lo > hi:
            raise PreconditionError(f"interval endpoints out of order: {lo} > {hi}")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x: Scalar) -> "_FractionInterval":
        x = _frac(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self) -> str:
        return f"_FractionInterval({self.lo}, {self.hi})"

    def __contains__(self, x) -> bool:
        if isinstance(x, _FractionInterval):
            return self.lo <= x.lo and x.hi <= self.hi
        x = _frac(x)
        return self.lo <= x <= self.hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, _FractionInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic (exact endpoints) ----------------------------------

    def __add__(self, other) -> "_FractionInterval":
        other = self._coerce(other)
        return _FractionInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "_FractionInterval":
        return _FractionInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "_FractionInterval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "_FractionInterval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "_FractionInterval":
        other = self._coerce(other)
        lo, hi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        # by signs: a point or two nonnegative operands need two products, no min/max
        if olo == ohi:
            return _FractionInterval(lo * olo, hi * olo) if olo >= 0 else _FractionInterval(hi * olo, lo * olo)
        if lo >= 0 and olo >= 0:
            return _FractionInterval(lo * olo, hi * ohi)
        products = (lo * olo, lo * ohi, hi * olo, hi * ohi)
        return _FractionInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_FractionInterval":
        other = self._coerce(other)
        if other.lo <= 0 <= other.hi:
            raise PreconditionError("interval division by interval containing 0")
        return self * _FractionInterval(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other) -> "_FractionInterval":
        return self._coerce(other) / self

    def __abs__(self) -> "_FractionInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return _FractionInterval(0, max(-self.lo, self.hi))

    def pow_int(self, k: int, sig: Optional[int] = None) -> "_FractionInterval":
        """Integer power; optional per-step outward rounding to `sig` significant digits."""
        if k < 0:
            return (Fraction(1) / self).pow_int(-k, sig)
        result = _FractionInterval.point(1)
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
    def _coerce(x) -> "_FractionInterval":
        if isinstance(x, _FractionInterval):
            return x
        return _FractionInterval.point(_frac(x))

    # -- rounding / comparisons ---------------------------------------

    def round_out(self, digits: int) -> "_FractionInterval":
        """Outward round endpoints to the 10^-digits grid (never narrows)."""
        return _FractionInterval(round_down(self.lo, digits), round_up(self.hi, digits))

    def round_sig(self, sig: int) -> "_FractionInterval":
        return _FractionInterval(round_sig_down(self.lo, sig), round_sig_up(self.hi, sig))

    def intersect(self, other: "_FractionInterval") -> "_FractionInterval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise PreconditionError("intersection of disjoint enclosures (inconsistent certificates)")
        return _FractionInterval(lo, hi)

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


fractions = st.one_of(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 25)),
                      st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 9)),
                      st.just(Fraction(0)))
scalars = st.one_of(st.integers(-20, 20), fractions)


@st.composite
def interval_pairs(draw):
    """The same interval as (IntervalReal, _FractionInterval); the first one is
    stored unreduced, numerators and denominator times k, when k > 1."""
    a = draw(fractions)
    b = a if draw(st.booleans()) else draw(fractions)
    lo, hi = min(a, b), max(a, b)
    new, k = IntervalReal(lo, hi), draw(st.sampled_from([1, 1, 2, 3, 7, 12, 10 ** 6]))
    return IntervalReal._of(new._lo * k, new._hi * k, new._den * k), _FractionInterval(lo, hi)


def _outcome(f):
    """What f() gives: an interval's endpoints, a typed value, or the exception raised."""
    try:
        r = f()
    except Exception as e:
        return ("raises", type(e), str(e))
    if isinstance(r, (IntervalReal, _FractionInterval)):
        assert isinstance(r.lo, Fraction) and isinstance(r.hi, Fraction)
        return ("interval", r.lo, r.hi)
    return ("value", type(r), r)


BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "ge": lambda x, y: x.ge(y), "le": lambda x, y: x.le(y), "lt": lambda x, y: x.lt(y),
    "in": lambda x, y: y in x, "==": operator.eq,
}
ARITHMETIC = ("+", "-", "*", "/")


@given(interval_pairs(), interval_pairs(), scalars)
@settings(max_examples=400)
def test_binary_operations_equal_the_fraction_interval(a, b, x):
    (na, ra), (nb, rb) = a, b
    for name, op in BINARY.items():
        assert _outcome(lambda: op(na, nb)) == _outcome(lambda: op(ra, rb)), name
        assert _outcome(lambda: op(na, x)) == _outcome(lambda: op(ra, x)), name
        if name in ARITHMETIC:
            assert _outcome(lambda: op(x, na)) == _outcome(lambda: op(x, ra)), name
    assert _outcome(lambda: na.intersect(nb)) == _outcome(lambda: ra.intersect(rb))
    if na == nb:
        assert hash(na) == hash(nb)


@given(interval_pairs(), st.integers(0, 9), st.integers(1, 9), st.integers(-4, 7),
       st.sampled_from([None, 1, 2, 5]))
@settings(max_examples=400)
def test_unary_operations_and_roundings_equal_the_fraction_interval(a, digits, sig, k, ksig):
    n, r = a
    unary = {
        "abs": abs, "neg": operator.neg, "width": lambda v: v.width,
        "midpoint": lambda v: v.midpoint(), "hash": hash,
        "decimal_str": lambda v: v.decimal_str(digits),
        "round_out": lambda v: v.round_out(digits), "round_sig": lambda v: v.round_sig(sig),
        "pow_int": lambda v: v.pow_int(k, ksig),
    }
    for name, op in unary.items():
        assert _outcome(lambda: op(n)) == _outcome(lambda: op(r)), name


def test_division_by_a_divisor_with_both_endpoints_negative():
    divisor = IntervalReal._of(-6, -1, 2)               # [-3, -1/2], unreduced
    for lo, hi, expected in [(1, 2, (-4, Fraction(-1, 3))), (-1, 2, (-4, 2)),
                             (-2, -1, (Fraction(1, 3), 4))]:
        got = IntervalReal(lo, hi) / divisor
        ref = _FractionInterval(lo, hi) / _FractionInterval(-3, Fraction(-1, 2))
        assert (got.lo, got.hi) == (ref.lo, ref.hi) == expected
    assert (Fraction(1) / divisor) == IntervalReal(-2, Fraction(-1, 3))


def test_round_sig_reads_the_reduced_endpoints():
    # 4/12 and 8/12 have 1-digit numerators over a 2-digit denominator, but 1/3 and
    # 2/3 do not: the magnitude of the unreduced pair is one less
    iv = IntervalReal._of(4, 8, 12)
    got, ref = iv.round_sig(3), _FractionInterval(Fraction(1, 3), Fraction(2, 3)).round_sig(3)
    assert (got.lo, got.hi) == (ref.lo, ref.hi) == (Fraction(333, 1000), Fraction(667, 1000))


def test_the_endpoint_views_are_normalized_and_read_only():
    iv = IntervalReal._of(-4, 6, 4)
    assert (iv.lo, iv.hi) == (Fraction(-1), Fraction(3, 2))
    assert iv == IntervalReal(-1, Fraction(3, 2)) and hash(iv) == hash(IntervalReal(-1, Fraction(3, 2)))
    with pytest.raises(AttributeError):
        iv.lo = Fraction(0)
    with pytest.raises(PreconditionError):
        IntervalReal(Fraction(1, 2), Fraction(1, 3))
