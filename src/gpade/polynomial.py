"""Dense univariate polynomials and truncated power series over exact rationals.

Everything here is exact: coefficients are `fractions.Fraction` (or int, which
is upgraded on entry).  No floating point enters any code path.  `power_sum` is
the one series kernel: `Poly` evaluation, F_j(z), exp and atanh all sum with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import PreconditionError

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def power_sum(coeffs: Iterable[Scalar], z: Fraction) -> Fraction:
    """Exact sum of c_i z^i, z = a/b, as s / (den b^n) with den = lcm of the c_i's
    denominators: integers only, normalized once."""
    a, b = z.numerator, z.denominator
    s, den, apow, n = 0, 1, 1, 0
    for n, c in enumerate(coeffs):
        g = c.denominator // math.gcd(den, c.denominator)
        s = s * b * g + c.numerator * (den * g // c.denominator) * apow
        den *= g
        apow *= a
    return Fraction(s, den * b ** n)


class Poly:
    """Polynomial with Fraction coefficients, index = exponent, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls([c])

    @classmethod
    def monomial(cls, c: Scalar, exponent: int) -> "Poly":
        if exponent < 0:
            raise PreconditionError("monomial exponent must be >= 0")
        return cls([0] * exponent + [c])

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def valuation(self) -> int:
        """Order of vanishing at 0; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def height(self) -> Fraction:
        """Max absolute coefficient (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return Poly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Poly":
        c = _frac(c)
        return Poly([c * x for x in self.coeffs])

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise PreconditionError("negative polynomial power")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift_up(self, k: int) -> "Poly":
        """Multiply by z^k."""
        if self.is_zero:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def shift_down(self, k: int) -> "Poly":
        """Divide by z^k; requires valuation >= k."""
        if self.is_zero:
            return self
        if any(c != 0 for c in self.coeffs[:k]):
            raise PreconditionError(f"z^{k} does not divide polynomial")
        return Poly(self.coeffs[k:])

    def __call__(self, z: Scalar) -> Fraction:
        return power_sum(self.coeffs, _frac(z))

    def to_series(self, order: int) -> "SeriesTrunc":
        return SeriesTrunc(self.coeffs[:order], order)


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Exact quotient/remainder over Q[z]."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, num.degree() - den.degree() + 1)
    rem = list(num.coeffs)
    dd = den.degree()
    lead = den.coeffs[-1]
    while len(rem) - 1 >= dd and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        factor = rem[-1] / lead
        q[shift] = factor
        for i, c in enumerate(den.coeffs):
            rem[shift + i] -= factor * c
    return Poly(q), Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q[z] (Euclid)."""
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a.scale(1 / a.coeffs[-1])


def product_height_bound(a: Poly, b: Poly) -> Fraction:
    """Upper bound min(1+deg a, 1+deg b) * H(a) * H(b) for H(a*b).

    Both factors must be nonzero: the degree of the zero polynomial would make
    the combinatorial factor meaningless.
    """
    if a.is_zero or b.is_zero:
        raise PreconditionError("product_height_bound requires nonzero factors")
    factor = min(a.degree(), b.degree()) + 1
    return factor * a.height() * b.height()


def lcm_range(n: int) -> int:
    """lcm(1, 2, ..., n); 1 for n <= 0."""
    out = 1
    for k in range(2, n + 1):
        out = math.lcm(out, k)
    return out


class SeriesTrunc:
    """Power series known modulo z^order (coefficients for exponents < order)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[Scalar], order: int):
        if order < 0:
            raise PreconditionError("series order must be >= 0")
        cs = [_frac(c) for c in coeffs[:order]]
        cs.extend(Fraction(0) for _ in range(order - len(cs)))
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.order = order

    @classmethod
    def from_function(cls, coeff: Callable[[int], Scalar], order: int) -> "SeriesTrunc":
        return cls([coeff(n) for n in range(order)], order)

    def coefficient(self, i: int) -> Fraction:
        if i >= self.order:
            raise PreconditionError(f"coefficient {i} not determined (order {self.order})")
        return self.coeffs[i]

    def known_valuation(self) -> int:
        """Index of first known nonzero coefficient; order if all known vanish."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.order

    def vanishes_through(self, k: int) -> bool:
        """Certify that coefficients 0..k are all zero (requires order > k)."""
        if k >= self.order:
            raise PreconditionError(f"cannot certify vanishing to {k} at order {self.order}")
        return all(c == 0 for c in self.coeffs[: k + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTrunc):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        more = ", ..." if self.order > 6 else ""
        return f"SeriesTrunc([{head}{more}] mod z^{self.order})"

    def __add__(self, other: "SeriesTrunc") -> "SeriesTrunc":
        if not isinstance(other, SeriesTrunc):
            return NotImplemented
        order = min(self.order, other.order)
        return SeriesTrunc([self.coeffs[i] + other.coeffs[i] for i in range(order)], order)

    def __neg__(self) -> "SeriesTrunc":
        return SeriesTrunc([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "SeriesTrunc") -> "SeriesTrunc":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return SeriesTrunc([c * x for x in self.coeffs], self.order)
        if isinstance(other, Poly):
            return self.mul_poly(other)
        if not isinstance(other, SeriesTrunc):
            return NotImplemented
        # product coefficient n needs a_i (i <= n - val b) and b_j (j <= n - val a):
        # known through min(order_a + val_b, order_b + val_a) - 1
        va, vb = self.known_valuation(), other.known_valuation()
        order = min(self.order + vb, other.order + va)
        out = [Fraction(0)] * order
        for i, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(other.coeffs):
                if i + j >= order:
                    break
                if cb:
                    out[i + j] += ca * cb
        return SeriesTrunc(out, order)

    __rmul__ = __mul__

    def mul_poly(self, p: Poly) -> "SeriesTrunc":
        """Multiply by an exact polynomial; valuation of p extends the known order."""
        if p.is_zero:
            # exact zero: product known to any order; keep ours + degree headroom
            return SeriesTrunc([], self.order)
        order = self.order + p.valuation()
        out = [Fraction(0)] * order
        for i, cp in enumerate(p.coeffs):
            if cp == 0:
                continue
            for j, cs in enumerate(self.coeffs):
                if i + j >= order:
                    break
                if cs:
                    out[i + j] += cp * cs
        return SeriesTrunc(out, order)

    def sub_poly(self, p: Poly) -> "SeriesTrunc":
        if p.degree() >= self.order:
            raise PreconditionError("polynomial degree exceeds series order")
        out = list(self.coeffs)
        for i, c in enumerate(p.coeffs):
            out[i] -= c
        return SeriesTrunc(out, self.order)

    def derivative(self) -> "SeriesTrunc":
        if self.order == 0:
            return self
        return SeriesTrunc([i * self.coeffs[i] for i in range(1, self.order)], self.order - 1)
