"""Dense univariate polynomials over exact rationals, and their products with series.

Everything here is exact: coefficients are `fractions.Fraction` (or int, which
is upgraded on entry).  No floating point enters any code path.  `power_sum` is
the one series kernel: `Poly` evaluation, F_j(z), exp and atanh all sum with it.
`truncated_product` is the one product of a `Poly` with a power series known
to a finite order; a series is just its list of known coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

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

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift_down(self, k: int) -> "Poly":
        """Divide by z^k; requires valuation >= k."""
        if self.is_zero:
            return self
        if any(c != 0 for c in self.coeffs[:k]):
            raise PreconditionError(f"z^{k} does not divide polynomial")
        return Poly(self.coeffs[k:])

    def __call__(self, z: Scalar) -> Fraction:
        return power_sum(self.coeffs, _frac(z))


def truncated_product(p: Poly, f: Sequence[Fraction], n: int) -> list[Fraction]:
    """Coefficients of z^0 .. z^(n-1) in p * f, for a series f known through z^(n-1).

    Coefficient z^t reads f only through z^(t - val p): with n + val p in place
    of n, f known through z^(n-1) still suffices, so p's valuation extends how
    far the product is known.  Every order certificate is read off this.
    """
    out = [Fraction(0)] * n
    for i, c in enumerate(p.coeffs[:n]):
        if c:
            for t in range(i, n):
                out[t] += c * f[t - i]
    return out


def lcm_range(n: int) -> int:
    """lcm(1, 2, ..., n); 1 for n <= 0."""
    out = 1
    for k in range(2, n + 1):
        out = math.lcm(out, k)
    return out

