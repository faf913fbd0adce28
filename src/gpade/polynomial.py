"""Dense univariate polynomials over exact rationals, and their products with series.

Everything here is exact, and no floating point enters any code path.  A
`Poly` is integer numerators over one positive common denominator, so its
arithmetic works on ints and normalizes once per result; its `coeffs` is a
read-only `fractions.Fraction` view.  `int_product` is the one product kernel,
a convolution of integer coefficient lists: `Poly` multiplication,
`truncated_product`, and `derivation`'s iterate recurrence and determinant all
call it.  `Poly` evaluation is one Horner loop on the integer numerators,
`Poly.at`, which returns an unnormalized integer pair; `Poly.__call__` is the
Fraction of it.  `power_sum` is the one exact series sum: F_j(z) sums with it,
and exp and atanh when their fixed-point sum (intervals.series_walk) cannot
round.  It adds a long series by binary splitting, and returns an unnormalized
integer numerator and denominator, so a caller that rounds pays no gcd.
`cleared` puts a list of rationals over the lcm of their denominators.
`truncated_product` is the one product of a `Poly` with a power series known
to a finite order; a series is just its list of known (int or Fraction)
coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Sequence, Union

from .errors import PreconditionError

Scalar = Union[int, Fraction]


def power_sum(coeffs: Iterable[Scalar], z: Scalar) -> tuple[int, int]:
    """Exact sum of c_i z^i, z = a/b, as the ints (s, den b^n), unnormalized, with
    den = lcm of the c_i's denominators and n the last index.  Runs of
    32 terms are summed by one loop, and runs of equal length are merged as they
    come (binary splitting): a long sum multiplies balanced sizes, keeps no list."""
    a, b = z.numerator, z.denominator
    # (s, den, m): m consecutive terms, over z^(index of the first), sum to s / (den b^(m-1))
    runs: list[tuple[int, int, int]] = []
    it = iter(coeffs)
    while True:
        s, den, apow, run = 0, 1, 1, list(islice(it, 32))
        for c in run:
            g = c.denominator // math.gcd(den, c.denominator)
            s = s * b * g + c.numerator * (den * g // c.denominator) * apow
            den *= g
            apow *= a
        if run:
            runs.append((s, den, len(run)))
        # the later run is scaled by (a/b)^(length of the earlier one); all merge at the end
        while len(runs) > 1 and (not run or runs[-2][2] == runs[-1][2]):
            (sr, dr, mr), (sl, dl, ml) = runs.pop(), runs.pop()
            g = math.gcd(dl, dr)
            runs.append((sl * (dr // g) * b ** mr + sr * (dl // g) * a ** ml, dl // g * dr, ml + mr))
        if not run:
            s, den, m = runs[0] if runs else (0, 1, 1)
            return s, den * b ** (m - 1)


class Poly:
    """Polynomial num[i]/den in z, index = exponent.

    Normalized: den > 0, gcd(den, *num) = 1, no trailing zeros, and the zero
    polynomial is num = (), den = 1.  So equal polynomials have equal (num, den),
    and each operation below works on ints and ends in one gcd pass.
    `coeffs` is a read-only Fraction view for printing and tests.
    """

    __slots__ = ("num", "den")

    def __new__(cls, coeffs: Iterable[Scalar] = (), den: int = 1) -> "Poly":
        """The polynomial with coefficients c_i / den (ints or Fractions), den > 0."""
        if den <= 0:
            raise PreconditionError("polynomial denominator must be positive")
        num, lcd = cleared(list(coeffs))
        return cls._of(num, den * lcd)

    @classmethod
    def _of(cls, num: list[int], den: int) -> "Poly":
        """num/den normalized: trailing zeros cut, one gcd pass; den > 0."""
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num)
        p = object.__new__(cls)
        # tuple() and *args get lists: a tuple built from a generator starts at 10
        # slots and is resized, which drains one CPython free list into the others
        p.num, p.den = tuple([c // g for c in num] if g != 1 else num), den // g
        return p

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self.den) for c in self.num])

    @property
    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def valuation(self) -> int:
        """Order of vanishing at 0; -1 for the zero polynomial."""
        for i, c in enumerate(self.num):
            if c:
                return i
        return -1

    def is_integral(self) -> bool:
        return self.den == 1

    def height(self) -> Fraction:
        """Max absolute coefficient (0 for the zero polynomial)."""
        return Fraction(max(map(abs, self.num), default=0), self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

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
        # over the lcm of the two denominators
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        out = [c * fa for c in self.num]
        out += [0] * (len(other.num) - len(out))
        for i, c in enumerate(other.num):
            out[i] += fb * c
        return Poly._of(out, self.den * fa)

    def __neg__(self) -> "Poly":
        return Poly._of([-c for c in self.num], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly._of(int_product(self.num, other.num), self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Poly":
        n = c.numerator
        return Poly._of([n * x for x in self.num], self.den * c.denominator)

    def derivative(self) -> "Poly":
        return Poly._of([i * c for i, c in enumerate(self.num)][1:], self.den)

    def shift_down(self, k: int) -> "Poly":
        """Divide by z^k; requires valuation >= k."""
        if any(self.num[:k]):
            raise PreconditionError(f"z^{k} does not divide polynomial")
        return Poly._of(list(self.num[k:]), self.den)

    def at(self, z: Scalar) -> tuple[int, int]:
        """self(z), z = a/b, as the ints (s, den b^deg), unnormalized (den alone for the zero
        polynomial): one Horner loop, s = sum of num[i] a^i b^(deg-i)."""
        a, b = z.numerator, z.denominator
        s, bp = (self.num[-1], 1) if self.num else (0, 1)
        for c in self.num[-2::-1]:
            bp *= b
            s = s * a + c * bp
        return s, self.den * bp

    def __call__(self, z: Scalar) -> Fraction:
        return Fraction(*self.at(z))


def cleared(cs: Sequence[Scalar]) -> tuple[list[int], int]:
    """(num, lcd): the ints num[i] = cs[i] * lcd over the lcm of the denominators."""
    lcd = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (lcd // c.denominator) for c in cs], lcd


def int_product(a: Sequence[int], b: Sequence[int], n: Optional[int] = None) -> list[int]:
    """The coefficients of a * b below z^n (all of them by default), for integer
    coefficient lists; [] when a or b is empty.  The package's one product kernel."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1 if n is None else n
    out = [0] * n
    for i, ca in enumerate(a[:n]):
        if ca:
            for t, cb in enumerate(islice(b, n - i), i):
                out[t] += ca * cb
    return out


def truncated_product(p: Poly, f: Sequence[Fraction], n: int) -> Poly:
    """p * f mod z^n, for a series f known through z^(n-1).

    Coefficient z^t reads f only through z^(t - val p): with n + val p in place
    of n, f known through z^(n-1) still suffices, so p's valuation extends how
    far the product is known.  The series is cleared to integers once, and the
    product is `int_product`.
    """
    v = max(p.valuation(), 0)
    if p.num and len(f) < n - v:
        raise IndexError(f"series known through z^{len(f) - 1}, the product needs z^{n - v - 1}")
    fi, lcd = cleared(f[: n - v])
    return Poly._of(int_product(p.num, fi, n), lcd * p.den)


def lcm_range(n: int) -> int:
    """lcm(1, 2, ..., n); 1 for n <= 0."""
    out = 1
    for k in range(2, n + 1):
        out = math.lcm(out, k)
    return out

