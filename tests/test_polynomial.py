import gc
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import Poly, lcm_range, truncated_product
from gpade.errors import PreconditionError
from gpade.polynomial import power_sum

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
polys = st.lists(fractions, max_size=7).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly().degree() == -1


def test_degree_valuation_height():
    p = Poly([0, 0, 3, -5])
    assert p.degree() == 3
    assert p.valuation() == 2
    assert p.height() == 5
    assert Poly([Fraction(1, 2)]).height() == Fraction(1, 2)


def test_constant_and_monomial():
    assert Poly([7]).coeffs == (7,)
    m = Poly([0, 0, 3])       # 3 z^2
    assert m.degree() == m.valuation() == 2


def test_arithmetic_small():
    a = Poly([1, 1])          # 1 + z
    b = Poly([1, -1])         # 1 - z
    assert (a * b).coeffs == (1, 0, -1)
    assert (a + b).coeffs == (2,)
    assert (a - b).coeffs == (0, 2)
    assert (a * a * a).coeffs == (1, 3, 3, 1)


def test_derivative_and_eval():
    p = Poly([5, 0, 3])       # 5 + 3 z^2
    assert p.derivative().coeffs == (0, 6)
    assert p(Fraction(1, 2)) == Fraction(23, 4)
    assert Poly()(Fraction(3)) == 0


def test_shift_up_down():
    p = Poly([0, 0, 1, 2])
    assert p.shift_down(2).coeffs == (1, 2)
    assert (Poly([0, 1]) * p).shift_down(1) == p
    with pytest.raises(PreconditionError):
        Poly([1, 1]).shift_down(1)


def test_is_integral():
    assert Poly([1, -3]).is_integral()
    assert not Poly([Fraction(1, 2)]).is_integral()
    # an explicit denominator is divided out: 3 + 6z over 9 is (1 + 2z)/3
    assert Poly([3, 6], 9).num == (1, 2) and Poly([3, 6], 3).is_integral()
    with pytest.raises(PreconditionError):
        Poly([1], 0)


def test_lcm_range():
    assert lcm_range(1) == 1
    assert lcm_range(10) == 2520
    assert lcm_range(0) == 1


@given(polys, polys)
@settings(max_examples=120)
def test_mul_commutes_and_degree_adds(a, b):
    assert (a * b).coeffs == (b * a).coeffs
    if not a.is_zero and not b.is_zero:
        assert (a * b).degree() == a.degree() + b.degree()


@given(polys, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
@settings(max_examples=120)
def test_evaluation_is_ring_hom(p, z):
    q = Poly([2, -1, 3])
    assert (p * q)(z) == p(z) * q(z)
    assert (p + q)(z) == p(z) + q(z)


def test_series_basic():
    s = [Fraction(1, n) if n else Fraction(0) for n in range(5)]
    # times 1 the series comes back; an order-n product reads only f_0..f_{n-1}
    assert truncated_product(Poly([1]), s, 5) == Poly(s)
    assert truncated_product(Poly([1]), s, 3) == Poly(s[:3])
    with pytest.raises(IndexError):
        truncated_product(Poly([1]), s, 6)


def test_series_mul_orders():
    # z * (z + ...) with the series known through z^3: the valuation of the
    # polynomial extends the known product through z^4
    f = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    assert truncated_product(Poly([0, 1]), f, 5) == Poly([0, 0, 1])
    assert truncated_product(Poly(), f, 4) == Poly()


def test_series_poly_ops():
    ones = [Fraction(1)] * 6                                  # 1/(1-z) truncated
    assert truncated_product(Poly([1, -1]), ones, 6) == Poly([1])


def test_series_known_valuation():
    s = [Fraction(1) if n >= 3 else Fraction(0) for n in range(8)]
    assert truncated_product(Poly([2, 5]), s, 8).valuation() == 3


def test_poly_to_series_round_trip():
    p = Poly([1, 0, Fraction(2, 3)])
    s = truncated_product(p, [Fraction(1)] + [Fraction(0)] * 5, 6)
    assert s.coeffs == (1, 0, Fraction(2, 3))
    assert s == p


def _schoolbook(p: Poly, f, n: int) -> Poly:
    """Full product of p with the known part of f, cut to z^0 .. z^(n-1)."""
    return Poly((p * Poly(f)).coeffs[:n])


@given(polys, st.lists(fractions, max_size=9))
@settings(max_examples=150, deadline=None)
def test_truncated_product_is_cut_full_product(p, f):
    # with f known through z^(n-1), coefficients below n + val p are exact
    n = len(f) + max(p.valuation(), 0)
    assert truncated_product(p, f, n) == _schoolbook(p, f, n)


def _horner(coeffs, z: Fraction) -> Fraction:
    """Term-by-term Fraction evaluation that the power-sum kernel replaced."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@given(st.lists(st.one_of(st.just(Fraction(0)), fractions), max_size=12),
       st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)))
@example([], Fraction(3, 7))
@example([Fraction(0), Fraction(5, 3)], Fraction(0))
@example([Fraction(1, 2), Fraction(0), Fraction(-7, 4)], Fraction(-9, 5))
@settings(max_examples=200, deadline=None)
def test_poly_eval_equals_horner(coeffs, z):
    p = Poly(coeffs)
    assert p(z) == _horner(p.coeffs, z)
    # the kernel consumes any iterator, trailing zeros included
    assert Fraction(*power_sum(iter(coeffs), z)) == _horner(coeffs, z)
    assert p(z.numerator) == _horner(p.coeffs, Fraction(z.numerator))


big_coeffs = st.one_of(
    st.integers(-10 ** 60, 10 ** 60), fractions,
    st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 40)))


@given(st.lists(st.one_of(st.just(0), big_coeffs), max_size=12),
       st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9)))
@example([], Fraction(3, 7))                           # the zero polynomial
@example([0, 0], Fraction(-2, 5))                      # zero after trailing zeros are cut
@example([5, -2, 7], Fraction(0))                      # z = 0
@example([10 ** 60, -(10 ** 60), 1], Fraction(-1, 3))
@example([Fraction(1, 10 ** 40), 3], Fraction(10 ** 9, 7))
@settings(max_examples=300, deadline=None)
def test_poly_at_is_the_unnormalized_sum(coeffs, z):
    # Horner's pair is (sum of c_i z^i) over den b^deg, unnormalized, and __call__ is its Fraction
    p = Poly(coeffs)
    expected = sum((Fraction(c) * z ** i for i, c in enumerate(coeffs)), Fraction(0))
    s, d = p.at(z)
    assert Fraction(s, d) == p(z) == expected
    assert d == p.den * z.denominator ** max(p.degree(), 0)
    # an int z is its own numerator over 1
    a = z.numerator
    assert Fraction(*p.at(a)) == p(a) == sum(Fraction(c) * a ** i for i, c in enumerate(coeffs))


def _sequential_power_sum(coeffs, z):
    """The one-loop `power_sum` that summation by halves replaced, kept as the
    reference: one growing product per term."""
    a, b = z.numerator, z.denominator
    s, den, apow, n = 0, 1, 1, 0
    for n, c in enumerate(coeffs):
        g = c.denominator // math.gcd(den, c.denominator)
        s = s * b * g + c.numerator * (den * g // c.denominator) * apow
        den *= g
        apow *= a
    return Fraction(s, den * b ** n)


sum_entries = st.one_of(st.just(0), st.integers(-10**6, 10**6), fractions,
                        st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)))


# lengths 0..200: 33, 64 and over 128 terms cross the 32-term run and several merges
@given(st.integers(0, 200).flatmap(lambda n: st.lists(sum_entries, min_size=n, max_size=n)),
       st.one_of(st.just(Fraction(0)), st.integers(-5, 5),
                 st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**4))))
@example([Fraction(1, k) for k in range(1, 34)], Fraction(-2, 3))
@example(list(range(64)), Fraction(1, 7))
@example([Fraction(1, 2 * k + 1) for k in range(129)], Fraction(-3, 5))
@example([0] * 150, Fraction(5, 3))
@example([1] + [0] * 199, Fraction(0))
@example([Fraction(3, 4)] * 33, 0)
@settings(max_examples=100, deadline=None)
def test_power_sum_equals_the_sequential_loop(coeffs, z):
    expected = _sequential_power_sum(coeffs, z)
    s, den = power_sum(coeffs, z)
    # an unnormalized pair over a positive denominator, which intervals build on
    assert den > 0 and Fraction(s, den) == expected
    assert Fraction(*power_sum(iter(coeffs), z)) == expected


def test_power_sum_leaves_no_cyclic_garbage():
    # a reference cycle (a self-calling closure, say) would keep the big powers alive
    gc.collect()
    gc.disable()
    try:
        power_sum([Fraction(1, 2 * k + 1) for k in range(500)], Fraction(543, 4147))
        assert gc.collect() == 0
    finally:
        gc.enable()


class RefPoly:
    """The tuple-of-Fractions polynomial arithmetic that `Poly` replaced, kept as
    the reference: one Fraction operation, and so one gcd, per coefficient."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return RefPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            for j, cb in enumerate(other.coeffs):
                out[i + j] += ca * cb
        return RefPoly(out)

    def scale(self, c):
        return RefPoly([Fraction(c) * x for x in self.coeffs])

    def derivative(self):
        return RefPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift_down(self, k):
        if any(c != 0 for c in self.coeffs[:k]):
            raise PreconditionError(f"z^{k} does not divide polynomial")
        return RefPoly(self.coeffs[k:])

    def __call__(self, z):
        return sum((c * Fraction(z) ** i for i, c in enumerate(self.coeffs)), Fraction(0))

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def valuation(self):
        return next((i for i, c in enumerate(self.coeffs) if c != 0), -1)

    def height(self):
        return max((abs(c) for c in self.coeffs), default=Fraction(0))

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)


def ref_truncated_product(p: RefPoly, f, n: int) -> RefPoly:
    out = [Fraction(0)] * n
    for i, c in enumerate(p.coeffs[:n]):
        if c:
            for t in range(i, n):
                out[t] += c * f[t - i]
    return RefPoly(out)


def same(p: Poly, ref: RefPoly) -> bool:
    """p equals the reference and is normalized: integer numerators over a
    positive denominator coprime to them, no trailing zero, den 1 for zero."""
    assert all(type(c) is int for c in p.num) and type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    return p.coeffs == ref.coeffs


# integer-only lists, lists with Fractions, and runs of zeros
entries = st.one_of(st.integers(-20, 20), fractions, st.just(0))
coeff_lists = st.one_of(st.lists(st.integers(-9, 9), max_size=7), st.lists(entries, max_size=7))
scalars = st.one_of(st.integers(-12, 12), fractions)


@given(coeff_lists, coeff_lists, scalars)
@example([], [], 0)
@example([1, 1], [1, -1], Fraction(1, 3))                 # (1+z)(1-z) cancels z
@example([Fraction(1, 2), 3], [Fraction(1, 2), 3], -1)   # a - b and a + (-1) b vanish
@example([Fraction(2, 3), Fraction(4, 3)], [6], Fraction(3, 2))
@settings(max_examples=300, deadline=None)
def test_poly_arithmetic_equals_fraction_reference(ca, cb, c):
    a, b, ra, rb = Poly(ca), Poly(cb), RefPoly(ca), RefPoly(cb)
    assert same(a, ra) and same(b, rb)
    assert same(a + b, ra + rb)
    assert same(a - b, ra - rb)
    assert same(a - a, RefPoly())
    assert same(-a, -ra)
    assert same(a * b, ra * rb)
    assert same(a.scale(c), ra.scale(c)) and same(c * a, ra.scale(c)) and same(a * c, ra.scale(c))
    assert same(a + b.scale(c), ra + rb.scale(c))
    assert same(a.derivative(), ra.derivative())
    assert (a == b) == (ra.coeffs == rb.coeffs)
    assert a == Poly(ra.coeffs) and hash(a) == hash(Poly(ra.coeffs))
    if len(ra.coeffs) <= 1:
        assert a == ra.coefficient(0)


@given(coeff_lists, st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
       st.integers(-1, 8))
@example([], Fraction(3), 0)
@example([0, 0, Fraction(5, 6)], Fraction(-2, 7), 2)
@settings(max_examples=300, deadline=None)
def test_poly_queries_equal_fraction_reference(cs, z, i):
    p, ref = Poly(cs), RefPoly(cs)
    assert p(z) == ref(z) and p(z.numerator) == ref(z.numerator)
    assert p.coefficient(i) == ref.coefficient(i)
    assert p.valuation() == ref.valuation()
    assert p.degree() == len(ref.coeffs) - 1
    assert p.height() == ref.height()
    assert p.is_integral() == ref.is_integral()
    k = max(ref.valuation(), 0)
    assert same(p.shift_down(k), ref.shift_down(k))
    if ref.coeffs:
        with pytest.raises(PreconditionError):
            p.shift_down(k + 1)


@given(coeff_lists, st.lists(entries, max_size=9))
@example([1, -1], [1] * 6)                                # 1/(1-z) cut: all but 1 cancel
@example([], [Fraction(1, 3)] * 4)
@settings(max_examples=300, deadline=None)
def test_truncated_product_equals_fraction_reference(cs, f):
    p, ref = Poly(cs), RefPoly(cs)
    f = [Fraction(c) for c in f]
    n = len(f) + max(ref.valuation(), 0)
    assert same(truncated_product(p, f, n), ref_truncated_product(ref, f, n))
