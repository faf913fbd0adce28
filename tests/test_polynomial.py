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
    assert Poly.constant(7).coeffs == (7,)
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
    assert truncated_product(Poly([1]), s, 5) == s
    assert truncated_product(Poly([1]), s, 3) == s[:3]
    with pytest.raises(IndexError):
        truncated_product(Poly([1]), s, 6)


def test_series_mul_orders():
    # z * (z + ...) with the series known through z^3: the valuation of the
    # polynomial extends the known product through z^4
    f = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    assert truncated_product(Poly([0, 1]), f, 5) == [0, 0, 1, 0, 0]
    assert truncated_product(Poly(), f, 4) == [0, 0, 0, 0]


def test_series_poly_ops():
    ones = [Fraction(1)] * 6                                  # 1/(1-z) truncated
    assert truncated_product(Poly([1, -1]), ones, 6) == [1, 0, 0, 0, 0, 0]


def test_series_known_valuation():
    s = [Fraction(1) if n >= 3 else Fraction(0) for n in range(8)]
    assert Poly(truncated_product(Poly([2, 5]), s, 8)).valuation() == 3


def test_poly_to_series_round_trip():
    p = Poly([1, 0, Fraction(2, 3)])
    s = truncated_product(p, [Fraction(1)] + [Fraction(0)] * 5, 6)
    assert s == [1, 0, Fraction(2, 3), 0, 0, 0]
    assert Poly(s) == p


def _schoolbook(p: Poly, f, n: int) -> list[Fraction]:
    """Full product of p with the known part of f, cut to z^0 .. z^(n-1)."""
    full = p * Poly(f)
    return [full.coefficient(t) for t in range(n)]


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
    assert power_sum(iter(coeffs), z) == _horner(coeffs, z)
    assert p(z.numerator) == _horner(p.coeffs, Fraction(z.numerator))
