from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import Poly, SeriesTrunc, lcm_range, poly_divmod, poly_gcd, product_height_bound
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
    assert Poly.monomial(3, 2).coeffs == (0, 0, 3)


def test_arithmetic_small():
    a = Poly([1, 1])          # 1 + z
    b = Poly([1, -1])         # 1 - z
    assert (a * b).coeffs == (1, 0, -1)
    assert (a + b).coeffs == (2,)
    assert (a - b).coeffs == (0, 2)
    assert (a ** 3).coeffs == (1, 3, 3, 1)


def test_derivative_and_eval():
    p = Poly([5, 0, 3])       # 5 + 3 z^2
    assert p.derivative().coeffs == (0, 6)
    assert p(Fraction(1, 2)) == Fraction(23, 4)
    assert Poly()(Fraction(3)) == 0


def test_shift_up_down():
    p = Poly([0, 0, 1, 2])
    assert p.shift_down(2).coeffs == (1, 2)
    assert p.shift_up(1).coeffs == (0, 0, 0, 1, 2)
    with pytest.raises(PreconditionError):
        Poly([1, 1]).shift_down(1)


def test_is_integral():
    assert Poly([1, -3]).is_integral()
    assert not Poly([Fraction(1, 2)]).is_integral()


def test_divmod_exact():
    num = Poly([1, 0, -1])    # (1-z)(1+z)
    quo, rem = poly_divmod(num, Poly([1, 1]))
    assert quo.coeffs == (1, -1)
    assert rem.is_zero


def test_gcd_monic():
    a = Poly([1, 1]) * Poly([2, 2, 2])
    b = Poly([1, 1]) * Poly([0, 5])
    gcd = poly_gcd(a, b)
    assert gcd.coeffs == (1, 1)


def test_product_height_bound_cases():
    a = Poly([1, 2])
    b = Poly([3, -4, 5])
    bound = product_height_bound(a, b)
    assert (a * b).height() <= bound
    assert bound == 2 * 2 * 5
    with pytest.raises(PreconditionError):
        product_height_bound(Poly(), a)


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


@given(polys, nonzero_polys)
@settings(max_examples=120)
def test_divmod_reconstructs(a, b):
    quo, rem = poly_divmod(a, b)
    assert ((quo * b) + rem).coeffs == a.coeffs
    assert rem.is_zero or rem.degree() < b.degree()


@given(polys, polys)
@settings(max_examples=120)
def test_product_height_dominates(a, b):
    if a.is_zero or b.is_zero:
        return
    assert (a * b).height() <= product_height_bound(a, b)


@given(polys, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
@settings(max_examples=120)
def test_evaluation_is_ring_hom(p, z):
    q = Poly([2, -1, 3])
    assert (p * q)(z) == p(z) * q(z)
    assert (p + q)(z) == p(z) + q(z)


def test_series_basic():
    s = SeriesTrunc.from_function(lambda n: Fraction(1, n) if n else Fraction(0), 5)
    assert s.coefficient(3) == Fraction(1, 3)
    with pytest.raises(PreconditionError):
        s.coefficient(5)


def test_series_mul_orders():
    # (z + ...) * (z + ...) known through z^5: orders add through valuations
    a = SeriesTrunc.from_function(lambda n: Fraction(1) if n == 1 else Fraction(0), 4)
    b = SeriesTrunc.from_function(lambda n: Fraction(1) if n == 1 else Fraction(0), 4)
    prod = a * b
    assert prod.coefficient(2) == 1
    assert prod.order >= 5


def test_series_poly_ops():
    s = SeriesTrunc.from_function(lambda n: Fraction(1), 6)   # 1/(1-z) truncated
    shifted = s.mul_poly(Poly([1, -1]))                       # should be 1
    assert shifted.coefficient(0) == 1
    assert all(shifted.coefficient(i) == 0 for i in range(1, 6))
    resid = shifted.sub_poly(Poly([1]))
    assert resid.vanishes_through(5)


def test_series_known_valuation():
    s = SeriesTrunc.from_function(lambda n: Fraction(1) if n >= 3 else Fraction(0), 8)
    assert s.known_valuation() == 3


def test_poly_to_series_round_trip():
    p = Poly([1, 0, Fraction(2, 3)])
    s = p.to_series(6)
    assert s.coefficient(2) == Fraction(2, 3)
    assert s.coefficient(4) == 0


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
