from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpade import (
    Poly,
    assemble,
    build_approximant,
    constraint_matrix,
    shortest_kernel_vector,
    siegel_height_bound,
    truncated_product,
)
from gpade.catalog import resolve_system
from gpade.errors import KernelVectorError, PreconditionError


def residue(approx, j: int, n: int) -> list[Fraction]:
    """Coefficients z^0 .. z^(n-1) of Q F_j - P_j."""
    resid = truncated_product(approx.Q, approx.system.series(j, n), n) - approx.P[j - 1]
    return [resid.coefficient(t) for t in range(n)]


def valuation(coeffs: list[Fraction]) -> int:
    """Index of the first nonzero coefficient; len(coeffs) when all vanish."""
    return next((t for t, c in enumerate(coeffs) if c), len(coeffs))


def test_constraint_matrix_hand_example(log1m):
    # p=1, q=1, h=1: single condition on coefficient z^2 of Q*(-log(1-z)),
    # scaled by d_2 = 2:  2*(-1/2) v0 + 2*(-1) v1  ->  [-1, -2]
    m = constraint_matrix(log1m, 1, 1, 1)
    assert m == [[-1, -2]]


def _fraction_constraint_matrix(sys, p, q, h):
    """The Fraction products that the integer scaling replaced, kept as the reference."""
    scale = sys.denominator(p + h)
    rows = []
    for j in range(1, sys.N + 1):
        for n in range(p + 1, p + h + 1):
            row = []
            for k in range(q + 1):
                c = sys.coefficient(j, n - k) if n - k >= 0 else Fraction(0)
                scaled = c * scale
                if scaled.denominator != 1:
                    raise PreconditionError(
                        f"d_{p + h} fails to clear f_{{{j},{n - k}}}; denominator oracle is wrong")
                row.append(int(scaled))
            rows.append(row)
    return rows


@pytest.mark.parametrize("spec", ["log1m", "polylog2", "polylog3", "binom:1/2", "binom:7/4"])
def test_constraint_matrix_equals_the_fraction_products(spec):
    sys = resolve_system(spec)
    shapes = [(p, q, h) for p in range(1, 12) for h in range(0, p // sys.N + 1)
              for q in range(sys.N * h, p + 1) if q + 1 > sys.N * h]
    for p, q, h in shapes:
        assert constraint_matrix(sys, p, q, h) == _fraction_constraint_matrix(sys, p, q, h)


def test_constraint_matrix_rejects_a_wrong_denominator(monkeypatch):
    sys = resolve_system("log1m")
    # rows n = 6, 7 read f_n = 1/n up to f_7 = 1/7, which a denominator of 120 does not clear
    monkeypatch.setattr(sys, "denominator", lambda n: 6 * 5 * 4)
    for build in (constraint_matrix, _fraction_constraint_matrix):
        with pytest.raises(PreconditionError, match="denominator oracle is wrong"):
            build(sys, 5, 3, 2)


def test_hand_example_full_build(log1m):
    approx = build_approximant(log1m, 1, 1, 1)
    assert approx.Q == Poly([2, -1])
    assert approx.P[0] == Poly([0, -2])
    assert approx.order_certificates == [3]
    assert approx.denominator_cleared
    assert approx.height_Q == 2
    assert approx.siegel_ok


def test_hand_example_residue_series(log1m):
    approx = build_approximant(log1m, 1, 1, 1)
    resid = residue(approx, 1, 6)
    assert valuation(resid) == 3
    # (2-z) log(1-z) + 2z = sum_{n>=3} (1/(n-1) - 2/n) z^n = -z^3/6 - ...
    assert resid[3] == Fraction(-1, 6)


def test_parameter_validation(log1m, polylog2):
    with pytest.raises(PreconditionError):
        constraint_matrix(log1m, 1, 2, 1)      # p < q
    with pytest.raises(PreconditionError):
        constraint_matrix(polylog2, 4, 1, 1)   # q < N*h
    with pytest.raises(PreconditionError):
        constraint_matrix(polylog2, 4, 2, -1)  # h < 0
    with pytest.raises(PreconditionError):
        # q+1 > N*h violated: q = N*h = 0 is fine, but q=1, N*h=2 is not
        constraint_matrix(polylog2, 4, 1, 2)


def test_h_zero_means_no_constraints(log1m):
    m = constraint_matrix(log1m, 3, 2, 0)
    assert m == []
    v = shortest_kernel_vector(m, ncols=3)
    approx = assemble(log1m, 3, 2, 0, v)
    assert approx.order_certificates == [4]
    assert approx.siegel_bound.lo == 2      # no-constraint bound degenerates


def test_kernel_vector_rejections(log1m):
    with pytest.raises(KernelVectorError):
        assemble(log1m, 1, 1, 1, [0, 0])
    with pytest.raises(PreconditionError):
        assemble(log1m, 1, 1, 1, [1, 2, 3])
    # a vector that is not in the kernel must be caught by the order check
    with pytest.raises(KernelVectorError, match=r"component 1: coefficient z\^2 survives"):
        assemble(log1m, 1, 1, 1, [1, 1])


def test_nondiagonal_orders(polylog2):
    approx = build_approximant(polylog2, 5, 4, 2)
    assert approx.Q.degree() <= 4
    assert not approx.Q.is_zero
    for j in (1, 2):
        assert approx.P[j - 1].degree() <= 5
        assert valuation(residue(approx, j, 10)[:8]) == 8     # p + h = 7
    assert approx.denominator_cleared


def test_integrality_of_Q_and_cleared_P(log1m, polylog2):
    for sys, (p, q, h) in [(log1m, (4, 3, 2)), (polylog2, (6, 4, 2))]:
        approx = build_approximant(sys, p, q, h)
        assert approx.Q.is_integral()
        dp = sys.denominator(p)
        for P_j in approx.P:
            assert (dp * P_j).is_integral()


def test_siegel_bound_dominates_height(log1m, polylog2, binom_half):
    for sys in (log1m, polylog2, binom_half):
        for p in range(2, 7):
            for h in range(1, 3):
                q_min = sys.N * h
                for q in range(q_min, p + 1):
                    if q + 1 <= sys.N * h or q > p:
                        continue
                    approx = build_approximant(sys, p, q, h)
                    assert approx.siegel_ok, (sys.name, p, q, h)
                    assert approx.height_Q <= approx.siegel_bound.hi


def test_siegel_bound_monotone_in_p(log1m):
    # larger p (same q, h) pushes the bound up: the exponent grows
    b1 = siegel_height_bound(log1m, 4, 2, 2)
    b2 = siegel_height_bound(log1m, 8, 2, 2)
    assert b2.lo > b1.hi


def test_siegel_bound_symbolic_vs_rational_growth(binom_half):
    # rational-growth systems take the exact-power path; enclosure is tight
    iv = siegel_height_bound(binom_half, 5, 3, 2)
    assert iv.width / iv.lo < Fraction(1, 10**20)


def test_order_beyond_certificate_not_claimed(log1m):
    approx = build_approximant(log1m, 2, 2, 1)
    assert approx.order_certificates == [4]
    # the certificate is sharp here: z^4 coefficient survives
    assert valuation(residue(approx, 1, 8)) == 4


@given(st.integers(2, 8), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_log1m_grid_order_conditions(p, h):
    from gpade import resolve_system
    sys = resolve_system("log1m")
    for q in range(max(h, 1), p + 1):
        approx = build_approximant(sys, p, q, h)
        assert valuation(residue(approx, 1, p + h + 2)[:p + h + 1]) == p + h + 1
        assert approx.Q.degree() <= q


def test_deterministic_across_calls(polylog2):
    a = build_approximant(polylog2, 5, 4, 2)
    b = build_approximant(polylog2, 5, 4, 2)
    assert a.Q == b.Q
    assert a.kernel_vector == b.kernel_vector
    assert all(x == y for x, y in zip(a.P, b.P))
