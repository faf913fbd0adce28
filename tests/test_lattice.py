from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpade import integer_kernel_basis, lll_reduce, shortest_kernel_vector
from gpade.errors import PreconditionError

matrices = st.integers(1, 4).flatmap(
    lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                       min_size=1, max_size=4))


def _mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def test_kernel_single_row():
    basis = integer_kernel_basis([[1, 2]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + 2 * v[1] == 0
    assert shortest_kernel_vector([[1, 2]]) == [2, -1]


def test_kernel_frozen_two_rows():
    m = [[12, 18, 36], [4, 9, 36]]
    basis = integer_kernel_basis(m)
    assert len(basis) == 1
    assert shortest_kernel_vector(m) == [9, -8, 1]


def test_kernel_empty_matrix():
    basis = integer_kernel_basis([], ncols=1)
    assert basis == [[1]]
    assert shortest_kernel_vector([], ncols=1) == [1]
    with pytest.raises(PreconditionError):
        integer_kernel_basis([])


def test_kernel_full_rank_is_trivial():
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []
    with pytest.raises(PreconditionError):
        shortest_kernel_vector([[1, 0], [0, 1]])


def test_kernel_spans_lattice_not_sublattice():
    # kernel of [2 4] is generated by (2,-1); a naive cross-product method
    # would return (4,-2) and miss half the lattice
    basis = integer_kernel_basis([[2, 4]])
    assert len(basis) == 1
    assert sorted(map(abs, basis[0])) == [1, 2]


def test_ragged_matrix_rejected():
    with pytest.raises(PreconditionError):
        integer_kernel_basis([[1, 2], [3]])
    with pytest.raises(PreconditionError):
        integer_kernel_basis([[1, 2]], ncols=3)


@given(matrices)
@settings(max_examples=150)
def test_kernel_vectors_annihilate(m):
    basis = integer_kernel_basis(m)
    for v in basis:
        assert _mat_vec(m, v) == [0] * len(m)
    # rank-nullity: dim kernel + rank = ncols, rank <= nrows
    c = len(m[0])
    assert len(basis) >= c - len(m)


def _in_integer_span(w, basis):
    """Solve sum c_i basis_i = w over Q and check the c_i are integers."""
    rows = [[Fraction(basis[i][j]) for i in range(len(basis))] + [Fraction(w[j])]
            for j in range(len(w))]
    ncols = len(basis)
    pivot = 0
    for col in range(ncols):
        src = next((r for r in range(pivot, len(rows)) if rows[r][col] != 0), None)
        if src is None:
            continue
        rows[pivot], rows[src] = rows[src], rows[pivot]
        lead = rows[pivot][col]
        rows[pivot] = [x / lead for x in rows[pivot]]
        for r in range(len(rows)):
            if r != pivot and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[pivot])]
        pivot += 1
    # consistency: no row (0 ... 0 | nonzero); solution entries must be integral
    for r in range(pivot, len(rows)):
        if rows[r][-1] != 0:
            return False
    coeffs = []
    for col in range(ncols):
        src = next((r for r in range(len(rows))
                    if rows[r][col] == 1 and all(rows[r][c] == 0 for c in range(col))), None)
        coeffs.append(rows[src][-1] if src is not None else Fraction(0))
    return all(c.denominator == 1 for c in coeffs)


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=2))
@settings(max_examples=60)
def test_kernel_saturated(m):
    # every small integer kernel vector must lie in the integer span of the
    # basis (a finite-index sublattice would miss some)
    basis = integer_kernel_basis(m)
    rng = range(-2, 3)
    for a in rng:
        for b in rng:
            for c in rng:
                w = [a, b, c]
                if any(w) and _mat_vec(m, w) == [0] * len(m):
                    assert basis and _in_integer_span(w, basis)


def test_lll_known_reduction():
    # classic example: a skewed basis of Z^2 comes back to near-orthogonal
    reduced = lll_reduce([[1, 1], [1, 2]])
    norms = sorted(sum(x * x for x in v) for v in reduced)
    assert norms[0] <= 2


def test_lll_preserves_lattice_membership():
    basis = [[201, 37], [1648, 297]]
    reduced = lll_reduce(basis)
    # determinant (lattice covolume) is invariant up to sign
    det0 = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    det1 = reduced[0][0] * reduced[1][1] - reduced[0][1] * reduced[1][0]
    assert abs(det0) == abs(det1)
    # reduced vectors are genuinely shorter on this skewed input
    assert max(sum(x * x for x in v) for v in reduced) < \
        max(sum(x * x for x in v) for v in basis)


def test_lll_delta_validated():
    with pytest.raises(PreconditionError):
        lll_reduce([[1, 0], [0, 1]], delta=Fraction(1, 8))


def test_lll_single_vector_passthrough():
    assert lll_reduce([[5, 3]]) == [[5, 3]]


@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=2, max_size=3))
@settings(max_examples=80)
def test_lll_determinant_invariant(vs):
    # restrict to independent inputs: Gram determinant nonzero
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vs] for u in vs]
    if len(vs) == 2:
        det = gram[0][0] * gram[1][1] - gram[0][1] ** 2
    else:
        det = (gram[0][0] * (gram[1][1] * gram[2][2] - gram[1][2] ** 2)
               - gram[0][1] * (gram[0][1] * gram[2][2] - gram[1][2] * gram[0][2])
               + gram[0][2] * (gram[0][1] * gram[1][2] - gram[1][1] * gram[0][2]))
    if det == 0:
        return
    reduced = lll_reduce(vs)
    gram_r = [[sum(a * b for a, b in zip(u, v)) for v in reduced] for u in reduced]
    if len(vs) == 2:
        det_r = gram_r[0][0] * gram_r[1][1] - gram_r[0][1] ** 2
    else:
        det_r = (gram_r[0][0] * (gram_r[1][1] * gram_r[2][2] - gram_r[1][2] ** 2)
                 - gram_r[0][1] * (gram_r[0][1] * gram_r[2][2] - gram_r[1][2] * gram_r[0][2])
                 + gram_r[0][2] * (gram_r[0][1] * gram_r[1][2] - gram_r[1][1] * gram_r[0][2]))
    assert det_r == det


def _gso_fraction(basis):
    n = len(basis)
    ortho, norms = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(len(ortho)):
            mu[i][j] = sum(Fraction(x) * y for x, y in zip(basis[i], ortho[j])) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def _lll_reduce_fraction(basis, delta=Fraction(99, 100)):
    """The rational Gram-Schmidt LLL that lll_reduce replaced, kept as its oracle.

    It recomputes the whole Gram-Schmidt data after every change of the basis.
    """
    b = [list(v) for v in basis]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = _gso_fraction(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = q.numerator // q.denominator
            if 2 * (q - r) > 1:
                r += 1
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                mu, norms = _gso_fraction(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = _gso_fraction(b)
            k = max(k - 1, 1)
    return b


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        src = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


independent_bases = st.integers(2, 10).flatmap(
    lambda n: st.integers(n, n + 2).flatmap(
        lambda c: st.lists(st.lists(st.integers(-20, 20), min_size=c, max_size=c),
                           min_size=n, max_size=n))).filter(lambda vs: _rank(vs) == len(vs))


@given(independent_bases,
       st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)]))
@settings(max_examples=30, deadline=None)
def test_lll_matches_rational_gram_schmidt_lll(vs, delta):
    # the integral LLL replays the rational one's operations, so the bases are equal
    assert lll_reduce(vs, delta) == _lll_reduce_fraction(vs, delta)


def test_lll_rounds_mu_half_down():
    # mu = -1/2 rounds to -1, so b_1 gains b_0; mu = 1/2 rounds to 0
    assert lll_reduce([[2, 0], [-1, 5]]) == [[2, 0], [1, 5]]
    assert lll_reduce([[2, 0], [1, 5]]) == [[2, 0], [1, 5]]


def test_lll_rejects_dependent_vectors():
    with pytest.raises(PreconditionError):
        lll_reduce([[1, 2, 3], [2, 4, 6]])


def test_shortest_vector_sign_normalized():
    v = shortest_kernel_vector([[0, 1, 0]])
    assert v[0] > 0 or (v[0] == 0 and v[1] == 0 and v[2] > 0) or v == [1, 0, 0]


def test_shortest_vector_deterministic():
    m = [[3, 1, 4, 1], [5, 9, 2, 6]]
    a = shortest_kernel_vector(m)
    b = shortest_kernel_vector([list(r) for r in m])
    assert a == b
    assert _mat_vec(m, a) == [0, 0]
