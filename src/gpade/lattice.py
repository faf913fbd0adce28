"""Integer kernel bases and LLL reduction, all in integer arithmetic.

The kernel routine row-reduces the transpose with unimodular row operations
(Euclidean gcd pivoting), so the returned basis spans the full integer kernel
lattice {v in Z^c : M v = 0}, not just a finite-index sublattice.  LLL is
Cohen's integral version (A Course in Computational Algebraic Number Theory,
Alg. 2.6.7; de Weger 1987), which keeps Gram determinants instead of rational
Gram-Schmidt data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import PreconditionError


def integer_kernel_basis(matrix: Sequence[Sequence[int]], ncols: Optional[int] = None) -> list[list[int]]:
    """Basis of the integer kernel of `matrix` (rows x ncols).

    `ncols` is required when the matrix has no rows (kernel = Z^ncols).
    """
    rows = [list(map(int, r)) for r in matrix]
    if rows:
        c = len(rows[0])
        if any(len(r) != c for r in rows):
            raise PreconditionError("ragged matrix")
        if ncols is not None and ncols != c:
            raise PreconditionError("ncols disagrees with matrix width")
    else:
        if ncols is None:
            raise PreconditionError("ncols required for an empty matrix")
        c = ncols
    r = len(rows)

    # Work on A = transpose(matrix) (c rows, r cols) with U tracking row ops:
    # U * A = H.  Rows of U whose H-row is zero form a kernel basis.
    A = [[rows[i][j] for i in range(r)] for j in range(c)]
    U = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    pivot_row = 0
    for col in range(r):
        # gcd-eliminate column `col` below pivot_row
        while True:
            best = None
            for i in range(pivot_row, c):
                if A[i][col] != 0 and (best is None or abs(A[i][col]) < abs(A[best][col])):
                    best = i
            if best is None:
                break
            # reduce every other row in this column modulo the smallest entry
            done = True
            for i in range(pivot_row, c):
                if i == best or A[i][col] == 0:
                    continue
                qfac = A[i][col] // A[best][col]
                if qfac:
                    for k in range(r):
                        A[i][k] -= qfac * A[best][k]
                    for k in range(c):
                        U[i][k] -= qfac * U[best][k]
                if A[i][col] != 0:
                    done = False
            if done:
                A[pivot_row], A[best] = A[best], A[pivot_row]
                U[pivot_row], U[best] = U[best], U[pivot_row]
                pivot_row += 1
                break
    kernel = [U[i] for i in range(c) if all(x == 0 for x in A[i])]
    return kernel


def lll_reduce(basis: Sequence[Sequence[int]], delta: Fraction = Fraction(99, 100)) -> list[list[int]]:
    """LLL-reduce a list of linearly independent integer vectors (Cohen, Alg. 2.6.7).

    d[i] is the Gram determinant of b[0..i-1] and lam[k][j] = d[j+1] mu[k][j], so
    every division is exact.  b[k] is size-reduced against j = k-1 .. 0 before the
    Lovasz test, rounding mu half-down (-1/2 to -1): the rational Gram-Schmidt LLL
    with this operation order returns the same basis, vector for vector.
    """
    b = [list(map(int, v)) for v in basis]
    n = len(b)
    if n <= 1:
        return b
    if not Fraction(1, 4) < delta < 1:
        raise PreconditionError("delta must be in (1/4, 1)")
    dnum, dden = Fraction(delta).as_integer_ratio()

    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise PreconditionError("basis vectors are linearly dependent")

    k = 1
    while k < n:
        # size-reduce b_k against earlier vectors
        for j in range(k - 1, -1, -1):
            r, rem = divmod(lam[k][j], d[j + 1])
            if 2 * rem > d[j + 1]:
                r += 1
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= r * d[j + 1]
                for i in range(j):
                    lam[k][i] -= r * lam[j][i]
        t = lam[k][k - 1]
        if dden * (d[k + 1] * d[k - 1] + t * t) >= dnum * d[k] ** 2:
            k += 1
        else:
            # Cohen's SWAPI: exchange b[k-1] and b[k], then update d[k] and lam
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            dk = (d[k - 1] * d[k + 1] + t * t) // d[k]
            for i in range(k + 1, n):
                s = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * s) // d[k]
                lam[i][k - 1] = (dk * s + t * lam[i][k]) // d[k + 1]
            d[k] = dk
            k = max(k - 1, 1)
    return b


def _sign_normalized(v: Sequence[int]) -> list[int]:
    for x in v:
        if x != 0:
            return list(v) if x > 0 else [-x for x in v]
    return list(v)


def shortest_kernel_vector(matrix: Sequence[Sequence[int]], ncols: Optional[int] = None) -> list[int]:
    """A deterministic small nonzero kernel vector (max-norm minimized over the
    LLL-reduced basis).

    Tie-break among equal max-norm candidates: earliest-supported first
    nonzero entry, then lexicographically smallest absolute-value tuple;
    sign-normalized so the first nonzero entry is positive.
    """
    basis = integer_kernel_basis(matrix, ncols)
    if not basis:
        raise PreconditionError("kernel is trivial; no nonzero vector exists")
    reduced = lll_reduce(basis)
    candidates = [_sign_normalized(v) for v in reduced if any(v)]

    def first_support(v):
        return next(i for i, x in enumerate(v) if x)

    def key(v):
        return (max(abs(x) for x in v), first_support(v), [abs(x) for x in v], v)

    return min(candidates, key=key)
