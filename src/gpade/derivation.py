"""Iterated approximant families, their certificates, and the zero estimate.

Starting from the vector P = (Q, P_1, ..., P_N) of a type-II approximant, the
k-th iterate is P_k = (1/k!) Dpoly^k (d/dz - A)^k P.  The system hands over
Dpoly and the polynomial matrix DA = Dpoly A, so we compute it through the
polynomial-only recurrence

    S_0 = P,    S_{k+1} = Dpoly * S_k' - k * Dpoly' * S_k - DA * S_k,

with P_k = S_k / k!  (equal by induction: writing G_k for the rational
iterate, the product rule collapses Dpoly S_k' - k Dpoly' S_k to
Dpoly^{k+1} G_k').  Component 0 of P_k must coincide with the directly
computed Q_k = (1/k!) Dpoly^k Q^(k), carried along as Dpoly^k and Q^(k); the
mismatch check is a cheap arithmetic self-test and failing it means a bug,
not bad input.  Each certified order ord_0(Q_k F_j - P_{j,k}) is read off one
truncated product Q_k F_j.

The zero estimate is checked computationally: the determinant of the first
N+1 iterated columns factors as z^vanish_order * reduced with a degree bound
ell0 on the reduced part; nonvanishing of that determinant is what guarantees
`find_nonvanishing_index` terminates within ell0 + N steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import GFunctionSystem
from .errors import (DivisibilityError, InternalCertificateError, PreconditionError,
                     RankDeficiencyError)
from .pade import PadeApproximant
from .polynomial import Poly, truncated_product


@dataclass
class IterationStepCert:
    k: int
    degree_ok: bool
    Q_integral: bool
    P_cleared: bool              # d_{p+(d-1)k} * P_{j,k} integral for all j
    order_targets: list[int]     # per j: p+h+1-k (what Pade-type iteration promises)
    order_verified: list[int]    # per j: certified lower bound on ord_0(Q_k F_j - P_{j,k})

    @property
    def order_ok(self) -> bool:
        return all(v >= t for v, t in zip(self.order_verified, self.order_targets))

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.Q_integral and self.P_cleared and self.order_ok


@dataclass
class IteratedFamily:
    base: PadeApproximant
    K: int
    Qk: list[Poly]
    Pk: list[list[Poly]]         # Pk[k][j-1] = P_{j,k}
    certs: list[IterationStepCert]

    def Q(self, k: int) -> Poly:
        return self.Qk[k]

    def P(self, j: int, k: int) -> Poly:
        return self.Pk[k][j - 1]


def _order_verified(Q: Poly, F: Sequence[Fraction], P: Poly) -> int:
    """First nonzero index of Q F - P below len(F) + max(val Q, 0), else that bound."""
    n = len(F) + max(Q.valuation(), 0)
    v = (truncated_product(Q, F, n) - P).valuation()
    return v if 0 <= v < n else n


def iterate(base: PadeApproximant, sys: GFunctionSystem, K: int) -> IteratedFamily:
    """Compute P_k for k = 0..K with exact per-k certificates."""
    if K < 0:
        raise PreconditionError("K must be >= 0")
    N, p, q, h, d = sys.N, base.p, base.q, base.h, sys.d
    D = sys.D_poly
    Dprime = D.derivative()

    S: list[Poly] = [base.Q] + list(base.P)
    Qk_list: list[Poly] = []
    Pk_list: list[list[Poly]] = []
    certs: list[IterationStepCert] = []

    # F_j once, known past every P_{j,k}
    # (deg P_{j,k} <= p + (d-1)K can exceed p + h for late iterates)
    order = p + max(h, (d - 1) * K) + 1
    F = {j: sys.series(j, order) for j in range(1, N + 1)}
    Dk, Qder = Poly([1]), base.Q         # Dpoly^k and Q^(k)

    for k in range(K + 1):
        fact = math.factorial(k)
        Pk = [s.scale(Fraction(1, fact)) for s in S]
        Q_k = Pk[0]
        if (Dk * Qder).scale(Fraction(1, fact)) != Q_k:
            raise InternalCertificateError(
                f"iterate cross-check failed at k={k}: recurrence and direct Q_k differ")
        P_k = Pk[1:]

        deg_ok = Q_k.degree() <= q + (d - 1) * k and all(
            pj.degree() <= p + (d - 1) * k for pj in P_k)
        dscale = sys.denominator(p + (d - 1) * k)
        cleared = all(dscale % pj.den == 0 for pj in P_k)
        targets = [max(0, p + h + 1 - k)] * N
        verified = [_order_verified(Q_k, F[j], P_k[j - 1]) for j in range(1, N + 1)]
        certs.append(IterationStepCert(
            k=k, degree_ok=deg_ok, Q_integral=Q_k.is_integral(),
            P_cleared=cleared, order_targets=targets, order_verified=verified))
        Qk_list.append(Q_k)
        Pk_list.append(P_k)

        if k < K:
            Dk, Qder = Dk * D, Qder.derivative()
            S = [D * s.derivative() - k * Dprime * s - _mat_vec(sys.DA, S, row)
                 for row, s in enumerate(S)]
    return IteratedFamily(base=base, K=K, Qk=Qk_list, Pk=Pk_list, certs=certs)


def _mat_vec(DA: list[list[Poly]], S: list[Poly], row: int) -> Poly:
    acc = Poly()
    for jj, s in enumerate(S):
        entry = DA[row][jj]
        if not entry.is_zero and not s.is_zero:
            acc = acc + entry * s
    return acc


@dataclass
class ZeroEstimateCheck:
    Delta: Poly
    vanish_order: int
    DeltaTilde: Poly
    ell0: int
    required_vanish: int
    nonzero: bool
    degree_ok: bool

    @property
    def ok(self) -> bool:
        return self.nonzero and self.degree_ok and self.vanish_order >= self.required_vanish


def _poly_det(mat: list[list[Poly]]) -> Poly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    det = Poly()
    for i in range(n):
        if mat[i][0].is_zero:
            continue
        minor = [row[1:] for r, row in enumerate(mat) if r != i]
        term = mat[i][0] * _poly_det(minor)
        det = det + term if i % 2 == 0 else det - term
    return det


def ell0_bound(sys: GFunctionSystem, p: int, q: int, h: int) -> int:
    """Degree budget of the reduced determinant: q - N(h+1) + d N(N+1)/2."""
    N = sys.N
    return q - N * (h + 1) + sys.d * N * (N + 1) // 2


def zero_estimate_check(fam: IteratedFamily, sys: GFunctionSystem) -> ZeroEstimateCheck:
    N, p, q, h = sys.N, fam.base.p, fam.base.q, fam.base.h
    if fam.K < N:
        raise PreconditionError(f"family only reaches k={fam.K}; zero estimate needs k=0..{N}")
    cols = range(N + 1)
    mat = [[(fam.Q(k) if i == 0 else fam.P(i, k)) for k in cols] for i in range(N + 1)]
    Delta = _poly_det(mat)
    required = N * (p + h + 1) - N * (N + 1) // 2
    ell0 = ell0_bound(sys, p, q, h)
    if Delta.is_zero:
        return ZeroEstimateCheck(Delta=Delta, vanish_order=required, DeltaTilde=Poly(),
                                 ell0=ell0, required_vanish=required,
                                 nonzero=False, degree_ok=True)
    vanish = Delta.valuation()
    if vanish < required:
        raise DivisibilityError(
            f"determinant vanishes to order {vanish} < required {required}")
    tilde = Delta.shift_down(vanish)
    return ZeroEstimateCheck(Delta=Delta, vanish_order=vanish, DeltaTilde=tilde,
                             ell0=ell0, required_vanish=required, nonzero=True,
                             degree_ok=tilde.degree() <= ell0)


def find_nonvanishing_index(fam: IteratedFamily, sys: GFunctionSystem, ab: Fraction,
                            n: int, B: int, m: int, j: int) -> int:
    """Smallest k <= ell0+N with n Q_k(a/b) - B b^m P_{j,k}(a/b) != 0 (exact)."""
    ab = Fraction(ab)
    if ab == 0:
        raise PreconditionError("evaluation point must be nonzero")
    if sys.D_poly(ab) == 0:
        raise PreconditionError("a/b is a root of the system denominator polynomial")
    if not (1 <= j <= sys.N):
        raise PreconditionError(f"component {j} out of range")
    kmax = ell0_bound(sys, fam.base.p, fam.base.q, fam.base.h) + sys.N
    if fam.K < kmax:
        raise PreconditionError(f"family reaches k={fam.K} but the scan may need k={kmax}")
    b = ab.denominator
    for k in range(kmax + 1):
        value = n * fam.Q(k)(ab) - B * b ** m * fam.P(j, k)(ab)
        if value != 0:
            return k
    raise RankDeficiencyError(
        "no nonvanishing index up to ell0+N; contradicts the zero estimate")
