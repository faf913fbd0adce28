"""Iterated approximant families, their certificates, and the zero estimate.

Starting from the vector P = (Q, P_1, ..., P_N) of a type-II approximant, the
k-th iterate is P_k = (1/k!) Dpoly^k (d/dz - A)^k P.  The system hands over
Dpoly and the polynomial matrix DA = Dpoly A, so we compute it through the
polynomial-only recurrence

    S_0 = P,    S_{k+1} = Dpoly * S_k' - k * Dpoly' * S_k - DA * S_k,

with P_k = S_k / k!  (equal by induction: writing G_k for the rational
iterate, the product rule collapses Dpoly S_k' - k Dpoly' S_k to
Dpoly^{k+1} G_k').  The recurrence runs on integer coefficient lists: Dpoly,
Dpoly' and DA are cleared once by their common denominator c, and S_0 by the
lcm L of its denominators, so S_k = V_k / (L c^k) with V_k integral, and each
P_k is normalized once, as V_k / (L c^k k!).  Component 0 of P_k must
coincide with the directly computed Q_k = (1/k!) Dpoly^k Q^(k), carried along
as the `Poly`s Dpoly^k and Q^(k); the mismatch check is a cheap arithmetic
self-test and failing it means a bug, not bad input.  Each F_j is cleared
once per call, and each certified order ord_0(Q_k F_j - P_{j,k}) is an
ascending scan of the coefficients of Q_k F_j against P_{j,k} (both over
L c^k k!) that stops at the first one that differs.

The zero estimate is checked computationally: the determinant of the first
N+1 iterated columns factors as z^vanish_order * reduced with a degree bound
ell0 on the reduced part; nonvanishing of that determinant is what guarantees
`find_nonvanishing_index` terminates within ell0 + N steps.  It is expanded on
integer columns, each over the lcm of its denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .catalog import GFunctionSystem
from .errors import (DivisibilityError, InternalCertificateError, PreconditionError,
                     RankDeficiencyError)
from .pade import PadeApproximant
from .polynomial import Poly, cleared, int_product


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


def _over(p: Poly, den: int) -> list[int]:
    """The integer coefficients of p * den; den a multiple of p.den."""
    f = den // p.den
    return [f * c for c in p.num]


def _sum_of_products(terms) -> list[int]:
    """The sum of m * a * b over the (m, a, b) in terms, on integer coefficient lists."""
    out: list[int] = []
    for m, a, b in terms:
        ab = int_product(a, b)
        out += [0] * (len(ab) - len(out))
        for i, x in enumerate(ab):
            out[i] += m * x
    return out


def _order_scan(q: list[int], f: list[int], lcd: int, pj: list[int]) -> int:
    """The first t below n = len(f) + max(val q, 0) where coefficient t of q f / lcd
    differs from pj[t], else n: the certified ord_0(Q_k F_j - P_{j,k})."""
    m, rf = len(f), f[::-1]
    n = m + next((i for i, x in enumerate(q) if x), 0)
    for t in range(n):
        lo = max(0, t - m + 1)
        if sum(map(mul, q[lo:t + 1], rf[m - 1 - t + lo:])) != (pj[t] * lcd if t < len(pj) else 0):
            return t
    return n


def _next_iterate(Dc: list[int], dDc: list[int], DAc: list[list[list[int]]],
                  V: list[list[int]], k: int) -> list[list[int]]:
    """V_{k+1} = Dc V_k' - k Dc' V_k - DAc V_k: the recurrence times L c^(k+1)."""
    return [_sum_of_products([(1, Dc, [i * x for i, x in enumerate(v)][1:]), (-k, dDc, v),
                              *[(-1, a, w) for a, w in zip(DAc[row], V)]])
            for row, v in enumerate(V)]


def iterate(base: PadeApproximant, sys: GFunctionSystem, K: int) -> IteratedFamily:
    """Compute P_k for k = 0..K with exact per-k certificates."""
    if K < 0:
        raise PreconditionError("K must be >= 0")
    N, p, q, h, d = sys.N, base.p, base.q, base.h, sys.d
    D = sys.D_poly
    # Dpoly, Dpoly' and DA times c, S_0 times L: S_k = V_k / (L c^k)
    c = math.lcm(D.den, *[e.den for row in sys.DA for e in row])
    Dc = _over(D, c)
    dDc = [i * x for i, x in enumerate(Dc)][1:]
    DAc = [[_over(e, c) for e in row] for row in sys.DA]
    L = math.lcm(base.Q.den, *[pj.den for pj in base.P])
    V = [_over(s, L) for s in [base.Q, *base.P]]
    Qk_list: list[Poly] = []
    Pk_list: list[list[Poly]] = []
    certs: list[IterationStepCert] = []

    # F_j cleared once, known past every P_{j,k}
    # (deg P_{j,k} <= p + (d-1)K can exceed p + h for late iterates)
    order = p + max(h, (d - 1) * K) + 1
    F = [cleared(sys.series(j, order)) for j in range(1, N + 1)]
    Dk, Qder = Poly([1]), base.Q         # Dpoly^k and Q^(k)

    for k in range(K + 1):
        fact = math.factorial(k)
        # P_k = V_k / (L c^k k!); _of only cuts trailing zeros off the rows of V
        Q_k, *P_k = [Poly._of(v, L * c ** k * fact) for v in V]
        if (Dk * Qder).scale(Fraction(1, fact)) != Q_k:
            raise InternalCertificateError(
                f"iterate cross-check failed at k={k}: recurrence and direct Q_k differ")

        deg_ok = Q_k.degree() <= q + (d - 1) * k and all(
            pj.degree() <= p + (d - 1) * k for pj in P_k)
        dscale = sys.denominator(p + (d - 1) * k)
        P_cleared = all(dscale % pj.den == 0 for pj in P_k)
        targets = [max(0, p + h + 1 - k)] * N
        verified = [_order_scan(V[0], fi, lcd, V[j]) for j, (fi, lcd) in enumerate(F, 1)]
        certs.append(IterationStepCert(
            k=k, degree_ok=deg_ok, Q_integral=Q_k.is_integral(),
            P_cleared=P_cleared, order_targets=targets, order_verified=verified))
        Qk_list.append(Q_k)
        Pk_list.append(P_k)

        if k < K:
            Dk, Qder = Dk * D, Qder.derivative()
            V = _next_iterate(Dc, dDc, DAc, V, k)
    return IteratedFamily(base=base, K=K, Qk=Qk_list, Pk=Pk_list, certs=certs)


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


def _int_det(mat: list) -> list[int]:
    """Laplace expansion along column 0 of a matrix of integer coefficient lists."""
    if len(mat) == 1:
        return mat[0][0]
    return _sum_of_products([((-1) ** i, row[0], _int_det([r[1:] for r in mat[:i] + mat[i + 1:]]))
                             for i, row in enumerate(mat) if row[0]])


def ell0_bound(sys: GFunctionSystem, p: int, q: int, h: int) -> int:
    """Degree budget of the reduced determinant: q - N(h+1) + d N(N+1)/2."""
    N = sys.N
    return q - N * (h + 1) + sys.d * N * (N + 1) // 2


def zero_estimate_check(fam: IteratedFamily, sys: GFunctionSystem) -> ZeroEstimateCheck:
    N, p, q, h = sys.N, fam.base.p, fam.base.q, fam.base.h
    if fam.K < N:
        raise PreconditionError(f"family only reaches k={fam.K}; zero estimate needs k=0..{N}")
    # column k over the lcm of its denominators; Delta over their product
    cols, den = [], 1
    for k in range(N + 1):
        col = [fam.Q(k), *fam.Pk[k]]
        m = math.lcm(*[e.den for e in col])
        cols.append([_over(e, m) for e in col])
        den *= m
    Delta = Poly._of(_int_det(list(zip(*cols))), den)
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
