"""Non-diagonal simultaneous Pade-type approximants for G-function systems.

Given parameters (p, q, h) with p >= q >= N*h and q + 1 > N*h, we look for a
nonzero integer polynomial Q of degree <= q such that for every component
F_j (1 <= j <= N) there is a polynomial P_j of degree <= p with

    ord_0( Q(z) F_j(z) - P_j(z) ) >= p + h + 1.

The P_j are forced to be the truncation of Q*F_j in degree p, so the only
constraints are the vanishing of the next h coefficients of each product:
an (N*h) x (q+1) homogeneous integer system once scaled by d_{p+h}.  The
interesting (non-diagonal) regime is p > q: it buys divisibility of the
evaluation integers by b^m later on, at the price of a worse height bound,
quantified here by the classical Siegel-lemma estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .catalog import GFunctionSystem
from .errors import KernelVectorError, PreconditionError
from .intervals import IntervalReal, decide, frac_pow
from .lattice import shortest_kernel_vector
from .polynomial import Poly, truncated_product
from .transcend import exp_frac


def _check_params(sys: GFunctionSystem, p: int, q: int, h: int) -> None:
    if not (p >= q >= sys.N * h >= 0):
        raise PreconditionError(f"need p >= q >= N*h >= 0, got p={p} q={q} N*h={sys.N * h}")
    if not (q + 1 > sys.N * h):
        raise PreconditionError(f"need q+1 > N*h for a nonzero kernel, got q={q} N*h={sys.N * h}")


def constraint_matrix(sys: GFunctionSystem, p: int, q: int, h: int) -> list[list[int]]:
    """Integer matrix of the order conditions, rows (j, n) for n = p+1..p+h.

    Row entries are d_{p+h} * f_{j, n-k} for k = 0..q; a kernel vector is a
    coefficient vector (v_0..v_q) for Q.
    """
    _check_params(sys, p, q, h)
    scale = sys.denominator(p + h)
    rows: list[list[int]] = []
    for j in range(1, sys.N + 1):
        for n in range(p + 1, p + h + 1):
            row = []
            for k in range(q + 1):
                c = sys.coefficient(j, n - k) if n - k >= 0 else Fraction(0)
                # c is in lowest terms, so c * scale is an integer iff den(c) divides scale
                cleared, rest = divmod(scale, c.denominator)
                if rest:
                    raise PreconditionError(
                        f"d_{p + h} fails to clear f_{{{j},{n - k}}}; denominator oracle is wrong")
                row.append(c.numerator * cleared)
            rows.append(row)
    return rows


def siegel_height_bound(sys: GFunctionSystem, p: int, q: int, h: int,
                        digits: int = 32) -> IntervalReal:
    """Enclosure of 1 + (q (CD)^{p+h+1})^{Nh/(q+1-Nh)}; H(Q) of some solution is below it."""
    _check_params(sys, p, q, h)
    Nh = sys.N * h
    if Nh == 0:
        return IntervalReal.point(2)
    expo = Fraction(Nh, q + 1 - Nh)
    coef, e_exp = sys.CD_sym()
    base_rat = q * coef ** (p + h + 1)
    if e_exp == 0:
        return 1 + frac_pow(base_rat, expo, digits)
    # (q coef^{p+h+1})^{expo} * e^{(p+h+1) e_exp expo}
    return 1 + frac_pow(base_rat, expo, digits + 4) * exp_frac((p + h + 1) * e_exp * expo, digits + 4)


@dataclass
class PadeApproximant:
    """A verified type-II approximant; all certificates are exact."""

    system: GFunctionSystem
    p: int
    q: int
    h: int
    Q: Poly                      # integer coefficients, nonzero, deg <= q
    P: list[Poly]                # P_1..P_N, rational coefficients, deg <= p
    order_certificates: list[int]   # per j: verified lower bound on ord_0(Q F_j - P_j)
    denominator_cleared: bool    # d_p * P_j integral for every j
    height_Q: int                # max |coefficient of Q|
    siegel_bound: IntervalReal
    siegel_ok: Optional[bool]    # None: the enclosure still straddles H(Q) at the cap
    kernel_vector: list[int] = field(default_factory=list)


def assemble(sys: GFunctionSystem, p: int, q: int, h: int, v: list[int]) -> PadeApproximant:
    """Build and verify the approximant determined by kernel vector v.

    Raises KernelVectorError if v does not actually satisfy the order
    conditions; everything returned carries an exact certificate.
    """
    _check_params(sys, p, q, h)
    if len(v) != q + 1:
        raise PreconditionError(f"kernel vector length {len(v)} != q+1 = {q + 1}")
    if all(x == 0 for x in v):
        raise KernelVectorError("zero vector is not an admissible Q")
    Q = Poly(v)
    target = p + h + 1
    P: list[Poly] = []
    certificates: list[int] = []
    for j in range(1, sys.N + 1):
        prod = truncated_product(Q, sys.series(j, target), target)
        bad = next((t for t, c in enumerate(prod.num[p + 1:], p + 1) if c), None)
        if bad is not None:
            raise KernelVectorError(
                f"order condition fails for component {j}: coefficient z^{bad} survives")
        P.append(Poly(prod.num[: p + 1], prod.den))
        certificates.append(target)
    dp = sys.denominator(p)
    cleared = all(dp % P_j.den == 0 for P_j in P)
    height = max(abs(x) for x in v)
    ok, bound = decide(lambda dg: siegel_height_bound(sys, p, q, h, dg),
                       lambda iv: iv.ge(height), 32)
    return PadeApproximant(system=sys, p=p, q=q, h=h, Q=Q, P=P,
                           order_certificates=certificates,
                           denominator_cleared=cleared, height_Q=int(height),
                           siegel_bound=bound, siegel_ok=ok,
                           kernel_vector=list(v))


def build_approximant(sys: GFunctionSystem, p: int, q: int, h: int) -> PadeApproximant:
    """constraint_matrix -> small kernel vector -> assemble, in one step."""
    M = constraint_matrix(sys, p, q, h)
    v = shortest_kernel_vector(M, ncols=q + 1)
    return assemble(sys, p, q, h, v)
