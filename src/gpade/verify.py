"""Certified evaluation of system components and the rational-approximation
inequality chain: the nonzero integer witness xi, the remainder-smallness
check, and the resulting lower bounds on |F(a/b) - n/(B b^m)|.

The headline inequality (distance >= 1/(B b^m (|a|+1)^{c4 m})) is certified by
interval evaluation, against the closed form of its right-hand side: the integer
B b^m (|a|+1)^{floor(c4 m)} has 10^5 to 10^7 digits, and it is built only when
bit-length bounds on its logarithm cannot settle a comparison.  Its proof chain
is replayed in "property mode" at desk-scale (p, q, h): the hypotheses on b are
astronomically large for any interesting system, so property mode verifies the
chain's inequalities directly (exact remainder-smallness at the chosen
parameters) instead of pretending the schedule applies.  The Corollary is checked on the Theorem 1
instance: it reads the constants, t and the value off verify_theorem1's report.

F_j is evaluated at the signed point a/b, and each call decides on the one
value it made with value_producer, so a report is a function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .catalog import GFunctionSystem
from .constants import ConstantsReport, compute_constants, eps_threshold
from .derivation import IteratedFamily, ell0_bound, find_nonvanishing_index, iterate
from .errors import InternalCertificateError, NoConvergentTailBound, PreconditionError
from .intervals import CertifiedReal, IntervalReal, PowerProduct, decide, enclose_sum, frac_pow, \
    settle, width_digits
from .pade import build_approximant
from .polynomial import power_sum
from .report import TRISTATE_STATUS
from .transcend import log_frac

Scalar = Union[int, Fraction]


def _check_point(sys: GFunctionSystem, j: int, z: Fraction) -> Fraction:
    """C|z|, once 1 <= j <= N and C|z| < 1 are checked: F_j(z) then has a series enclosure."""
    if not 1 <= j <= sys.N:
        raise PreconditionError(f"component {j} is not in 1..{sys.N} (component 0 is "
                                "the constant 1, whose expansion is rational)")
    cz = sys.C * abs(z)
    if cz >= 1:
        raise NoConvergentTailBound(
            f"C|z| = {cz} >= 1: no convergent tail bound for this evaluation")
    return cz


def _term_count(tn: int, td: int, r: Fraction) -> tuple[int, int, int]:
    """(M, tn u^M, td v^M) for the least M >= 0 with tn u^M <= td v^M, r = u/v in (0, 1).

    The search starts from a proved lower bound: log2(tn/td) > bl(tn) - bl(td) - 1 and
    64 log2(v/u) < bl(v^64) - bl(u^64) + 1 (bl = bit length), so 64 times the first over
    the second is < M.  It gallops up in steps 1, 2, 4, ... to a passing count, then
    bisects the last step, so it makes O(log M) big powers."""
    u, v = r.numerator, r.denominator
    M = max(0, (tn.bit_length() - td.bit_length() - 1) * 64
            // ((v ** 64).bit_length() - (u ** 64).bit_length() + 1))
    tn, td = tn * u ** M, td * v ** M
    if tn <= td:
        return M, tn, td
    # gallop while M + step fails too; then M fails and M + step passes, with (hn, hd)
    step, hn, hd = 1, tn * u, td * v
    while hn > hd:
        M, tn, td, step = M + step, hn, hd, 2 * step
        hn, hd = tn * u ** step, td * v ** step
    while step > 1:
        step //= 2
        mn, md = tn * u ** step, td * v ** step
        if mn <= md:
            hn, hd = mn, md
        else:
            M, tn, td = M + step, mn, md
    return M + 1, hn, hd


def eval_certified(sys: GFunctionSystem, j: int, z: Scalar, width: Fraction) -> IntervalReal:
    """Interval of width < 3/2 `width` containing F_j(z), 1 <= j <= N, for C|z| < 1.

    Partial sum plus the geometric tail bound sum_{n>M} C^{n+1} |z|^n <= width/2 a side,
    rounded out to a grid of step <= width/4, which can widen each end by almost a step.
    """
    z, width = Fraction(z), Fraction(width)
    if width <= 0:
        raise PreconditionError("width must be positive")
    cz = _check_point(sys, j, z)
    if z == 0:
        return IntervalReal.point(sys.coefficient(j, 0))

    # smallest M with tail = C * cz^{M+1} / (1 - cz) <= width/2, from tn / td = tail / (width/2)
    tail, target = sys.C * cz / (1 - cz), width / 2
    M, tn, td = _term_count(tail.numerator * target.denominator,
                            tail.denominator * target.numerator, cz)
    s, sd = power_sum(sys.series(j, M + 1), z)
    # outward-round to keep endpoint sizes proportional to the request
    return enclose_sum(s, sd, tn * target.numerator, td * target.denominator, (-1, 1),
                       max(1, width_digits(width / 4)))


def value_producer(sys: GFunctionSystem, j: int, z: Scalar) -> CertifiedReal:
    """A new CertifiedReal for F_j(z), 1 <= j <= N, z of either sign; raises at once
    when j is out of range or C|z| >= 1."""
    z = Fraction(z)
    _check_point(sys, j, z)
    return CertifiedReal(lambda digits: eval_certified(sys, j, z, Fraction(1, 10 ** digits)),
                         name=f"{sys.name}:F_{j}({z})")


@dataclass
class XiWitness:
    """The nonzero integer witness xi = d_* b^* (n Q_k(a/b) - B b^m P_{j,k}(a/b))."""
    k: int
    U_jk: int      # d_* b^{p+(d-1)k} P_{j,k}(a/b)
    V_k: int       # b^{q+(d-1)k} Q_k(a/b)
    xi: int
    divisible_by_bm: bool
    a: int
    b: int
    B: int
    m: int
    n: int
    j: int
    denominator_scale: int   # d_{p+(d-1)k}


def construct_xi(fam: IteratedFamily, sys: GFunctionSystem, a: int, b: int,
                 B: int, m: int, n: int, j: int, k: Optional[int] = None) -> XiWitness:
    """Exact witness integer at index k (found automatically when omitted).

    Computed twice: once through the integer forms U, V and once by direct
    rational arithmetic; both must agree to the bit.
    """
    base = fam.base
    p, q, h, d = base.p, base.q, base.h, sys.d
    if p < q + m:
        raise PreconditionError(f"need p >= q+m for b^m divisibility, got p={p} q+m={q + m}")
    ab = Fraction(a, b)
    if sys.D_poly(ab) == 0:
        raise PreconditionError("a/b is a root of the system denominator polynomial")
    if k is None:
        if math.gcd(a, b) != 1:
            raise PreconditionError("the nonvanishing scan needs a/b in lowest terms")
        k = find_nonvanishing_index(fam, sys, ab, n, B, m, j)
    dd = sys.denominator(p + (d - 1) * k)
    bpow = b ** (p + (d - 1) * k)

    Qk_val = fam.Q(k)(ab)
    Pjk_val = fam.P(j, k)(ab)
    U = dd * bpow * Pjk_val
    V = b ** (q + (d - 1) * k) * Qk_val
    if U.denominator != 1 or V.denominator != 1:
        raise InternalCertificateError("integrality of U/V failed; scaling bug")
    U, V = int(U), int(V)

    xi_direct = dd * bpow * (n * Qk_val - B * b ** m * Pjk_val)
    if xi_direct.denominator != 1:
        raise InternalCertificateError("xi is not an integer; scaling bug")
    xi_int = n * dd * b ** (p - q) * V - B * b ** m * U
    if xi_int != int(xi_direct):
        raise InternalCertificateError("two computations of xi disagree")
    if xi_int == 0:
        raise InternalCertificateError("xi = 0 contradicts the nonvanishing index")
    return XiWitness(k=k, U_jk=U, V_k=V, xi=xi_int,
                     divisible_by_bm=(xi_int % b ** m == 0),
                     a=a, b=b, B=B, m=m, n=n, j=j, denominator_scale=dd)


@dataclass
class ChainReplay:
    p: int
    q: int
    h: int
    k: int
    witness: XiWitness
    eq_remainder_small: Optional[bool]   # |R_{j,k}(a/b)| < (1/2) / (d_* b^* B)
    eq_balance: Optional[bool]           # |Q_k||n - B b^m F_j| >= d_*^{-1} b^{-*+m} - B b^m |R|
    eq_distance: Optional[bool]          # distance >= d_*^{-1} b^{-*} / (2 B |Q_k(a/b)|)
    distance_lower: Fraction             # the chain's explicit lower bound

    @property
    def all_certified(self) -> bool:
        return (self.eq_remainder_small is True and self.eq_balance is True
                and self.eq_distance is True)


@dataclass
class VerifyReport:
    system_name: str
    a: int
    b: int
    B: int
    m: int
    n: int
    j: int
    lhs: IntervalReal
    rhs_exponent: int            # rhs = 1/(B b^m (|a|+1)^rhs_exponent)
    status: str                  # certified | violated | indeterminate
    constants: ConstantsReport
    hypothesis_ok: Optional[bool]   # hyp_b_ok, hyp_m_ok and not desk-scale; None when undecided
    value: CertifiedReal            # F_j(a/b), the value the bound was decided on
    chain: Optional[ChainReplay] = None

    @property
    def holds(self) -> bool:
        return self.status == "certified"

    @property
    def rhs_denominator(self) -> PowerProduct:
        """B b^m (|a|+1)^rhs_exponent in closed form."""
        return PowerProduct(self.B * self.b ** self.m, abs(self.a) + 1, self.rhs_exponent)

    @property
    def rhs(self) -> Fraction:
        """The exact bound 1/(B b^m (|a|+1)^rhs_exponent), built on each call."""
        return Fraction(1, self.rhs_denominator.value())


def _decide_distance(value: CertifiedReal, offset: Fraction,
                     ge: Callable[[IntervalReal], Optional[bool]],
                     start: int = 24) -> tuple[Optional[bool], IntervalReal]:
    """Decide |value - offset| >= a threshold, the verdict `ge`, by escalation; None at
    the cap."""
    return decide(lambda dg: abs(value.enclosure(dg) - offset), ge, start)


def _ceil_log(B: int, b: int) -> int:
    """Smallest integer t >= 0 with B <= b^t."""
    t = 0
    while b ** t < B:
        t += 1
    return t


def verify_theorem1(sys: GFunctionSystem, a: int, b: int, B: int, m: int, n: int,
                    j: Optional[int] = None, digits: int = 64,
                    pqh: Optional[tuple[int, int, int]] = None) -> VerifyReport:
    """Certify |F_j(a/b) - n/(B b^m)| >= 1/(B b^m (|a|+1)^{c4 m}).

    Given pqh, the proof chain is also replayed at that (p, q, h), at |a| on
    the system of Y(-z) when a < 0: build the approximant, iterate far enough
    for the nonvanishing scan, construct xi, then certify remainder-smallness,
    the balance inequality, and the resulting explicit distance bound.
    """
    if b < 2 or B < 1 or m < 1 or a == 0:
        raise PreconditionError("need b >= 2, B >= 1, m >= 1, a != 0")
    if abs(Fraction(a, b)) >= 1:
        raise PreconditionError("need |a/b| < 1")
    j = sys.N if j is None else j
    value = value_producer(sys, j, Fraction(a, b))

    t = _ceil_log(B, b)
    constants = compute_constants(sys, a, b, Fraction(t), m,
                                  digits=max(digits, 64), allow_desk_scale=True)
    # a tristate: any unmet hypothesis gives False, else an undecided hyp_m_ok gives None
    hyp_m = constants.hyp_m_ok
    hyp_ok = False if not constants.hyp_b_ok or constants.desk_scale or hyp_m is False else hyp_m

    exp_floor = (constants.c4.lo * m).numerator // (constants.c4.lo * m).denominator
    scale = B * b ** m
    rhs_den = PowerProduct(scale, abs(a) + 1, exp_floor)
    ok, lhs_iv = _decide_distance(value, Fraction(n, scale), lambda iv: iv.ge_reciprocal(rhs_den),
                                  max(16, digits // 2))

    chain = None if pqh is None else replay_chain(sys if a > 0 else sys.negated(), abs(a), b,
                                                  B, m, n, j, pqh, value)

    return VerifyReport(system_name=sys.name, a=a, b=b, B=B, m=m, n=n, j=j,
                        lhs=lhs_iv, rhs_exponent=exp_floor, status=TRISTATE_STATUS[ok],
                        constants=constants, hypothesis_ok=hyp_ok, value=value, chain=chain)


def replay_chain(sys: GFunctionSystem, a: int, b: int, B: int, m: int, n: int,
                 j: int, pqh: tuple[int, int, int],
                 value: Optional[CertifiedReal] = None) -> ChainReplay:
    """Replay the witness chain at explicit (p, q, h); every step certified."""
    p, q, h = pqh
    if p < q + m:
        raise PreconditionError("chain replay needs p >= q + m")
    if math.gcd(a, b) != 1:
        raise PreconditionError("chain replay needs a/b in lowest terms")
    ab = Fraction(a, b)
    approx = build_approximant(sys, p, q, h)
    kmax = ell0_bound(sys, p, q, h) + sys.N
    fam = iterate(approx, sys, kmax)
    k = find_nonvanishing_index(fam, sys, ab, n, B, m, j)
    witness = construct_xi(fam, sys, a, b, B, m, n, j, k=k)

    d = sys.d
    dd = witness.denominator_scale
    scale_exp = p + (d - 1) * k
    Qk_val = fam.Q(k)(ab)
    Pjk_val = fam.P(j, k)(ab)
    value = value_producer(sys, j, ab) if value is None else value

    # |R_{j,k}(a/b)| < (1/2) d_*^{-1} b^{-*} B^{-1}, R = Q_k F_j - P_{j,k}
    thresh16 = Fraction(1, 2 * dd * b ** scale_exp * B)

    def remainder(dg: int) -> IntervalReal:
        return abs(Qk_val * value.enclosure(dg) - Pjk_val)

    st16, _ = decide(remainder, lambda iv: iv.lt(thresh16), 24)

    # |Q_k(a/b)| |n - B b^m F_j(a/b)| >= d_*^{-1} b^{-* + m} - B b^m |R_{j,k}(a/b)|
    target = Fraction(1, dd) * Fraction(1, b ** scale_exp) * b ** m

    def balance(dg: int) -> IntervalReal:
        """lhs - rhs of the balance inequality."""
        lhs15 = abs(Qk_val) * abs(n - B * b ** m * value.enclosure(dg))
        return lhs15 - (IntervalReal.point(target) - B * b ** m * remainder(dg))

    st15, _ = decide(balance, lambda iv: iv.ge(0), 24)

    # distance >= d_*^{-1} b^{-*} / (2 B |Q_k(a/b)|)
    if Qk_val == 0:
        raise InternalCertificateError("Q_k(a/b) = 0 after remainder-smallness held")
    bound17 = Fraction(1, dd * b ** scale_exp) / (2 * B * abs(Qk_val))
    offset = Fraction(n, B * b ** m)
    st17, _ = _decide_distance(value, offset, lambda iv: iv.ge(bound17))

    return ChainReplay(p=p, q=q, h=h, k=k, witness=witness, eq_remainder_small=st16,
                       eq_balance=st15, eq_distance=st17, distance_lower=bound17)


def scan_nearest(sys: GFunctionSystem, a: int, b: int, B: int, m: int,
                 j: Optional[int] = None) -> int:
    """Nearest integer to B b^m F_j(a/b); exact half-ties round to even."""
    if b < 2:
        raise PreconditionError("need b >= 2")
    value = value_producer(sys, sys.N if j is None else j, Fraction(a, b))
    scale = B * b ** m
    nearest, _ = settle(lambda dg: value.enclosure(dg) * scale, _settled_nearest, 16,
                        "nearest integer")
    return nearest


def _settled_nearest(iv: IntervalReal) -> Optional[int]:
    """The nearest integer of every point of `iv` when they all share it, else None;
    round() of a Fraction rounds exact halves to even."""
    n = round(iv.lo)
    return n if n == round(iv.hi) else None


@dataclass
class CorollaryReport:
    eps: Fraction
    rhs: Fraction
    status: str
    hyp_b_ok: Optional[bool]     # b > (|a|+1)^{2 c4 / eps}
    hyp_m_ok: bool               # m >= 2 t / eps
    lhs: IntervalReal


def corollary_bound_check(sys: GFunctionSystem, a: int, b: int, B: int, m: int, n: int,
                          eps: Scalar, j: Optional[int] = None,
                          digits: int = 64) -> CorollaryReport:
    """Certify the simpler bound |F(a/b) - n/(B b^m)| >= 1/b^{m(1+eps)}.

    Runs on the Theorem 1 instance: verify_theorem1's input checks, and its
    constants, t and value.  Hypothesis flags are reported (they fail at desk
    scale); the bound itself is still certified or refuted by intervals.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    thm1 = verify_theorem1(sys, a, b, B, m, n, j=j, digits=digits)
    # b > (|a|+1)^{2 c4 / eps}: compare log b against (2 c4 / eps) log(|a|+1)
    hyp_b = eps_threshold(thm1.constants, eps, digits).lt(log_frac(Fraction(b), digits))
    rhs = frac_pow(Fraction(1, b), m * (1 + eps), digits).hi
    ok, lhs_iv = _decide_distance(thm1.value, Fraction(n, B * b ** m), lambda iv: iv.ge(rhs))
    return CorollaryReport(eps=eps, rhs=rhs, status=TRISTATE_STATUS[ok], hyp_b_ok=hyp_b,
                           hyp_m_ok=m >= 2 * thm1.constants.t / eps, lhs=lhs_iv)
