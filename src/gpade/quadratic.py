"""Continued fractions of quadratic surds and their reduction to the main
irrationality-measure machinery through f(x) = sqrt(1 - x).

For rational d = u/v with sqrt(d) irrational, the surd algorithm runs on
(P + sqrt(uv)) / Q starting from P = 0, Q = v; all state stays in integers
and the (P, Q) pair is eventually periodic.  A convergent alpha/beta gives
the Pell-type value v*alpha^2 - u*beta^2, bounded by v*(2 sqrt(d) + 1), and
plugging z = (v*alpha^2 - u*beta^2) / (v*alpha^2) into sqrt(1 - z) recovers
(beta/alpha) sqrt(d): rational approximations to sqrt(d) with denominator a
power of alpha or beta become instances of the main theorem on the
(1 - z)^{1/2} system.

The restricted-exponent constants eta_d, kappa_d are existential; scans
report the fitted exponent needed over the sampled range, never a certified
constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

from .catalog import resolve_system
from .constants import ConstantsReport, compute_constants
from .errors import InternalCertificateError, PreconditionError
from .intervals import IntervalReal, frac_nth_root, frac_pow, settle
from .transcend import exp_interval, log_epower, log_frac, log_interval
from .verify import _settled_nearest, eval_certified


def _split_rational(d: Fraction) -> tuple[int, int]:
    d = Fraction(d)
    if d <= 0:
        raise PreconditionError("d must be a positive rational")
    u, v = d.numerator, d.denominator
    s = isqrt(u * v)
    if s * s == u * v:
        raise PreconditionError("sqrt(d) rational")
    return u, v


@dataclass
class QuadConvergent:
    alpha: int
    beta: int
    pell_value: int          # v*alpha^2 - u*beta^2 (equals alpha^2 - d*beta^2 for integer d)

    def __post_init__(self) -> None:
        if self.alpha < 1 or self.beta < 1:
            raise PreconditionError("convergent numerator and denominator must be positive")
        if gcd(self.alpha, self.beta) != 1:
            raise PreconditionError("convergent must be in lowest terms")


@dataclass
class CFExpansion:
    d: Fraction
    u: int
    v: int
    terms: list[int]                 # a_0, a_1, ... as emitted
    period: list[int]                # repeating block (starts at a_1)
    convergents: list[QuadConvergent]


def cf_sqrt(d: Fraction, count: int) -> CFExpansion:
    """Continued fraction of sqrt(d) by the integer surd algorithm.

    Emits `count` convergents and detects the period of the (P, Q) state.
    """
    if count < 1:
        raise PreconditionError("count must be >= 1")
    d = Fraction(d)
    if d < 1:
        raise PreconditionError("need d > 1 (for d < 1 expand sqrt(1/d) and invert)")
    u, v = _split_rational(d)
    D0 = u * v            # sqrt(d) = (0 + sqrt(D0)) / v
    s0 = isqrt(D0)
    P, Q = 0, v
    terms: list[int] = []
    period: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    convs: list[QuadConvergent] = []
    p_prev, p_cur = 1, None
    q_prev, q_cur = 0, None
    while len(convs) < count or not period:
        if terms:
            key = (P, Q)
            if key in seen and not period:
                period = terms[seen[key]:]
            elif not period:
                seen[key] = len(terms)
        if Q <= 0 or (D0 - P * P) % Q != 0:
            raise InternalCertificateError("surd state invariant broken")
        a = (P + s0) // Q
        terms.append(a)
        if p_cur is None:
            p_cur, q_cur = a, 1
        else:
            p_cur, p_prev = a * p_cur + p_prev, p_cur
            q_cur, q_prev = a * q_cur + q_prev, q_cur
        if len(convs) < count:
            convs.append(QuadConvergent(alpha=p_cur, beta=q_cur,
                                        pell_value=v * p_cur * p_cur - u * q_cur * q_cur))
        P = a * Q - P
        Q = (D0 - P * P) // Q
    return CFExpansion(d=d, u=u, v=v, terms=terms[:len(convs) + len(period)],
                       period=period, convergents=convs)


def pell_bound_check(conv: QuadConvergent, d: Fraction) -> bool:
    """Certify |v a^2 - u b^2| / v <= 2 sqrt(d) + 1 with interval sqrt(d)."""
    d = Fraction(d)
    _split_rational(d)
    lhs = Fraction(abs(conv.pell_value), d.denominator)
    le, _ = settle(lambda dg: frac_nth_root(d, 2, dg) * 2 + 1, lambda rhs: rhs.ge(lhs), 16,
                   "Pell bound comparison")
    return le


def convergent_gap_check(conv: QuadConvergent, d: Fraction) -> bool:
    """Certify |sqrt(d) - alpha/beta| < 1/beta^2."""
    d = Fraction(d)
    _split_rational(d)
    target = Fraction(conv.alpha, conv.beta)
    bound = Fraction(1, conv.beta ** 2)
    lt, _ = settle(lambda dg: abs(frac_nth_root(d, 2, dg) - target),
                   lambda gap: gap.lt(bound), 16, "gap comparison")
    return lt


@dataclass
class ReductionReport:
    d: Fraction
    alpha: int
    beta: int
    a: int                              # v*alpha^2 - u*beta^2
    b: int                              # v*alpha^2
    system_name: str
    constants: ConstantsReport
    N_d: IntervalReal                   # (c1 * (2 sqrt(d) + 1))^{c2/2}
    alpha_ge_Nd: bool
    hyp_b_ok: bool                      # b > (c1 |a|)^{c2}, constants.hyp_b_ok
    m_threshold: IntervalReal           # c3 log(v alpha^2) / log(1 + v|a|)
    identity_width: Fraction            # |sqrt(1 - a/b) * alpha/beta - sqrt(d)| enclosure width
    identity_series_checked: bool


def reduce_to_theorem1(conv: QuadConvergent, d: Fraction) -> ReductionReport:
    """Map a convergent of sqrt(d) to an (a, b) instance of the square-root system.

    a = v alpha^2 - u beta^2 and b = v alpha^2 make sqrt(1 - a/b) equal to
    (beta/alpha) sqrt(d).  Reports the threshold N_d = (c1 (2 sqrt(d)+1))^{c2/2}
    and whether alpha clears it, plus the direct hypothesis b > (c1 |a|)^{c2}.
    """
    d = Fraction(d)
    u, v = _split_rational(d)
    a = v * conv.alpha ** 2 - u * conv.beta ** 2
    b = v * conv.alpha ** 2
    if a == 0:
        raise InternalCertificateError(
            "exact Pell value 0 would make sqrt(d) rational")
    sys = resolve_system("binom:1/2")
    digits = 48
    constants = compute_constants(sys, abs(a), b, t=Fraction(2), m=1, digits=digits,
                                  allow_desk_scale=True)

    # N_d = (c1 c(d))^{c2/2} with c(d) = 2 sqrt(d) + 1
    def threshold(dg: int) -> IntervalReal:
        cd = frac_nth_root(d, 2, dg) * 2 + 1
        log_Nd = (log_epower(constants.c1_sym, dg)
                  + log_interval(cd, dg)) * Fraction(constants.c2, 2)
        return exp_interval(log_Nd, dg)

    alpha_ge_Nd, N_d = settle(threshold, lambda N_d: N_d.le(conv.alpha), digits,
                              "threshold comparison")

    m_threshold = (constants.c3 * log_frac(Fraction(b), digits)
                   / log_frac(Fraction(1 + v * abs(a)), digits))

    # identity sqrt(1 - a/b) * alpha/beta = sqrt(d): 1 - a/b is an exact rational
    lhs = frac_nth_root(1 - Fraction(a, b), 2, digits) * Fraction(conv.alpha, conv.beta)
    diff = lhs - frac_nth_root(d, 2, digits)
    if not (diff.lo <= 0 <= diff.hi):
        raise InternalCertificateError("square-root identity enclosures disjoint")
    identity_width = diff.width
    series_checked = False
    z = Fraction(a, b)
    if sys.C * abs(z) < 1:
        sv = eval_certified(sys, sys.N, z, Fraction(1, 10 ** 24))
        diff2 = sv * Fraction(conv.alpha, conv.beta) - frac_nth_root(d, 2, 30)
        if not (diff2.lo <= 0 <= diff2.hi):
            raise InternalCertificateError("series evaluation disagrees with exact square root")
        series_checked = True

    return ReductionReport(d=d, alpha=conv.alpha, beta=conv.beta, a=a, b=b,
                           system_name=sys.name, constants=constants, N_d=N_d,
                           alpha_ge_Nd=alpha_ge_Nd, hyp_b_ok=constants.hyp_b_ok,
                           m_threshold=m_threshold,
                           identity_width=identity_width,
                           identity_series_checked=series_checked)


@dataclass
class ScanRow:
    m: int
    n: int                    # nearest integer to sqrt(d) * den^m
    distance: IntervalReal    # |sqrt(d) - n / den^m|
    eta_req: Fraction         # upper bound on dist^{-1/m} / den (exponent fit)


@dataclass
class Theorem5Report:
    d: Fraction
    denominator_choice: str
    den: int
    m_range: tuple[int, int]
    rows: list[ScanRow] = field(default_factory=list)

    @property
    def eta_fit(self) -> Fraction:
        """Smallest constant making dist >= 1/(eta * den)^m over the scanned range.

        Fitted from the scan, not certified: the theorem's constants are
        existential.
        """
        return max(r.eta_req for r in self.rows)


def theorem5_scan(d: Fraction, conv: QuadConvergent, m_range: tuple[int, int],
                  denominator_choice: str = "alpha") -> Theorem5Report:
    """Nearest-integer distances |sqrt(d) - n/den^m| over a range of m."""
    d = Fraction(d)
    _split_rational(d)
    if denominator_choice not in ("alpha", "beta"):
        raise PreconditionError("denominator_choice must be alpha or beta")
    den = conv.alpha if denominator_choice == "alpha" else conv.beta
    if den < 2:
        raise PreconditionError("denominator must be >= 2 for a meaningful scan")
    m_lo, m_hi = m_range
    if m_lo < 1 or m_hi < m_lo:
        raise PreconditionError("m_range must satisfy 1 <= m_lo <= m_hi")
    rows = []
    for m in range(m_lo, m_hi + 1):
        scale = den ** m

        def nearest(root: IntervalReal) -> Optional[tuple[int, IntervalReal]]:
            n = _settled_nearest(root * scale)
            if n is None:
                return None
            dist = abs(root - Fraction(n, scale))
            return (n, dist) if dist.lo > 0 else None

        (n, dist), _ = settle(lambda dg: frac_nth_root(d, 2, dg), nearest, 32,
                              f"nearest integer at m={m}")
        # dist >= 1/(eta den)^m  <=>  eta >= dist^{-1/m} / den
        eta_hi = frac_pow(1 / dist.lo, Fraction(1, m), 32).hi / den
        rows.append(ScanRow(m=m, n=n, distance=dist, eta_req=eta_hi))
    return Theorem5Report(d=d, denominator_choice=denominator_choice, den=den,
                          m_range=(m_lo, m_hi), rows=rows)
