"""Quantitative bound chain: height/remainder bounds and the effective constants.

Two kinds of output live here.  The per-approximant bounds are exact
rationals: the height bound for iterated numerators, which scales the Siegel
factor the approximant already carries (`siegel_bound`, decided once in
pade.assemble), and the geometric remainder bound.  Each formula lives once, in
an integer-pair form (`bound_height_pair`, `bound_remainder_pair`) that reads
the parts free of k or z once and returns unnormalized (numerator,
denominator) ints; the public functions return the Fraction of that pair.
The constant chain (chi, c1..c8, the schedule x, y, h, p, q, beta and the
smallness hypothesis) mixes rationals with certified enclosures of e-powers and
logarithms; every interval field contains its true real value and precision is
user-settable.

h0, h1, h2 are knobs, not derived: the sources they come from are effective
but never instantiated numerically, so they enter only through
c5 = max(h0, h1, h2, 8 N^2 d^3, 4t) and are recorded in every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .catalog import GFunctionSystem
from .derivation import IteratedFamily
from .errors import (HypothesisUnmetError, InsufficientPrecisionError,
                     PreconditionError)
from .intervals import (PRECISION_CAP, IntervalReal, Pair, _decimal_digits, decide, frac_pow,
                        settle)
from .pade import PadeApproximant
from .transcend import (EPower, exp_frac, exp_interval, le_epower, log2_enclosure, log_epower,
                        log_frac, log_interval)

Scalar = Union[int, Fraction]

DEFAULT_DIGITS = 128


@dataclass(frozen=True)
class ConstantsConfig:
    """Configuration for the underived positive constants; defaults documented in README."""
    h0: Fraction = Fraction(1)
    h1: Fraction = Fraction(1)
    h2: Fraction = Fraction(1)


# -- exact per-approximant bounds ------------------------------------------


def _require_verified(sys: GFunctionSystem, p: int, h: int) -> None:
    if sys.verified_range < p + h:
        raise PreconditionError(
            f"growth constants verified only to n={sys.verified_range}, need {p + h}; "
            "run verify_growth first")


def bound_height_pair(approx: PadeApproximant, sys: GFunctionSystem) -> Callable[[int], Pair]:
    """bound_height_Qk at one approximant as k -> unnormalized ints (n, d): the k-free
    parts, H(Dpoly) and the Siegel factor less 1, are read once."""
    _require_verified(sys, approx.p, approx.h)
    H, siegel = sys.D_poly.height(), approx.siegel_bound.hi - 1
    hn, hd, sn, sd = H.numerator, H.denominator, siegel.numerator, siegel.denominator
    e0, de = 2 * approx.q + 1, sys.d - 1

    def at(k: int) -> Pair:
        if k < 0:
            raise PreconditionError("k must be >= 0")
        return (hn ** k * sn) << (e0 + de * k), hd ** k * sd
    return at


def bound_height_Qk(approx: PadeApproximant, sys: GFunctionSystem, k: int) -> Fraction:
    """Rational upper bound 2^{2q+(d-1)k+1} H(Dpoly)^k (q (CD)^{p+h+1})^{Nh/(q+1-Nh)}.

    The Siegel factor is the approximant's own enclosure of
    1 + (q (CD)^{p+h+1})^{Nh/(q+1-Nh)}, less 1 (exactly 1 when Nh = 0).
    """
    return Fraction(*bound_height_pair(approx, sys)(k))


def _height_Qk(fam_or_approx, k: int) -> Fraction:
    if isinstance(fam_or_approx, IteratedFamily):
        return fam_or_approx.Qk[k].height()
    if isinstance(fam_or_approx, PadeApproximant):
        if k != 0:
            raise PreconditionError("pass an IteratedFamily for k > 0")
        return fam_or_approx.Q.height()
    raise PreconditionError("expected PadeApproximant or IteratedFamily")


def bound_remainder_pair(height: Pair, base: PadeApproximant, sys: GFunctionSystem,
                         k: int) -> Callable[[Scalar], Pair]:
    """bound_remainder at one k, for a Q_k of height n/d = `height`, as z -> unnormalized
    ints (n, d): the z-free factor H(Q_k) (e+1) max(1,C)^e is multiplied out once."""
    e, expo = base.q + k * (sys.d - 1), base.p + base.h + 1 - k
    c = max(1, sys.C)
    fn, fd = height[0] * (e + 1) * c.numerator ** e, height[1] * c.denominator ** e
    cn, cd = sys.C.numerator, sys.C.denominator

    def at(z: Scalar) -> Pair:
        u, v = cn * abs(z.numerator), cd * z.denominator
        if u >= v:
            raise PreconditionError(f"need C|z| < 1, got {Fraction(u, v)}")
        if u == 0:
            return 0, 1
        un, vn = (u ** expo, v ** expo) if expo >= 0 else (v ** -expo, u ** -expo)
        return fn * un * v, fd * vn * (v - u)
    return at


def bound_remainder(fam_or_approx, sys: GFunctionSystem, k: int, z: Scalar) -> Fraction:
    """Rational bound on |Q_k F_j - P_{j,k}| at z, valid for every j, for C|z| < 1:
    H(Q_k) (e+1) max(1,C)^e (C|z|)^{p+h+1-k} / (1-C|z|), e = q+k(d-1), in integers."""
    base = fam_or_approx.base if isinstance(fam_or_approx, IteratedFamily) else fam_or_approx
    Hk = _height_Qk(fam_or_approx, k)
    at = bound_remainder_pair((Hk.numerator, Hk.denominator), base, sys, k)
    return Fraction(*at(Fraction(z)))


# -- the constant chain ------------------------------------------------------


@dataclass
class ConstantsReport:
    system_name: str
    a: int
    b: int
    t: Fraction
    m: int
    config: ConstantsConfig
    digits: int
    N: int
    d: int
    chi: IntervalReal
    chi_sym: EPower             # chi = coef * e^exponent
    c1: IntervalReal
    c1_sym: EPower
    c2: int
    c3: Fraction
    c5: Fraction
    c6: IntervalReal
    c7: IntervalReal
    c8: IntervalReal
    c4: IntervalReal
    c4_reference: Optional[IntervalReal]
    c4_discrepancy: bool
    y: Fraction
    x: Optional[IntervalReal]
    h: Optional[int]
    p: Optional[int]
    q: Optional[int]
    beta: Optional[IntervalReal]
    hyp_b_ok: bool              # b > (c1 |a|)^{c2}
    hyp_m_ok: Optional[bool]    # m >= c3 log(b)/log(|a|+1)
    eqhyp_status: str           # certified-true | certified-false | indeterminate | not-evaluated
    desk_scale: bool            # schedule infeasible at these inputs; c-chain still valid


def _chain(sys: GFunctionSystem, digits: int):
    """chi (with its closed form) and the b-independent constant c6."""
    N, d = sys.N, sys.d
    H = sys.D_poly.height()
    C = sys.C
    cd_coef, cd_exp = sys.CD_sym()
    d_coef, d_exp = sys.Dgrowth_sym

    chi_coef = 4 * H * C * cd_coef ** (8 * N * d + 1)
    chi_exp = cd_exp * (8 * N * d + 1)
    chi = (chi_coef * exp_frac(chi_exp, digits + 6)).round_sig(digits + 2) \
        if chi_exp else IntervalReal.point(chi_coef)
    chi_sym = (chi_coef, chi_exp)

    # c6 = D^{1 + d/((N+2)(d+1))} 2^{(8N+1)/(4N+8)} H^{1/(4(N+2)(d+1))} (CD)^{4N(N+3)(d+1)/(N+2)}
    a1 = 1 + Fraction(d, (N + 2) * (d + 1))
    a2 = Fraction(8 * N + 1, 4 * N + 8)
    a3 = Fraction(1, 4 * (N + 2) * (d + 1))
    a4 = Fraction(4 * N * (N + 3) * (d + 1), N + 2)
    g = digits + 8
    c6 = frac_pow(d_coef, a1, g) * frac_pow(Fraction(2), a2, g) * frac_pow(H, a3, g) \
        * frac_pow(cd_coef, a4, g)
    e_total = d_exp * a1 + cd_exp * a4
    if e_total:
        c6 = c6 * exp_frac(e_total, g)
    c6 = c6.round_sig(digits + 2)
    return chi, chi_sym, c6


def _schedule_x(b: int, c1a: EPower, digits: int) -> IntervalReal:
    """x = log b / (3 log(c1 |a|)), from logarithms at `digits` digits."""
    return log_frac(Fraction(b), digits) / (3 * log_epower(c1a, digits))


def compute_constants(sys: GFunctionSystem, a: int, b: int, t: Scalar, m: int,
                      config: Optional[ConstantsConfig] = None,
                      digits: int = DEFAULT_DIGITS,
                      allow_desk_scale: bool = False) -> ConstantsReport:
    """Full constant chain and parameter schedule for one (a, b, t, m) instance.

    In strict mode the smallness hypothesis on b is enforced (error when the
    schedule quantity x fails x > N+1).  With allow_desk_scale the
    b-independent constants are still computed and the schedule fields are
    left unset, with all hypothesis flags reported false.
    """
    config = config or ConstantsConfig()
    t = Fraction(t)
    if a == 0 or b < 2 or t < 0 or m < 1:
        raise PreconditionError("need a != 0, b >= 2, t >= 0, m >= 1")
    N, d = sys.N, sys.d
    aa = abs(a)

    chi, chi_sym, c6 = _chain(sys, digits)
    c1a = (chi_sym[0] * aa, chi_sym[1])
    c2 = 3 * (N + 2)
    y = Fraction(1, 4 * (d + 1))
    c5 = max(config.h0, config.h1, config.h2, Fraction(8 * N * N * d ** 3), 4 * t)
    c3 = c5 / 3

    log2 = log2_enclosure(digits + 6)
    x = _schedule_x(b, c1a, digits + 6).round_sig(digits + 2)

    c7 = (6 * (N + 2) ** 2 * log_epower(chi_sym, digits + 6)).round_sig(digits + 2)
    log_c6 = log_interval(c6, digits + 6)
    log_2c6 = log_c6 + log2
    c8 = (log_2c6 / log2 * c7).round_sig(digits + 2)
    c4 = (c8 + log_c6 / log2).round_sig(digits + 2)

    c4_ref, c4_disc = _reference_c4(sys, c4, digits)

    def x_exceeds(n: int) -> bool:
        # x > n iff b > (c1 |a|)^{3n}: decided exactly when x's enclosure straddles n
        return x.lo > n or (x.hi > n and not le_epower(b, c1a, 3 * n, digits))

    hyp_b_ok = x_exceeds(N + 2)
    # hypothesis on m: m >= c3 log(b)/log(|a|+1)
    hyp_m_ok = (c3 * log_frac(Fraction(b), digits + 6)
                / log_frac(Fraction(aa + 1), digits + 6)).le(m)

    schedule_ok = x_exceeds(N + 1)
    if not schedule_ok and not allow_desk_scale:
        raise HypothesisUnmetError(
            f"hypothesis (smallness of (c1|a|)^c2 against b) fails: x <= {N + 1}")

    h = p = q = None
    beta = None
    eqhyp_status = "not-evaluated"
    if schedule_ok:
        # Exact integers of up to 4 PRECISION_CAP decimal digits are built below.  A
        # straddled k is decided exactly while b^k (for h) or b^h (for p) fits:
        # h >= k iff b^k <= (c1 |a|)^{3((N+1)k + m)}, and p >= k iff b^h >= (c1 |a|)^{3k},
        # that is 1/b^h <= (1/(c1 |a|))^{3k}.
        budget = 4 * PRECISION_CAP.get()
        e_max = budget // _decimal_digits(b)

        def h_at(dg: int) -> Optional[IntervalReal]:
            # x > N+1 is certified, but near N+1 the enclosure of x - (N+1) may still hold 0
            gap = _schedule_x(b, c1a, dg) - (N + 1)
            return Fraction(m) / gap if gap.lo > 0 else None

        h = _floor_certified(
            h_at,
            lambda k: le_epower(b ** k, c1a, 3 * ((N + 1) * k + m), digits) if k <= e_max else None,
            digits)
        if h >= 1:
            inv = (1 / c1a[0], -c1a[1])
            p = _floor_certified(
                lambda dg: _schedule_x(b, c1a, dg) * h,
                lambda k: le_epower(Fraction(1, b ** h), inv, 3 * k, digits) if h <= e_max else None,
                digits)
            q_exact = (N + y) * h
            q = q_exact.numerator // q_exact.denominator
            # the root behind b^{t/h} works at den(t/h) (digits + 2) decimal digits
            if (t / h).denominator * (digits + 2) > budget:
                raise InsufficientPrecisionError(
                    f"beta = b^(t/h) with h = {h} needs more than {budget} digits "
                    f"(4x the precision cap)")
            beta = frac_pow(Fraction(b), t / h, digits + 2) if t else IntervalReal.point(1)

    report = ConstantsReport(
        system_name=sys.name, a=a, b=b, t=t, m=m, config=config, digits=digits,
        N=N, d=d, chi=chi, chi_sym=chi_sym, c1=chi, c1_sym=chi_sym, c2=c2,
        c3=c3, c5=c5, c6=c6, c7=c7, c8=c8, c4=c4,
        c4_reference=c4_ref, c4_discrepancy=c4_disc,
        y=y, x=x, h=h, p=p, q=q, beta=beta,
        hyp_b_ok=hyp_b_ok, hyp_m_ok=hyp_m_ok,
        eqhyp_status=eqhyp_status, desk_scale=not schedule_ok)
    if schedule_ok and h is not None and h >= 1:
        verdict = check_eqhyp(report, sys, digits=digits)
        report.eqhyp_status = ("certified-true" if verdict is True
                               else "certified-false" if verdict is False
                               else "indeterminate")
    return report


def eps_threshold(report: ConstantsReport, eps: Fraction, digits: int) -> IntervalReal:
    """(2 c4 / eps) log(|a|+1): the log b (Corollary) or log b^s (Theorem 2) that
    the eps hypothesis on the base must beat."""
    return report.c4 * 2 / eps * log_frac(Fraction(abs(report.a) + 1), digits)


def _floor_certified(producer, at_least, digits: int) -> int:
    """floor of an interval-valued quantity v, escalating until both endpoints agree.

    The producer returns None while it has no enclosure at that precision.
    When the enclosure straddles one integer k, at_least(k) decides v >= k
    exactly, or returns None to escalate further.
    """
    def verdict(iv: Optional[IntervalReal]) -> Optional[int]:
        if iv is None:
            return None
        lo, k = (e.numerator // e.denominator for e in (iv.lo, iv.hi))
        if k != lo + 1:
            return lo if lo == k else None
        ge = at_least(k)
        return None if ge is None else k if ge else lo

    floor, _ = settle(producer, verdict, digits, "floor (value too close to an integer)")
    return floor


def _reference_c4(sys: GFunctionSystem, c4: IntervalReal,
                  digits: int) -> tuple[Optional[IntervalReal], bool]:
    """Closed-form cross-check of c4, available for the weight-2 polylog system.

    The chain collapses symbolically for that system (c6 = 2^{17/16} e^{187/3},
    c7 = 96 log(4 e^66)), giving 400593/16 + 1185019/(3 log 2) + 396 log 2.
    A discrepancy beyond 1% raises a flag instead of preferring either value.
    """
    is_li2 = (sys.N == 2 and sys.d == 2
              and sys.C == 1 and sys.D_poly.height() == 1
              and sys.Dgrowth_sym == (Fraction(1), Fraction(2)))
    if not is_li2:
        return None, False
    log2 = log2_enclosure(digits + 6)
    ref = (IntervalReal.point(Fraction(400593, 16))
           + Fraction(1185019, 3) / log2 + 396 * log2).round_sig(digits + 2)
    agree = (abs(c4 - ref).hi <= ref.lo / 100)
    return ref, not agree


def check_eqhyp(report: ConstantsReport, sys: GFunctionSystem,
                digits: int = DEFAULT_DIGITS) -> Optional[bool]:
    """Certified evaluation of the smallness hypothesis:

        2^{2(N+y)+(d-1)y} H^y (CD)^{(x+1)N/y} C^{N+dy} (C|a|/b)^{x+1-y} (bD)^{x+dy} beta < 1/2.

    Returns True (upper endpoint < 1/2), False (lower endpoint >= 1/2), or
    None when the enclosure still straddles 1/2 at the precision cap.
    """
    N, d = sys.N, sys.d
    y = report.y
    if y < Fraction(1, 8 * d):
        raise PreconditionError("eqhyp evaluation requires y >= 1/(8d)")
    if report.x is None or report.beta is None:
        raise PreconditionError("report has no schedule: eqhyp not evaluable")
    H = sys.D_poly.height()
    C = sys.C
    aa, b = abs(report.a), report.b
    c1a = (report.c1_sym[0] * aa, report.c1_sym[1])
    cd_sym = sys.CD_sym()
    dg_coef, dg_exp = sys.Dgrowth_sym

    def lhs_at(dg: int) -> IntervalReal:
        g = dg + 10
        # re-derive x at higher precision
        x = report.x if dg == digits else _schedule_x(b, c1a, g)
        one = IntervalReal.point(1)
        lhs = frac_pow(Fraction(2), 2 * N + (d + 1) * y, g)
        lhs = lhs * frac_pow(H, y, g) if H != 1 else lhs
        # (CD)^{(x+1)N/y}
        lhs = lhs * exp_interval((x + one) * Fraction(N) / y * log_epower(cd_sym, g), g)
        lhs = lhs * frac_pow(C, N + d * y, g) if C != 1 else lhs
        # (C|a|/b)^{x+1-y}, base in (0,1) so the log is negative
        base5 = C * Fraction(aa, b)
        lhs = lhs * exp_interval((x + 1 - y) * log_frac(base5, g), g)
        # (b*D)^{x+dy}
        lhs = lhs * exp_interval((x + d * y) * log_epower((b * dg_coef, dg_exp), g), g)
        return (lhs * report.beta).round_sig(g)

    verdict, _ = decide(lhs_at, lambda iv: iv.lt(Fraction(1, 2)), digits)
    return verdict
