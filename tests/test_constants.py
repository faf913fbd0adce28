import math
from fractions import Fraction

import mpmath
import pytest

from gpade import (
    ConstantsConfig,
    IntervalReal,
    bound_height_Qk,
    bound_remainder,
    build_approximant,
    compute_constants,
    exp_frac,
    frac_pow,
    iterate,
    resolve_system,
)
from gpade.catalog import verify_growth
from gpade.constants import _floor_certified
from gpade.errors import (HypothesisUnmetError, InsufficientPrecisionError,
                          PreconditionError)


def li2_report(polylog2, **kw):
    return compute_constants(polylog2, 1, 10, 1, 1, allow_desk_scale=True, **kw)


def test_schedule_at_precision_zero_equals_precision_64(polylog2):
    # a start of 0 digits once never escalated, so the floor of h hung
    at = {dg: compute_constants(polylog2, 1, 10 ** 400, 1, 100, digits=dg) for dg in (0, 64)}
    assert (at[0].h, at[0].p, at[0].q) == (at[64].h, at[64].p, at[64].q) == (64, 291, 133)


def test_c1_symbolic_form(polylog2):
    r = li2_report(polylog2)
    assert r.c1_sym == (Fraction(4), Fraction(66))
    # numeric enclosure agrees with 4 e^66
    ref = 4 * exp_frac(Fraction(66), 40)
    assert r.c1.lo <= ref.hi and ref.lo <= r.c1.hi


def test_c2_value(polylog2):
    assert li2_report(polylog2).c2 == 12


def test_c4_value_and_bound(polylog2):
    r = li2_report(polylog2)
    assert Fraction("595185.22") < r.c4.lo
    assert r.c4.hi < Fraction("595185.23")
    threshold = frac_pow(Fraction(10), Fraction(289, 50), 40)   # 10^5.78
    assert r.c4.hi < threshold.lo
    assert not r.c4_discrepancy
    assert r.c4_reference is not None
    assert r.c4.lo <= r.c4_reference.hi and r.c4_reference.lo <= r.c4.hi


def test_c6_closed_form(polylog2):
    r = li2_report(polylog2)
    ref = frac_pow(Fraction(2), Fraction(17, 16), 40) * exp_frac(Fraction(187, 3), 40)
    assert r.c6.lo <= ref.hi and ref.lo <= r.c6.hi


def test_c3_c5_and_config(polylog2):
    r = li2_report(polylog2)
    assert r.c5 == 256                      # 8 N^2 d^3 dominates the defaults
    assert r.c3 == Fraction(256, 3)
    big = li2_report(polylog2, config=ConstantsConfig(h0=Fraction(1000)))
    assert big.c5 == 1000
    assert big.c3 == Fraction(1000, 3)
    # large t takes over through the 4t term
    r_t = compute_constants(polylog2, 1, 10, 100, 1, allow_desk_scale=True)
    assert r_t.c5 == 400


def test_y_depends_only_on_d(polylog2, log1m):
    assert li2_report(polylog2).y == Fraction(1, 12)
    r1 = compute_constants(log1m, 1, 10, 1, 1, allow_desk_scale=True)
    assert r1.y == Fraction(1, 8)


def test_desk_scale_flags(polylog2):
    r = li2_report(polylog2)
    assert r.desk_scale
    assert r.h is None and r.p is None and r.q is None
    assert r.eqhyp_status == "not-evaluated"
    assert not r.hyp_b_ok
    assert r.hyp_m_ok is False


def test_strict_mode_raises_at_desk_scale(polylog2):
    with pytest.raises(HypothesisUnmetError):
        compute_constants(polylog2, 1, 10, 1, 1)


def test_input_validation(polylog2):
    for bad in [(0, 10, 1, 1), (1, 1, 1, 1), (1, 10, -1, 1), (1, 10, 1, 0)]:
        with pytest.raises(PreconditionError):
            compute_constants(polylog2, *bad, allow_desk_scale=True)


def test_schedule_at_astronomical_b(log1m):
    r = compute_constants(log1m, 1, 10**400, 1, 1200)
    assert Fraction("29.559276") <= r.x.lo and r.x.hi <= Fraction("29.559277")
    assert (r.h, r.p, r.q) == (43, 1271, 48)
    assert r.hyp_b_ok
    assert not r.desk_scale
    assert r.eqhyp_status == "certified-true"
    # schedule consistency: p ~ x h, q = floor((N + y) h), p >= q + 1
    assert r.p >= r.q
    assert r.q == int((r.N + r.y) * r.h)
    # beta = b^{t/h} is a modest constant by design
    assert r.beta.lo > 1
    assert r.beta.hi < 10**10


def test_eqhyp_certified_false_with_large_t(log1m):
    r = compute_constants(log1m, 1, 10**28, 40, 1)
    assert (r.h, r.p, r.q) == (14, 28, 15)
    assert r.eqhyp_status == "certified-false"
    # same schedule with t=1 satisfies the inequality
    r2 = compute_constants(log1m, 1, 10**28, 1, 1)
    assert r2.eqhyp_status == "certified-true"
    # x exceeds N+1 (schedule feasible) but not N+2 (smallness hypothesis)
    assert r2.x.lo > 2 and r2.x.hi < 3
    assert not r2.hyp_b_ok


def test_floor_certified_escalates():
    # enclosures shrink toward 2.5: floor decided once width < 1/2
    def producer(dg):
        eps = Fraction(1, dg)
        return IntervalReal(Fraction(5, 2) - eps, Fraction(5, 2) + eps)
    assert _floor_certified(producer, lambda k: None, 2) == 2


def test_floor_certified_gives_up_on_integers():
    # enclosures always straddle 3, so the floor is genuinely undecidable
    def producer(dg):
        eps = Fraction(1, 10) ** dg
        return IntervalReal(3 - eps, 3 + eps)
    with pytest.raises(InsufficientPrecisionError):
        _floor_certified(producer, lambda k: None, 4)


def test_floor_certified_decides_a_straddled_integer_exactly():
    def producer(dg):
        eps = Fraction(1, 10) ** dg
        return IntervalReal(3 - eps, 3 + eps)
    assert _floor_certified(producer, lambda k: k == 3, 4) == 3
    assert _floor_certified(producer, lambda k: False, 4) == 2


def test_floor_certified_escalates_past_missing_enclosures():
    # no enclosure below 16 digits (a divisor still holding 0), then [5/2, 5/2]
    def producer(dg):
        return None if dg < 16 else IntervalReal.point(Fraction(5, 2))
    assert _floor_certified(producer, lambda k: None, 4) == 2
    with pytest.raises(InsufficientPrecisionError):
        _floor_certified(lambda dg: None, lambda k: None, 4)


def test_height_bound_requires_verified_growth():
    sysf = resolve_system("log1m")
    approx = build_approximant(sysf, 70, 2, 2)
    with pytest.raises(PreconditionError):
        bound_height_Qk(approx, sysf, 0)
    verify_growth(sysf, 72)
    assert bound_height_Qk(approx, sysf, 0) > 0


def test_height_bound_dominates_iterates(log1m, polylog2):
    for sys, (p, q, h) in [(log1m, (4, 3, 2)), (polylog2, (6, 4, 2))]:
        base = build_approximant(sys, p, q, h)
        fam = iterate(base, sys, 2)
        for k in range(3):
            bound = bound_height_Qk(base, sys, k)
            assert fam.Qk[k].height() <= bound


@pytest.mark.parametrize("spec, pqh", [("log1m", (4, 3, 2)), ("polylog2", (6, 4, 2)),
                                       ("binom:1/2", (5, 3, 2)), ("polylog2", (4, 3, 0))])
def test_height_bound_is_tight(spec, pqh):
    # within 10^-20 of 2^{2q+(d-1)k+1} H^k (q (CD)^{p+h+1})^{Nh/(q+1-Nh)} and never below it
    sys = resolve_system(spec)
    p, q, h = pqh
    approx = build_approximant(sys, p, q, h)
    coef, e_exp = sys.CD_sym()
    Nh = sys.N * h
    with mpmath.workdps(60):
        def mp(f):
            return mpmath.mpf(f.numerator) / f.denominator
        cd = mp(coef) * mpmath.exp(mp(e_exp))
        siegel = (q * cd ** (p + h + 1)) ** (mpmath.mpf(Nh) / (q + 1 - Nh))
        for k in range(3):
            exact = 2 ** (2 * q + (sys.d - 1) * k + 1) * mp(sys.D_poly.height()) ** k * siegel
            bound = mp(bound_height_Qk(approx, sys, k))
            assert exact <= bound <= exact * (1 + mpmath.mpf(10) ** -20), (spec, pqh, k)


def test_remainder_bound_preconditions(log1m):
    base = build_approximant(log1m, 4, 3, 2)
    with pytest.raises(PreconditionError):
        bound_remainder(base, log1m, 0, Fraction(3, 2))    # C|z| >= 1
    assert bound_remainder(base, log1m, 0, Fraction(0)) == 0
    fam = iterate(base, log1m, 1)
    with pytest.raises(PreconditionError):
        bound_remainder(base, log1m, 1, Fraction(1, 3))    # k>0 needs the family
    assert bound_remainder(fam, log1m, 1, Fraction(1, 3)) > 0


def test_remainder_bound_dominates_series_value(log1m):
    from gpade import eval_certified
    base = build_approximant(log1m, 4, 3, 2)
    fam = iterate(base, log1m, 1)
    for k in (0, 1):
        for z in (Fraction(1, 3), Fraction(-1, 10)):
            bound = bound_remainder(fam, log1m, k, z)
            F = eval_certified(log1m, 1, z, Fraction(1, 10**30))
            actual = abs(fam.Q(k)(z) * F - IntervalReal.point(fam.P(1, k)(z)))
            assert actual.hi <= bound


def _fraction_bound_remainder(fam, sys, k, z, Hk=None):
    """The Fraction formula that the integer `bound_remainder` replaced, kept as the reference."""
    p, q, h, d = fam.base.p, fam.base.q, fam.base.h, sys.d
    cz = sys.C * abs(Fraction(z))
    Hk = fam.Qk[k].height() if Hk is None else Hk
    if cz == 0:
        return Fraction(0)
    expo = p + h + 1 - k
    return (Hk * (q + k * (d - 1) + 1) * max(Fraction(1), sys.C) ** (q + k * (d - 1))
            * cz ** expo / (1 - cz))


def test_bound_remainder_equals_the_fraction_formula_on_the_suite_grid():
    from gpade.acceptance import GRID_SYSTEMS, Z_POINTS, grid
    systems = {arg: resolve_system(arg) for arg, _ in GRID_SYSTEMS}
    cells = 0
    for arg, p, q, h in grid(quick=False):
        system = systems[arg]
        fam = iterate(build_approximant(system, p, q, h), system, max(system.N, h // system.d))
        for k in range(h // system.d + 1):
            for z in Z_POINTS:
                got = bound_remainder(fam, system, k, z)
                assert got == _fraction_bound_remainder(fam, system, k, z), (arg, p, q, h, k, z)
                cells += 1
    assert cells == 5425      # every call `gpade suite` makes


def test_bound_remainder_equals_the_fraction_formula_with_c_above_one(monkeypatch):
    # C = 8 > 1 takes the max(1, C) branch
    system = resolve_system("binom:3/2")
    assert system.C == 8
    points = (Fraction(1, 10), Fraction(-1, 9), Fraction(3, 25), Fraction(1, 100), 0)
    for p, q, h in [(3, 2, 1), (4, 3, 2), (5, 2, 2)]:
        fam = iterate(build_approximant(system, p, q, h), system, p + h + 3)
        for k in range(p + h + 4):
            for z in points:
                assert bound_remainder(fam, system, k, z) == _fraction_bound_remainder(
                    fam, system, k, z), (p, q, h, k, z)
    # past k = p + h + 1 the exponent of C|z| is negative; Q_k vanishes there on these
    # shapes, so a nonzero height stands in for it
    import gpade.constants
    monkeypatch.setattr(gpade.constants, "_height_Qk", lambda fam, k: Fraction(7, 3))
    for k in range(p + h + 4):
        for z in points[:-1]:
            assert bound_remainder(fam, system, k, z) == _fraction_bound_remainder(
                fam, system, k, z, Fraction(7, 3)), (k, z)


BINOM_HALF_D4 = "family binom_power\nparam alpha 1/2\nDgrowth 4\n"


def test_schedule_decided_exactly_when_x_straddles():
    # chi = 2^21 here, so x = log b / (3 log chi) equals N+1 = 2 exactly at
    # b = 2^126; x > N+1 is decided as b > chi^6 in integers, not by escalation
    from gpade import parse_system
    sysf = parse_system(BINOM_HALF_D4)
    rep = compute_constants(sysf, 1, 2 ** 126, 0, 1, digits=64, allow_desk_scale=True)
    assert rep.x.lo < 2 < rep.x.hi
    assert rep.digits == 64
    assert rep.desk_scale and rep.h is None
    with pytest.raises(HypothesisUnmetError):
        compute_constants(sysf, 1, 2 ** 126, 0, 1, digits=64)


def _schedule_oracle(b, m, N, d):
    """x > N+1, x > N+2 and (h, p, q) for c1 |a| = 2^21, by mpmath at 200 digits.

    x = log2(b)/63 is rational at b = 2^e, so the thresholds of the sweep are
    hit exactly there: a value within 10^-150 of an integer is that integer.
    Every other value of the sweep lies more than 10^-100 from one.
    """
    import mpmath
    with mpmath.workdps(200):
        tiny, far = mpmath.mpf(10) ** -150, mpmath.mpf(10) ** -100

        def exact(v):
            n = mpmath.nint(v)
            if abs(v - n) < tiny:
                return int(n)
            assert abs(v - n) > far, "too close to an integer for the oracle"
            return v

        def floor(v):
            return int(mpmath.floor(exact(v)))

        x = mpmath.log(b, 2) / 63
        above = [exact(x - n) > 0 for n in (N + 1, N + 2)]
        if not above[0]:
            return above, None
        h = floor(m / (x - (N + 1)))
        if h < 1:
            return above, (h, None, None)
        return above, (h, floor(x * h), math.floor((N + Fraction(1, 4 * (d + 1))) * h))


def _sweep_exponents(m):
    # x > N+1 and x > N+2 at 2^126 and 2^189; h = k exactly at 2^{126 + 63m/k}
    return sorted({126, 189} | {126 + 63 * m // k for k in range(1, 63 * m + 1)
                                if (63 * m) % k == 0})


@pytest.mark.parametrize("m,e", [(m, e) for m in (1, 2) for e in _sweep_exponents(m)])
def test_schedule_threshold_sweep(m, e):
    # b = T - 1, T, T + 1 at every threshold T = 2^e of the binom alpha = 1/2, Dgrowth 4
    # system, t in {0, 1}, strict and desk-scale: a report whose h, p, q match the
    # oracle, HypothesisUnmetError (strict only) or InsufficientPrecisionError (beta)
    import time

    from gpade import parse_system
    from gpade.intervals import PRECISION_CAP
    sysf = parse_system(BINOM_HALF_D4)
    for b in (2 ** e - 1, 2 ** e, 2 ** e + 1):
        (above_n1, above_n2), sched = _schedule_oracle(b, m, sysf.N, sysf.d)
        for t in (0, 1):
            for desk in (False, True):
                t0 = time.monotonic()
                try:
                    rep = compute_constants(sysf, 1, b, t, m, digits=16, allow_desk_scale=desk)
                except HypothesisUnmetError:
                    assert not desk and not above_n1
                    continue
                except InsufficientPrecisionError as exc:
                    # beta = b^{1/h} would need h (16 + 2) digits, over 4x the cap
                    assert "beta" in str(exc)
                    assert t == 1 and sched[0] * 18 > 4 * PRECISION_CAP.get()
                    continue
                finally:
                    assert time.monotonic() - t0 < 5, (b, t, m, desk)
                assert rep.c1_sym == (2 ** 21, 0)
                assert rep.hyp_b_ok is above_n2
                assert rep.desk_scale is not above_n1
                assert (None if rep.h is None else (rep.h, rep.p, rep.q)) == sched


@pytest.mark.parametrize("name", ["log1m", "polylog2", "binom:3/2"])
def test_constants_do_not_depend_on_the_sign(name):
    # callers pass a signed a to the unreduced system: every field but a and the name
    # must equal those of |a| on the negated system
    from dataclasses import fields

    system = resolve_system(name)
    cases = [(1, 10, 1, 1), (3, 10, 0, 2), (2, 7, Fraction(3, 2), 5)]
    if name == "log1m":
        cases.append((1, 10 ** 28, 1, 1))
    for a, b, t, m in cases:
        signed = compute_constants(system, -a, b, t, m, allow_desk_scale=True)
        reduced = compute_constants(system.negated(), a, b, t, m, allow_desk_scale=True)
        assert (signed.a, reduced.a) == (-a, a)
        assert signed.desk_scale is (b < 10 ** 28)
        for f in fields(signed):
            if f.name not in ("a", "system_name"):
                assert getattr(signed, f.name) == getattr(reduced, f.name), (a, b, t, m, f.name)
