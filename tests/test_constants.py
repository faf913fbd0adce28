from fractions import Fraction

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
)
from gpade.catalog import builtin, verify_growth
from gpade.constants import _floor_certified
from gpade.errors import (HypothesisUnmetError, InsufficientPrecisionError,
                          PreconditionError)


def li2_report(polylog2, **kw):
    return compute_constants(polylog2, 1, 10, 1, 1, allow_desk_scale=True, **kw)


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


def test_height_bound_requires_verified_growth():
    sysf = builtin("log1m")
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
