from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import (
    IntervalReal,
    construct_xi,
    corollary_bound_check,
    eval_certified,
    iterate,
    replay_chain,
    resolve_system,
    scan_nearest,
    value_producer,
    verify_theorem1,
)
from gpade.pade import build_approximant
from gpade.errors import NoConvergentTailBound, PreconditionError
from gpade.intervals import width_digits
from gpade.verify import _settled_nearest

mpmath.mp.dps = 50


def test_eval_certified_width_contract(log1m, polylog2):
    for sys, j, z in [(log1m, 1, Fraction(1, 10)), (polylog2, 2, Fraction(1, 10)),
                      (polylog2, 1, Fraction(-1, 3))]:
        for digits in (8, 20, 40):
            width = Fraction(1, 10 ** digits)
            iv = eval_certified(sys, j, z, width)
            assert iv.width <= width


def test_eval_certified_against_mpmath(log1m, polylog2):
    iv = eval_certified(log1m, 1, Fraction(1, 10), Fraction(1, 10**30))
    got = Fraction(mpmath.nstr(mpmath.log(mpmath.mpf(9) / 10), 40))
    assert iv.lo - Fraction(1, 10**35) <= got <= iv.hi + Fraction(1, 10**35)

    iv2 = eval_certified(polylog2, 2, Fraction(1, 10), Fraction(1, 10**30))
    got2 = Fraction(mpmath.nstr(mpmath.polylog(2, mpmath.mpf(1) / 10), 40))
    assert iv2.lo - Fraction(1, 10**35) <= got2 <= iv2.hi + Fraction(1, 10**35)


def test_eval_certified_domain(log1m):
    with pytest.raises(NoConvergentTailBound):
        eval_certified(log1m, 1, Fraction(3, 2), Fraction(1, 100))
    with pytest.raises(PreconditionError):
        eval_certified(log1m, 1, Fraction(1, 2), Fraction(0))
    assert eval_certified(log1m, 1, Fraction(0), Fraction(1, 10)).width == 0
    assert eval_certified(log1m, 0, Fraction(1, 2), Fraction(1, 10**6)).lo <= 1


def test_value_producer_caches(log1m):
    a = value_producer(log1m, 1, Fraction(1, 10))
    b = value_producer(log1m, 1, Fraction(1, 10))
    assert a is b
    with pytest.raises(NoConvergentTailBound):
        value_producer(log1m, 1, Fraction(2))


def test_round_half_even():
    for x, n in [(Fraction(5, 2), 2), (Fraction(7, 2), 4), (Fraction(-1, 2), 0),
                 (Fraction(-3, 2), -2), (Fraction(11, 10), 1), (Fraction(19, 10), 2)]:
        assert _settled_nearest(IntervalReal.point(x)) == n


def test_scan_nearest_values(log1m, polylog2):
    # 10 log(9/10) = -1.0536 -> -1;   10^6 Li_2(1/10) = 102617.79 -> 102618
    assert scan_nearest(log1m, 1, 10, 1, 1) == -1
    assert scan_nearest(polylog2, 1, 10, 1, 6, j=2) == 102618
    # negative a goes through the sign-flipped system: 10 log(11/10) = 0.953
    assert scan_nearest(log1m, -1, 10, 1, 1) == 1


def test_construct_xi_witness(log1m):
    base = build_approximant(log1m, 3, 2, 2)
    fam = iterate(base, log1m, 3)
    w = construct_xi(fam, log1m, 1, 10, 1, 1, -1, 1)
    assert w.xi != 0
    assert w.divisible_by_bm
    assert w.xi % 10 == 0
    # the combination identity ties the fields together
    assert w.xi == w.n * w.denominator_scale * 10 ** (3 - 2) * w.V_k - w.B * 10 * w.U_jk


def test_construct_xi_needs_nondiagonal(log1m):
    base = build_approximant(log1m, 2, 2, 1)     # p = q: no b^m headroom
    fam = iterate(base, log1m, 2)
    with pytest.raises(PreconditionError):
        construct_xi(fam, log1m, 1, 10, 1, 1, -1, 1)


def test_construct_xi_scan_needs_lowest_terms(log1m):
    fam = iterate(build_approximant(log1m, 4, 2, 2), log1m, 3)
    with pytest.raises(PreconditionError, match="lowest terms"):
        construct_xi(fam, log1m, 2, 10, 8430, 1, -18811, 1)
    # with k given there is no scan, and b is taken as given
    assert construct_xi(fam, log1m, 2, 10, 8430, 1, -18811, 1, k=1).b == 10


def test_replay_chain_hand_instance(log1m):
    chain = replay_chain(log1m, 1, 10, 1, 1, -1, 1, (3, 2, 2))
    assert chain.all_certified
    assert chain.witness.divisible_by_bm
    assert 0 <= chain.k <= 2                     # ell0 + N for these parameters
    assert chain.distance_lower > 0
    # the distance bound must actually hold against the true value
    import mpmath as mp
    dist = abs(mp.log(mp.mpf(9) / 10) + mp.mpf(1) / 10)
    assert Fraction(mp.nstr(dist, 30)) >= chain.distance_lower


def test_replay_chain_polylog(polylog2):
    chain = replay_chain(polylog2, 1, 10, 1, 1, 1, 2, (5, 4, 2))
    assert chain.all_certified
    assert chain.witness.xi % 10 == 0


def test_verify_theorem1_report(log1m):
    rep = verify_theorem1(log1m, 1, 10, 1, 1, -1)
    assert rep.holds
    assert rep.status == "certified"
    assert rep.rhs_exponent > 10**4            # floor(c4 m) is huge by design
    assert rep.rhs < Fraction(1, 10**100)
    assert not rep.hypothesis_ok               # desk scale
    assert rep.lhs.lo >= rep.rhs


def test_verify_theorem1_property_mode(log1m):
    rep = verify_theorem1(log1m, 1, 10, 1, 1, -1, pqh=(3, 2, 2))
    assert rep.chain is not None
    assert rep.chain.all_certified
    # the chain is replayed exactly when (p, q, h) is given
    assert verify_theorem1(log1m, 1, 10, 1, 1, -1).chain is None


def test_verify_theorem1_negative_a(log1m):
    rep = verify_theorem1(log1m, -1, 10, 1, 2, 95)   # 100 log(11/10) = 95.31
    assert rep.a == -1
    assert rep.holds


def test_verify_theorem1_validation(log1m):
    with pytest.raises(PreconditionError):
        verify_theorem1(log1m, 0, 10, 1, 1, 0)
    with pytest.raises(PreconditionError):
        verify_theorem1(log1m, 11, 10, 1, 1, 0)      # |a/b| >= 1
    with pytest.raises(PreconditionError):
        verify_theorem1(log1m, 1, 10, 0, 1, 0)


def test_corollary_certified_and_violated(log1m):
    # crude n: distance ~ 4.6e-3 beats 10^-3
    ok = corollary_bound_check(log1m, 1, 10, 1, 2, -11, Fraction(1, 2))
    assert ok.status == "certified"
    assert ok.hyp_m_ok
    assert ok.hyp_b_ok is False                  # desk-scale b
    # sharp n: the first 5 digits of log(9/10) approximate too well for eps=1/20
    bad = corollary_bound_check(log1m, 1, 10, 1, 5, -10536, Fraction(1, 20))
    assert bad.status == "violated"


def test_corollary_validation(log1m):
    with pytest.raises(PreconditionError):
        corollary_bound_check(log1m, 1, 10, 1, 1, 0, Fraction(0))


def test_chain_instances_all_certified(log1m, polylog2):
    # one row per texture: positive/negative a, both systems
    rows = [
        (log1m, 1, 10, 1, 1, -1, (3, 2, 2), 1),
        (log1m, -1, 10, 1, 1, 1, (3, 2, 2), 1),
        (log1m, 3, 10, 1, 1, -4, (4, 3, 3), 1),
        (polylog2, 1, 1000, 1, 1, 1, (5, 4, 2), 2),
    ]
    for sys, a, b, B, m, n, pqh, j in rows:
        work = sys if a > 0 else sys.negated()
        chain = replay_chain(work, abs(a), b, B, m, n, j, pqh)
        assert chain.all_certified, (sys.name, a, b)
        assert chain.witness.xi % b ** m == 0


def _eval_certified_fraction(sys, j, z: Fraction, width: Fraction) -> IntervalReal:
    """The term-by-term Fraction partial sum that the power-sum kernel replaced."""
    if z == 0:
        return IntervalReal.point(sys.coefficient(j, 0))
    cz = sys.C * abs(z)
    target = width / 2
    tail = sys.C * cz / (1 - cz)
    M = 0
    while tail > target:
        tail *= cz
        M += 1
    total = Fraction(0)
    zpow = Fraction(1)
    for nn in range(M + 1):
        c = sys.coefficient(j, nn)
        if c:
            total += c * zpow
        zpow *= z
    iv = IntervalReal(total - tail, total + tail)
    return iv.round_out(max(1, width_digits(width / 4)))


_REFERENCE_SYSTEMS = {name: resolve_system(name)
                      for name in ("log1m", "polylog2", "polylog3", "binom:1/2")}
half_disk = st.integers(2, 10**4).flatmap(
    lambda d: st.builds(Fraction, st.integers(-(d // 2), d // 2), st.just(d)))


@given(st.sampled_from(sorted(_REFERENCE_SYSTEMS)), st.integers(0, 3), half_disk,
       st.integers(1, 400).map(lambda k: Fraction(1, 10 ** k)))
@example("polylog3", 3, Fraction(-1, 2), Fraction(1, 10 ** 400))
@example("binom:1/2", 1, Fraction(1, 10), Fraction(1, 10))
@example("log1m", 1, Fraction(0), Fraction(1, 10 ** 5))
@example("log1m", 1, Fraction(1, 2), Fraction(1, 2 ** 10))   # tail = width/2 exactly at M = 11
@settings(max_examples=40, deadline=None)
def test_eval_certified_equals_fraction_loop(name, j, z, width):
    sys = _REFERENCE_SYSTEMS[name]
    j = min(j, sys.N)
    assert eval_certified(sys, j, z, width) == _eval_certified_fraction(sys, j, z, width)
