from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
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
from gpade.polynomial import power_sum
from gpade.verify import _settled_nearest, _term_count

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
    # component 0 is the constant 1: no series enclosure is made for it, as value_producer says
    for j in (0, 2, -1):
        with pytest.raises(PreconditionError) as excinfo:
            eval_certified(log1m, j, Fraction(1, 2), Fraction(1, 10**6))
        assert str(excinfo.value) == (f"component {j} is not in 1..1 (component 0 is the "
                                      "constant 1, whose expansion is rational)")


def test_value_producer_returns_a_new_value(log1m):
    a = value_producer(log1m, 1, Fraction(1, 10))
    b = value_producer(log1m, 1, Fraction(1, 10))
    assert a is not b
    assert a.enclosure(40) == b.enclosure(40)
    with pytest.raises(NoConvergentTailBound):
        value_producer(log1m, 1, Fraction(2))
    # the producer is lazy, so both checks run when it is made
    with pytest.raises(PreconditionError):
        value_producer(log1m, 0, Fraction(1, 10))


def test_value_producer_takes_an_int_or_fraction_z():
    system = resolve_system("log1m")
    assert value_producer(system, 1, 0).enclosure(8) == IntervalReal.point(0)
    assert value_producer(system, 1, Fraction(2, 20)).name == "log1m:F_1(1/10)"
    assert value_producer(system, 1, Fraction(-1, 10)).name == "log1m:F_1(-1/10)"
    # the eager check: C|z| >= 1 raises before any enclosure is asked for
    with pytest.raises(NoConvergentTailBound):
        value_producer(system, 1, Fraction(1))
    with pytest.raises(NoConvergentTailBound):
        value_producer(system, 1, -2)


def test_reports_do_not_depend_on_earlier_calls():
    # a 200-digit verify on the same system object once left a refined value behind,
    # and a later Corollary check printed that value's 10^-100-wide enclosure
    fresh = resolve_system("log1m")
    want_cor = corollary_bound_check(fresh, 1, 10, 1, 2, -11, Fraction(1, 2)).lhs
    want_thm = verify_theorem1(fresh, 1, 10, 1, 2, -11).lhs
    used = resolve_system("log1m")
    verify_theorem1(used, 1, 10, 1, 2, -11, digits=200)
    assert corollary_bound_check(used, 1, 10, 1, 2, -11, Fraction(1, 2)).lhs == want_cor
    assert verify_theorem1(used, 1, 10, 1, 2, -11).lhs == want_thm
    assert want_cor.width < Fraction(1, 10 ** 30)


def test_round_half_even():
    for x, n in [(Fraction(5, 2), 2), (Fraction(7, 2), 4), (Fraction(-1, 2), 0),
                 (Fraction(-3, 2), -2), (Fraction(11, 10), 1), (Fraction(19, 10), 2)]:
        assert _settled_nearest(IntervalReal.point(x)) == n


def test_scan_nearest_values(log1m, polylog2):
    # 10 log(9/10) = -1.0536 -> -1;   10^6 Li_2(1/10) = 102617.79 -> 102618
    assert scan_nearest(log1m, 1, 10, 1, 1) == -1
    assert scan_nearest(polylog2, 1, 10, 1, 6, j=2) == 102618
    # negative a is evaluated at the signed point: 10 log(11/10) = 0.953
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


def test_hypothesis_ok_folds_in_hyp_m_ok(polylog2):
    # b = 10^400 meets the hypothesis on b, but m = 5 is far below c3 log b / log 2
    b = 10 ** 400
    n = scan_nearest(polylog2, 1, b, 1, 5)
    rep = verify_theorem1(polylog2, 1, b, 1, 5, n)
    assert rep.constants.hyp_b_ok is True and rep.constants.desk_scale is False
    assert rep.constants.hyp_m_ok is False
    assert rep.hypothesis_ok is False


@pytest.mark.parametrize("hyp_m_ok", [True, None, False])
def test_hypothesis_ok_is_a_tristate(polylog2, monkeypatch, hyp_m_ok):
    import dataclasses

    import gpade.verify
    original = gpade.verify.compute_constants
    monkeypatch.setattr(gpade.verify, "compute_constants", lambda *a, **kw: dataclasses.replace(
        original(*a, **kw), hyp_m_ok=hyp_m_ok))
    rep = verify_theorem1(polylog2, 1, 10 ** 400, 1, 5, 10 ** 2000)
    assert rep.hypothesis_ok is hyp_m_ok
    # desk scale, or an unmet hypothesis on b, makes it False whatever hyp_m_ok is
    assert verify_theorem1(polylog2, 1, 10, 1, 1, 0).hypothesis_ok is False


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
    # a = -1 reads log(11/10) at the signed point; every field pinned
    e32 = Fraction(1, 10 ** 33)
    for n, m, eps, rhs, status, lhs_lo in (
            (10, 2, Fraction(1, 2), Fraction(1, 1000), "certified",
             4689820195675139956047876719233 * e32),
            (9531, 5, Fraction(1, 20),
             Fraction(5623413251903490803949510397764812314682510430986916640816894237359,
                      10 ** 72), "violated", 179804324860043952123280763 * e32)):
        rep = corollary_bound_check(log1m, -1, 10, 1, m, n, eps)
        assert (rep.eps, rep.rhs, rep.status) == (eps, rhs, status)
        assert (rep.hyp_b_ok, rep.hyp_m_ok) == (False, True)
        assert (rep.lhs.lo, rep.lhs.hi) == (lhs_lo, lhs_lo + 4 * e32)
        exact = abs(mpmath.log(mpmath.mpf(11) / 10) - mpmath.mpf(n) / 10 ** m)
        assert mpmath.mpf(rep.lhs.lo.numerator) / rep.lhs.lo.denominator <= exact
        assert exact <= mpmath.mpf(rep.lhs.hi.numerator) / rep.lhs.hi.denominator


def test_corollary_validation(log1m):
    with pytest.raises(PreconditionError):
        corollary_bound_check(log1m, 1, 10, 1, 1, 0, Fraction(0))


def test_corollary_guarded_by_theorem1_checks(log1m):
    # b = 1 once looped forever in t = ceil(log_b B); B = 0 divided by zero
    for args in ((1, 1, 2, 1, 0), (1, 10, 0, 1, 0), (1, 10, 1, 0, 0), (0, 10, 1, 1, 0),
                 (10, 10, 1, 1, 0)):
        with pytest.raises(PreconditionError):
            corollary_bound_check(log1m, *args, Fraction(1, 2))


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


@given(st.sampled_from(sorted(_REFERENCE_SYSTEMS)), st.integers(1, 3), half_disk,
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


def _eval_certified_from_fractions(sys, j, z: Fraction, width: Fraction) -> IntervalReal:
    """The `eval_certified` body that normalized the sum and the tail as Fractions before
    building the interval, kept as the reference for the integer construction."""
    if z == 0:
        return IntervalReal.point(sys.coefficient(j, 0))
    cz = sys.C * abs(z)
    tail, target = sys.C * cz / (1 - cz), width / 2
    tn, td, M = tail.numerator * target.denominator, tail.denominator * target.numerator, 0
    while tn > td:
        tn, td, M = tn * cz.numerator, td * cz.denominator, M + 1
    tail = Fraction(tn, td) * target
    total = Fraction(*power_sum((sys.coefficient(j, n) for n in range(M + 1)), z))
    iv = IntervalReal(total - tail, total + tail)
    return iv.round_out(max(1, width_digits(width / 4)))


_TRIPLE_SYSTEMS = {name: resolve_system(name)
                   for name in ("log1m", "polylog2", "polylog3", "binom:3/2")}


@st.composite
def _half_radius_points(draw):
    """(system, j, z) with 1 <= j <= N and C|z| <= 1/2, z of either sign or 0."""
    name = draw(st.sampled_from(sorted(_TRIPLE_SYSTEMS)))
    sys = _TRIPLE_SYSTEMS[name]
    d = draw(st.integers(2, 10**4))
    r = d // (2 * sys.C)
    return name, draw(st.integers(1, sys.N)), Fraction(draw(st.integers(-r, r)), d)


@given(_half_radius_points(), st.integers(1, 300).map(lambda k: Fraction(1, 10 ** k)))
@example(("binom:3/2", 1, Fraction(-1, 16)), Fraction(1, 10 ** 300))
@example(("binom:3/2", 1, Fraction(1, 17)), Fraction(1, 10))
@example(("polylog3", 3, Fraction(1, 2)), Fraction(1, 10 ** 300))
@example(("polylog2", 2, Fraction(-1, 2)), Fraction(1, 10))
@example(("log1m", 1, Fraction(0)), Fraction(1, 10 ** 300))
@example(("polylog2", 1, Fraction(-2, 7)), Fraction(3, 7 * 10 ** 40))   # target numerator 3
@settings(max_examples=60, deadline=None)
def test_eval_certified_triples_equal_the_fraction_construction(point, width):
    # the stored (lo, hi, den), not only the values: round_out leaves no representation choice
    name, j, z = point
    sys = _TRIPLE_SYSTEMS[name]
    got, want = eval_certified(sys, j, z, width), _eval_certified_from_fractions(sys, j, z, width)
    assert (got._lo, got._hi, got._den) == (want._lo, want._hi, want._den)


@given(st.sampled_from(sorted(_REFERENCE_SYSTEMS)), st.integers(1, 3), half_disk,
       st.integers(1, 300).map(lambda k: Fraction(1, 10 ** k)))
@example("polylog3", 3, Fraction(1, 2), Fraction(1, 10 ** 300))
@example("binom:1/2", 1, Fraction(-1, 10), Fraction(1, 10))
@settings(max_examples=40, deadline=None)
def test_eval_certified_at_minus_z_equals_the_negated_system_at_z(name, j, z, width):
    # c_n (-|z|)^n and ((-1)^n c_n) |z|^n are the same integers, so the stored triples agree
    sys = _REFERENCE_SYSTEMS[name]
    j = min(j, sys.N)
    got = eval_certified(sys, j, -abs(z), width)
    want = eval_certified(sys.negated(), j, abs(z), width)
    assert (got._lo, got._hi, got._den) == (want._lo, want._hi, want._den)


_BOUND_SYSTEMS = {name: resolve_system(name)
                  for name in ("log1m", "polylog2", "polylog3", "binom:1/2", "binom:7/4")}


def _scanned_term_count(sys, z: Fraction, width: Fraction) -> tuple[int, int, int]:
    """The geometric scan that `_term_count` replaced, kept verbatim: one big
    multiplication per term, from M = 0."""
    cz = sys.C * abs(z)
    tail, target = sys.C * cz / (1 - cz), width / 2
    tn, td, M = tail.numerator * target.denominator, tail.denominator * target.numerator, 0
    while tn > td:
        tn, td, M = tn * cz.numerator, td * cz.denominator, M + 1
    return M, tn, td


@st.composite
def _inside_points(draw, v_max: int):
    """(system name, z) with C|z| = u/v < 1, v <= v_max, z of either sign."""
    name = draw(st.sampled_from(sorted(_BOUND_SYSTEMS)))
    v = draw(st.integers(2, v_max))
    cz = Fraction(draw(st.integers(1, v - 1)), v)
    return name, draw(st.sampled_from((1, -1))) * cz / _BOUND_SYSTEMS[name].C


@given(_inside_points(10 ** 4), st.integers(1, 9), st.integers(0, 3000))
@example(("log1m", Fraction(1, 2)), 1, 0)            # the bound is exact: M = 1 from 0
@example(("polylog2", Fraction(1, 10)), 1, 100)      # M = 100 from 98
@example(("log1m", Fraction(16, 19)), 1, 0)          # bound without its -1: 16 > M = 14
@example(("log1m", Fraction(-99, 100)), 1, 40)       # 5,243 unit steps, from 4,448 to 9,691
@example(("binom:7/4", Fraction(99, 800)), 1, 40)    # C = 8, C|z| = 99/100
@example(("log1m", Fraction(1, 10)), 1, 3000)
@example(("polylog3", Fraction(-1, 3)), 1, 3000)
@settings(max_examples=80, deadline=None)
def test_term_count_is_the_scanned_count(point, w, k):
    name, z = point
    sys, width = _BOUND_SYSTEMS[name], Fraction(w, 10 ** k)
    cz = sys.C * abs(z)
    u, v = cz.numerator, cz.denominator
    # M <= bits v/(v - u) + 1, as log2(tn/td) < bits and log2(v/u) > (v - u)/v; the scan
    # makes M big multiplications, so draws past 20,000 terms are left out
    bits = 4 * k + (sys.C.numerator * v).bit_length() - (v - u).bit_length() + 2
    assume(bits * v <= 20_000 * (v - u))
    tail, target = sys.C * cz / (1 - cz), width / 2
    got = _term_count(tail.numerator * target.denominator, tail.denominator * target.numerator, cz)
    assert got == _scanned_term_count(sys, z, width)


def test_eval_certified_width_exceeds_the_request():
    # the tail takes width/2 a side and outward rounding adds up to two grid steps of
    # at most width/4 each: the bound that holds is < 3/2 width, not width
    width = Fraction(1, 10 ** 10)
    assert eval_certified(_BOUND_SYSTEMS["polylog2"], 2, Fraction(3, 10), width).width \
        == Fraction(11, 10) * width
    assert eval_certified(_BOUND_SYSTEMS["log1m"], 1, Fraction(-99, 100), Fraction(1)) \
        == IntervalReal(Fraction(1, 10), Fraction(6, 5))


@given(_inside_points(100), st.integers(1, 3), st.integers(0, 39))
@example(("polylog2", Fraction(3, 10)), 2, 10)
@example(("log1m", Fraction(-99, 100)), 1, 0)
@settings(max_examples=40, deadline=None)
def test_eval_certified_width_is_under_three_halves_of_the_request(point, j, d):
    name, z = point
    sys, width = _BOUND_SYSTEMS[name], Fraction(1, 10 ** d)
    assert eval_certified(sys, min(j, sys.N), z, width).width < Fraction(3, 2) * width
