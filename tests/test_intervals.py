from fractions import Fraction
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import CertifiedReal, IntervalReal, frac_nth_root, frac_pow, inth_root_floor
from gpade.errors import InsufficientPrecisionError, PreconditionError
from gpade.intervals import (DEFAULT_DIGIT_CAP, FIXED_GUARD, PRECISION_CAP, _decimal_digits,
                             decide, precision_cap, round_fixed, series_walk, settle,
                             width_digits)
from test_rounding_equivalence import round_down, round_up

fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 25))


@st.composite
def intervals(draw):
    a = draw(fractions)
    b = draw(fractions)
    return IntervalReal(min(a, b), max(a, b))


def test_endpoint_order_enforced():
    with pytest.raises(PreconditionError):
        IntervalReal(1, 0)


def test_point_and_width():
    iv = IntervalReal.point(Fraction(1, 3))
    assert iv.width == 0
    assert iv.midpoint() == Fraction(1, 3)
    assert Fraction(1, 3) in iv


def test_containment_of_intervals():
    outer = IntervalReal(0, 1)
    assert IntervalReal(Fraction(1, 4), Fraction(1, 2)) in outer
    assert IntervalReal(Fraction(1, 2), 2) not in outer


def test_division_by_zero_straddling_interval():
    with pytest.raises(PreconditionError):
        IntervalReal(1, 2) / IntervalReal(-1, 1)


def test_abs_straddling():
    assert abs(IntervalReal(-3, 2)) == IntervalReal(0, 3)
    assert abs(IntervalReal(-3, -1)) == IntervalReal(1, 3)
    assert abs(IntervalReal(1, 3)) == IntervalReal(1, 3)


def test_intersect_disjoint_raises():
    with pytest.raises(PreconditionError):
        IntervalReal(0, 1).intersect(IntervalReal(2, 3))


def test_certain_comparisons():
    # every point of the left against every point of the right:
    # True / False when all pairs agree, None when they do not
    a, b = IntervalReal(0, 1), IntervalReal(2, 3)
    assert (a.lt(b), a.le(b), a.ge(b)) == (True, True, False)
    assert (b.lt(a), b.le(a), b.ge(a)) == (False, False, True)
    overlap = IntervalReal(Fraction(1, 2), 2)
    assert (a.lt(overlap), a.le(overlap), a.ge(overlap)) == (None, None, None)
    # touching endpoints: [0,1] vs [1,2] share the pair 1 = 1, so a <= touch and
    # touch >= a hold for every pair, touch < a for none, a < touch for some
    touch = IntervalReal(1, 2)
    assert (a.lt(touch), a.le(touch), a.ge(touch)) == (None, True, None)
    assert (touch.lt(a), touch.le(a), touch.ge(a)) == (False, None, True)
    # a point against itself and rational operands
    one = IntervalReal.point(1)
    assert (one.lt(1), one.le(1), one.ge(1)) == (False, True, True)
    assert (a.lt(Fraction(3, 2)), a.ge(-1), a.le(Fraction(1, 2))) == (True, True, None)


def test_round_out_never_narrows():
    iv = IntervalReal(Fraction(1, 3), Fraction(2, 3))
    r = iv.round_out(4)
    assert r.lo <= iv.lo and iv.hi <= r.hi
    assert r.lo == Fraction(3333, 10000)
    assert r.hi == Fraction(6667, 10000)


def test_decimal_str():
    assert IntervalReal(Fraction(1, 3), Fraction(1, 3)).decimal_str(4) == "0.3333..0.3334"


def test_pow_int_negative_exponent():
    iv = IntervalReal(2, 3).pow_int(-2)
    assert Fraction(1, 9) == iv.lo
    assert Fraction(1, 4) == iv.hi


@given(intervals(), intervals(), fractions, fractions)
@settings(max_examples=150)
def test_arithmetic_encloses_pointwise(a, b, xa, xb):
    # clamp sample points into the operand intervals
    x = min(max(xa, a.lo), a.hi)
    y = min(max(xb, b.lo), b.hi)
    assert x + y in a + b
    assert x - y in a - b
    assert x * y in a * b
    if not (b.lo <= 0 <= b.hi):
        assert x / y in a / b


@given(intervals(), st.integers(0, 6))
@settings(max_examples=100)
def test_pow_int_encloses_midpoint_power(iv, k):
    assert iv.midpoint() ** k in iv.pow_int(k)


@given(intervals(), st.integers(1, 8))
@settings(max_examples=100)
def test_round_sig_contains(iv, sig):
    assert iv in iv.round_sig(sig)


def _four_product_mul(x, y):
    """The interval product that multiplication by signs replaced, kept as the reference."""
    products = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return IntervalReal(min(products), max(products))


# every sign pattern: points (negative, zero, positive), zero endpoints, straddling
SIGN_PATTERNS = [IntervalReal.point(Fraction(-3, 2)), IntervalReal.point(0),
                 IntervalReal.point(Fraction(5, 7)), IntervalReal(0, 2), IntervalReal(-2, 0),
                 IntervalReal(Fraction(1, 3), 4), IntervalReal(-4, Fraction(-1, 3)),
                 IntervalReal(-1, Fraction(5, 2)), IntervalReal(Fraction(-5, 2), 1)]


@pytest.mark.parametrize("a", SIGN_PATTERNS)
@pytest.mark.parametrize("b", SIGN_PATTERNS)
def test_mul_equals_four_products_by_sign_pattern(a, b):
    expected = _four_product_mul(a, b)
    assert a * b == expected
    if b.lo == b.hi:
        assert a * b.lo == expected and b.lo * a == expected


@given(st.one_of(intervals(), fractions.map(IntervalReal.point)),
       st.one_of(intervals(), fractions.map(IntervalReal.point)))
@settings(max_examples=200)
def test_mul_equals_four_products(a, b):
    assert a * b == _four_product_mul(a, b)


def _width_digits_loop(width):
    """The Fraction loop that the integer `width_digits` replaced, kept as the reference."""
    d, w = 0, Fraction(1)
    while w > width:
        w /= 10
        d += 1
    return d


@given(st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**60)))
@settings(max_examples=200)
def test_width_digits_equals_the_loop(width):
    assert width_digits(width) == _width_digits_loop(width)


def test_width_digits_at_powers_of_ten_and_extremes():
    for k in range(0, 60):
        for w in (Fraction(1, 10**k), Fraction(1, 10**k) + Fraction(1, 10**(k + 70)),
                  Fraction(1, 10**k) - Fraction(1, 10**(k + 70)), Fraction(10**k)):
            assert width_digits(w) == _width_digits_loop(w)
    for w in (Fraction(1), Fraction(7, 2), Fraction(10**30, 3)):
        assert width_digits(w) == 0
    assert width_digits(Fraction(1, 10**3000)) == _width_digits_loop(Fraction(1, 10**3000)) == 3000
    with pytest.raises(PreconditionError):
        width_digits(Fraction(0))


def _pow_int_loop(iv, k, sig=None):
    """The `pow_int` loop that also squared once past the top bit of k, kept as the reference."""
    result, base = IntervalReal.point(1), iv
    while k:
        if k & 1:
            result = _four_product_mul(result, base)
            if sig is not None:
                result = result.round_sig(sig)
        base = _four_product_mul(base, base)
        if sig is not None:
            base = base.round_sig(sig)
        k >>= 1
    return result


@pytest.mark.parametrize("sig", [None, 6])
@pytest.mark.parametrize("iv", [IntervalReal(Fraction(3, 2), Fraction(8, 5)),
                                IntervalReal(Fraction(-7, 5), Fraction(-4, 3)),
                                IntervalReal(Fraction(-1, 2), Fraction(2, 3)),
                                IntervalReal.point(Fraction(-5, 3)), IntervalReal(0, Fraction(9, 7))])
def test_pow_int_equals_the_loop(iv, sig):
    for k in range(41):
        assert iv.pow_int(k, sig) == _pow_int_loop(iv, k, sig)


def test_decimal_digits_matches_str():
    for n in [0, 1, 9, 10, 99, 100, 10**50 - 1, 10**50, 7**123]:
        assert _decimal_digits(n) == len(str(abs(n)))
        assert _decimal_digits(-n) == len(str(abs(n)))


def test_decimal_digits_on_both_sides_of_every_power_of_ten():
    # the count steps one power of ten down from an estimate that is never too low
    assert _decimal_digits(0) == 1
    for k in range(2000):
        for n in (10 ** k - 1, 10 ** k, 10 ** k + 1):
            assert _decimal_digits(n) == _decimal_digits(-n) == len(str(n))


def test_decimal_digits_beyond_str_cap():
    # counts digits of integers too large for str() under the default limit
    n = 10 ** 6000 + 12345
    assert _decimal_digits(n) == 6001


@given(st.integers(0, 10**24), st.integers(1, 7))
@settings(max_examples=150)
def test_inth_root_floor_bracket(x, n):
    r = inth_root_floor(x, n)
    assert r ** n <= x < (r + 1) ** n


def test_inth_root_floor_exact_cube():
    assert inth_root_floor(27, 3) == 3
    assert inth_root_floor(26, 3) == 2
    with pytest.raises(PreconditionError):
        inth_root_floor(-1, 2)


def test_round_down_up_bracket():
    f = Fraction(1, 7)
    assert round_down(f, 3) == Fraction(142, 1000)
    assert round_up(f, 3) == Fraction(143, 1000)
    assert round_down(Fraction(1, 4), 2) == round_up(Fraction(1, 4), 2) == Fraction(1, 4)


def test_frac_nth_root_sqrt2():
    iv = frac_nth_root(Fraction(2), 2, 12)
    assert iv.width <= Fraction(1, 10**12)
    assert iv.lo ** 2 <= 2 <= iv.hi ** 2


def test_frac_nth_root_exact():
    assert frac_nth_root(Fraction(9, 4), 2, 6) == IntervalReal.point(Fraction(3, 2))


@given(st.builds(Fraction, st.integers(1, 400), st.integers(1, 50)),
       st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)))
@settings(max_examples=80)
def test_frac_pow_encloses(f, e):
    if e == 0:
        return
    iv = frac_pow(f, e, 20)
    # certificate: lo^den <= f^num <= hi^den  (with orientation from sign of lo)
    num, den = e.numerator, e.denominator
    target = f ** num
    assert iv.lo > 0
    assert iv.lo ** den <= target <= iv.hi ** den


def test_frac_pow_rejects_nonpositive_base():
    with pytest.raises(PreconditionError):
        frac_pow(Fraction(-2), Fraction(1, 2), 8)


def test_certified_real_refines_and_caches():
    calls = []

    def producer(digits: int) -> IntervalReal:
        calls.append(digits)
        return frac_nth_root(Fraction(2), 2, digits)

    cr = CertifiedReal(producer, name="sqrt2")
    with precision_cap(64):
        wide = cr.enclosure(4)
        narrow = cr.enclosure(10)
    assert narrow in wide
    assert narrow.width <= Fraction(1, 10**10)
    assert narrow.lo ** 2 <= 2 <= narrow.hi ** 2
    # asking for less precision than cached re-uses the cache
    n_calls = len(calls)
    assert cr.enclosure(2) is narrow
    assert len(calls) == n_calls


def test_certified_real_cap_enforced():
    cr = CertifiedReal(lambda d: frac_nth_root(Fraction(2), 2, d))
    with precision_cap(8), pytest.raises(InsufficientPrecisionError):
        cr.enclosure(20)


def test_interval_refine_one_shot():
    iv = CertifiedReal(lambda d: frac_nth_root(Fraction(5), 2, d)).enclosure(6)
    assert iv.width <= Fraction(1, 10**6)
    assert iv.lo ** 2 <= 5 <= iv.hi ** 2


def test_inconsistent_producer_detected():
    # a producer whose refinements do not overlap must be rejected
    def bad(digits: int) -> IntervalReal:
        if digits <= 4:
            return IntervalReal(0, Fraction(1, 100))
        return IntervalReal(1, 2)

    cr = CertifiedReal(bad)
    with precision_cap(32):
        cr.enclosure(4)
        with pytest.raises(PreconditionError):
            cr.enclosure(16)


def test_decide_doubles_from_start_and_stops_at_first_verdict():
    calls = []

    def produce(d):
        calls.append(d)
        return d

    with precision_cap(100):
        assert decide(produce, lambda d: "done" if d >= 40 else None, 5) == ("done", 40)
    assert calls == [5, 10, 20, 40]


def test_decide_clamps_to_the_cap_and_never_exceeds_it():
    calls = []

    def produce(d):
        calls.append(d)
        return d

    with precision_cap(100):
        assert decide(produce, lambda d: None, 24) == (None, 100)
        assert decide(produce, lambda d: None, 500) == (None, 100)
    assert calls == [24, 48, 96, 100, 100]
    # a verdict of False or 0 is a decision, not an undecided None
    assert decide(lambda d: 0, lambda r: r, 1) == (0, 0)


@pytest.mark.parametrize("start", [0, -5])
def test_decide_from_a_start_below_one_still_reaches_the_cap(start):
    # a start of 0 once doubled to 0 forever, so an open decision never returned
    calls = []

    def produce(d):
        calls.append(d)
        return d

    with precision_cap(100):
        assert decide(produce, lambda d: None, start) == (None, 100)
    assert calls == [1, 2, 4, 8, 16, 32, 64, 100]     # ceil(log2 100) + 1 calls


def test_settle_returns_the_decision_or_raises_at_the_cap():
    def produce(d):
        return d

    def verdict(d):
        return "done" if d >= 40 else None

    with precision_cap(100):
        assert settle(produce, verdict, 5, "x") == decide(produce, verdict, 5) == ("done", 40)
        assert settle(lambda d: 0, lambda r: r, 1, "zero") == (0, 0)
        with pytest.raises(InsufficientPrecisionError,
                           match=r"^the answer undecided at precision cap 100$"):
            settle(produce, lambda d: None, 24, "the answer")


def test_precision_cap_scopes_and_validates():
    assert PRECISION_CAP.get() == DEFAULT_DIGIT_CAP == 4096
    with precision_cap(12):
        assert PRECISION_CAP.get() == 12
        with precision_cap(7):
            assert PRECISION_CAP.get() == 7
        assert PRECISION_CAP.get() == 12
    assert PRECISION_CAP.get() == 4096
    with pytest.raises(PreconditionError):
        with precision_cap(0):
            pass


def test_enclosure_beyond_the_cap_is_refused():
    cr = CertifiedReal(lambda d: frac_nth_root(Fraction(2), 2, d))
    with precision_cap(16):
        cr.enclosure(16)
        with pytest.raises(InsufficientPrecisionError):
            cr.enclosure(17)


def _fraction_in(lo, width, steps):
    """lo + width * p/q for some 0 <= p < q: a point of [lo, lo + width)."""
    return st.tuples(st.integers(0, steps - 1), st.just(steps)).map(
        lambda pq: lo + width * Fraction(*pq))


@st.composite
def fixed_point_sums(draw):
    """(s, err, tl, th, digits, S, T): exact S, T in the units of round_fixed that lie where
    its bounds say, s near a multiple of FIXED_GUARD and s + tl near another one."""
    n, digits = draw(st.integers(1, 5000)), draw(st.integers(0, 30))
    m, near = draw(st.integers(-10 ** 6, 10 ** 6)), st.integers(-3 * n - 3, 3 * n + 3)
    s, err = m * FIXED_GUARD + draw(near), draw(st.integers(1, 2 * n))
    tl = draw(st.sampled_from([0, FIXED_GUARD // 2, FIXED_GUARD])) + draw(near)
    tl = max(tl, 0)
    th = tl + draw(st.integers(1, 5))
    S = draw(_fraction_in(s, err, 10 ** 6))
    T = draw(_fraction_in(tl, th - tl, 10 ** 6))
    return s, err, tl, th, digits, S, T


@given(fixed_point_sums())
# the sum's error is just below err and carries S over a boundary that s + err / 2 stays under
@example((FIXED_GUARD - 2 * 7 + 1, 2 * 7, FIXED_GUARD // 2, FIXED_GUARD // 2 + 1, 3,
          Fraction(FIXED_GUARD), Fraction(FIXED_GUARD // 2)))
# both errors just below their bounds carry S + T over a boundary that s + err + th meets
@example((5 * FIXED_GUARD + 100, 2 * 3, FIXED_GUARD - 106, FIXED_GUARD - 105, 0,
          Fraction(5 * FIXED_GUARD + 106) - Fraction(1, 1000),
          Fraction(FIXED_GUARD - 106) + Fraction(999, 1000)))
@settings(max_examples=300)
def test_round_fixed_settles_only_what_its_bounds_decide(case):
    s, err, tl, th, digits, S, T = case
    iv = round_fixed(s, err, tl, th, digits)
    if iv is not None:
        unit = FIXED_GUARD * 10 ** digits
        exact = IntervalReal(S / unit, (S + T) / unit).round_out(digits)
        assert (iv._lo, iv._hi, iv._den) == (exact._lo, exact._hi, exact._den)


def test_round_fixed_settles_away_from_boundaries():
    g = FIXED_GUARD
    iv = round_fixed(7 * g + g // 3, 2000, g // 3, g // 3 + 1, 5)
    assert (iv._lo, iv._hi, iv._den) == (7, 8, 10 ** 5)
    # a sum or a sum plus tail on the grid (an exact tie), or an error window over a
    # boundary, is left to the caller
    assert round_fixed(7 * g, 2000, 0, 1, 5) is None
    assert round_fixed(7 * g - 1, 2, g // 3, g // 3 + 1, 5) is None
    assert round_fixed(7 * g + g // 3, 2, g - g // 3, g - g // 3 + 1, 5) is None


def _majorant(kind: str, a: int, b: int):
    """(m0, steps, rho) of exp's majorant x^i/i! at x = a/b, or of atanh's |u|^{2k+1}/(2k+1)
    at |u| = a/b; `steps` makes a new iterator of the term ratios."""
    if kind == "exp":
        return (1, 1), lambda: ((a, b * i) for i in count(1)), (1, 2)
    a2, b2 = a * a, b * b
    return (a, b), lambda: ((a2 * (2 * k + 1), b2 * (2 * k + 3)) for k in count()), (a2, b2)


# 0 < x <= 1 for exp, 0 < |u| <= 1/2 for atanh
majorant_args = st.integers(2, 10 ** 4).flatmap(lambda b: st.one_of(
    st.tuples(st.just("exp"), st.integers(1, b), st.just(b)),
    st.tuples(st.just("atanh"), st.integers(1, b // 2), st.just(b))))


@given(majorant_args, st.integers(0, 40))
@example(("exp", 1, 10 ** 6), 11)     # the tail bound is 10^-12 exactly at K = 1
@example(("atanh", 1, 2), 1)
@example(("exp", 3, 7), 3)            # W m_{K+1} lies 1 or more above t_{K+1}
@example(("atanh", 16, 33), 2)
@settings(max_examples=200, deadline=None)
def test_series_walk_bounds_the_exact_sum_and_tail(args, digits):
    m0, steps, (rp, rq) = _majorant(*args)
    terms, ratios = [Fraction(*m0)], steps()

    def term(k):
        while len(terms) <= k:
            terms.append(terms[-1] * Fraction(*next(ratios)))
        return terms[k]

    def tail(K):
        T = term(K + 1) * rq / (rq - rp)
        return T.numerator, T.denominator

    K, s, err, tl, th = series_walk(m0, steps(), (rp, rq), tail, digits)
    W, target = 10 ** digits * FIXED_GUARD, Fraction(1, 10 ** digits)
    assert s <= W * sum(map(term, range(K + 1))) < s + err
    assert tl <= W * Fraction(*tail(K)) < th
    # K is the first K >= 1 whose exact tail bound meets the target
    assert K >= 1 and Fraction(*tail(K)) <= target
    assert K == 1 or Fraction(*tail(K - 1)) > target
