import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import (
    CertifiedReal,
    IntervalReal,
    expand_digits,
    profile_with_expansion,
    repetition_count,
    repetition_profile,
    theorem2_bound_check,
    theorem2_convergent,
    value_producer,
)
from gpade.digits import _digits_from_floor, _expand_exact
from gpade.errors import InsufficientDigitsError, PreconditionError
from gpade.intervals import decide, precision_cap, settled_floor, width_digits


def test_exact_expansion_terminating():
    ds = expand_digits(Fraction(1, 4), 10, 6)
    assert ds.as_str() == "250000"
    assert ds.exact
    assert ds.integer_part == 0
    assert ds.digit(1) == 2 and ds.digit(2) == 5 and ds.digit(3) == 0


def test_exact_expansion_negative_and_carrying():
    ds = expand_digits(Fraction(-1, 3), 10, 5)
    # floor convention: -1/3 = -1 + 2/3
    assert ds.integer_part == -1
    assert ds.as_str() == "66666"
    ds2 = expand_digits(Fraction(7, 2), 2, 4)
    assert ds2.integer_part == 3
    assert ds2.as_str() == "1000"


def test_expansion_validation():
    with pytest.raises(PreconditionError):
        expand_digits(Fraction(1, 3), 1, 5)
    with pytest.raises(PreconditionError):
        expand_digits(Fraction(1, 3), 10, 0)


def test_digit_indexing_contract():
    ds = _expand_exact(Fraction(1, 7), 10, 8)
    assert ds.as_str() == "14285714"
    with pytest.raises(InsufficientDigitsError):
        ds.digit(9)
    with pytest.raises(InsufficientDigitsError):
        ds.digit(0)


def test_floor_scaled():
    ds = _expand_exact(Fraction(355, 113), 10, 6)   # 3.141592...
    assert ds.integer_part == 3
    assert ds.floor_scaled(0) == 3
    assert ds.floor_scaled(4) == 31415
    with pytest.raises(InsufficientDigitsError):
        ds.floor_scaled(7)


def test_large_base_rendering():
    ds = expand_digits(Fraction(1000, 3), 1000, 3)
    assert ds.integer_part == 333
    assert ds.digits == (333, 333, 333)
    assert ds.as_str() == "333 333 333"


def test_certified_expansion_matches_exact():
    # a CertifiedReal around an exact rational expands to the same digits
    x = Fraction(1, 7)
    cr = CertifiedReal(lambda d: IntervalReal(x - Fraction(1, 10**d), x + Fraction(1, 10**d)))
    with precision_cap(256):
        ds = expand_digits(cr, 10, 20)
    assert ds.certified_len == 20
    assert ds.as_str() == _expand_exact(x, 10, 20).as_str()
    assert not ds.exact


def test_certified_expansion_fallback_to_settled_depth():
    # enclosure stuck at width 2e-8: depth 3 is ambiguous (...2999 / ...3000),
    # depth 2 settles
    iv = IntervalReal(Fraction("0.12299999"), Fraction("0.12300001"))
    cr = CertifiedReal(lambda d: iv)
    with precision_cap(64):
        ds = expand_digits(cr, 10, 8)
    assert ds.certified_len == 2
    assert ds.as_str() == "12"


def test_certified_expansion_no_digit_at_all():
    iv = IntervalReal(Fraction(4, 10), Fraction(6, 10))
    cr = CertifiedReal(lambda d: iv)
    with precision_cap(64), pytest.raises(InsufficientDigitsError):
        expand_digits(cr, 10, 4)


def _expand_digits_loop(value, base: int, count: int):
    """The expansion that, past the precision cap, tried every level from count - 1 down
    with one multiplication each, kept as the reference for the common-prefix read."""
    need = width_digits(Fraction(1, base ** (count + 1)))
    floor, iv = decide(value.enclosure, lambda iv: settled_floor(iv * base ** count), need + 2)
    if floor is not None:
        return _digits_from_floor(floor, base, count)
    for lvl in range(count - 1, 0, -1):
        floor = settled_floor(iv * base ** lvl)
        if floor is not None:
            return _digits_from_floor(floor, base, lvl)
    raise InsufficientDigitsError("no digit certifiable at precision cap")


@st.composite
def _stuck_enclosures(draw):
    """(base, count, x, stuck) for an enclosure of x of width 2 10^-min(d, stuck):
    x random, or a cell boundary k / base^r, where the endpoints' digits carry."""
    base, count = draw(st.sampled_from([2, 10, 1000])), draw(st.integers(1, 200))
    r = draw(st.integers(1, count))
    x = draw(st.one_of(
        st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
        st.integers(-base ** r, base ** r).map(lambda k: Fraction(k, base ** r))))
    return base, count, x, draw(st.integers(1, 40))


@given(_stuck_enclosures())
@example((10, 50, Fraction(1, 10), 40))          # 0.0999... / 0.1000...: no digit settles
@example((2, 200, Fraction(-3, 2 ** 70), 40))
@example((1000, 30, Fraction(1, 7), 3))
@settings(max_examples=80, deadline=None)
def test_expansion_past_the_cap_equals_the_level_loop(case):
    base, count, x, stuck = case

    def value():
        return CertifiedReal(lambda d: IntervalReal(x - Fraction(1, 10 ** min(d, stuck)),
                                                    x + Fraction(1, 10 ** min(d, stuck))))

    with precision_cap(40):
        try:
            want = _expand_digits_loop(value(), base, count)
        except InsufficientDigitsError:
            with pytest.raises(InsufficientDigitsError):
                expand_digits(value(), base, count)
            return
        assert expand_digits(value(), base, count) == want


def test_expansion_past_the_cap_reads_one_floor_per_escalation(monkeypatch):
    # the level loop once made about count - cap settled_floor calls
    calls = []
    monkeypatch.setattr("gpade.digits.settled_floor",
                        lambda iv: calls.append(iv) or settled_floor(iv))
    x = Fraction(1, 7)
    for count in (200, 2000):
        calls.clear()
        cr = CertifiedReal(lambda d: IntervalReal(x - Fraction(1, 10 ** d), x + Fraction(1, 10 ** d)))
        with precision_cap(64):
            ds = expand_digits(cr, 10, count)
        assert len(calls) == 1
        assert ds.certified_len == 63 and ds.as_str() == _expand_exact(x, 10, 63).as_str()


def test_repetition_count_basics():
    ds = expand_digits(Fraction(12121213, 10**8), 10, 8)
    assert repetition_count(ds, 2, 1) == 3       # "12" three times, then "13"
    assert repetition_count(ds, 1, 1) == 1
    assert repetition_count(ds, 1, 7) == 1
    with pytest.raises(PreconditionError):
        repetition_count(ds, 0, 1)
    assert repetition_count(ds, 2, 3) == 2       # "12" twice, break seen at "13"
    with pytest.raises(InsufficientDigitsError):
        repetition_count(ds, 4, 3)               # window end beyond digits
    ds_run = expand_digits(Fraction(12121212, 10**8), 10, 8)
    with pytest.raises(InsufficientDigitsError):
        repetition_count(ds_run, 2, 5)           # run reaches the last digit unbroken


def test_repetition_needs_witnessed_break():
    # all certified digits equal: the count is a lower bound, not a value
    ds = expand_digits(Fraction(1, 3), 10, 12)
    with pytest.raises(InsufficientDigitsError):
        repetition_count(ds, 1, 1)


def test_theorem2_convergent_exact_value():
    x = Fraction(12121213, 10**8)
    ds = expand_digits(x, 10, 8)
    bc = theorem2_convergent(ds, x, 2, 1)
    assert (bc.p_n, bc.q_n) == (12, 99)
    assert bc.count == 3
    assert bc.bound == Fraction(9, 10**7)
    assert bc.bound_relaxed == Fraction(10, 10**7)
    assert bc.holds and bc.holds_relaxed
    # |x - 12/99| really is below the strict bound
    assert abs(x - Fraction(12, 99)) <= bc.bound


def test_theorem2_convergent_denominator_shape():
    x = Fraction(987654321, 10**9)
    ds = expand_digits(x, 10, 9)
    bc = theorem2_convergent(ds, x, 3, 2)
    assert bc.q_n == 10 * (10**3 - 1)
    assert bc.count == 1
    # p_n reproduces the digits: floor identity p_n = (b^t-1) floor(b^{n-1} x) + block
    assert bc.p_n == (10**3 - 1) * 9 + 876


def test_li2_digit_expansion_against_oracle(polylog2, li2_digits_600):
    val = value_producer(polylog2, 2, Fraction(1, 10))
    ds = expand_digits(val, 10, 500)
    assert ds.certified_len == 500
    assert ds.as_str() == li2_digits_600[:500]


def test_li2_strict_bound_violations_spot(polylog2):
    # carry-boundary blocks where only the relaxed numerator works
    val = value_producer(polylog2, 2, Fraction(1, 10))
    ds = expand_digits(val, 10, 60)
    bad = theorem2_convergent(ds, val, 1, 10)
    assert bad.holds is False and bad.holds_relaxed is True
    good = theorem2_convergent(ds, val, 1, 11)
    assert good.count == 2
    assert good.holds is True


def test_repetition_profile_window(polylog2):
    val = value_producer(polylog2, 2, Fraction(1, 10))
    ds = expand_digits(val, 10, 80)
    prof = repetition_profile(ds, 1, (20, 60))
    assert prof.max_ratio == Fraction(2, 33)
    assert dict(prof.values)[33] == 2
    assert all(c >= 1 for _, c in prof.values)
    with pytest.raises(PreconditionError):
        repetition_profile(ds, 1, (5, 4))


def test_profile_with_expansion_retries():
    x = Fraction(int("7" * 50 + "1"), 10**51)
    ds, prof = profile_with_expansion(x, 10, 1, (1, 5))
    assert ds.certified_len >= 52
    assert dict(prof.values)[1] == 50
    assert prof.max_ratio == 50


def test_profile_with_expansion_cap_on_periodic_value():
    with precision_cap(256), pytest.raises(InsufficientDigitsError):
        profile_with_expansion(Fraction(1, 3), 10, 1, (1, 3))


def test_theorem2_bound_check_report(polylog2):
    rep = theorem2_bound_check(polylog2, 1, 10, 1, 1, Fraction(1, 2), (20, 60))
    assert rep.empirical_ok
    assert rep.profile.max_ratio == Fraction(2, 33)
    # desk-scale base: both hypotheses certified false
    assert rep.hyp_growth_ok is False
    assert rep.hyp_digit_ok is False
    assert rep.digits_used >= 60
    # a = -1 reads Li_2(-1/10) at the signed point; every field pinned
    neg = theorem2_bound_check(polylog2, -1, 10, 1, 1, Fraction(1, 2), (20, 60))
    assert (neg.system_name, neg.a, neg.b, neg.s, neg.t, neg.eps, neg.window) == (
        "polylog2", -1, 10, 1, 1, Fraction(1, 2), (20, 60))
    assert neg.profile.max_ratio == Fraction(2, 21)
    assert neg.profile.empirical_vb == Fraction(131, 100)
    counts = "12112111111111111111111111111111111111111"
    assert neg.profile.values == [(20 + i, int(c)) for i, c in enumerate(counts)]
    assert (neg.profile.t, neg.profile.window) == (1, (20, 60))
    assert (neg.empirical_ok, neg.hyp_growth_ok, neg.hyp_digit_ok) == (True, False, False)
    assert neg.digits_used == 80


def test_theorem2_hyp_growth_decided_exactly():
    # c1 = 2^21 and c2 = 9 here, so b^s = (c1 |a|)^{c2} exactly at b = 2, s = 189
    from gpade import parse_system
    sysf = parse_system("family binom_power\nparam alpha 1/2\nDgrowth 4\n")
    for s, expected in ((189, False), (190, True)):
        rep = theorem2_bound_check(sysf, 1, 2, s, 1, Fraction(1, 2), (1, 5))
        assert rep.hyp_growth_ok is expected


def test_theorem2_bound_check_validation(polylog2):
    with pytest.raises(PreconditionError):
        theorem2_bound_check(polylog2, 1, 10, 1, 0, Fraction(1, 2), (1, 5))
    with pytest.raises(PreconditionError):
        theorem2_bound_check(polylog2, 20, 10, 1, 1, Fraction(1, 2), (1, 5))
    # b = 0 once divided by zero in z = a/b^s
    for b, s in ((0, 1), (1, 1), (10, 0)):
        with pytest.raises(PreconditionError):
            theorem2_bound_check(polylog2, 1, b, s, 1, Fraction(1, 2), (1, 5))
    with pytest.raises(PreconditionError, match="a != 0"):
        theorem2_bound_check(polylog2, 0, 10, 1, 1, Fraction(1, 2), (1, 5))


def _digits_from_floor_loop(scaled_floor: int, base: int, count: int) -> tuple[int, tuple[int, ...]]:
    """The one-division-per-digit loop that splitting by halves replaced, kept as the
    reference: (integer part, fractional digits)."""
    digits = []
    x = scaled_floor
    for _ in range(count):
        digits.append(x % base)
        x //= base
    return x, tuple(reversed(digits))


@st.composite
def _scaled_floors(draw):
    """(base, count, floor of value * base^count), the value's integer part of either sign
    and its digits random, all zero or all base - 1."""
    base, count = draw(st.integers(2, 16)), draw(st.integers(1, 3000))
    cell = base ** count
    rest = draw(st.one_of(st.sampled_from([0, 1, cell - 1]),
                          st.integers(0, 2 ** 64).map(lambda seed: random.Random(seed).randrange(cell))))
    return base, count, draw(st.integers(-10 ** 6, 10 ** 6)) * cell + rest


# 64 digits take the plain loop; 65, 129 and 3,000 split once, twice and into odd halves
@given(_scaled_floors())
@example((10, 64, -1))
@example((10, 65, 10 ** 65 - 1))
@example((2, 129, -(2 ** 129) + 5))
@example((16, 3000, 7 * 16 ** 3000 + 16 ** 2999 + 15))
@settings(max_examples=60, deadline=None)
def test_digits_from_floor_equals_the_loop(case):
    base, count, scaled_floor = case
    ds = _digits_from_floor(scaled_floor, base, count)
    assert (ds.integer_part, ds.digits) == _digits_from_floor_loop(scaled_floor, base, count)
    assert ds.certified_len == count and not ds.exact


@given(st.integers(2, 16), st.integers(1, 3000),
       st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)))
@example(10, 1470, Fraction(-22, 7))
@example(3, 3000, Fraction(1, 3))          # terminates at once: all zeros after the point
@settings(max_examples=40, deadline=None)
def test_expand_exact_equals_the_loop(base, count, value):
    ds = _expand_exact(value, base, count)
    expected = _digits_from_floor_loop(value.numerator * base ** count // value.denominator,
                                       base, count)
    assert (ds.integer_part, ds.digits) == expected and ds.exact


def _floor_scaled_loop(ds, i: int) -> int:
    """The digit-by-digit rebuild that one division by a power of the base replaced."""
    out = ds.integer_part
    for k in range(i):
        out = out * ds.base + ds.digits[k]
    return out


@given(_scaled_floors(), st.lists(st.integers(0, 3000), max_size=8))
@example((10, 64, -1), [])
@example((2, 129, -(2 ** 129) + 5), [])
@settings(max_examples=60, deadline=None)
def test_floor_scaled_equals_the_loop(case, depths):
    base, count, scaled_floor = case
    ds = _digits_from_floor(scaled_floor, base, count)
    for i in [-1, 0, 1, count - 1, count] + [min(i, count) for i in depths]:
        assert ds.floor_scaled(i) == _floor_scaled_loop(ds, i), i
    with pytest.raises(InsufficientDigitsError):
        ds.floor_scaled(count + 1)
