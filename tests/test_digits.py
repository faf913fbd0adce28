from fractions import Fraction

import pytest

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
from gpade.digits import DigitString, _expand_exact
from gpade.errors import InsufficientDigitsError, PreconditionError
from gpade.intervals import precision_cap


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
    with pytest.raises(InsufficientDigitsError):
        profile_with_expansion(Fraction(1, 3), 10, 1, (1, 3), max_count=256)


def test_theorem2_bound_check_report(polylog2):
    rep = theorem2_bound_check(polylog2, 1, 10, 1, 1, Fraction(1, 2), (20, 60))
    assert rep.empirical_ok
    assert rep.profile.max_ratio == Fraction(2, 33)
    # desk-scale base: both hypotheses certified false
    assert rep.hyp_growth_ok is False
    assert rep.hyp_digit_ok is False
    assert rep.digits_used >= 60


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
