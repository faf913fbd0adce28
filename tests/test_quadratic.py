from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpade import (
    IntervalReal,
    QuadConvergent,
    cf_sqrt,
    convergent_gap_check,
    frac_nth_root,
    pell_bound_check,
    reduce_to_theorem1,
    theorem5_scan,
)
from gpade.errors import PreconditionError
from gpade.verify import _settled_nearest


def test_cf_sqrt2():
    exp = cf_sqrt(Fraction(2), 4)
    assert exp.terms[:4] == [1, 2, 2, 2]
    assert exp.period == [2]
    got = [(c.alpha, c.beta) for c in exp.convergents]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12)]
    assert [c.pell_value for c in exp.convergents] == [-1, 1, -1, 1]


def test_cf_sqrt3():
    exp = cf_sqrt(Fraction(3), 6)
    got = [(c.alpha, c.beta) for c in exp.convergents]
    assert got == [(1, 1), (2, 1), (5, 3), (7, 4), (19, 11), (26, 15)]
    assert exp.period == [1, 2]
    assert exp.convergents[5].pell_value == 26 * 26 - 3 * 15 * 15 == 1


def test_cf_rejects_squares_and_nonpositive():
    with pytest.raises(PreconditionError):
        cf_sqrt(Fraction(4), 3)
    with pytest.raises(PreconditionError):
        cf_sqrt(Fraction(9, 4), 3)
    with pytest.raises(PreconditionError):
        cf_sqrt(Fraction(-2), 3)
    with pytest.raises(PreconditionError):
        cf_sqrt(Fraction(2), 0)


def test_cf_rational_d():
    # sqrt(5/2): pell values are 2 alpha^2 - 5 beta^2
    exp = cf_sqrt(Fraction(5, 2), 5)
    assert exp.u == 5 and exp.v == 2
    for c in exp.convergents:
        assert c.pell_value == 2 * c.alpha ** 2 - 5 * c.beta ** 2
        assert pell_bound_check(c, Fraction(5, 2))
    with pytest.raises(PreconditionError):
        cf_sqrt(Fraction(2, 3), 3)               # d < 1 has a zero convergent


def test_convergent_validation():
    with pytest.raises(PreconditionError):
        QuadConvergent(alpha=4, beta=2, pell_value=8)
    with pytest.raises(PreconditionError):
        QuadConvergent(alpha=0, beta=1, pell_value=0)


def test_pell_values_classic():
    assert QuadConvergent(17, 12, 17**2 - 2 * 12**2).pell_value == 1
    assert QuadConvergent(26, 15, 26**2 - 3 * 15**2).pell_value == 1
    assert QuadConvergent(9, 4, 9**2 - 5 * 4**2).pell_value == 1


@given(st.sampled_from([2, 3, 5, 6, 7, 8, 10, 11, 13]), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_pell_bound_holds_for_true_convergents(d, idx):
    exp = cf_sqrt(Fraction(d), idx)
    conv = exp.convergents[-1]
    assert pell_bound_check(conv, Fraction(d))
    assert convergent_gap_check(conv, Fraction(d))


def test_pell_bound_fails_for_fake_convergent():
    # 10/7 is a fine rational but not a convergent of sqrt(2); its Pell value
    # 100 - 98 = 2 still passes the bound, so use something genuinely far off
    fake = QuadConvergent(alpha=5, beta=1, pell_value=5**2 - 2)
    assert not pell_bound_check(fake, Fraction(2))
    assert not convergent_gap_check(fake, Fraction(2))


def test_recurrence_property():
    exp = cf_sqrt(Fraction(7), 8)
    a = exp.terms
    cs = exp.convergents
    for i in range(2, len(cs)):
        assert cs[i].alpha == a[i] * cs[i - 1].alpha + cs[i - 2].alpha
        assert cs[i].beta == a[i] * cs[i - 1].beta + cs[i - 2].beta
    # consecutive convergents are unimodular
    for i in range(1, len(cs)):
        det = cs[i].alpha * cs[i - 1].beta - cs[i - 1].alpha * cs[i].beta
        assert det in (1, -1)


def test_reduction_sqrt2():
    conv = cf_sqrt(Fraction(2), 3).convergents[2]      # 7/5
    rep = reduce_to_theorem1(conv, Fraction(2))
    assert (rep.a, rep.b) == (-1, 49)
    assert rep.system_name.startswith("binom")
    assert rep.identity_series_checked
    assert rep.identity_width < Fraction(1, 10**20)
    assert rep.m_threshold.lo > 0
    # alpha = 7 is far below N_d = (c1 (2 sqrt 2 + 1))^{c2/2}
    assert not rep.alpha_ge_Nd
    assert rep.hyp_b_ok is False


def test_reduction_sqrt3():
    conv = cf_sqrt(Fraction(3), 2).convergents[1]      # 2/1
    rep = reduce_to_theorem1(conv, Fraction(3))
    assert (rep.a, rep.b) == (1, 4)
    assert rep.identity_series_checked                 # C |a/b| = 1/4 < 1
    # sqrt(1 - 1/4) * 2/1 = sqrt(3) exactly: width collapses with precision
    assert rep.identity_width < Fraction(1, 10**20)


def test_reduction_rational_d():
    conv = cf_sqrt(Fraction(5, 2), 6).convergents[-1]
    rep = reduce_to_theorem1(conv, Fraction(5, 2))
    assert rep.a == 2 * conv.alpha ** 2 - 5 * conv.beta ** 2
    assert rep.b == 2 * conv.alpha ** 2
    assert rep.identity_width < Fraction(1, 10**15)


def test_theorem5_scan_sqrt2():
    conv = cf_sqrt(Fraction(2), 2).convergents[1]      # 3/2
    rep = theorem5_scan(Fraction(2), conv, (1, 6), denominator_choice="alpha")
    assert rep.den == 3
    assert rep.rows[0].n == 4                          # nearest to 3 sqrt(2) = 4.24
    for row in rep.rows:
        assert row.distance.lo > 0
        assert row.eta_req > 0
    assert rep.eta_fit == max(r.eta_req for r in rep.rows)
    # the fitted constant really bounds every sampled distance from below
    for row in rep.rows:
        lower = Fraction(1) / (rep.eta_fit * rep.den) ** row.m
        assert row.distance.hi >= lower


def test_theorem5_scan_beta_choice():
    conv = cf_sqrt(Fraction(3), 4).convergents[3]      # 7/4
    rep = theorem5_scan(Fraction(3), conv, (2, 4), denominator_choice="beta")
    assert rep.den == 4
    assert [r.m for r in rep.rows] == [2, 3, 4]


def test_theorem5_scan_validation():
    conv = cf_sqrt(Fraction(2), 2).convergents[1]
    with pytest.raises(PreconditionError):
        theorem5_scan(Fraction(2), conv, (1, 3), denominator_choice="gamma")
    with pytest.raises(PreconditionError):
        theorem5_scan(Fraction(2), conv, (0, 3))
    unit = cf_sqrt(Fraction(2), 1).convergents[0]      # alpha = 1
    with pytest.raises(PreconditionError):
        theorem5_scan(Fraction(2), unit, (1, 2))


def test_round_nearest_ties_even():
    # theorem5_scan rounds with verify's _settled_nearest
    for x, n in [(Fraction(5, 2), 2), (Fraction(7, 2), 4), (Fraction(9, 4), 2),
                 (Fraction(-5, 2), -2)]:
        assert _settled_nearest(IntervalReal.point(x)) == n


def test_sqrt_enclosure_brackets():
    iv = frac_nth_root(Fraction(2), 2, 30)
    assert iv.lo ** 2 < 2 < iv.hi ** 2
    assert iv.width <= Fraction(1, 10**30)
