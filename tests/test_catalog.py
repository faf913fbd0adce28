import math
from fractions import Fraction

import pytest

from gpade import Poly, load_system, parse_system, resolve_system, verify_growth
from gpade.catalog import builtin
from gpade.errors import PreconditionError


def test_log1m_coefficients(log1m):
    assert log1m.N == 1
    assert log1m.coefficient(0, 0) == 1
    assert log1m.coefficient(0, 5) == 0
    assert log1m.coefficient(1, 1) == -1
    assert log1m.coefficient(1, 4) == Fraction(-1, 4)
    assert log1m.denominator(6) == 60        # lcm(1..6)
    assert log1m.D_poly == Poly([1, -1])
    assert log1m.d == 1


def test_polylog2_coefficients(polylog2):
    assert polylog2.N == 2
    assert polylog2.coefficient(1, 3) == Fraction(1, 3)
    assert polylog2.coefficient(2, 3) == Fraction(1, 9)
    assert polylog2.denominator(4) == 144     # lcm(1..4)^2
    assert polylog2.D_poly == Poly([0, 1, -1])
    assert polylog2.d == 2


def test_denominator_clears_all_components(polylog2):
    for n in range(1, 20):
        dn = polylog2.denominator(n)
        for j in range(1, 3):
            for m in range(n + 1):
                assert (dn * polylog2.coefficient(j, m)).denominator == 1


def test_ode_satisfied(log1m, polylog2, binom_half):
    assert log1m.check_ode(30)
    assert polylog2.check_ode(30)
    assert binom_half.check_ode(30)


def test_ode_detects_corruption(log1m):
    broken = builtin("log1m")
    broken._coeff_cache[(1, 3)] = Fraction(1, 7)
    assert not broken.check_ode(10)


def test_growth_bounds_hold_on_initial_range(log1m, polylog2):
    assert log1m.verified_range >= 64
    rep = verify_growth(polylog2, 72)
    assert rep.ok
    assert polylog2.verified_range >= 72


def test_growth_first_violation_at_73(log1m):
    # lcm(1..73) > e^74 (the prime-counting sum psi(73) exceeds 74), so the
    # asymptotic constant e fails exactly there; a failed check must not
    # advance the verified range
    sysf = builtin("log1m")
    before = sysf.verified_range
    rep = verify_growth(sysf, 100)
    assert not rep.D_ok
    assert rep.first_D_violation == 73
    assert rep.C_ok
    assert sysf.verified_range == before

    # the polylog comparison lcm(1..n)^s <= (e^s)^(n+1) fails at the same n
    rep2 = verify_growth(builtin("polylog", s=2), 80)
    assert rep2.first_D_violation == 73


def test_negated_system(log1m):
    neg = log1m.negated()
    for n in range(1, 12):
        assert neg.coefficient(1, n) == (-1) ** n * log1m.coefficient(1, n)
    assert neg.check_ode(20)
    assert neg.D_poly == Poly([1, 1])
    assert neg.denominator(9) == log1m.denominator(9)


def test_binom_half(binom_half):
    # sqrt(1-z) = 1 - z/2 - z^2/8 - z^3/16 - ...
    assert binom_half.coefficient(1, 0) == 1
    assert binom_half.coefficient(1, 1) == Fraction(-1, 2)
    assert binom_half.coefficient(1, 2) == Fraction(-1, 8)
    assert binom_half.coefficient(1, 3) == Fraction(-1, 16)
    assert binom_half.C == 1
    assert binom_half.D_poly == Poly([2, -2])
    assert binom_half.Dgrowth_sym == (Fraction(31, 8), 0)


def test_binom_denominators_are_two_powers(binom_half):
    for n in range(1, 30):
        dn = binom_half.denominator(n)
        assert dn & (dn - 1) == 0        # power of 2
        assert (dn * binom_half.coefficient(1, n)).denominator == 1


def test_binom_rejects_integer_exponent():
    with pytest.raises(PreconditionError):
        builtin("binom_power", alpha=Fraction(3))


def test_polylog_weight_one_matches_negated_log():
    p1 = builtin("polylog", s=1)
    # Li_1(z) = -log(1-z)
    for n in range(1, 10):
        assert p1.coefficient(1, n) == Fraction(1, n)
    assert p1.check_ode(20)


def test_unknown_family_rejected():
    with pytest.raises(PreconditionError):
        builtin("airy")


def test_resolve_aliases_and_params():
    assert resolve_system("log1m").name == "log1m"
    assert resolve_system("polylog3").N == 3
    assert resolve_system("polylog:4").N == 4
    assert resolve_system("binom:1/2").params["alpha"] == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        resolve_system("unknown-system")


def test_parse_system_overrides(tmp_path):
    text = """\
# weight-2 polylogarithm with a generous C
family polylog
param s 2
name mylog
C 2
"""
    sys2 = parse_system(text)
    assert sys2.name == "mylog"
    assert sys2.C == 2
    assert sys2.verified_range >= 64

    path = tmp_path / "sys.txt"
    path.write_text(text)
    assert load_system(str(path)).name == "mylog"


def test_parse_system_rejects_bad_override():
    text = "family log1m\nDgrowth 2\n"   # lcm(1..n) outgrows 2^(n+1) quickly
    with pytest.raises(PreconditionError):
        parse_system(text)


def test_parse_system_requires_family():
    with pytest.raises(PreconditionError):
        parse_system("param s 2\n")
    with pytest.raises(PreconditionError):
        parse_system("family log1m\nbogus 1\n")


def test_Dgrowth_materialization(log1m, binom_half):
    iv = log1m.Dgrowth(20)
    # symbolic e^1: must overlap a 24-digit bracket of e
    e_bracket = (Fraction("2.718281828459045235360287"),
                 Fraction("2.718281828459045235360288"))
    assert iv.lo <= e_bracket[1] and e_bracket[0] <= iv.hi
    assert iv.width <= Fraction(1, 10**19)
    assert binom_half.Dgrowth(20).lo == Fraction(31, 8)
    cd = log1m.CD_sym()
    assert cd == (Fraction(1), Fraction(1))


def test_component_index_checked(log1m):
    with pytest.raises(PreconditionError):
        log1m.coefficient(2, 0)
    with pytest.raises(PreconditionError):
        log1m.coefficient(1, -1)
