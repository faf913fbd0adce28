import re
from fractions import Fraction
from pathlib import Path

import pytest

from gpade import Poly, catalog, load_system, parse_system, resolve_system, verify_growth
from gpade.catalog import GFunctionSystem
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
    assert log1m.CD_sym() == (Fraction(1), Fraction(1))


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
    broken = resolve_system("log1m")
    broken.coefficient(1, 3)
    broken._coeffs[1][3] = Fraction(1, 7)
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
    sysf = resolve_system("log1m")
    before = sysf.verified_range
    rep = verify_growth(sysf, 100)
    assert not rep.D_ok
    assert rep.first_D_violation == 73
    assert rep.C_ok
    assert sysf.verified_range == before

    # the polylog comparison lcm(1..n)^s <= (e^s)^(n+1) fails at the same n
    rep2 = verify_growth(resolve_system("polylog:2"), 80)
    assert rep2.first_D_violation == 73


def test_negated_system(log1m):
    neg = log1m.negated()
    for n in range(1, 12):
        assert neg.coefficient(1, n) == (-1) ** n * log1m.coefficient(1, n)
    assert neg.check_ode(20)
    assert neg.D_poly == Poly([1, 1])
    # the flipped series with the unflipped matrix is no solution
    neg.DA = log1m.DA
    assert not neg.check_ode(20)
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
        resolve_system("binom:3")


def test_polylog_weight_one_matches_negated_log():
    p1 = resolve_system("polylog:1")
    # Li_1(z) = -log(1-z)
    for n in range(1, 10):
        assert p1.coefficient(1, n) == Fraction(1, n)
    assert p1.check_ode(20)


def test_unknown_family_rejected():
    with pytest.raises(PreconditionError):
        resolve_system("airy")


def test_resolve_aliases_and_params():
    assert resolve_system("log1m").name == "log1m"
    assert resolve_system("polylog3").N == 3
    assert resolve_system("polylog:4").N == 4
    half = resolve_system("binom:1/2")
    assert half.name == "binom[1/2]"
    assert half.coefficient(1, 1) == Fraction(-1, 2)
    with pytest.raises(PreconditionError):
        resolve_system("unknown-system")


# every alias and one `family:value` spec per family, with the two-line file it stands for
SPEC_FILES = [
    ("log1m", "family log1m\n"),
    ("polylog1", "family polylog\nparam s 1\n"),
    ("polylog2", "family polylog\nparam s 2\n"),
    ("polylog3", "family polylog\nparam s 3\n"),
    ("polylog4", "family polylog\nparam s 4\n"),
    ("polylog", "family polylog\n"),
    ("polylog:5", "family polylog\nparam s 5\n"),
    ("binom:1/3", "family binom_power\nparam alpha 1/3\n"),
    ("binom_power:7/4", "family binom_power\nparam alpha 7/4\n"),
]


def test_spec_files_cover_every_alias_and_family():
    heads = {spec.partition(":")[0] for spec, _ in SPEC_FILES}
    assert set(catalog._ALIASES) <= heads
    assert set(catalog._FAMILIES) <= heads


@pytest.mark.parametrize("spec, text", SPEC_FILES, ids=[spec for spec, _ in SPEC_FILES])
def test_spec_builds_as_its_two_line_file(spec, text):
    got, want = resolve_system(spec), parse_system(text)
    assert (got.name, got.N, got.C, got.Dgrowth_sym, got.verified_range) \
        == (want.name, want.N, want.C, want.Dgrowth_sym, want.verified_range)
    for n in range(11):
        assert got.denominator(n) == want.denominator(n)
        assert [got.coefficient(j, n) for j in range(got.N + 1)] \
            == [want.coefficient(j, n) for j in range(want.N + 1)]


@pytest.mark.parametrize("build, message", [
    (lambda: parse_system("family polylog\nparam weight 3\n"),
     "family polylog takes param 's', not 'weight'"),
    (lambda: parse_system("family log1m\nparam alpha 1/2\n"),
     "family log1m takes no param, not 'alpha'"),
    (lambda: resolve_system("log1m:3"), "family log1m takes no param, not the value '3'"),
    (lambda: resolve_system("binom"), "family binom_power needs param 'alpha'"),
], ids=["polylog-weight", "log1m-alpha", "log1m-spec-value", "binom-no-alpha"])
def test_family_parameter_is_checked(build, message):
    with pytest.raises(PreconditionError) as e:
        build()
    assert str(e.value) == message


@pytest.mark.parametrize("text, named", [
    ("family polylog log1m\n", "'family polylog log1m': a family line has 2 words, not 3"),
    ("family log1m\nC 2 3\n", "'C 2 3': a C line has 2 words, not 3"),
    ("family log1m\nname my log\n", "'name my log': a name line has 2 words, not 3"),
    ("family polylog\nparam s 2\nparam s 3\n", "'param s 3' repeats param 's'"),
    ("family polylog\nfamily log1m\n", "'family log1m' repeats 'family'"),
], ids=["family-two-words", "C-two-words", "name-two-words", "param-twice", "family-twice"])
def test_system_file_line_must_be_exact_and_once(text, named):
    with pytest.raises(PreconditionError) as e:
        parse_system(text)
    assert str(e.value) == "system-file line " + named


def test_readme_system_paragraph_names_every_alias_and_family():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("`--system` accepts")
    paragraph = readme[start:readme.index("\n\n", start)]
    named = {code.partition(":")[0] for code in re.findall(r"`([^`]+)`", paragraph)}
    assert set(catalog._ALIASES) | set(catalog._FAMILIES) <= named


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




def test_component_index_checked(log1m):
    with pytest.raises(PreconditionError):
        log1m.coefficient(2, 0)
    with pytest.raises(PreconditionError):
        log1m.coefficient(1, -1)


@pytest.mark.parametrize("build", [
    lambda: resolve_system("polylog2"),
    lambda: resolve_system("polylog:3"),
    lambda: resolve_system("binom:1/2"),
    lambda: parse_system("family log1m\n"),
    lambda: parse_system("family binom_power\nparam alpha 1/2\nC 2\nDgrowth 4\n"),
], ids=["alias", "family-arg", "binom", "file", "file-overrides"])
def test_every_system_verifies_growth_once(monkeypatch, build):
    ranges = []

    def counted(sys, n_max):
        ranges.append(n_max)
        return verify_growth(sys, n_max)

    monkeypatch.setattr(catalog, "verify_growth", counted)
    assert build().verified_range == 64
    assert ranges == [64]


def test_file_fit_range_is_the_verified_range():
    assert parse_system("family log1m\nfit_range 10\n").verified_range == 10
    # an override is verified over the file's range, not over the default 64
    sysf = parse_system("family binom_power\nparam alpha 1/2\nfit_range 90\nDgrowth 4\n")
    assert sysf.verified_range == 90
    assert sysf.Dgrowth_sym == (4, 0)


def test_file_fit_range_past_72_fails_at_73():
    with pytest.raises(PreconditionError,
                       match=r"^growth constants of polylog2 fail over 0\.\.100: .*"
                             r"first_D_violation=73\)$"):
        parse_system("family polylog\nname mylog\nfit_range 100\n")


def test_negated_system_is_validated(log1m, monkeypatch):
    validated = []
    check = GFunctionSystem._validate

    def counted(sys):
        validated.append(sys.name)
        check(sys)

    monkeypatch.setattr(GFunctionSystem, "_validate", counted)
    log1m.negated()
    assert validated == ["log1m@neg"]


@pytest.mark.parametrize("text", ["family binom_power\nparam alpha 1/2\nfit_range 0\n",
                                  "family log1m\nfit_range -3\n"])
def test_file_fit_range_below_1_is_rejected(text):
    # a range of n = 0 alone once fitted and verified Dgrowth = 1 for binom[1/2], though d_1 = 2
    with pytest.raises(PreconditionError, match=r"^fit_range must be >= 1, got -?\d+$"):
        parse_system(text)


def test_series_is_a_copy_of_the_store():
    sys = resolve_system("polylog2")
    want = [Fraction(0)] + [Fraction(1, n * n) for n in range(1, 102)]
    # inside the stored list, then past it: the store grows to exactly the order asked
    for order in (8, 100):
        got = sys.series(2, order)
        assert got == want[:order]
        got[3] = Fraction(7)
        got.append(Fraction(9))
        sys.series(2, 3).clear()
        assert sys.coefficient(2, 3) == Fraction(1, 9)
        assert sys.series(2, order) == want[:order]
    assert sys.series(2, 102) == want
    assert sys.series(2, 0) == sys.series(2, -3) == []


@pytest.mark.parametrize("spec", ["log1m", "polylog:1", "polylog3", "binom:1/2", "binom:7/4"])
def test_stored_coefficients_are_the_family_coeff(spec):
    """Every family, and its negation, on both sides of the stored length."""
    base = resolve_system(spec)
    for sys, sign in ((base, 1), (resolve_system(spec).negated(), -1)):
        def coeff(j, n):
            return Fraction(sign ** n * base._coeff(j, n)) if j else Fraction(n == 0)
        for j in range(sys.N + 1):
            sys.coefficient(j, 5)
            stored = len(sys._coeffs[j])
            for n in (0, stored // 2, stored + 1, stored + 2):
                assert sys.coefficient(j, n) == coeff(j, n)
            assert sys.series(j, stored + 8) == [coeff(j, n) for n in range(stored + 8)]
            assert sys.series(j, stored // 2) == [coeff(j, n) for n in range(stored // 2)]
