"""Acceptance gate: one test per acceptance criterion, at the stated tolerance.

The full suite (gpade/acceptance.py) is computed once for the module, exactly
as `gpade suite` computes it.  The criterion tests assert on its records, and
its rendering must equal the frozen suite report byte for byte.  Checks that
only the tests make stay here: criterion 1 at (t=1, m=1) against the
displayed closed form of c4, the frozen-digit oracle of criterion 9, and the
reduction of every convergent in criterion 10.

The strict digit-block bound (second half of criterion 9) uses the (b-1)
numerator, which can fail only on carry-boundary blocks.  Its test decides
that bound at every cell again from the frozen Li_2(1/10) digits alone and
requires the program to agree; the suite record pins the provable
b-numerator bound.
"""
import dataclasses
import os
import time
from fractions import Fraction
from typing import NamedTuple

import pytest

from gpade import (
    CertifiedReal,
    IntervalReal,
    cf_sqrt,
    compute_constants,
    frac_pow,
    log2_enclosure,
    reduce_to_theorem1,
    value_producer,
)
from gpade import acceptance
from gpade.acceptance import CHAIN_INSTANCES, Z_POINTS, grid, run_suite
from gpade.digits import expand_digits, theorem2_convergent
from gpade.intervals import precision_cap
from gpade.report import Record, ReportWriter

GOLDEN_SUITE = os.path.join(os.path.dirname(__file__), "oracles", "golden", "suite.txt")

# (t, n) cells where |xi - p_n/q_n| <= (b-1)/b^{n+tN} fails for Li2(1/10)
STRICT_BOUND_VIOLATIONS = [
    (1, 10), (1, 27), (1, 91), (1, 92), (1, 107), (1, 142), (1, 145),
    (1, 164), (1, 165), (1, 225), (2, 299), (3, 85), (3, 111), (3, 279),
    (3, 282),
]


class Suite(NamedTuple):
    records: dict      # kind -> Record, in report order
    elapsed: float     # seconds the full computation took


@pytest.fixture(scope="module")
def suite() -> Suite:
    t0 = time.monotonic()
    records = run_suite(quick=False, precision=64)
    return Suite({rec.kind: rec for rec in records}, time.monotonic() - t0)


def test_full_suite_report_is_golden(suite):
    summary = Record("suite-summary", {"violated": False})
    writer = ReportWriter("suite", 64, [*suite.records.values(), summary])
    with open(GOLDEN_SUITE) as fh:
        assert writer.render() == fh.read()
    assert not writer.any_violated


def test_criterion_01_li2_constant_chain(polylog2, suite):
    assert suite.records["suite-constants"].status == "certified"
    t0 = time.monotonic()
    rep = compute_constants(polylog2, 1, 10, Fraction(1), 1,
                            allow_desk_scale=True)
    assert rep.c1_sym == (Fraction(4), Fraction(66))
    assert rep.c2 == 12
    assert rep.c4.lt(frac_pow(Fraction(10), Fraction(289, 50), 48).lo) is True
    L2 = log2_enclosure(60)
    displayed = (IntervalReal.point(Fraction(1201779, 48))
                 + IntervalReal.point(Fraction(1185019, 3)) / L2
                 + L2 * Fraction(396))
    assert rep.c4.lo <= displayed.hi and displayed.lo <= rep.c4.hi
    assert abs(rep.c4 - displayed).hi <= displayed.lo / 100
    assert rep.c4_discrepancy is False
    assert time.monotonic() - t0 < 10


def _grid(suite: Suite) -> dict:
    return suite.records["suite-pade-grid"].fields


def test_criterion_02_order_certificates(suite):
    assert _grid(suite)["instances"] == len(grid(quick=False)) == 314
    assert _grid(suite)["order-failures"] == _grid(suite)["clearing-failures"] == 0
    assert suite.elapsed < 120


def test_criterion_03_siegel_height_bound(suite):
    # an undecided Siegel comparison fails this criterion too
    assert _grid(suite)["siegel-failures"] == 0
    assert "undecided" not in _grid(suite)


def test_criterion_04_iteration_certificates(suite):
    assert _grid(suite)["iteration-failures"] == 0


def test_criterion_05_height_bound_domination(suite):
    assert _grid(suite)["height-bound-failures"] == 0


def test_criterion_06_remainder_bound_domination(suite):
    assert _grid(suite)["remainder-bound-failures"] == 0
    assert "undecided" not in _grid(suite)
    assert suite.records["suite-pade-grid"].status == "certified"


def test_unsettled_remainder_is_undecided(log1m, monkeypatch):
    # an enclosure of F_j(z) that never narrows leaves every remainder cell open
    monkeypatch.setattr(acceptance, "value_producer",
                        lambda system, j, z: CertifiedReal(lambda dg: IntervalReal(-1, 1)))
    with precision_cap(96):
        rec = acceptance.pade_grid({"log1m": log1m}, [("log1m", 3, 2, 2)], remainders=True)
    assert rec.fields["remainder-bound-failures"] == 0
    assert rec.fields["undecided"] == 3 * len(Z_POINTS)     # k = 0, 1, 2 and j = 1
    assert "first-failures" not in rec.fields
    assert rec.status == "indeterminate"


def test_every_failure_is_named(log1m, monkeypatch):
    # order, clearing and height failures are counted and their cells named, like the others
    build = acceptance.build_approximant
    monkeypatch.setattr(acceptance, "build_approximant", lambda *args: dataclasses.replace(
        build(*args), order_certificates=[0], denominator_cleared=False))
    monkeypatch.setattr(acceptance, "bound_height_pair", lambda approx, system: lambda k: (0, 1))
    rec = acceptance.pade_grid({"log1m": log1m}, [("log1m", 3, 2, 2)], remainders=False)
    assert (rec.fields["order-failures"], rec.fields["clearing-failures"],
            rec.fields["height-bound-failures"]) == (1, 1, 3)
    at = "log1m p=3 q=2 h=2"
    assert rec.fields["first-failures"] == \
        f"order {at}; clearing {at}; height {at} k=0; height {at} k=1; height {at} k=2"
    assert rec.status == "violated"


def test_pade_grid_makes_one_value_per_key(log1m, polylog2, monkeypatch):
    # the grid decides many remainder cells on each (system, j, z), all from one table
    made, reads = [], []

    def producer(system, j, z):
        made.append((system.name, j, z))
        value = value_producer(system, j, z)
        read = value.enclosure
        value.enclosure = lambda dg: reads.append(dg) or read(dg)
        return value

    monkeypatch.setattr(acceptance, "value_producer", producer)
    rec = acceptance.pade_grid({"log1m": log1m, "polylog2": polylog2}, grid(True),
                               remainders=True)
    assert rec.fields["remainder-bound-failures"] == 0
    assert len(made) == len(set(made)) == 3 * len(Z_POINTS)    # j = 1, and j = 1, 2
    assert len(reads) > 10 * len(made)


def test_criterion_07_zero_estimate(suite):
    assert _grid(suite)["zero-estimate-failures"] == 0


def test_criterion_08_xi_chain_instances(suite):
    assert len(CHAIN_INSTANCES) == 20
    assert all(p >= q + m for _, _, _, _, m, _, p, q, _ in CHAIN_INSTANCES)
    assert suite.records["suite-xi-chain"].fields == {"instances": 20, "failures": 0}


def test_criterion_09_digit_stability_500(polylog2, li2_digits_600, suite):
    assert suite.records["suite-digit-stability"].fields == {
        "digits": 500, "stable-at-doubled-depth": True, "prefix-matches-frozen-50": True}
    t0 = time.monotonic()
    value = value_producer(polylog2, 2, Fraction(1, 10))
    assert expand_digits(value, 10, 500).as_str(500) == li2_digits_600[:500]
    assert suite.elapsed + time.monotonic() - t0 < 120


def _oracle_block_cell(digits: str, t: int, n: int):
    """(count, p_n, q_n, holds, carry) at (t, n), from the frozen digits alone.

    The value lies in [D/10^L, (D+1)/10^L] for the L frozen fractional digits
    D (integer part 0), so `holds` is the strict (b-1) bound decided with
    exact Fraction endpoints, or None when that enclosure cannot decide it.
    `carry` marks a carry boundary, {a_n, a_{n+t*count}} = {0, b-1}: the only
    cells where the strict bound can fail.
    """
    b, L = 10, len(digits)
    block = digits[n - 1:n - 1 + t]
    count = 1
    while digits[n - 1 + count * t:n - 1 + (count + 1) * t] == block:
        count += 1
    assert n - 1 + (count + 1) * t <= L, (t, n)   # the run's end is witnessed
    q_n = b ** (n - 1) * (b ** t - 1)
    p_n = (b ** t - 1) * int(digits[:n - 1] or "0") + int(block)
    target = Fraction(p_n, q_n)
    lo = Fraction(int(digits), b ** L)
    hi = lo + Fraction(1, b ** L)
    dist_lo = max(lo - target, target - hi, 0)
    dist_hi = max(hi - target, target - lo)
    bound = Fraction(b - 1, b ** (n + t * count))
    holds = True if dist_hi <= bound else False if dist_lo > bound else None
    carry = {digits[n - 1], digits[n - 1 + t * count]} == {"0", str(b - 1)}
    return count, p_n, q_n, holds, carry


def test_criterion_09_strict_block_bound(polylog2, li2_digits_600):
    t0 = time.monotonic()
    value = value_producer(polylog2, 2, Fraction(1, 10))
    ds = expand_digits(value, 10, 300 + 12 * 3 + 60)
    violations = []
    for t in (1, 2, 3):
        for n in range(1, 301):
            conv = theorem2_convergent(ds, value, t, n)
            count, p_n, q_n, holds, carry = _oracle_block_cell(li2_digits_600, t, n)
            assert holds is not None, (t, n)
            assert conv.holds is not None, (t, n)
            assert (conv.count, conv.p_n, conv.q_n) == (count, p_n, q_n), (t, n)
            assert conv.holds is holds, (t, n)
            # the (b-1) numerator is proved everywhere off a carry boundary
            assert conv.holds is True or carry, (t, n)
            if not holds:
                violations.append((t, n))
    assert time.monotonic() - t0 < 120
    assert violations == STRICT_BOUND_VIOLATIONS


def test_criterion_09_provable_block_bound(suite):
    assert suite.records["suite-block-convergents"].fields == {
        "n-max": 300, "t-values": "1 2 3", "provable-bound-failures": 0,
        "strict-bound-violations": len(STRICT_BOUND_VIOLATIONS)}


def test_criterion_10_pell_and_reduction(suite):
    assert suite.records["suite-quadratic"].fields == {
        "d-values": "2 3 5 7", "beta-cap": 10 ** 6, "pell-failures": 0,
        "reductions-checked": 4}
    t0 = time.monotonic()
    for dv in (2, 3, 5, 7):
        d = Fraction(dv)
        convs = [c for c in cf_sqrt(d, 40).convergents if c.beta <= 10 ** 6]
        assert len(convs) >= 10, dv
        for conv in convs:
            if conv.alpha ** 2 < 2:      # reduction needs a base >= 2
                continue
            red = reduce_to_theorem1(conv, d)
            key = (dv, conv.alpha, conv.beta)
            assert red.identity_series_checked, key
            assert red.identity_width < Fraction(1, 10 ** 8), key
            assert red.hyp_b_ok is red.constants.hyp_b_ok, key
    assert time.monotonic() - t0 < 60
