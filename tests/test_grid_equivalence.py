"""`acceptance.pade_grid` against the Fraction cell loop it replaced.

`fraction_pade_grid` is that loop, kept verbatim, with the Fraction forms it called
kept beside it: `bound_height_Qk`'s power chain, `bound_remainder`'s formula and
`Poly` evaluation by `power_sum`.  Every grid cell normalized Fractions there.  The
integer grid must reach the same verdict at every remainder cell, through the same
precision rungs of `decide`, and the same counters, under any precision cap.  A guard
counts the Fractions the grid's own work builds, and `IntervalReal.abs_affine_le`, a
remainder cell's verdict at one rung, must equal the interval operations it fuses.
"""

from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpade import acceptance
from gpade.acceptance import GRID_SYSTEMS, Z_POINTS, grid
from gpade.catalog import resolve_system
from gpade.derivation import iterate, zero_estimate_check
from gpade.intervals import IntervalReal, decide, precision_cap
from gpade.pade import build_approximant
from gpade.polynomial import power_sum
from gpade.report import Record
from gpade.verify import value_producer


def fraction_call(poly, z):
    s, d = power_sum(poly.num, z)
    return Fraction(s, d * poly.den)


def fraction_bound_height_Qk(approx, sys, k):
    return (Fraction(2) ** (2 * approx.q + (sys.d - 1) * k + 1) * sys.D_poly.height() ** k
            * (approx.siegel_bound.hi - 1))


def fraction_bound_remainder(fam, sys, k, z):
    base = fam.base
    p, q, h, d, C, z = base.p, base.q, base.h, sys.d, sys.C, Fraction(z)
    u, v = C.numerator * abs(z.numerator), C.denominator * z.denominator
    Hk = fam.Qk[k].height()
    if u == 0:
        return Fraction(0)
    e, expo = q + k * (d - 1), p + h + 1 - k
    c = max(1, C)
    un, vn = (u ** expo, v ** expo) if expo >= 0 else (v ** -expo, u ** -expo)
    return Fraction(Hk.numerator * (e + 1) * c.numerator ** e * un * v,
                    Hk.denominator * c.denominator ** e * vn * (v - u))


def fraction_pade_grid(systems, instances, remainders, decide=decide):
    values = {(arg, j, z): value_producer(system, j, z) for arg, system in systems.items()
              for j in range(1, system.N + 1) for z in (Z_POINTS if remainders else ())}
    fails: Counter = Counter()
    undecided = 0
    first_failures: list[str] = []

    def fail(key: str, where: str) -> None:
        fails[key] += 1
        if len(first_failures) < 5:
            first_failures.append(where)

    for arg, p, q, h in instances:
        system = systems[arg]
        at = f"{arg} p={p} q={q} h={h}"
        approx = build_approximant(system, p, q, h)
        fails["order"] += not (approx.Q.is_integral()
                               and min(approx.order_certificates) >= p + h + 1)
        fails["clearing"] += not approx.denominator_cleared
        if approx.siegel_ok is None:
            undecided += 1
        elif not approx.siegel_ok:
            fail("siegel", f"siegel {at}")
        fam = iterate(approx, system, max(system.N, h // system.d))
        for cert in fam.certs[:h // system.d + 1]:
            k = cert.k
            if not cert.ok:
                fail("iteration", f"iterate {at} k={k}")
            fails["height-bound"] += fam.Q(k).height() > fraction_bound_height_Qk(approx, system, k)
            for z in Z_POINTS if remainders else ():
                bound, Qz = fraction_bound_remainder(fam, system, k, z), fraction_call(fam.Q(k), z)
                for j in range(1, system.N + 1):
                    value, Pz = values[arg, j, z], fraction_call(fam.P(j, k), z)
                    ok, _ = decide(lambda dg: abs(value.enclosure(dg) * Qz - Pz),
                                   lambda iv: iv.le(bound), 48)
                    if ok is None:
                        undecided += 1
                    elif not ok:
                        fail("remainder-bound", f"remainder {at} k={k} z={z}")
        chk = zero_estimate_check(fam, system)
        if not chk.ok:
            fail("zero-estimate", f"zero {at}")

    rec = Record("suite-pade-grid")
    rec.add("instances", len(instances))
    for key in ("order", "clearing", "siegel"):
        rec.add(f"{key}-failures", fails[key], fails[key] == 0)
    if undecided:
        rec.add("undecided", undecided, None)
    for key in ("iteration", "height-bound", "remainder-bound", "zero-estimate"):
        if key != "remainder-bound" or remainders:
            rec.add(f"{key}-failures", fails[key], fails[key] == 0)
    if first_failures:
        rec.add("first-failures", "; ".join(first_failures))
    return rec


def recording(cells: list):
    """`decide`, appending each cell's (verdict, the digits it asked for) to `cells`."""
    def recorded(produce, verdict, start):
        rungs: list[int] = []
        answer, result = decide(lambda dg: rungs.append(dg) or produce(dg), verdict, start)
        cells.append((answer, tuple(rungs)))
        return answer, result
    return recorded


@pytest.fixture(scope="module")
def systems():
    return {arg: resolve_system(arg) for arg, _ in GRID_SYSTEMS}


@pytest.mark.parametrize("cap", [8, 30, 96, None])
@pytest.mark.parametrize("quick", [True, False])
def test_grid_verdicts_equal_the_fraction_loop(systems, monkeypatch, quick, cap):
    want, got = [], []
    monkeypatch.setattr(acceptance, "decide", recording(got))
    with precision_cap(cap) if cap else nullcontext():
        expected = fraction_pade_grid(systems, grid(quick), True, recording(want))
        rec = acceptance.pade_grid(systems, grid(quick), remainders=True)
        if quick:
            assert acceptance.pade_grid(systems, grid(quick), remainders=False).fields \
                == fraction_pade_grid(systems, grid(quick), False).fields
    assert rec.fields == expected.fields and rec.status == expected.status
    assert got == want
    assert len(got) == sum(len(Z_POINTS) * systems[arg].N * (h // systems[arg].d + 1)
                           for arg, _, _, h in grid(quick))
    # below 48 digits some cells stay open; from 48 up every cell settles at its first rung
    open_cells = {(True, 8): 45, (False, 8): 2517, (False, 30): 45}.get((quick, cap), 0)
    assert sum(answer is None for answer, _ in got) == open_cells
    assert {rungs[0] for _, rungs in got} == {min(48, cap or 48)}


@pytest.mark.parametrize("shave, failures", [(0, 30), (Fraction(1, 10 ** 9), 31)])
def test_height_verdicts_equal_the_fraction_loop(systems, monkeypatch, shave, failures):
    # every height bound scaled by t = H(Q_0) / bound at one cell: that cell ties and holds,
    # and fails once t is shaved; the cells with a larger ratio fail, and both loops count
    # and name the same ones
    li2 = systems["polylog2"]
    approx = build_approximant(li2, 3, 3, 1)
    t = approx.Q.height() / fraction_bound_height_Qk(approx, li2, 0) * (1 - shave)
    pair_form, fraction_form = acceptance.bound_height_pair, fraction_bound_height_Qk

    def scaled_pair(approx, system):
        at = pair_form(approx, system)
        return lambda k: (at(k)[0] * t.numerator, at(k)[1] * t.denominator)

    monkeypatch.setattr(acceptance, "bound_height_pair", scaled_pair)
    monkeypatch.setitem(globals(), "fraction_bound_height_Qk",
                        lambda approx, system, k: fraction_form(approx, system, k) * t)
    rec = acceptance.pade_grid(systems, grid(True), remainders=False)
    expected = fraction_pade_grid(systems, grid(True), False)
    # the replaced loop counted height failures without naming them
    named = rec.fields.pop("first-failures")
    assert rec.fields == expected.fields and "first-failures" not in expected.fields
    assert rec.fields["height-bound-failures"] == failures      # of 61 height cells
    assert named == ("height log1m p=2 q=1 h=1 k=0; height log1m p=2 q=1 h=1 k=1; "
                     "height log1m p=2 q=2 h=1 k=0; height log1m p=2 q=2 h=1 k=1; "
                     "height log1m p=2 q=2 h=2 k=0")


def test_grid_cells_construct_no_fraction(systems, monkeypatch):
    # pade_grid's own work, without the per-instance approximant, iteration and zero
    # estimate and without the F_j(z) enclosures, makes fewer Fractions than it has cells:
    # a Fraction normalized per cell would reach their number
    made, paused = [0], [0]
    fraction_new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += not paused[0]
        return fraction_new(cls, *args, **kwargs)

    def pausing(fn):
        def run(*args, **kwargs):
            paused[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                paused[0] -= 1
        return run

    def producer(system, j, z):
        value = pausing(value_producer)(system, j, z)
        value.enclosure = pausing(value.enclosure)
        return value

    for name in ("build_approximant", "iterate", "zero_estimate_check"):
        monkeypatch.setattr(acceptance, name, pausing(getattr(acceptance, name)))
    monkeypatch.setattr(acceptance, "value_producer", producer)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    rec = acceptance.pade_grid(systems, grid(True), remainders=True)
    monkeypatch.undo()
    cells = sum((1 + len(Z_POINTS) * systems[arg].N) * (h // systems[arg].d + 1)
                for arg, _, _, h in grid(True))
    assert rec.status == "certified" and cells == 406
    assert made[0] < cells


pairs = st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30))


@st.composite
def unreduced_intervals(draw):
    ends = st.integers(-10 ** 40, 10 ** 40)
    lo, hi = sorted((draw(ends), draw(ends)))
    return IntervalReal._of(lo, hi, draw(st.integers(1, 10 ** 40)))


@given(unreduced_intervals(), pairs, pairs, pairs)
@example(IntervalReal._of(1, 3, 2), (2, 1), (2, 1), (1, 1))      # |[-1, 1]| <= 1: a tie holds
@example(IntervalReal._of(3, 5, 1), (1, 1), (0, 1), (3, 1))      # [3, 5] touches 3: open
@example(IntervalReal._of(3, 5, 1), (1, 1), (0, 1), (2, 1))      # [3, 5] > 2
@example(IntervalReal._of(3, 5, 1), (-6, 4), (-9, 2), (3, 2))    # q < 0, unreduced pairs
@example(IntervalReal._of(-7, 5, 3), (0, 5), (-1, 3), (1, 3))    # q = 0: |p| alone
@example(IntervalReal._of(-7, -5, 3), (2, 1), (-5, 1), (1, 9))   # below -p - bound
@settings(max_examples=300, deadline=None)
def test_abs_affine_le_is_the_composed_interval_arithmetic(iv, q, p, bound):
    composed = abs(iv * Fraction(*q) - Fraction(*p)).le(Fraction(*bound))
    assert iv.abs_affine_le(q, p, bound) is composed
