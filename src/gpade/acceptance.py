"""The acceptance suite: the paper's chain checked end to end, in one place.

`run_suite` returns one report `Record` per check, whose status follows from
its fields by the one rule of `Record.add`.  `gpade suite` renders the
records, and the acceptance tests assert on them.

The Pade grid decides its height and remainder cells on unnormalized integer
pairs (`Poly.at` and the pair forms of `constants`): no cell builds a Fraction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .catalog import GFunctionSystem, resolve_system
from .constants import bound_height_pair, bound_remainder_pair, compute_constants
from .derivation import iterate, zero_estimate_check
from .digits import expand_digits, theorem2_convergent
from .intervals import decide, frac_pow
from .pade import build_approximant
from .quadratic import cf_sqrt, pell_bound_check, reduce_to_theorem1
from .report import Record, fmt_sym
from .verify import value_producer, verify_theorem1

# (system-arg, N) of the grid systems
GRID_SYSTEMS = (("log1m", 1), ("polylog2", 2))

Z_POINTS = [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 10),
            Fraction(-1, 10), Fraction(1, 100)]

# Frozen property-mode chain instances (system-arg, a, b, B, m, n, p, q, h);
# n is the nearest integer to B b^m F(a/b), so the distance chain is sharp.
CHAIN_INSTANCES: list[tuple[str, int, int, int, int, int, int, int, int]] = [
    ("log1m", 1, 10, 1, 1, -1, 3, 2, 2),
    ("log1m", 1, 10, 1, 1, -1, 4, 3, 3),
    ("log1m", 1, 10, 1, 1, -1, 5, 4, 4),
    ("log1m", 1, 10, 1, 2, -11, 4, 2, 2),
    ("log1m", 1, 10, 1, 2, -11, 5, 3, 3),
    ("log1m", 1, 10, 1, 3, -105, 5, 2, 2),
    ("log1m", 1, 10, 1, 3, -105, 6, 3, 3),
    ("log1m", 1, 10, 2, 1, -2, 3, 2, 2),
    ("log1m", 1, 10, 3, 2, -32, 5, 3, 3),
    ("log1m", -1, 10, 1, 1, 1, 3, 2, 2),
    ("log1m", -1, 10, 1, 2, 10, 4, 2, 2),
    ("log1m", 3, 10, 1, 1, -4, 4, 3, 3),
    ("polylog2", 1, 1000, 1, 1, 1, 5, 4, 2),
    ("polylog2", 1, 1000, 1, 1, 1, 6, 4, 2),
    ("polylog2", 1, 1000, 1, 2, 1000, 6, 4, 2),
    ("polylog2", 1, 1000, 2, 1, 2, 5, 4, 2),
    ("polylog2", -1, 1000, 1, 1, -1, 5, 4, 2),
    ("polylog2", -1, 1000, 1, 2, -1000, 6, 4, 2),
    ("polylog2", 3, 1000, 1, 1, 3, 5, 4, 2),
    ("polylog2", 7, 1000, 1, 1, 7, 6, 4, 2),
]

LI2_DIGITS_50 = "10261779109939113111383736905723221370568993941926"


def run_suite(quick: bool, precision: int) -> list[Record]:
    """Every suite record, in report order; `quick` shrinks each check."""
    systems = {arg: resolve_system(arg) for arg, _ in GRID_SYSTEMS}
    li2 = systems["polylog2"]
    return [li2_constants(li2), pade_grid(systems, grid(quick), remainders=not quick),
            xi_chain(systems, quick, precision), *li2_digits(li2, quick),
            quadratic_surds(quick)]


def li2_constants(li2: GFunctionSystem) -> Record:
    """Criterion 1: the constant chain of the dilogarithm pair."""
    rep = compute_constants(li2, 1, 10, Fraction(0), 100, digits=48, allow_desk_scale=True)
    c1_match = rep.c1_sym == (Fraction(4), Fraction(66))
    below = rep.c4.lt(frac_pow(Fraction(10), Fraction(289, 50), 48).lo) is True
    rec = Record("suite-constants")
    rec.add("c1-closed-form", fmt_sym(rep.c1_sym))
    rec.add("c1-matches-4e66", c1_match, c1_match)
    rec.add("c2", rep.c2, rep.c2 == 12)
    rec.add("c4", rep.c4)
    rec.add("c4-below-10^5.78", below, below)
    rec.add("c4-closed-form-agrees", not rep.c4_discrepancy, not rep.c4_discrepancy)
    return rec


def grid(quick: bool) -> list[tuple[str, int, int, int]]:
    """(system-arg, p, q, h) with h >= 1, N h <= q <= p and p <= 4 (quick) or 10."""
    p_max = 4 if quick else 10
    return [(arg, p, q, h) for arg, N in GRID_SYSTEMS for p in range(2, p_max + 1)
            for h in range(1, p // N + 1) for q in range(N * h, p + 1)]


def pade_grid(systems: dict, instances: list[tuple[str, int, int, int]],
              remainders: bool) -> Record:
    """Criteria 2-7: per-instance certificates, counted over the grid; the first five
    failures of any kind are named.

    A cell reads unnormalized integer pairs: the height bound is set up once per
    instance, the remainder bound's z-free factor once per k.  The remainder bound
    |Q_k(z) F_j(z) - P_{j,k}(z)| <= bound is decided by `decide` from 48 digits of
    F_j(z) up, each rung compared exactly in integers (`IntervalReal.abs_affine_le`);
    a cell the precision cap leaves open is undecided.  Every cell at one
    (system, j, z) reads the one value of the grid's table.
    """
    # values[arg][i][j - 1] is F_j(Z_POINTS[i]) of that system, or no row without remainders
    values = {arg: [[value_producer(system, j, z) for j in range(1, system.N + 1)]
                    for z in (Z_POINTS if remainders else ())] for arg, system in systems.items()}
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
        if not (approx.Q.is_integral() and min(approx.order_certificates) >= p + h + 1):
            fail("order", f"order {at}")
        if not approx.denominator_cleared:
            fail("clearing", f"clearing {at}")
        if approx.siegel_ok is None:
            undecided += 1
        elif not approx.siegel_ok:
            fail("siegel", f"siegel {at}")
        fam = iterate(approx, system, max(system.N, h // system.d))
        height_bound = bound_height_pair(approx, system)
        for cert in fam.certs[:h // system.d + 1]:
            k, Q = cert.k, fam.Q(cert.k)
            if not cert.ok:
                fail("iteration", f"iterate {at} k={k}")
            # H(Q_k) = height / Q.den against the bound hn / hd, cross-multiplied
            height, (hn, hd) = max(map(abs, Q.num), default=0), height_bound(k)
            if height * hd > hn * Q.den:
                fail("height-bound", f"height {at} k={k}")
            remainder_bound = bound_remainder_pair((height, Q.den), approx, system, k)
            for z, row in zip(Z_POINTS, values[arg]):
                Qz, bound = Q.at(z), remainder_bound(z)
                for j, value in enumerate(row, 1):
                    Pz = fam.P(j, k).at(z)
                    ok, _ = decide(value.enclosure,
                                   lambda iv: iv.abs_affine_le(Qz, Pz, bound), 48)
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


def xi_chain(systems: dict, quick: bool, precision: int) -> Record:
    """Criterion 8: the xi witness chain on the frozen property instances."""
    instances = CHAIN_INSTANCES[:3] if quick else CHAIN_INSTANCES
    failures = 0
    for arg, a, b, B, m, n, p, q, h in instances:
        ch = verify_theorem1(systems[arg], a, b, B, m, n, digits=precision,
                             pqh=(p, q, h)).chain
        failures += ch is None or not (ch.witness.divisible_by_bm and ch.all_certified)
    rec = Record("suite-xi-chain")
    rec.add("instances", len(instances))
    rec.add("failures", failures, failures == 0)
    return rec


def li2_digits(li2: GFunctionSystem, quick: bool) -> list[Record]:
    """Criterion 9: Li_2(1/10) digits are stable at doubled depth and match the
    frozen prefix, and the digit-block bounds hold at every (t, n) cell."""
    n_digits = 100 if quick else 500
    value = value_producer(li2, 2, Fraction(1, 10))
    ds1 = expand_digits(value, 10, n_digits)
    ds2 = expand_digits(value, 10, 2 * n_digits)
    stable = ds1.digits == ds2.digits[:n_digits]
    prefix_ok = ds1.as_str(50) == LI2_DIGITS_50
    digits = Record("suite-digit-stability")
    digits.add("digits", n_digits)
    digits.add("stable-at-doubled-depth", stable, stable)
    digits.add("prefix-matches-frozen-50", prefix_ok, prefix_ok)

    # the doubled-depth expansion reaches past every block these cells read
    n_max = 40 if quick else 300
    t_list = (1, 2) if quick else (1, 2, 3)
    provable_fail = strict_fail = undecided = 0
    for t in t_list:
        for n in range(1, n_max + 1):
            conv = theorem2_convergent(ds2, value, t, n)
            provable_fail += conv.holds_relaxed is False
            strict_fail += conv.holds is False
            undecided += None in (conv.holds, conv.holds_relaxed)
    rec = Record("suite-block-convergents")
    rec.add("n-max", n_max)
    rec.add("t-values", " ".join(str(t) for t in t_list))
    rec.add("provable-bound-failures", provable_fail, provable_fail == 0)
    # the (b-1) numerator form fails on carry-boundary blocks; counted, not asserted
    rec.add("strict-bound-violations", strict_fail)
    if undecided:
        rec.add("undecided", undecided, None)
    return [digits, rec]


def quadratic_surds(quick: bool) -> Record:
    """Criterion 10: Pell bounds on the convergents of sqrt(d), and the reduction."""
    d_list = (2, 3) if quick else (2, 3, 5, 7)
    beta_cap = 10 ** 3 if quick else 10 ** 6
    pell_fail = 0
    for dv in d_list:
        convs = [c for c in cf_sqrt(Fraction(dv), 40).convergents if c.beta <= beta_cap]
        pell_fail += sum(not pell_bound_check(c, Fraction(dv)) for c in convs)
        red = reduce_to_theorem1(convs[-1], Fraction(dv))
        pell_fail += red.identity_width > Fraction(1, 10 ** 8)
    rec = Record("suite-quadratic")
    rec.add("d-values", " ".join(str(x) for x in d_list))
    rec.add("beta-cap", beta_cap)
    rec.add("pell-failures", pell_fail, pell_fail == 0)
    rec.add("reductions-checked", len(d_list))
    return rec
