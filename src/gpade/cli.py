"""Command-line surface.

Every subcommand writes a deterministic line-oriented report (see report.py)
to stdout or --out.  Exit codes: 0 when no check is violated, 1 when some
check has status violated, 2 for usage or domain errors, 3 when an internal
certificate fails (two independent computations disagreed).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from .catalog import GFunctionSystem, resolve_system
from .constants import ConstantsConfig, bound_height_Qk, bound_remainder, compute_constants
from .derivation import IteratedFamily, iterate, zero_estimate_check
from .digits import expand_digits, profile_with_expansion, theorem2_convergent
from .errors import (DivisibilityError, HypothesisUnmetError, InsufficientDigitsError,
                     InsufficientPrecisionError, InternalCertificateError,
                     KernelVectorError, NoConvergentTailBound, PreconditionError,
                     RankDeficiencyError)
from .intervals import DEFAULT_DIGIT_CAP, IntervalReal, frac_pow, precision_cap
from .pade import PadeApproximant, assemble, build_approximant
from .quadratic import cf_sqrt, convergent_gap_check, pell_bound_check, \
    reduce_to_theorem1, theorem5_scan
from .report import (STATUS_CERTIFIED, STATUS_HYPOTHESIS_UNMET, STATUS_INDETERMINATE,
                     STATUS_VIOLATED, ReportWriter, fmt_fraction, fmt_poly,
                     fmt_tristate, parse_report)
from .verify import eval_certified, scan_nearest, value_producer, verify_theorem1

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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--precision", type=int, default=64,
                    help="working decimal digits for interval refinement")
    sp.add_argument("--max-precision", type=int, default=DEFAULT_DIGIT_CAP,
                    dest="max_precision",
                    help="escalation cap (decimal digits) for every certified decision")
    sp.add_argument("--out", default=None, help="write the report to this path")


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise PreconditionError(f"range must be lo:hi, got {text!r}")


def _fmt_sym(sym: Optional[tuple[Fraction, Fraction]]) -> str:
    if sym is None:
        return STATUS_INDETERMINATE
    coef, e_exp = sym
    if e_exp == 0:
        return fmt_fraction(coef)
    return f"{fmt_fraction(coef)}*e^{fmt_fraction(e_exp)}"


def _emit_approximant(w: ReportWriter, system_arg: str, system: GFunctionSystem,
                      approx: PadeApproximant) -> None:
    w.record("approximant")
    w.kv("system", system.name)
    w.kv("system-arg", system_arg)
    w.kv("N", system.N)
    w.kv("d", system.d)
    w.kv("p", approx.p)
    w.kv("q", approx.q)
    w.kv("h", approx.h)
    w.kv("kernel-vector", " ".join(str(x) for x in approx.kernel_vector))
    w.kv("Q", approx.Q)
    for j in range(1, system.N + 1):
        w.kv(f"P[{j}]", approx.P[j - 1])
    w.kv("order-target", approx.p + approx.h + 1)
    for j in range(1, system.N + 1):
        w.kv(f"order-certified[{j}]", approx.order_certificates[j - 1])
    w.kv("Q-integral", approx.Q.is_integral())
    w.kv("P-cleared", approx.denominator_cleared)
    w.kv("height-Q", approx.height_Q)
    w.kv("siegel-bound", approx.siegel_bound)
    w.kv("siegel-ok", approx.siegel_ok)
    if not (approx.Q.is_integral() and approx.denominator_cleared) or approx.siegel_ok is False:
        w.status(STATUS_VIOLATED)
    else:
        w.status(STATUS_CERTIFIED if approx.siegel_ok else STATUS_INDETERMINATE)


def _approx_from_artifact(path: str) -> tuple[GFunctionSystem, str, PadeApproximant]:
    with open(path) as fh:
        _, records = parse_report(fh.read())
    rec = next((r for r in records if r["record"] == "approximant"), None)
    if rec is None:
        raise PreconditionError(f"{path} contains no approximant record")
    system = resolve_system(rec["system-arg"])
    v = [int(x) for x in rec["kernel-vector"].split()]
    approx = assemble(system, int(rec["p"]), int(rec["q"]), int(rec["h"]), v)
    if fmt_poly(approx.Q) != rec["Q"]:
        raise InternalCertificateError("rebuilt Q disagrees with the artifact")
    return system, rec["system-arg"], approx


def _resolve_build(args) -> tuple[GFunctionSystem, str, PadeApproximant]:
    if getattr(args, "from_path", None):
        return _approx_from_artifact(args.from_path)
    if args.system is None or args.p is None or args.q is None or args.h is None:
        raise PreconditionError("need either --from or all of --system/--p/--q/--h")
    system = resolve_system(args.system)
    return system, args.system, build_approximant(system, args.p, args.q, args.h)


def cmd_build(args, echo: str) -> ReportWriter:
    system = resolve_system(args.system)
    approx = build_approximant(system, args.p, args.q, args.h)
    w = ReportWriter(echo, args.precision)
    _emit_approximant(w, args.system, system, approx)
    return w


def _emit_iteration(w: ReportWriter, system: GFunctionSystem, fam: IteratedFamily,
                    include_polys: bool = True) -> None:
    for cert in fam.certs:
        w.record("iteration-step")
        w.kv("k", cert.k)
        if include_polys:
            w.kv("Q_k", fam.Q(cert.k))
            for j in range(1, system.N + 1):
                w.kv(f"P[{j},{cert.k}]", fam.P(j, cert.k))
        w.kv("deg-Q_k", fam.Q(cert.k).degree())
        w.kv("deg-bound", fam.base.q + (system.d - 1) * cert.k)
        w.kv("degree-ok", cert.degree_ok)
        w.kv("Q-integral", cert.Q_integral)
        w.kv("P-cleared", cert.P_cleared)
        w.kv("order-target", " ".join(str(x) for x in cert.order_targets))
        w.kv("order-verified", " ".join(str(x) for x in cert.order_verified))
        w.kv("order-ok", cert.order_ok)
        ok = cert.degree_ok and cert.Q_integral and cert.P_cleared and cert.order_ok
        w.status(STATUS_CERTIFIED if ok else STATUS_VIOLATED)


def cmd_iterate(args, echo: str) -> ReportWriter:
    system, system_arg, approx = _resolve_build(args)
    fam = iterate(approx, system, args.k_max)
    w = ReportWriter(echo, args.precision)
    _emit_approximant(w, system_arg, system, approx)
    _emit_iteration(w, system, fam)
    return w


def cmd_zerocheck(args, echo: str) -> ReportWriter:
    system, system_arg, approx = _resolve_build(args)
    K = max(system.N, args.k_max if args.k_max is not None else 0)
    fam = iterate(approx, system, K)
    chk = zero_estimate_check(fam, system)
    w = ReportWriter(echo, args.precision)
    _emit_approximant(w, system_arg, system, approx)
    w.record("zero-estimate")
    w.kv("vanish-order", chk.vanish_order)
    w.kv("required-vanish", chk.required_vanish)
    w.kv("delta-tilde-degree", chk.DeltaTilde.degree())
    w.kv("ell0", chk.ell0)
    w.kv("delta-tilde", chk.DeltaTilde)
    w.kv("nonzero", chk.nonzero)
    w.kv("degree-ok", chk.degree_ok)
    ok = chk.nonzero and chk.degree_ok and chk.vanish_order >= chk.required_vanish
    w.status(STATUS_CERTIFIED if ok else STATUS_VIOLATED)
    return w


def cmd_constants(args, echo: str) -> ReportWriter:
    system = resolve_system(args.system)
    config = ConstantsConfig(h0=Fraction(args.h0), h1=Fraction(args.h1),
                             h2=Fraction(args.h2))
    w = ReportWriter(echo, args.precision)
    w.record("constants")
    w.kv("system", system.name)
    w.kv("a", args.a)
    w.kv("b", args.b)
    w.kv("t", Fraction(args.t))
    w.kv("m", args.m)
    w.kv("h0", config.h0)
    w.kv("h1", config.h1)
    w.kv("h2", config.h2)
    rep = compute_constants(system, args.a, args.b, Fraction(args.t), args.m,
                            config, digits=args.precision,
                            allow_desk_scale=not args.strict)
    w.kv("N", rep.N)
    w.kv("d", rep.d)
    w.kv("chi", rep.chi)
    w.kv("chi-closed-form", _fmt_sym(rep.chi_sym))
    w.kv("c1", rep.c1)
    w.kv("c1-closed-form", _fmt_sym(rep.c1_sym))
    w.kv("c2", rep.c2)
    w.kv("c3", rep.c3)
    w.kv("c5", rep.c5)
    w.kv("c6", rep.c6)
    w.kv("c7", rep.c7)
    w.kv("c8", rep.c8)
    w.kv("c4", rep.c4)
    if rep.c4_reference is not None:
        w.kv("c4-closed-form", rep.c4_reference)
        w.kv("c4-closed-form-agrees", not rep.c4_discrepancy)
    w.kv("y", rep.y)
    w.kv("x", rep.x if rep.x is not None else None)
    w.kv("h", rep.h if rep.h is not None else None)
    w.kv("p", rep.p if rep.p is not None else None)
    w.kv("q", rep.q if rep.q is not None else None)
    w.kv("beta", rep.beta if rep.beta is not None else None)
    w.kv("hyp-b-ok", rep.hyp_b_ok)
    w.kv("hyp-m-ok", fmt_tristate(rep.hyp_m_ok))
    w.kv("eqhyp", rep.eqhyp_status)
    w.kv("desk-scale", rep.desk_scale)
    if rep.desk_scale or not rep.hyp_b_ok or rep.hyp_m_ok is False:
        w.status(STATUS_HYPOTHESIS_UNMET)
    else:
        w.status(STATUS_CERTIFIED)
    return w


def cmd_verify(args, echo: str) -> ReportWriter:
    system = resolve_system(args.system)
    if args.n is None and not args.scan_nearest:
        raise PreconditionError("need --n or --scan-nearest")
    n = args.n if args.n is not None else scan_nearest(system, args.a, args.b,
                                                       args.B, args.m, j=args.j)
    pqh = None
    if args.property_mode:
        if args.p is None or args.q is None or args.h is None:
            raise PreconditionError("--property-mode needs --p/--q/--h")
        pqh = (args.p, args.q, args.h)
    rep = verify_theorem1(system, args.a, args.b, args.B, args.m, n,
                          j=args.j, digits=args.precision,
                          property_mode=args.property_mode, pqh=pqh)
    w = ReportWriter(echo, args.precision)
    w.record("diophantine-bound")
    w.kv("system", rep.system_name)
    w.kv("a", rep.a)
    w.kv("b", rep.b)
    w.kv("B", rep.B)
    w.kv("m", rep.m)
    w.kv("n", rep.n)
    w.kv("j", rep.j)
    w.kv("rhs-exponent", rep.rhs_exponent)
    w.kv("rhs", rep.rhs)
    w.kv("lhs", rep.lhs)
    w.kv("hypothesis-ok", rep.hypothesis_ok)
    w.kv("c4", rep.constants.c4)
    w.status(rep.status)
    if rep.chain is not None:
        ch = rep.chain
        w.record("chain-replay")
        w.kv("p", ch.p)
        w.kv("q", ch.q)
        w.kv("h", ch.h)
        w.kv("k", ch.k)
        w.kv("xi", ch.witness.xi)
        w.kv("U", ch.witness.U_jk)
        w.kv("V", ch.witness.V_k)
        w.kv("denominator-scale", ch.witness.denominator_scale)
        w.kv("xi-divisible-by-b^m", ch.witness.divisible_by_bm)
        w.kv("remainder-small", fmt_tristate(ch.eq_remainder_small))
        w.kv("balance", fmt_tristate(ch.eq_balance))
        w.kv("distance", fmt_tristate(ch.eq_distance))
        w.kv("distance-lower", ch.distance_lower)
        w.status(STATUS_CERTIFIED if ch.all_certified
                 else (STATUS_VIOLATED if ch.eq_distance is False else STATUS_INDETERMINATE))
    return w


def cmd_digits(args, echo: str) -> ReportWriter:
    system = resolve_system(args.system)
    j = args.j if args.j is not None else system.N
    work, aa = (system, args.a) if args.a > 0 else (system.negated(), -args.a)
    z = Fraction(aa, args.b ** args.s)
    if work.C * z >= 1:
        raise PreconditionError("C |a|/b^s must be < 1 for certified evaluation")
    value = value_producer(work, j, z)
    window = _parse_range(args.window)
    ds, profile = profile_with_expansion(value, args.b, args.t, window,
                                         count=args.count)
    w = ReportWriter(echo, args.precision)
    w.record("digit-expansion")
    w.kv("system", system.name)
    w.kv("a", args.a)
    w.kv("b", args.b)
    w.kv("s", args.s)
    w.kv("component", j)
    w.kv("integer-part", ds.integer_part)
    w.kv("certified-digits", ds.certified_len)
    text = ds.as_str()
    for i in range(0, len(text), 60):
        w.kv(f"digits[{i + 1}..{min(i + 60, ds.certified_len)}]", text[i:i + 60])
    w.status(STATUS_CERTIFIED)

    w.record("repetition-profile")
    w.kv("t", args.t)
    w.kv("window", f"{window[0]}:{window[1]}")
    w.kv("counts", " ".join(f"{n}:{c}" for n, c in profile.values))
    w.kv("max-ratio", profile.max_ratio)
    if profile.empirical_vb is not None:
        w.kv("empirical-vb", profile.empirical_vb)
    w.status(STATUS_CERTIFIED)

    conv = theorem2_convergent(ds, value, args.t, window[0])
    w.record("block-convergent")
    w.kv("t", conv.t)
    w.kv("n", conv.n)
    w.kv("repetitions", conv.count)
    w.kv("p_n", conv.p_n)
    w.kv("q_n", conv.q_n)
    w.kv("bound-strict", conv.bound)
    w.kv("holds-strict", fmt_tristate(conv.holds))
    w.kv("bound-provable", conv.bound_relaxed)
    w.kv("holds-provable", fmt_tristate(conv.holds_relaxed))
    w.kv("distance", conv.distance)
    w.status(STATUS_CERTIFIED if conv.holds_relaxed
             else (STATUS_VIOLATED if conv.holds_relaxed is False else STATUS_INDETERMINATE))
    return w


def cmd_sqrt(args, echo: str) -> ReportWriter:
    d = Fraction(args.d)
    exp = cf_sqrt(d, args.convergents)
    w = ReportWriter(echo, args.precision)
    w.record("continued-fraction")
    w.kv("d", d)
    w.kv("terms", " ".join(str(t) for t in exp.terms))
    w.kv("period", " ".join(str(t) for t in exp.period))
    w.status(STATUS_CERTIFIED)
    for idx, conv in enumerate(exp.convergents):
        w.record("convergent")
        w.kv("index", idx)
        w.kv("alpha", conv.alpha)
        w.kv("beta", conv.beta)
        w.kv("pell-value", conv.pell_value)
        pell_ok = pell_bound_check(conv, d)
        gap_ok = convergent_gap_check(conv, d)
        w.kv("pell-bound-ok", pell_ok)
        w.kv("gap-ok", gap_ok)
        w.status(STATUS_CERTIFIED if pell_ok and gap_ok else STATUS_VIOLATED)
    red = reduce_to_theorem1(exp.convergents[-1], d)
    w.record("reduction")
    w.kv("alpha", red.alpha)
    w.kv("beta", red.beta)
    w.kv("a", red.a)
    w.kv("b", red.b)
    w.kv("system", red.system_name)
    w.kv("N_d", red.N_d)
    w.kv("alpha-ge-N_d", red.alpha_ge_Nd)
    w.kv("hyp-b-ok", fmt_tristate(red.hyp_b_ok))
    w.kv("m-threshold", red.m_threshold)
    w.kv("identity-width", red.identity_width)
    w.kv("identity-series-checked", red.identity_series_checked)
    w.status(STATUS_CERTIFIED)
    if args.scan_m:
        scan = theorem5_scan(d, exp.convergents[-1], _parse_range(args.scan_m),
                             denominator_choice=args.den)
        w.record("restricted-scan")
        w.kv("denominator", f"{args.den}={scan.den}")
        w.kv("m-range", f"{scan.m_range[0]}:{scan.m_range[1]}")
        for row in scan.rows:
            w.kv(f"m[{row.m}]", f"n={row.n} dist={row.distance.decimal_str(10)} "
                                f"eta-req<={fmt_fraction(row.eta_req)}")
        w.kv("eta-fit", scan.eta_fit)
        w.status(STATUS_CERTIFIED)
    return w


def _acceptance_grid(quick: bool) -> list[tuple[str, int, int, int]]:
    """(system-arg, p, q, h) with h >= 1 and N h <= q <= p."""
    out = []
    p_max = 4 if quick else 10
    for arg, N in (("log1m", 1), ("polylog2", 2)):
        for p in range(2, p_max + 1):
            for h in range(1, p // N + 1):
                for q in range(N * h, p + 1):
                    out.append((arg, p, q, h))
    return out


def cmd_suite(args, echo: str) -> ReportWriter:
    quick = args.quick
    w = ReportWriter(echo, args.precision)
    systems = {arg: resolve_system(arg) for arg in ("log1m", "polylog2")}

    # 1: constant chain for the dilogarithm pair
    li2 = systems["polylog2"]
    rep = compute_constants(li2, 1, 10, Fraction(0), 100, digits=48,
                            allow_desk_scale=True)
    w.record("suite-constants")
    c1_match = rep.c1_sym == (Fraction(4), Fraction(66))
    c2_match = rep.c2 == 12
    below = rep.c4.certainly_lt(frac_pow(Fraction(10), Fraction(289, 50), 48).lo)
    w.kv("c1-closed-form", _fmt_sym(rep.c1_sym))
    w.kv("c1-matches-4e66", c1_match)
    w.kv("c2", rep.c2)
    w.kv("c4", rep.c4)
    w.kv("c4-below-10^5.78", below)
    w.kv("c4-closed-form-agrees", not rep.c4_discrepancy)
    ok1 = c1_match and c2_match and below and not rep.c4_discrepancy
    w.status(STATUS_CERTIFIED if ok1 else STATUS_VIOLATED)

    # 2-7: the Pade grid with per-instance certificates
    grid = _acceptance_grid(quick)
    order_fail = clearing_fail = siegel_fail = siegel_undecided = 0
    iter_fail = height_fail = remainder_fail = zero_fail = 0
    z_points = [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 10),
                Fraction(-1, 10), Fraction(1, 100)]
    first_failures: list[str] = []
    for arg, p, q, h in grid:
        system = systems[arg]
        approx = build_approximant(system, p, q, h)
        if not (approx.Q.is_integral() and min(approx.order_certificates) >= p + h + 1):
            order_fail += 1
        if not approx.denominator_cleared:
            clearing_fail += 1
        if approx.siegel_ok is None:
            siegel_undecided += 1
        elif not approx.siegel_ok:
            siegel_fail += 1
            if len(first_failures) < 5:
                first_failures.append(f"siegel {arg} p={p} q={q} h={h}")
        K = max(system.N, h // system.d)
        fam = iterate(approx, system, K)
        for cert in fam.certs:
            if cert.k > h // system.d:
                continue
            if not (cert.degree_ok and cert.Q_integral and cert.P_cleared
                    and cert.order_ok):
                iter_fail += 1
                if len(first_failures) < 5:
                    first_failures.append(f"iterate {arg} p={p} q={q} h={h} k={cert.k}")
            hk = fam.Q(cert.k).height()
            if hk > bound_height_Qk(approx, system, cert.k):
                height_fail += 1
            if not quick:
                for z in z_points:
                    bnd = bound_remainder(fam, system, cert.k, z)
                    for j in range(1, system.N + 1):
                        iv = _remainder_enclosure(fam, system, j, cert.k, z, 48)
                        if not iv.hi <= bnd:
                            iv = _remainder_enclosure(fam, system, j, cert.k, z, 128)
                        if not iv.hi <= bnd:
                            remainder_fail += 1
                            if len(first_failures) < 5:
                                first_failures.append(
                                    f"remainder {arg} p={p} q={q} h={h} k={cert.k} z={z}")
        chk = zero_estimate_check(fam, system)
        if not (chk.nonzero and chk.degree_ok
                and chk.vanish_order >= chk.required_vanish):
            zero_fail += 1
            if len(first_failures) < 5:
                first_failures.append(f"zero {arg} p={p} q={q} h={h}")
    w.record("suite-pade-grid")
    w.kv("instances", len(grid))
    w.kv("order-failures", order_fail)
    w.kv("clearing-failures", clearing_fail)
    w.kv("siegel-failures", siegel_fail)
    if siegel_undecided:
        w.kv("undecided", siegel_undecided)
    w.kv("iteration-failures", iter_fail)
    w.kv("height-bound-failures", height_fail)
    if not quick:
        w.kv("remainder-bound-failures", remainder_fail)
    w.kv("zero-estimate-failures", zero_fail)
    if first_failures:
        w.kv("first-failures", "; ".join(first_failures))
    grid_ok = (order_fail == clearing_fail == siegel_fail == iter_fail
               == height_fail == remainder_fail == zero_fail == 0)
    w.status(STATUS_VIOLATED if not grid_ok
             else STATUS_INDETERMINATE if siegel_undecided else STATUS_CERTIFIED)

    # 8: xi chain on the frozen property instances
    instances = CHAIN_INSTANCES[:3] if quick else CHAIN_INSTANCES
    chain_fail = 0
    for arg, a, b, B, m, n, p, q, h in instances:
        system = systems[arg]
        rep8 = verify_theorem1(system, a, b, B, m, n, digits=args.precision,
                               property_mode=True, pqh=(p, q, h))
        ch = rep8.chain
        if ch is None or not (ch.witness.divisible_by_bm and ch.all_certified):
            chain_fail += 1
    w.record("suite-xi-chain")
    w.kv("instances", len(instances))
    w.kv("failures", chain_fail)
    w.status(STATUS_CERTIFIED if chain_fail == 0 else STATUS_VIOLATED)

    # 9: digit stability at doubled depth, plus block-convergent bounds
    n_digits = 100 if quick else 500
    value = value_producer(li2, 2, Fraction(1, 10))
    ds1 = expand_digits(value, 10, n_digits)
    ds2 = expand_digits(value, 10, 2 * n_digits)
    stable = ds1.digits == ds2.digits[:n_digits]
    prefix_ok = ds1.as_str(50) == LI2_DIGITS_50
    w.record("suite-digit-stability")
    w.kv("digits", n_digits)
    w.kv("stable-at-doubled-depth", stable)
    w.kv("prefix-matches-frozen-50", prefix_ok)
    w.status(STATUS_CERTIFIED if stable and prefix_ok else STATUS_VIOLATED)

    n_max = 40 if quick else 300
    t_list = (1, 2) if quick else (1, 2, 3)
    ds = expand_digits(value, 10, n_max + 12 * max(t_list) + 60)
    provable_fail = strict_fail = undecided = 0
    for t in t_list:
        for n in range(1, n_max + 1):
            conv = theorem2_convergent(ds, value, t, n)
            provable_fail += conv.holds_relaxed is False
            strict_fail += conv.holds is False
            undecided += None in (conv.holds, conv.holds_relaxed)
    w.record("suite-block-convergents")
    w.kv("n-max", n_max)
    w.kv("t-values", " ".join(str(t) for t in t_list))
    w.kv("provable-bound-failures", provable_fail)
    # the (b-1) numerator form fails on carry-boundary blocks; counted, not asserted
    w.kv("strict-bound-violations", strict_fail)
    if undecided:
        w.kv("undecided", undecided)
    w.status(STATUS_VIOLATED if provable_fail
             else STATUS_INDETERMINATE if undecided else STATUS_CERTIFIED)

    # 10: quadratic surds
    ds_list = (2, 3) if quick else (2, 3, 5, 7)
    beta_cap = 10 ** 3 if quick else 10 ** 6
    pell_fail = 0
    reductions = 0
    for dv in ds_list:
        exp = cf_sqrt(Fraction(dv), 40)
        convs = [c for c in exp.convergents if c.beta <= beta_cap]
        for conv in convs:
            if not pell_bound_check(conv, Fraction(dv)):
                pell_fail += 1
        red = reduce_to_theorem1(convs[-1], Fraction(dv))
        reductions += 1
        if red.identity_width > Fraction(1, 10 ** 8):
            pell_fail += 1
    w.record("suite-quadratic")
    w.kv("d-values", " ".join(str(x) for x in ds_list))
    w.kv("beta-cap", beta_cap)
    w.kv("pell-failures", pell_fail)
    w.kv("reductions-checked", reductions)
    w.status(STATUS_CERTIFIED if pell_fail == 0 else STATUS_VIOLATED)

    w.record("suite-summary")
    w.kv("violated", w.any_violated)
    return w


def _remainder_enclosure(fam: IteratedFamily, system: GFunctionSystem, j: int,
                         k: int, z: Fraction, digits: int) -> IntervalReal:
    F = eval_certified(system, j, z, Fraction(1, 10 ** digits))
    return abs(F * fam.Q(k)(z) - fam.P(j, k)(z))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpade",
        description="Certified Pade-type approximants, constant chains, and "
                    "Diophantine checks for G-function systems.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    sp = subs.add_parser("build", help="construct one approximant with certificates")
    sp.add_argument("--system", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(handler=cmd_build)

    sp = subs.add_parser("iterate", help="derive P_k up to k-max with certificates")
    sp.add_argument("--from", dest="from_path", default=None,
                    help="build artifact to continue from")
    sp.add_argument("--system", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--h", type=int, default=None)
    sp.add_argument("--k-max", dest="k_max", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(handler=cmd_iterate)

    sp = subs.add_parser("zerocheck", help="determinant zero estimate")
    sp.add_argument("--from", dest="from_path", default=None)
    sp.add_argument("--system", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--h", type=int, default=None)
    sp.add_argument("--k-max", dest="k_max", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(handler=cmd_zerocheck)

    sp = subs.add_parser("constants", help="effective constant chain c1..c8, schedule")
    sp.add_argument("--system", required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--t", required=True, help="rational, e.g. 0 or 3/2")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h0", default="1")
    sp.add_argument("--h1", default="1")
    sp.add_argument("--h2", default="1")
    sp.add_argument("--strict", action="store_true",
                    help="error out when the schedule hypotheses fail")
    _add_common(sp)
    sp.set_defaults(handler=cmd_constants)

    sp = subs.add_parser("verify", help="certify the distance lower bound at one point")
    sp.add_argument("--system", required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--scan-nearest", action="store_true", dest="scan_nearest")
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--property-mode", action="store_true", dest="property_mode",
                    help="replay the xi chain at explicit p/q/h")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--h", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(handler=cmd_verify)

    sp = subs.add_parser("digits", help="certified digit expansion and repetition profile")
    sp.add_argument("--system", required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--window", default="1:50")
    sp.add_argument("--j", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(handler=cmd_digits)

    sp = subs.add_parser("sqrt", help="surd continued fraction, Pell bounds, reduction")
    sp.add_argument("--d", required=True, help="positive rational, e.g. 2 or 5/3")
    sp.add_argument("--convergents", type=int, default=6)
    sp.add_argument("--scan-m", dest="scan_m", default=None, help="range lo:hi")
    sp.add_argument("--den", choices=("alpha", "beta"), default="alpha")
    _add_common(sp)
    sp.set_defaults(handler=cmd_sqrt)

    sp = subs.add_parser("suite", help="run the acceptance checks")
    sp.add_argument("--quick", action="store_true")
    _add_common(sp)
    sp.set_defaults(handler=cmd_suite)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # reports print exact integers by contract; lift the str() size guard
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with precision_cap(args.max_precision):
            writer = args.handler(args, " ".join([str(a) for a in argv]))
    except (PreconditionError, InsufficientDigitsError, NoConvergentTailBound,
            InsufficientPrecisionError, HypothesisUnmetError) as e:
        print(f"gpade: error: {e}", file=sys.stderr)
        return 2
    except (InternalCertificateError, DivisibilityError, KernelVectorError,
            RankDeficiencyError) as e:
        print(f"gpade: internal certificate failure: {e}", file=sys.stderr)
        return 3
    text = writer.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if writer.any_violated else 0


if __name__ == "__main__":
    raise SystemExit(main())
