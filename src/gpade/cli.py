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

from .acceptance import SuiteRecord, run_suite
from .catalog import GFunctionSystem, resolve_system
from .constants import ConstantsConfig, compute_constants
from .derivation import IteratedFamily, iterate, zero_estimate_check
from .digits import profile_with_expansion, theorem2_convergent
from .errors import (DivisibilityError, HypothesisUnmetError, InsufficientDigitsError,
                     InsufficientPrecisionError, InternalCertificateError,
                     KernelVectorError, NoConvergentTailBound, PreconditionError,
                     RankDeficiencyError)
from .intervals import DEFAULT_DIGIT_CAP, precision_cap
from .pade import PadeApproximant, assemble, build_approximant
from .quadratic import cf_sqrt, convergent_gap_check, pell_bound_check, \
    reduce_to_theorem1, theorem5_scan
from .report import (STATUS_CERTIFIED, STATUS_HYPOTHESIS_UNMET, STATUS_INDETERMINATE,
                     STATUS_VIOLATED, TRISTATE_STATUS, ReportWriter, fmt_fraction,
                     fmt_poly, fmt_sym, fmt_tristate, parse_report)
from .verify import scan_nearest, value_producer, verify_theorem1


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
    cleared = approx.Q.is_integral() and approx.denominator_cleared
    w.status(TRISTATE_STATUS[approx.siegel_ok] if cleared else STATUS_VIOLATED)


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
    system, system_arg, approx = _resolve_build(args)
    w = ReportWriter(echo, args.precision)
    _emit_approximant(w, system_arg, system, approx)
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
    w.kv("chi-closed-form", fmt_sym(rep.chi_sym))
    w.kv("c1", rep.c1)
    w.kv("c1-closed-form", fmt_sym(rep.c1_sym))
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
    work, aa = system.sign_reduced(args.a)
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
    w.status(TRISTATE_STATUS[conv.holds_relaxed])
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


def render_suite(records: list[SuiteRecord], echo: str, precision: int) -> ReportWriter:
    """The suite report: one record per SuiteRecord, then the summary."""
    w = ReportWriter(echo, precision)
    for rec in records:
        w.record(rec.kind)
        for key, value in rec.fields.items():
            w.kv(key, value)
        w.status(rec.status)
    w.record("suite-summary")
    w.kv("violated", w.any_violated)
    return w


def cmd_suite(args, echo: str) -> ReportWriter:
    return render_suite(run_suite(args.quick, args.precision), echo, args.precision)


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
