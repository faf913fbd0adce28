"""Command-line surface.

Each subcommand returns its report records (see report.py), and `main`
writes them as one deterministic report to stdout or --out.  Exit codes: 0
when no record is violated, 1 when some record has status violated, 2 for
usage or domain errors (any other GpadeError, or an unwritable --out), 3
when an internal certificate fails (two independent computations disagreed)
or on any other exception, which prints the one line
`gpade: internal error: <Type>: <message>` instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from .acceptance import run_suite
from .catalog import GFunctionSystem, resolve_system
from .constants import ConstantsConfig, compute_constants
from .derivation import IteratedFamily, IterationStepCert, iterate, zero_estimate_check
from .digits import digit_profile, theorem2_convergent
from .errors import (DivisibilityError, GpadeError, InternalCertificateError, KernelVectorError,
                     PreconditionError, RankDeficiencyError)
from .intervals import DEFAULT_DIGIT_CAP, precision_cap
from .pade import PadeApproximant, assemble, build_approximant
from .quadratic import cf_sqrt, convergent_gap_check, pell_bound_check, \
    reduce_to_theorem1, theorem5_scan
from .report import (STATUS_HYPOTHESIS_UNMET, STATUS_VIOLATED, Record, ReportWriter,
                     fmt_fraction, fmt_poly, fmt_sym, parse_report)
from .verify import scan_nearest, verify_theorem1

# verify prints rhs exactly while its denominator has at most this many digits, closed form above
RHS_EXACT_DIGITS = 10 ** 5


class _Parser(argparse.ArgumentParser):
    """Rejected arguments take main's one usage-error path (exit 2), not SystemExit."""

    def error(self, message: str):
        raise PreconditionError(message)


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


def _approximant_record(system_arg: str, system: GFunctionSystem,
                        approx: PadeApproximant) -> Record:
    rec = Record("approximant", {
        "system": system.name, "system-arg": system_arg, "N": system.N, "d": system.d,
        "p": approx.p, "q": approx.q, "h": approx.h,
        "kernel-vector": " ".join(str(x) for x in approx.kernel_vector), "Q": approx.Q,
        **{f"P[{j}]": P_j for j, P_j in enumerate(approx.P, 1)},
        "order-target": approx.p + approx.h + 1,
        **{f"order-certified[{j}]": o for j, o in enumerate(approx.order_certificates, 1)}})
    rec.add("Q-integral", approx.Q.is_integral(), approx.Q.is_integral())
    rec.add("P-cleared", approx.denominator_cleared, approx.denominator_cleared)
    rec.add("height-Q", approx.height_Q)
    rec.add("siegel-bound", approx.siegel_bound)
    rec.add("siegel-ok", approx.siegel_ok, approx.siegel_ok)
    return rec


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


def cmd_build(args) -> list[Record]:
    system, system_arg, approx = _resolve_build(args)
    return [_approximant_record(system_arg, system, approx)]


def _iteration_record(system: GFunctionSystem, fam: IteratedFamily,
                      cert: IterationStepCert) -> Record:
    rec = Record("iteration-step")
    rec.add("k", cert.k)
    rec.add("Q_k", fam.Q(cert.k))
    for j in range(1, system.N + 1):
        rec.add(f"P[{j},{cert.k}]", fam.P(j, cert.k))
    rec.add("deg-Q_k", fam.Q(cert.k).degree())
    rec.add("deg-bound", fam.base.q + (system.d - 1) * cert.k)
    rec.add("degree-ok", cert.degree_ok, cert.degree_ok)
    rec.add("Q-integral", cert.Q_integral, cert.Q_integral)
    rec.add("P-cleared", cert.P_cleared, cert.P_cleared)
    rec.add("order-target", " ".join(str(x) for x in cert.order_targets))
    rec.add("order-verified", " ".join(str(x) for x in cert.order_verified))
    rec.add("order-ok", cert.order_ok, cert.order_ok)
    return rec


def cmd_iterate(args) -> list[Record]:
    system, system_arg, approx = _resolve_build(args)
    fam = iterate(approx, system, args.k_max)
    return [_approximant_record(system_arg, system, approx),
            *(_iteration_record(system, fam, cert) for cert in fam.certs)]


def cmd_zerocheck(args) -> list[Record]:
    system, system_arg, approx = _resolve_build(args)
    chk = zero_estimate_check(iterate(approx, system, system.N), system)
    rec = Record("zero-estimate")
    rec.add("vanish-order", chk.vanish_order, chk.vanish_order >= chk.required_vanish)
    rec.add("required-vanish", chk.required_vanish)
    rec.add("delta-tilde-degree", chk.DeltaTilde.degree())
    rec.add("ell0", chk.ell0)
    rec.add("delta-tilde", chk.DeltaTilde)
    rec.add("nonzero", chk.nonzero, chk.nonzero)
    rec.add("degree-ok", chk.degree_ok, chk.degree_ok)
    return [_approximant_record(system_arg, system, approx), rec]


def cmd_constants(args) -> list[Record]:
    system = resolve_system(args.system)
    config = ConstantsConfig(h0=args.h0, h1=args.h1, h2=args.h2)
    rep = compute_constants(system, args.a, args.b, args.t, args.m,
                            config, digits=args.precision,
                            allow_desk_scale=not args.strict)
    rec = Record("constants", {
        "system": system.name, "a": args.a, "b": args.b, "t": args.t, "m": args.m,
        "h0": config.h0, "h1": config.h1, "h2": config.h2, "N": rep.N, "d": rep.d,
        "chi": rep.chi, "chi-closed-form": fmt_sym(rep.chi_sym),
        "c1": rep.c1, "c1-closed-form": fmt_sym(rep.c1_sym),
        **{c: getattr(rep, c) for c in ("c2", "c3", "c5", "c6", "c7", "c8", "c4")}})
    if rep.c4_reference is not None:
        rec.add("c4-closed-form", rep.c4_reference)
        rec.add("c4-closed-form-agrees", not rep.c4_discrepancy)
    for key in ("y", "x", "h", "p", "q", "beta"):
        rec.add(key, getattr(rep, key))
    # an unmet hypothesis qualifies the chain; an undecided hyp-m-ok does not
    rec.add("hyp-b-ok", rep.hyp_b_ok, rep.hyp_b_ok or STATUS_HYPOTHESIS_UNMET)
    rec.add("hyp-m-ok", rep.hyp_m_ok, rep.hyp_m_ok is not False or STATUS_HYPOTHESIS_UNMET)
    rec.add("eqhyp", rep.eqhyp_status)
    rec.add("desk-scale", rep.desk_scale, not rep.desk_scale or STATUS_HYPOTHESIS_UNMET)
    return [rec]


def cmd_verify(args) -> list[Record]:
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
                          j=args.j, digits=args.precision, pqh=pqh)
    rec = Record("diophantine-bound", {
        "system": rep.system_name, **{k: getattr(rep, k) for k in ("a", "b", "B", "m", "n", "j")},
        "rhs-exponent": rep.rhs_exponent,
        "rhs": rep.rhs if rep.rhs.denominator < 10 ** RHS_EXACT_DIGITS
        else f"1/({rep.B}*{rep.b}^{rep.m}*{abs(rep.a) + 1}^{rep.rhs_exponent})"})
    rec.add("lhs", rep.lhs, rep.status)
    rec.add("hypothesis-ok", rep.hypothesis_ok)
    rec.add("c4", rep.constants.c4)
    if rep.chain is None:
        return [rec]
    ch = rep.chain
    chain = Record("chain-replay", {
        "p": ch.p, "q": ch.q, "h": ch.h, "k": ch.k, "xi": ch.witness.xi, "U": ch.witness.U_jk,
        "V": ch.witness.V_k, "denominator-scale": ch.witness.denominator_scale,
        "xi-divisible-by-b^m": ch.witness.divisible_by_bm})
    # only a refuted distance is a violation; the steps before it can only leave it open
    chain.add("remainder-small", ch.eq_remainder_small, ch.eq_remainder_small or None)
    chain.add("balance", ch.eq_balance, ch.eq_balance or None)
    chain.add("distance", ch.eq_distance, ch.eq_distance)
    chain.add("distance-lower", ch.distance_lower)
    return [rec, chain]


def cmd_digits(args) -> list[Record]:
    system = resolve_system(args.system)
    j = args.j if args.j is not None else system.N
    window = _parse_range(args.window)
    value, ds, profile = digit_profile(system, args.a, args.b, args.s, args.t, window, j=j,
                                       count=args.count)
    expansion = Record("digit-expansion")
    expansion.add("system", system.name)
    expansion.add("a", args.a)
    expansion.add("b", args.b)
    expansion.add("s", args.s)
    expansion.add("component", j)
    expansion.add("integer-part", ds.integer_part)
    expansion.add("certified-digits", ds.certified_len)
    text = ds.as_str()
    for i in range(0, len(text), 60):
        expansion.add(f"digits[{i + 1}..{min(i + 60, ds.certified_len)}]", text[i:i + 60])

    repetition = Record("repetition-profile")
    repetition.add("t", args.t)
    repetition.add("window", f"{window[0]}:{window[1]}")
    repetition.add("counts", " ".join(f"{n}:{c}" for n, c in profile.values))
    repetition.add("max-ratio", profile.max_ratio)
    if profile.empirical_vb is not None:
        repetition.add("empirical-vb", profile.empirical_vb)

    conv = theorem2_convergent(ds, value, args.t, window[0])
    block = Record("block-convergent", {
        "t": conv.t, "n": conv.n, "repetitions": conv.count, "p_n": conv.p_n, "q_n": conv.q_n,
        "bound-strict": conv.bound, "holds-strict": conv.holds,
        "bound-provable": conv.bound_relaxed})
    block.add("holds-provable", conv.holds_relaxed, conv.holds_relaxed)
    block.add("distance", conv.distance)
    return [expansion, repetition, block]


def cmd_sqrt(args) -> list[Record]:
    d = args.d
    exp = cf_sqrt(d, args.convergents)
    cf = Record("continued-fraction")
    cf.add("d", d)
    cf.add("terms", " ".join(str(t) for t in exp.terms))
    cf.add("period", " ".join(str(t) for t in exp.period))
    records = [cf]
    for idx, conv in enumerate(exp.convergents):
        rec = Record("convergent")
        rec.add("index", idx)
        rec.add("alpha", conv.alpha)
        rec.add("beta", conv.beta)
        rec.add("pell-value", conv.pell_value)
        pell_ok = pell_bound_check(conv, d)
        gap_ok = convergent_gap_check(conv, d)
        rec.add("pell-bound-ok", pell_ok, pell_ok)
        rec.add("gap-ok", gap_ok, gap_ok)
        records.append(rec)
    red = reduce_to_theorem1(exp.convergents[-1], d)
    rec = Record("reduction")
    rec.add("alpha", red.alpha)
    rec.add("beta", red.beta)
    rec.add("a", red.a)
    rec.add("b", red.b)
    rec.add("system", red.system_name)
    rec.add("N_d", red.N_d)
    rec.add("alpha-ge-N_d", red.alpha_ge_Nd)
    rec.add("hyp-b-ok", red.hyp_b_ok)
    rec.add("m-threshold", red.m_threshold)
    rec.add("identity-width", red.identity_width)
    rec.add("identity-series-checked", red.identity_series_checked)
    records.append(rec)
    if args.scan_m:
        scan = theorem5_scan(d, exp.convergents[-1], _parse_range(args.scan_m),
                             denominator_choice=args.den)
        rec = Record("restricted-scan")
        rec.add("denominator", f"{args.den}={scan.den}")
        rec.add("m-range", f"{scan.m_range[0]}:{scan.m_range[1]}")
        for row in scan.rows:
            rec.add(f"m[{row.m}]", f"n={row.n} dist={row.distance.decimal_str(10)} "
                                   f"eta-req<={fmt_fraction(row.eta_req)}")
        rec.add("eta-fit", scan.eta_fit)
        records.append(rec)
    return records


def cmd_suite(args) -> list[Record]:
    """The suite records, then a summary that carries no status of its own."""
    records = run_suite(args.quick, args.precision)
    violated = any(rec.status == STATUS_VIOLATED for rec in records)
    return [*records, Record("suite-summary", {"violated": violated})]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _add_common(sp)
    sp.set_defaults(handler=cmd_zerocheck)

    sp = subs.add_parser("constants", help="effective constant chain c1..c8, schedule")
    sp.add_argument("--system", required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--t", type=Fraction, required=True, help="rational, e.g. 0 or 3/2")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--h0", type=Fraction, default="1")
    sp.add_argument("--h1", type=Fraction, default="1")
    sp.add_argument("--h2", type=Fraction, default="1")
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
    sp.add_argument("--d", type=Fraction, required=True, help="positive rational, e.g. 2 or 5/3")
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
    try:
        args = _build_parser().parse_args(argv)
        if args.precision < 1:
            raise PreconditionError(f"--precision must be >= 1, got {args.precision}")
        with precision_cap(args.max_precision):
            records = args.handler(args)
        writer = ReportWriter(" ".join([str(a) for a in argv]), args.precision, records)
        text = writer.render()
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as e:
                raise PreconditionError(f"cannot write --out {args.out}: {e.strerror or e}") from e
        else:
            sys.stdout.write(text)
    except (InternalCertificateError, DivisibilityError, KernelVectorError,
            RankDeficiencyError) as e:
        print(f"gpade: internal certificate failure: {e}", file=sys.stderr)
        return 3
    except GpadeError as e:
        print(f"gpade: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"gpade: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return 1 if writer.any_violated else 0


if __name__ == "__main__":
    raise SystemExit(main())
