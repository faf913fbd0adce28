import subprocess
import sys
import time
from fractions import Fraction

import pytest

from gpade.cli import main
from gpade.intervals import frac_pow
from gpade.report import parse_interval, parse_report


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_build_hand_example(capsys):
    code, out = run_cli(capsys, "build", "--system", "log1m",
                        "--p", "1", "--q", "1", "--h", "1")
    assert code == 0
    header, records = parse_report(out)
    assert header["gpade-report"] == "1"
    rec = records[0]
    assert rec["record"] == "approximant"
    assert rec["Q"] == "2 -1"
    assert rec["kernel-vector"] == "2 -1"
    assert rec["order-target"] == "3"
    assert rec["siegel-ok"] == "true"
    assert rec["status"] == "certified"


def test_build_deterministic(capsys):
    argv = ["build", "--system", "polylog2", "--p", "5", "--q", "4", "--h", "2"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_build_out_file(tmp_path, capsys):
    path = tmp_path / "approx.txt"
    code, out = run_cli(capsys, "build", "--system", "log1m",
                        "--p", "3", "--q", "2", "--h", "1", "--out", str(path))
    assert code == 0
    assert out == ""
    header, records = parse_report(path.read_text())
    assert header["gpade-report"] == "1"
    assert records[0]["record"] == "approximant"


def test_iterate_from_artifact(tmp_path, capsys):
    path = tmp_path / "approx.txt"
    run_cli(capsys, "build", "--system", "log1m",
            "--p", "3", "--q", "2", "--h", "2", "--out", str(path))
    code, out = run_cli(capsys, "iterate", "--from", str(path), "--k-max", "2")
    assert code == 0
    _, records = parse_report(out)
    kinds = [r["record"] for r in records]
    assert kinds.count("iteration-step") == 3
    for r in records:
        if r["record"] == "iteration-step":
            assert r["status"] == "certified"
            assert r["order-ok"] == "true"


def test_iterate_tampered_artifact_is_exit_3(tmp_path, capsys):
    path = tmp_path / "approx.txt"
    run_cli(capsys, "build", "--system", "log1m",
            "--p", "3", "--q", "2", "--h", "2", "--out", str(path))
    text = path.read_text()
    assert "kernel-vector: 10 -12 3" in text
    # corrupt one entry: same length, no longer solves the order conditions
    tampered = text.replace("kernel-vector: 10 -12 3",
                            "kernel-vector: 10 -12 4", 1)
    path.write_text(tampered)
    code, out = run_cli(capsys, "iterate", "--from", str(path), "--k-max", "1")
    assert code == 3


def test_zerocheck(capsys):
    code, out = run_cli(capsys, "zerocheck", "--system", "polylog2",
                        "--p", "3", "--q", "2", "--h", "1")
    assert code == 0
    _, records = parse_report(out)
    rec = next(r for r in records if r["record"] == "zero-estimate")
    assert rec["nonzero"] == "true"
    assert rec["degree-ok"] == "true"
    assert int(rec["vanish-order"]) >= int(rec["required-vanish"])


def test_constants_li2(capsys):
    code, out = run_cli(capsys, "constants", "--system", "polylog2",
                        "--a", "1", "--b", "10", "--t", "1", "--m", "1")
    assert code == 0
    _, records = parse_report(out)
    rec = records[0]
    assert rec["c1-closed-form"] == "4*e^66"
    assert rec["c2"] == "12"
    assert rec["c4-closed-form-agrees"] == "true"
    c4 = parse_interval(rec["c4"])
    target = frac_pow(Fraction(10), Fraction(289, 50), 30)
    assert c4.hi < target.lo
    assert rec["desk-scale"] == "true"
    assert rec["status"] == "hypothesis-unmet"


def test_constants_strict_exit_2(capsys):
    code, _ = run_cli(capsys, "constants", "--system", "polylog2",
                      "--a", "1", "--b", "10", "--t", "1", "--m", "1", "--strict")
    assert code == 2


def test_verify_scan_nearest(capsys):
    code, out = run_cli(capsys, "verify", "--system", "log1m", "--a", "1",
                        "--b", "10", "--B", "1", "--m", "1", "--scan-nearest")
    assert code == 0
    _, records = parse_report(out)
    rec = next(r for r in records if r["record"] == "diophantine-bound")
    assert rec["n"] == "-1"
    assert rec["status"] == "certified"


def test_verify_prints_a_huge_rhs_in_closed_form(capsys):
    # at m = 20, b = 10^400 the exact rhs has about 3.6M digits, past the str() guard
    b = 10 ** 400
    code, out = run_cli(capsys, "verify", "--system", "polylog2", "--a", "1", "--b", str(b),
                        "--B", "1", "--m", "20", "--scan-nearest", "--max-precision", "20000")
    assert code in (0, 1)
    rec = parse_report(out)[1][0]
    assert rec["rhs"] == f"1/(1*{b}^20*2^{rec['rhs-exponent']})"
    assert rec["hypothesis-ok"] == "false"
    # below the bound rhs stays an exact fraction
    code, out = run_cli(capsys, "verify", "--system", "log1m", "--a", "1", "--b", "10",
                        "--B", "1", "--m", "1", "--scan-nearest")
    rec = parse_report(out)[1][0]
    assert rec["rhs"] == str(Fraction(1, 10 * 2 ** int(rec["rhs-exponent"])))


def test_verify_property_mode(capsys):
    code, out = run_cli(capsys, "verify", "--system", "log1m", "--a", "1",
                        "--b", "10", "--B", "1", "--m", "1", "--n", "-1",
                        "--property-mode", "--p", "3", "--q", "2", "--h", "2")
    assert code == 0
    _, records = parse_report(out)
    rec = next(r for r in records if r["record"] == "chain-replay")
    assert rec["xi-divisible-by-b^m"] == "true"
    assert rec["balance"] == "true"
    assert rec["distance"] == "true"
    assert rec["status"] == "certified"


def test_chain_replay_status_rule(capsys, monkeypatch):
    import dataclasses

    import gpade.verify
    argv = ["verify", "--system", "log1m", "--a", "3", "--b", "5", "--B", "1", "--m", "1",
            "--n", "-1", "--property-mode", "--p", "3", "--q", "2", "--h", "2"]
    # remainder-small fails at 3/5: the chain is left open, not violated
    code, out = run_cli(capsys, *argv)
    assert code == 0
    rec = next(r for r in parse_report(out)[1] if r["record"] == "chain-replay")
    assert (rec["remainder-small"], rec["distance"]) == ("false", "true")
    assert rec["status"] == "indeterminate"
    # a refuted distance is the one violation of the chain
    original = gpade.verify.replay_chain
    monkeypatch.setattr(gpade.verify, "replay_chain", lambda *a, **kw: dataclasses.replace(
        original(*a, **kw), eq_distance=False))
    code, out = run_cli(capsys, *argv)
    assert code == 1
    rec = next(r for r in parse_report(out)[1] if r["record"] == "chain-replay")
    assert rec["distance"] == "false"
    assert rec["status"] == "violated"


def test_chain_replay_needs_lowest_terms(capsys):
    # 2/10 used to scan with 5^m in place of 10^m and fail as an internal error
    code = main(["verify", "--system", "log1m", "--a", "2", "--b", "10", "--B", "8430",
                 "--m", "1", "--n", "-18811", "--property-mode", "--p", "4", "--q", "2",
                 "--h", "2"])
    assert code == 2
    assert capsys.readouterr().err == "gpade: error: chain replay needs a/b in lowest terms\n"


def test_verify_property_mode_needs_pqh(capsys):
    code = main(["verify", "--system", "log1m", "--a", "1", "--b", "10", "--B", "1",
                 "--m", "1", "--n", "-1", "--property-mode"])
    assert code == 2
    assert capsys.readouterr().err.startswith("gpade: error: --property-mode needs")


def test_digits_rejects_a_zero(capsys):
    # F(0) is a rational: its expansion once ran to the cap, then failed on the repetition
    code = main(["digits", "--system", "polylog2", "--a", "0", "--b", "10"])
    assert code == 2
    assert capsys.readouterr().err == "gpade: error: need b >= 2, s >= 1, a != 0\n"


def test_digits_rejects_component_zero(capsys):
    # F_0 = 1 is rational: its enclosure once straddled 1 up to the precision cap
    code = main(["digits", "--system", "polylog2", "--a", "1", "--b", "10", "--j", "0",
                 "--window", "1:5"])
    assert code == 2
    assert capsys.readouterr().err == (
        "gpade: error: component 0 is not in 1..2 (component 0 is the constant 1, "
        "whose expansion is rational)\n")


@pytest.mark.parametrize("extra, j", [(("--n", "10"), "0"), (("--scan-nearest",), "2")])
def test_verify_rejects_a_component_outside_1_to_N(capsys, extra, j):
    # F_0 = 1 is rational: verify --j 0 once escalated to the cap and reported it violated
    code = main(["verify", "--system", "log1m", "--a", "1", "--b", "10", "--B", "1",
                 "--m", "1", *extra, "--j", j])
    assert code == 2
    assert capsys.readouterr().err == (
        f"gpade: error: component {j} is not in 1..1 (component 0 is the constant 1, "
        "whose expansion is rational)\n")


def test_digits_command(capsys):
    code, out = run_cli(capsys, "digits", "--system", "polylog2", "--a", "1",
                        "--b", "10", "--count", "120", "--window", "20:60", "--j", "2")
    assert code == 0
    _, records = parse_report(out)
    kinds = {r["record"] for r in records}
    assert {"digit-expansion", "repetition-profile", "block-convergent"} <= kinds
    exp = next(r for r in records if r["record"] == "digit-expansion")
    assert exp["digits[1..60]"].startswith("1026177910")
    assert exp["certified-digits"] == "120"
    prof = next(r for r in records if r["record"] == "repetition-profile")
    assert prof["max-ratio"] == "2/33"


def test_sqrt_command(capsys):
    code, out = run_cli(capsys, "sqrt", "--d", "2", "--convergents", "4")
    assert code == 0
    _, records = parse_report(out)
    convs = [r for r in records if r["record"] == "convergent"]
    assert [c["alpha"] for c in convs] == ["1", "3", "7", "17"]
    red = next(r for r in records if r["record"] == "reduction")
    assert red["alpha"] == "17" and red["beta"] == "12"
    assert red["a"] == "1" and red["b"] == "289"
    assert red["system"] == "binom[1/2]"
    assert red["identity-series-checked"] == "true"
    assert red["status"] == "certified"


def test_sqrt_square_is_usage_error(capsys):
    code, _ = run_cli(capsys, "sqrt", "--d", "4")
    assert code == 2


def test_suite_quick(capsys):
    code, out = run_cli(capsys, "suite", "--quick")
    assert code == 0
    _, records = parse_report(out)
    kinds = [r["record"] for r in records]
    assert "suite-constants" in kinds
    assert "suite-pade-grid" in kinds
    assert "suite-summary" in kinds
    summ = next(r for r in records if r["record"] == "suite-summary")
    assert summ["violated"] == "false"
    statuses = [r["status"] for r in records if "status" in r]
    assert all(s == "certified" for s in statuses)


def test_unknown_system_exit_2(capsys):
    code, _ = run_cli(capsys, "build", "--system", "mystery",
                      "--p", "2", "--q", "2", "--h", "1")
    assert code == 2


def test_bad_parameters_exit_2(capsys):
    code, _ = run_cli(capsys, "build", "--system", "log1m",
                      "--p", "1", "--q", "3", "--h", "1")
    assert code == 2


def _constants(system, *extra):
    return ("constants", "--system", system, "--a", "1", "--b", "10", "--t", "0", "--m", "1",
            *extra)


@pytest.mark.parametrize("system_file, args", [
    (b"family\n", _constants("{file}")),
    (b"family binom_power\nparam alpha\n", _constants("{file}")),
    (b"family polylog\nparam s x\n", _constants("{file}")),
    (b"family polylog\nC abc\n", _constants("{file}")),
    (b"family polylog\nDgrowth e^x\n", _constants("{file}")),
    (b"family polylog\nname caf\xe9\n", _constants("{file}")),
    (None, _constants("{dir}")),
    (None, _constants("polylog:x")),
    (None, _constants("binom:abc")),
    (None, _constants("log1m", "--t", "abc")),
    (None, _constants("log1m", "--h0", "zz")),
    (None, _constants("log1m", "--h2", "1/0x")),
    (None, ("sqrt", "--d", "abc")),
    (b"family polylog\nfit_range abc\n", _constants("{file}")),
    (b"family binom_power\nparam alpha 1/2\nfit_range 0\n", _constants("{file}")),
    (None, _constants("log1m", "--precision", "0")),
    (b"family polylog log1m\n", _constants("{file}")),
    (b"family log1m\nC 2 3\n", _constants("{file}")),
    (b"family log1m\nname my log\n", _constants("{file}")),
    (b"family polylog\nparam s 2\nparam s 3\n", _constants("{file}")),
    (b"family polylog\nfamily log1m\n", _constants("{file}")),
    (b"family polylog\nparam weight 3\n", _constants("{file}")),
    (b"family log1m\nparam alpha 1/2\n", _constants("{file}")),
    (None, _constants("log1m:3")),
], ids=["family-no-name", "param-no-value", "param-not-int", "C-not-rational",
        "Dgrowth-not-rational", "not-utf8", "directory", "polylog-spec", "binom-spec",
        "t", "h0", "h2", "sqrt-d", "fit-range-not-int", "fit-range-0", "precision-0",
        "family-two-words", "C-two-words", "name-two-words", "param-twice", "family-twice",
        "param-not-taken", "param-on-log1m", "log1m-spec-value"])
def test_malformed_input_is_usage_error(tmp_path, capsys, system_file, args):
    path = tmp_path / "system.txt"
    if system_file is not None:
        path.write_bytes(system_file)
    code = main([{"{file}": str(path), "{dir}": str(tmp_path)}.get(a, a) for a in args])
    assert code == 2
    assert capsys.readouterr().err.startswith("gpade: error:")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["constants", "--help"])
    assert e.value.code == 0
    assert "--strict" in capsys.readouterr().out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "gpade.cli", "constants",
                           "--system", "log1m", "--a", "1", "--b", "10",
                           "--t", "1", "--m", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gpade-report: 1" in proc.stdout


def test_constants_exact_schedule_decision(tmp_path, capsys):
    # x = log b / (3 log c1) is exactly N+1 = 2 here; this used to escalate forever
    path = tmp_path / "binom.txt"
    path.write_text("family binom_power\nparam alpha 1/2\nDgrowth 4\n")
    argv = ["constants", "--system", str(path), "--a", "1", "--b", str(2 ** 126),
            "--t", "0", "--m", "1"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    rec = parse_report(out)[1][0]
    assert rec["desk-scale"] == "true"
    assert rec["status"] == "hypothesis-unmet"
    code, _ = run_cli(capsys, *argv, "--strict")
    assert code == 2


@pytest.mark.parametrize("b, m, hyp_m_ok, expected", [
    (2 ** 189 + 1, 1000, True, ("true", "true", "false", "certified")),
    (2 ** 189 + 1, 1, False, ("true", "false", "false", "hypothesis-unmet")),
    (2 ** 189 - 1, 1000, True, ("false", "true", "false", "hypothesis-unmet")),
    # an undecided hyp-m-ok is not an unmet hypothesis
    (2 ** 189 + 1, 1000, None, ("true", "indeterminate", "false", "certified")),
], ids=["all-met", "hyp-m-unmet", "hyp-b-unmet", "hyp-m-undecided"])
def test_constants_status_rule(tmp_path, capsys, monkeypatch, b, m, hyp_m_ok, expected):
    import dataclasses

    import gpade.cli
    original = gpade.cli.compute_constants
    monkeypatch.setattr(gpade.cli, "compute_constants", lambda *a, **kw: dataclasses.replace(
        original(*a, **kw), hyp_m_ok=hyp_m_ok))
    path = tmp_path / "binom.txt"
    path.write_text("family binom_power\nparam alpha 1/2\nDgrowth 4\n")
    code, out = run_cli(capsys, "constants", "--system", str(path), "--a", "1",
                        "--b", str(b), "--t", "0", "--m", str(m), "--precision", "16")
    assert code == 0
    rec = parse_report(out)[1][0]
    assert (rec["hyp-b-ok"], rec["hyp-m-ok"], rec["desk-scale"], rec["status"]) == expected


def test_constants_hyp_b_decided_exactly_when_x_straddles(tmp_path, capsys):
    # c1 = 2^21, so x = log b / (3 log c1) is 3 = N+2 at b = 2^189; at 16 digits
    # the enclosure of x straddles 3 for both b = 2^189 + 1 and b = 2^189 - 1
    path = tmp_path / "binom.txt"
    path.write_text("family binom_power\nparam alpha 1/2\nDgrowth 4\n")
    for b, expected in ((2 ** 189 + 1, "true"), (2 ** 189 - 1, "false")):
        code, out = run_cli(capsys, "constants", "--system", str(path), "--a", "1",
                            "--b", str(b), "--t", "0", "--m", "1", "--precision", "16")
        assert code == 0
        rec = parse_report(out)[1][0]
        assert rec["x"].endswith("~ 2.999999999999..3.000000000001")
        assert rec["hyp-b-ok"] == expected


def test_constants_floors_decided_exactly_when_x_is_integer(tmp_path, capsys):
    # x = 3 = N+2 exactly at b = 2^189, so every enclosure of h = floor(m/(x - 2))
    # and of p = floor(x h) straddles an integer; this used to escalate until killed
    path = tmp_path / "binom.txt"
    path.write_text("family binom_power\nparam alpha 1/2\nDgrowth 4\n")
    t0 = time.monotonic()
    code, out = run_cli(capsys, "constants", "--system", str(path), "--a", "1",
                        "--b", str(2 ** 189), "--t", "0", "--m", "1", "--precision", "16")
    assert time.monotonic() - t0 < 5
    assert code == 0
    rec = parse_report(out)[1][0]
    assert (rec["h"], rec["p"], rec["q"]) == ("1", "3", "1")


@pytest.mark.parametrize("b,m,hpq", [
    # x - 2 is about 10^-40 here: its enclosure holds 0 until about 40 digits
    (2 ** 126 + 1, 1, ("3714885770801834382672620248535433129310",
                       "7429771541603668765345240497070866258620",
                       "4179246492152063680506697779602362270473")),
    # x = 127/63, so h = 126 and p = 254 exactly; b^126 has 4,817 digits
    (2 ** 127, 2, ("126", "254", "141")),
], ids=["2^126+1", "2^127"])
def test_constants_floors_next_to_the_schedule_threshold(tmp_path, capsys, b, m, hpq):
    path = tmp_path / "binom.txt"
    path.write_text("family binom_power\nparam alpha 1/2\nDgrowth 4\n")
    t0 = time.monotonic()
    code, out = run_cli(capsys, "constants", "--system", str(path), "--a", "1",
                        "--b", str(b), "--t", "0", "--m", str(m), "--precision", "16")
    assert time.monotonic() - t0 < 5
    assert code == 0
    rec = parse_report(out)[1][0]
    assert (rec["h"], rec["p"], rec["q"]) == hpq


def test_constants_beta_over_the_cap_is_insufficient_precision(tmp_path, capsys):
    # h is about 3.7 10^39 at b = 2^126 + 1, so beta = b^(1/h) is out of reach
    path = tmp_path / "binom.txt"
    path.write_text("family binom_power\nparam alpha 1/2\nDgrowth 4\n")
    t0 = time.monotonic()
    code = main(["constants", "--system", str(path), "--a", "1", "--b", str(2 ** 126 + 1),
                 "--t", "1", "--m", "1", "--precision", "16"])
    assert time.monotonic() - t0 < 5
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_max_precision_caps_every_decision(capsys):
    argv = ["sqrt", "--d", "2", "--convergents", "6", "--scan-m", "1:4"]
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    code = main(argv + ["--max-precision", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert "undecided at precision cap" in captured.err
    code = main(argv + ["--max-precision", "0"])
    assert code == 2
    assert "precision cap must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["digits", "--system", "log1m", "--a", "1", "--b", "0"],
    ["verify", "--system", "log1m", "--a", "1", "--b", "0", "--B", "1", "--m", "1",
     "--scan-nearest"],
], ids=["digits", "verify-scan-nearest"])
def test_base_below_two_exits_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("gpade: error:")


def test_unwritable_out_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "x.txt"
    assert main(["build", "--system", "log1m", "--p", "3", "--q", "2", "--h", "1",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"gpade: error: cannot write --out {out}: ")
    assert captured.err.count("\n") == 1


def test_foreign_exception_exits_3_with_one_line(capsys, monkeypatch):
    import gpade.cli

    def broken(args):
        raise RuntimeError("not a gpade error")

    monkeypatch.setattr(gpade.cli, "cmd_sqrt", broken)
    assert main(["sqrt", "--d", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gpade: internal error: RuntimeError: not a gpade error\n"


def test_suite_counts_undecided_block_cells_apart(capsys, monkeypatch):
    import dataclasses

    import gpade.acceptance
    original = gpade.acceptance.theorem2_convergent

    def undecided_at_one_cell(ds, value, t, n):
        conv = original(ds, value, t, n)
        # (1, 10) is a strict-bound violation; undecided, it must not count as one
        return dataclasses.replace(conv, holds=None) if (t, n) == (1, 10) else conv

    monkeypatch.setattr(gpade.acceptance, "theorem2_convergent", undecided_at_one_cell)
    code, out = run_cli(capsys, "suite", "--quick")
    assert code == 0
    rec = next(r for r in parse_report(out)[1] if r["record"] == "suite-block-convergents")
    assert rec["provable-bound-failures"] == "0"
    assert rec["strict-bound-violations"] == "1"
    assert rec["undecided"] == "1"
    assert rec["status"] == "indeterminate"


def test_siegel_straddle_is_indeterminate(capsys, monkeypatch):
    import gpade.pade
    from gpade import IntervalReal
    # a bound that straddles every height at every precision
    monkeypatch.setattr(gpade.pade, "siegel_height_bound",
                        lambda sys, p, q, h, digits=32: IntervalReal(0, 10 ** 100))
    code, out = run_cli(capsys, "build", "--system", "log1m",
                        "--p", "3", "--q", "2", "--h", "2")
    assert code == 0
    rec = parse_report(out)[1][0]
    assert rec["siegel-ok"] == "indeterminate"
    assert rec["status"] == "indeterminate"
    code, out = run_cli(capsys, "suite", "--quick")
    assert code == 0
    grid = next(r for r in parse_report(out)[1] if r["record"] == "suite-pade-grid")
    assert grid["siegel-failures"] == "0"
    assert grid["undecided"] == grid["instances"] == "26"
    assert grid["status"] == "indeterminate"
