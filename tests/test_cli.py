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
