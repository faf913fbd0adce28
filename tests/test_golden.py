"""Golden-report gate: the README commands, property-mode `verify` reports (the
only chain-replay records, two of them at paper scale), `suite --quick` and the
demos stay byte-identical.

Each report under tests/oracles/golden/ was frozen from a known-good tree,
together with the command's exit code.  A refactor that changes any byte of
a report, or an exit code, fails here.  `iterate` uses the --system form,
since --from would echo a temporary path into the report.  The stdout of each
script in demos/ is frozen under golden/demos/.  The full `suite`
report is frozen here as suite.txt too; test_acceptance.py renders the suite
it has already computed and compares it with that file, so it runs once.
The benchmark checks `gpade suite` against its own copy,
perfbench/data/suite_report.txt, which must equal suite.txt byte for byte.

Regenerate the files (only when a report is meant to change) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import runpy
import sys

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "oracles", "golden")
BENCH_SUITE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data",
                           "suite_report.txt")
DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
DEMOS = sorted(f[:-3] for f in os.listdir(DEMO_DIR) if f.endswith(".py"))

PAPER_SCALE = ["verify", "--system", "polylog2", "--a", "1", "--b", str(10 ** 400), "--B", "1",
               "--scan-nearest", "--property-mode"]

# name -> (argv, exit code)
COMMANDS = {
    "build": (["build", "--system", "log1m", "--p", "3", "--q", "2", "--h", "2"], 0),
    "iterate": (["iterate", "--system", "log1m", "--p", "3", "--q", "2", "--h", "2",
                 "--k-max", "2"], 0),
    "zerocheck": (["zerocheck", "--system", "polylog2", "--p", "3", "--q", "2",
                   "--h", "1"], 0),
    "constants": (["constants", "--system", "polylog2", "--a", "1", "--b", "10",
                   "--t", "1", "--m", "1"], 0),
    "verify": (["verify", "--system", "log1m", "--a", "1", "--b", "10", "--B", "1",
                "--m", "1", "--scan-nearest"], 0),
    "verify-property": (["verify", "--system", "log1m", "--a", "1", "--b", "10", "--B", "1",
                         "--m", "1", "--n", "-1", "--property-mode", "--p", "3", "--q", "2",
                         "--h", "2"], 0),
    "digits": (["digits", "--system", "polylog2", "--a", "1", "--b", "10",
                "--count", "120", "--window", "20:60", "--j", "2"], 0),
    "sqrt": (["sqrt", "--d", "2", "--convergents", "6", "--scan-m", "1:4"], 0),
    "suite-quick": (["suite", "--quick"], 0),
    # paper scale: polylog2 at b = 10^400 with the constants schedule's (p, q, h) at t = 0
    "verify-paper-m5": ([*PAPER_SCALE, "--m", "5", "--p", "13", "--q", "6", "--h", "3",
                         "--max-precision", "6000"], 0),
    "verify-paper-m10": ([*PAPER_SCALE, "--m", "10", "--p", "27", "--q", "12", "--h", "6",
                          "--max-precision", "11000"], 0),
}


def _run(argv):
    from gpade.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _run_demo(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(os.path.join(DEMO_DIR, f"{name}.py"), run_name="__main__")
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name):
    argv, expected_code = COMMANDS[name]
    code, out = _run(argv)
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt")) as fh:
        golden = fh.read()
    assert code == expected_code
    assert out == golden


def test_paper_scale_remainder_is_open_at_the_default_cap():
    # about p log10 b = 5,200 digits are needed; the default cap leaves the step open
    code, out = _run([*PAPER_SCALE, "--m", "5", "--p", "13", "--q", "6", "--h", "3"])
    assert code == 0
    chain = out.split("record: chain-replay\n")[1]
    assert "remainder-small: indeterminate\n" in chain
    assert chain.endswith("status: indeterminate\n")


def test_suite_golden_equals_the_benchmark_copy():
    with open(os.path.join(GOLDEN_DIR, "suite.txt"), "rb") as fh, open(BENCH_SUITE, "rb") as bench:
        assert fh.read() == bench.read()


@pytest.mark.parametrize("name", DEMOS)
def test_golden_demo(name):
    with open(os.path.join(GOLDEN_DIR, "demos", f"{name}.txt")) as fh:
        assert _run_demo(name) == fh.read()


if __name__ == "__main__":
    os.makedirs(os.path.join(GOLDEN_DIR, "demos"), exist_ok=True)
    for name, (argv, expected_code) in {**COMMANDS, "suite": (["suite"], 0)}.items():
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "w") as fh:
            fh.write(out)
        print(f"wrote {name}.txt")
    for name in DEMOS:
        with open(os.path.join(GOLDEN_DIR, "demos", f"{name}.txt"), "w") as fh:
            fh.write(_run_demo(name))
        print(f"wrote demos/{name}.txt")
