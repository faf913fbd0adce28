"""Golden-report gate: the README commands and `suite --quick` stay byte-identical.

Each report under tests/oracles/golden/ was frozen from a known-good tree,
together with the command's exit code.  A refactor that changes any byte of
a report, or an exit code, fails here.  `iterate` uses the --system form,
since --from would echo a temporary path into the report.  The full `suite`
report is frozen here as suite.txt too; test_acceptance.py renders the suite
it has already computed and compares it with that file, so it runs once.

Regenerate the files (only when a report is meant to change) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "oracles", "golden")

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
    "digits": (["digits", "--system", "polylog2", "--a", "1", "--b", "10",
                "--count", "120", "--window", "20:60", "--j", "2"], 0),
    "sqrt": (["sqrt", "--d", "2", "--convergents", "6", "--scan-m", "1:4"], 0),
    "suite-quick": (["suite", "--quick"], 0),
}


def _run(argv):
    from gpade.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name):
    argv, expected_code = COMMANDS[name]
    code, out = _run(argv)
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt")) as fh:
        golden = fh.read()
    assert code == expected_code
    assert out == golden


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, (argv, expected_code) in {**COMMANDS, "suite": (["suite"], 0)}.items():
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "w") as fh:
            fh.write(out)
        print(f"wrote {name}.txt")
