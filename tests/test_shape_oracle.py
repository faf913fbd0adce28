"""Per-shape oracle: every shape of the benchmark's shape space keeps its exact outputs.

For each of the 387 shapes listed in perfbench/data/shape_order.json, one line
of tests/oracles/golden/shapes.txt holds a SHA-256 over the kernel vector,
every Q_k and P_{j,k} (coefficients as Fraction strings), every
IterationStepCert field and the zero-estimate determinant Delta, with the
family iterated to K = ell0_bound + N.  A change to the polynomial arithmetic,
the kernel basis or LLL that moves any of these fails here, naming the shapes.

Regenerate the file (only when these outputs are meant to change) with:

    PYTHONPATH=src python tests/test_shape_oracle.py
"""

import dataclasses
import hashlib
import json
import os

from gpade import build_approximant, iterate, resolve_system, zero_estimate_check
from gpade.derivation import ell0_bound

HERE = os.path.dirname(__file__)
SHAPES = os.path.join(HERE, os.pardir, "perfbench", "data", "shape_order.json")
ORACLE = os.path.join(HERE, "oracles", "golden", "shapes.txt")


def shape_digest(system, p: int, q: int, h: int) -> str:
    approx = build_approximant(system, p, q, h)
    fam = iterate(approx, system, ell0_bound(system, p, q, h) + system.N)
    zero = zero_estimate_check(fam, system)
    digest = hashlib.sha256()

    def put(*items):
        digest.update((" ".join(map(str, items)) + "\n").encode())

    put("kernel", *approx.kernel_vector)
    for k in range(fam.K + 1):
        put("Q", k, *fam.Q(k).coeffs)
        for j in range(1, system.N + 1):
            put("P", j, k, *fam.P(j, k).coeffs)
        put("cert", *dataclasses.astuple(fam.certs[k]))
    put("Delta", *zero.Delta.coeffs)
    return digest.hexdigest()


def oracle_lines() -> list[str]:
    with open(SHAPES) as fh:
        shapes = json.load(fh)
    systems = {name: resolve_system(name) for name in {s[0] for s in shapes}}
    return [f"{name} {p} {q} {h} {shape_digest(systems[name], p, q, h)}"
            for name, p, q, h in shapes]


def test_every_shape_matches_oracle():
    with open(ORACLE) as fh:
        frozen = fh.read().splitlines()
    lines = oracle_lines()
    assert len(lines) == len(frozen) == 387
    moved = [old.rsplit(" ", 1)[0] for old, new in zip(frozen, lines) if old != new]
    assert not moved, f"{len(moved)} shapes changed, first: {moved[:5]}"


if __name__ == "__main__":
    with open(ORACLE, "w") as fh:
        fh.write("\n".join(oracle_lines()) + "\n")
    print(f"wrote {os.path.relpath(ORACLE)}")
