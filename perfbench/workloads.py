"""The three benchmark workloads: seeded job lists and how each job runs.

A job spec is a plain tuple made only from the seed, so the same seed gives
the same jobs.  `run_job` calls gpade's public functions and returns their
outputs untouched; whether an output is certified and correct is decided
later, outside the timed phase (see checks.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("suite", "shapes", "deep")

# systems each workload resolves during set-up
SYSTEMS = {
    "suite": ("log1m", "polylog2"),
    "shapes": ("log1m", "polylog2", "polylog3"),
    "deep": ("log1m", "polylog2", "polylog3"),
}

# shapes: the SHAPE_ALWAYS heaviest shapes of the space are in every draw, so
# the slowest tenth of the jobs, and with it job_p90_s, does not depend on the
# seed; the other shapes, in order of cost at the seed commit, are cut into
# SHAPE_DRAWN strata and one shape is drawn from each
SHAPE_ALWAYS = 11
SHAPE_DRAWN = 89


def make_jobs(workload: str, seed: int) -> list[tuple]:
    if workload == "suite":
        return [("suite",)]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "shapes":
        return _shape_jobs(rng)
    if workload == "deep":
        return _deep_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _shape_jobs(rng: random.Random) -> list[tuple]:
    """(system, p, q, h, a, b, B, m, n, j): one shape and one witness point."""
    order = json.loads((DATA / "shape_order.json").read_text())
    chosen = order[:SHAPE_ALWAYS]
    rest = order[SHAPE_ALWAYS:]
    for i in range(SHAPE_DRAWN):
        lo, hi = len(rest) * i // SHAPE_DRAWN, len(rest) * (i + 1) // SHAPE_DRAWN
        chosen.append(rng.choice(rest[lo:hi]))
    rng.shuffle(chosen)
    jobs = []
    for name, p, q, h in chosen:
        b = rng.randint(2, 12)
        a = rng.choice([x for x in range(1 - b, b) if x and math.gcd(x, b) == 1])
        jobs.append((name, p, q, h, a, b, rng.randint(1, 50), rng.randint(1, p - q),
                     rng.randint(1, 10 ** 6), rng.randint(1, _components(name))))
    return jobs


def _components(name: str) -> int:
    return int(name[-1]) if name.startswith("polylog") else 1


def _deep_jobs(rng: random.Random) -> list[tuple]:
    """100 certified high-precision values on a fixed ladder of precisions.

    The seed draws the arguments, each from a narrow band, so that a job's
    cost depends on its rung of the ladder and hardly on the seed.
    """
    jobs: list[tuple] = []
    # 42 digit expansions of F_j(z), |z| in [1/12, 1/6], no (system, j, z) twice
    seen = set()
    for i in range(14):
        for name in ("log1m", "polylog2", "polylog3"):
            while True:
                a = rng.choice((1, 2))
                z = Fraction(rng.choice((1, -1)) * a, rng.randint(6 * a, 12 * a))
                key = (name, rng.randint(1, _components(name)), z.numerator, z.denominator)
                if key not in seen:
                    break
            seen.add(key)
            jobs.append(("digits",) + key + (300 + 90 * i,))
    # 24 logarithms of x in (5/2, 8/3): one halving, then atanh of about 1/8;
    # 24 exponentials of x in (1, 10)
    for i in range(24):
        b = rng.randint(100, 999)
        jobs.append(("log", rng.randint(5 * b // 2 + 1, 8 * b // 3 - 1), b, 300 + 70 * i))
        b = rng.randint(100, 999)
        jobs.append(("exp", rng.randint(b + 1, 10 * b - 1), b, 300 + 70 * i))
    # 10 constant chains
    for i in range(10):
        t = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)))
        jobs.append(("constants", ("log1m", "polylog2", "polylog3")[i % 3],
                     rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(10 ** 5, 10 ** 6 - 1),
                     t.numerator, t.denominator, rng.randint(50, 200), 48 + 9 * i))
    rng.shuffle(jobs)
    return jobs


def run_job(spec: tuple, systems: dict):
    """Run one job through gpade's public functions and return its outputs."""
    import gpade.cli
    from gpade import (build_approximant, compute_constants, construct_xi, exp_frac,
                       expand_digits, find_nonvanishing_index, iterate, log_frac,
                       value_producer, zero_estimate_check)
    from gpade.derivation import ell0_bound

    kind = spec[0]
    if kind == "suite":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = gpade.cli.main(["suite"])
        return rc, buf.getvalue()
    if kind == "digits":
        _, name, j, num, den, count = spec
        return expand_digits(value_producer(systems[name], j, Fraction(num, den)), 10, count)
    if kind == "log":
        _, a, b, digits = spec
        return log_frac(Fraction(a, b), digits)
    if kind == "exp":
        _, a, b, digits = spec
        return exp_frac(Fraction(a, b), digits)
    if kind == "constants":
        _, name, a, b, t_num, t_den, m, digits = spec
        return compute_constants(systems[name], a, b, Fraction(t_num, t_den), m,
                                 digits=digits, allow_desk_scale=True)
    # a Pade shape
    name, p, q, h, a, b, B, m, n, j = spec
    system = systems[name]
    approx = build_approximant(system, p, q, h)
    fam = iterate(approx, system, ell0_bound(system, p, q, h) + system.N)
    zero = zero_estimate_check(fam, system)
    k = find_nonvanishing_index(fam, system, Fraction(a, b), n, B, m, j)
    xi = construct_xi(fam, system, a, b, B, m, n, j, k=k)
    return approx, fam, zero, xi
