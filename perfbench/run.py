"""gpade benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload suite|shapes|deep --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every measurement runs in a fresh
interpreter (worker.py), because gpade keeps caches for the life of a process
and a CLI user pays to fill them on every invocation.  The run repeats passes
over the workload's seeded job list until the timed phases add up to
--seconds (at least one pass), and reports medians over passes.

--trace 0 reports the end-to-end metrics, with set-up sampled SETUP_SAMPLES
times, half before the passes and half after.  --trace 1 makes the same
untraced passes, then one traced pass, and reports the per-layer metrics of
the traced pass and the tracing overhead.
Human-readable lines come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 170
# no new pass starts once the run has taken this long, so a run ends within 180 s
PASS_BUDGET_S = 100

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
              ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    pass


def _worker(*args: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _passes(workload: str, seed: int, seconds: float, started: float) -> list[dict]:
    """Untraced passes until their timed phases cover `seconds`."""
    runs: list[dict] = []
    while not runs or (sum(r["wall_s"] for r in runs) < seconds
                       and perf_counter() - started < PASS_BUDGET_S):
        runs.append(_worker("pass", "--workload", workload, "--seed", str(seed)))
    return runs


def _setups(workload: str, count: int) -> list[float]:
    return [_worker("setup", "--workload", workload)["setup_s"] for _ in range(count)]


def _quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights, so that the noise of the one or two jobs next to the quantile
    moves it less than it moves a single order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t: float) -> float:
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)

    # weight of the i-th order statistic: the Beta mass on [i/n, (i+1)/n], by Simpson's rule
    steps, h = 8, 1 / (8 * n)
    weights = [h / 3 * sum((1 if k in (0, steps) else 4 if k % 2 else 2) * pdf(i / n + k * h)
                           for k in range(steps + 1))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("dim_mean"):
        return "rows"
    if name.endswith("max_digits") or name.endswith("digits_out"):
        return "digits"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = perf_counter()

    try:
        # set-up samples are split around the passes, so that they span the
        # run instead of one short stretch of a machine whose speed drifts
        setups = [] if args.trace else _setups(args.workload, SETUP_SAMPLES // 2)
        runs = _passes(args.workload, args.seed, args.seconds, started)
        if args.trace:
            traced = _worker("pass", "--workload", args.workload, "--seed", str(args.seed),
                             "--trace", "1")
        else:
            traced = None
            setups += _setups(args.workload, SETUP_SAMPLES - len(setups))
    except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    every = runs + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in every)
    failures = [f for r in every for f in r["failures"]]
    digests = {r["digest"] for r in every}
    latencies = [x for r in runs for x in r["latencies"]]
    wall = statistics.median(r["wall_s"] for r in runs)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, cpu {_cpu_model()!r}, "
          f"python {platform.python_version()} ({platform.python_implementation()})")
    print(f"jobs per pass {runs[0]['attempted']}, untraced passes {len(runs)}, "
          f"jobs attempted {attempted}, failed {len(failures)} "
          f"(failed_frac {len(failures) / attempted:g})")
    for f in failures[:10]:
        print(f"  failure: {f}")
    print(f"output digest {runs[0]['digest']}"
          + ("" if len(digests) == 1 else f"  (passes disagree: {len(digests)} digests)"))

    if args.trace:
        metrics = dict(traced["per_layer"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = wall
        metrics["trace.overhead_s"] = traced["wall_s"] - wall
        names = sorted(metrics)
        units = {n: _unit(n) for n in names}
        top = sorted((n for n in names if n.endswith(".self_s") and not n.startswith("trace.")),
                     key=metrics.get, reverse=True)[:5]
        print("largest self times: " + ", ".join(
            f"{n[:-7]} {metrics[n]:.3f} s ({metrics[n] / traced['wall_s']:.0%})" for n in top))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "job_p50_s": _quantile(latencies, 0.5),
            "job_p90_s": _quantile(latencies, 0.9),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        names = [n for n, _ in END_TO_END]
        units = dict(END_TO_END)
        beyond = sum(x > metrics["job_p90_s"] for x in latencies)
        print(f"samples: setup_s {len(setups)} fresh interpreters; wall_s and peak_rss_mb "
              f"median of {len(runs)} passes; job_p50_s and job_p90_s (Harrell-Davis) over "
              f"{len(latencies)} jobs, {beyond} beyond p90")
    reference = json.loads((HERE / "data" / "reference.json").read_text())
    print(f"seed commit reference ({reference['machine']}): "
          f"{reference['seed_commit'][args.workload]}")
    print(f"ROADMAP baseline: {reference['roadmap_baseline']}")
    for n in names:
        print(f"{n} = {metrics[n]:.6g} {units[n]}")

    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
