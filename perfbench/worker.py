"""One measured pass, or one set-up sample, in a fresh interpreter.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py pass --workload W --seed N --trace 0|1

Set-up is importing gpade from the checkout's src/ and resolving the
workload's systems.  A pass then runs the workload's jobs one after another
(a closed loop, one thread), times each job, and only afterwards checks the
outputs.  The last line of standard output is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gpade" / "__init__.py").is_file():
        print(f"worker: no gpade sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # xi and digests print exact integers far beyond str()'s default limit
    sys.set_int_max_str_digits(0)

    from workloads import SYSTEMS, make_jobs, run_job

    t0 = perf_counter()
    import gpade.cli  # noqa: F401  (the package and its CLI)
    from gpade.catalog import resolve_system
    systems = {name: resolve_system(name) for name in SYSTEMS[args.workload]}
    setup_s = perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = make_jobs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()

    outputs, latencies = [], []
    start = perf_counter()
    for spec in jobs:
        t = perf_counter()
        try:
            out = run_job(spec, systems)
        except Exception as exc:  # a failed job is counted, not fatal
            out = exc
        latencies.append(perf_counter() - t)
        outputs.append(out)
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_layer = tracer.metrics() if tracer else {}

    # outside the timed phase: certification, output checks, digest
    from checks import certified, check, digest_item
    failures, digest = [], hashlib.sha256()
    for spec, out in zip(jobs, outputs):
        if isinstance(out, Exception):
            failures.append(f"{spec!r}: raised {type(out).__name__}: {out}")
            continue
        if not certified(spec, out):
            failures.append(f"{spec!r}: not certified")
            continue
        reason = check(spec, out)
        if reason:
            failures.append(f"{spec!r}: {reason}")
        digest.update(digest_item(spec, out))

    print(json.dumps({
        "wall_s": wall_s, "latencies": latencies,
        "peak_rss_mb": peak_rss_mb, "attempted": len(jobs), "failures": failures,
        "digest": digest.hexdigest(), "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
