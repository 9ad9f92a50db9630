"""One pass over a workload in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N [--trace DIR]

Runs every job of the pass, times each one, checks each output against the
checked-in expectation and prints one JSON object.  ``run.py`` starts one of
these per pass, so the program's caches start cold in every pass, as they do
for every ``gln-modp`` call.  With ``--trace`` the program's public functions
are wrapped first (see ``tracer.py``), the per-layer metrics are added to the
result and the spans are written to DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

import tracer as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
MUL_OPS = 20000
MUL_REPEATS = 5


def load_expected(workload: str) -> dict:
    with open(os.path.join(HERE, "expected", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def mul_ns(p: int, m: int, seed: int) -> float:
    """Median time of one F_{p^m} multiply over seeded operands, untraced."""
    from gln_modp.finite_field import FqField
    field = FqField(p, m)
    rng = random.Random(seed)
    elems = [field([rng.randrange(p) for _ in range(m)]) for _ in range(64)]
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(MUL_OPS)]
    times = []
    for _ in range(MUL_REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            a * b
        times.append((time.perf_counter() - t0) / MUL_OPS * 1e9)
    times.sort()
    return times[len(times) // 2]


def design_metrics() -> dict:
    """Line count of the package's sources and its public symbol count."""
    import gln_modp
    lines = 0
    pkg = os.path.dirname(gln_modp.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"design.src_lines": lines, "design.public_symbols": len(gln_modp.__all__)}


def run_pass(jobs, expected: dict, tracer=None) -> dict:
    """Run the jobs in order; times each one and checks its output."""
    latencies, failures = [], []
    t_pass = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = index
        raised, code, text = None, None, ""
        t0 = time.perf_counter()
        try:
            code, text = wl.execute(job)
        except Exception as exc:  # a job that raises has failed; keep going
            raised = type(exc).__name__
        latencies.append(time.perf_counter() - t0)
        reason = wl.check(job, expected, code, text, raised)
        if reason is not None:
            failures.append({"id": job["id"], "kind": job["kind"], "reason": reason})
    pass_s = time.perf_counter() - t_pass
    return {"pass_s": pass_s,
            "latencies": latencies, "attempted": len(jobs), "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", help="trace the pass and write its spans here")
    args = ap.parse_args(argv)

    import gln_modp.cli  # noqa: F401  (import cost is measured as setup_s)
    jobs = wl.jobs_for(args.workload, args.seed)
    expected = load_expected(args.workload)
    if not args.trace:
        result = run_pass(jobs, expected)
    else:
        micro = {"finite_field.mul_ns.F3": mul_ns(3, 1, args.seed),
                 "finite_field.mul_ns.F9": mul_ns(3, 2, args.seed)}
        tracer = tr.Tracer()
        tr.install(tracer)
        result = run_pass(jobs, expected, tracer)
        layers = tr.layer_metrics(tracer)
        layers.update(micro)
        layers.update(design_metrics())
        result["layers"] = layers
        tracer.write(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
