"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

Passes run one after the other, each in a fresh interpreter
(``passrun.py``), for as long as another pass fits in ``--seconds``, and at
least ``MIN_PASSES`` of them.  With ``--trace 0``, ``SETUP_PER_PASS`` fresh
interpreters before each pass import ``gln_modp.cli`` and build its parser;
``setup_s`` is the median of all of them, so set-up is sampled across the
whole run like the passes.  With ``--trace 1`` untraced and traced passes
alternate, and the difference of their median times is the tracing
overhead.

Prints a summary with sample counts, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists for this trace mode.  ``failed`` counts jobs that
raised or whose exit code or output digest differed from the checked-in
expectation; ``correct`` is false when a job failed that is not a listed
seed failure.  Exits 1 without a result when the program or the
expectations are missing or a pass breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PER_PASS = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10     # the tail percentile keeps this many jobs beyond it

SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import gln_modp.cli\n"
    "gln_modp.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GLN_MODP_FIELD", None)   # jobs name their own scalar field
    env["PYTHONPATH"] = SRC
    return env


def run_child(args) -> str:
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup():
    return [float(run_child(["-c", SETUP_SNIPPET])) for _ in range(SETUP_PER_PASS)]


def run_pass(workload, seed, trace_dir=None) -> dict:
    args = [os.path.join(HERE, "passrun.py"), "--workload", workload, "--seed", str(seed)]
    if trace_dir:
        args += ["--trace", trace_dir]
    return json.loads(run_child(args))


def tail(latencies):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    jobs beyond it, or the slowest job when a pass has too few jobs."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes, setup):
    """The end-to-end metrics of a run and a note on each one's samples."""
    per_pass_tail = [tail(p["latencies"]) for p in passes]
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(p["pass_s"] for p in passes),
        "job_p50_ms": statistics.median(
            statistics.median(p["latencies"]) * 1e3 for p in passes),
        "job_tail_ms": statistics.median(v * 1e3 for v, _ in per_pass_tail),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "run_s": f"median of {len(passes)} passes",
        "job_p50_ms": f"median over {len(passes)} passes of the median of "
                      f"{passes[0]['attempted']} jobs",
        "job_tail_ms": f"p{per_pass_tail[0][1]:.2f} of {passes[0]['attempted']} jobs, "
                       f"median over {len(passes)} passes",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }


def per_layer(untraced, traced):
    """The per-layer metrics of a traced run and a note on their samples."""
    names = traced[0]["layers"]
    out = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
    out["trace.run_s"] = statistics.median(p["pass_s"] for p in traced)
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(
        p["pass_s"] for p in untraced)
    notes = {k: f"median of {len(traced)} traced passes" for k in out}
    notes["trace.overhead_s"] += f" minus median of {len(untraced)} untraced passes"
    return out, notes


def known_failures(workload) -> set:
    with open(os.path.join(HERE, "expected", f"{workload}.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    return {jid for jid, exp in jobs.items() if "seed_failure" in exp}


def tally(passes, known) -> dict:
    """Jobs attempted and failed over all passes; correct unless a job
    failed that is not a listed seed failure."""
    failures = [f for p in passes for f in p["failures"]]
    return {"correct": all(f["id"] in known for f in failures),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": len(failures)}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace):
    """Run one measurement; returns (result line dict, notes, passes)."""
    for path in (os.path.join(SRC, "gln_modp", "__init__.py"),
                 os.path.join(HERE, "expected", f"{workload}.json")):
        if not os.path.isfile(path):
            raise BenchError(f"missing {os.path.relpath(path, ROOT)}")
    spec = load_spec()
    setup, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(run_pass(workload, seed, os.path.join(OUT, workload)))
        else:
            if not trace:
                setup += measure_setup()
            untraced.append(run_pass(workload, seed))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if (done >= MIN_PASSES and len(traced) >= trace
                and elapsed * (done + 1) / done > seconds):
            break
    passes = untraced + traced
    if trace:
        values, notes = per_layer(untraced, traced)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(untraced, setup)
        wanted = spec["end_to_end"]
    line = tally(passes, known_failures(workload))
    line["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in wanted}
    return line, notes, passes


def summary(workload, seed, line, notes, passes) -> str:
    rows = [f"# {workload} seed={seed}: {len(passes)} passes, "
            f"{line['attempted']} jobs attempted, {line['failed']} failed "
            f"(failed_frac {line['failed'] / line['attempted']:.4f}), "
            f"correct={line['correct']}"]
    for kind in sorted({f["kind"] + ": " + f["reason"] for p in passes
                        for f in p["failures"]}):
        rows.append(f"#   failing: {kind}")
    for name, m in line["metrics"].items():
        rows.append(f"#   {name} = {m['value']:.6g} {m['unit']}  [{notes.get(name, '')}]")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        line, notes, passes = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(summary(args.workload, args.seed, line, notes, passes))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
