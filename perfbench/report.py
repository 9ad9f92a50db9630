"""Run every workload, untraced and traced, check the outputs and print every
metric by name with its unit and sample count.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Also checks that the workloads separate the layers as designed (see
README.md) and that the only failing jobs are the listed seed failures.
Writes all figures, with ``nproc`` and the Python version, to FILE
(default ``.perfbench_out/report.json``); ``baseline_seed.json`` is this
file as written at the commit that defined the benchmark.  Exits 1 when an
output is wrong or a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import run
import tracer as tr
import workloads as wl


def layer_checks(workload, layers):
    """(description, passed) for the layer separation each workload promises."""
    def share(*names):
        return sum(layers[f"{n}.self_s"] for n in names) / layers["trace.run_s"]

    if workload == "oracle_gates":
        s = share("oracle")
        return [(f"oracle self time is {s:.1%} of the traced pass (>= 90%)", s >= 0.9)]
    if workload == "hecke0_derive":
        s = share("hecke0", "finite_field")
        return [(f"hecke0 + finite_field self time is {s:.1%} of the traced pass (>= 90%)",
                 s >= 0.9)]
    calls = layers["oracle.calls"], layers["hecke0.calls"]
    return [(f"oracle and hecke0 calls are {calls[0]:g} and {calls[1]:g} (both 0)",
             calls == (0, 0))]


def failure_check(workload, seed, line, passes):
    known = run.known_failures(workload)
    listed = sum(j["id"] in known for j in wl.jobs_for(workload, seed)) * len(passes)
    frac = line["failed"] / line["attempted"]
    return (f"failed_frac = {line['failed']}/{line['attempted']} = {frac:.4f}; "
            f"listed seed failures run: {listed}", line["failed"] == listed and line["correct"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run.load_spec()["run_seconds"])
    ap.add_argument("--out", default=os.path.join(run.OUT, "report.json"))
    args = ap.parse_args(argv)

    record = {"seed": args.seed, "seconds": args.seconds, "nproc": os.cpu_count(),
              "python": platform.python_version(), "machine": platform.machine(),
              "workloads": {}}
    ok = True
    for workload in wl.WORKLOADS:
        entry = record["workloads"][workload] = {}
        checks = []
        for trace in (0, 1):
            line, notes, passes = run.measure(workload, args.seed, args.seconds, trace)
            print(run.summary(workload, args.seed, line, notes, passes))
            values = line["metrics"]
            if trace:
                layers, _ = run.per_layer([p for p in passes if "layers" not in p],
                                          [p for p in passes if "layers" in p])
                for layer in tr.LAYERS:
                    share = layers[f"{layer}.self_s"] / layers["trace.run_s"]
                    print(f"#   {layer} self time: {share:.1%} of the traced pass")
                checks += layer_checks(workload, layers)
                entry["per_layer"] = layers
            else:
                checks.append(failure_check(workload, args.seed, line, passes))
                entry["end_to_end"] = {k: v["value"] for k, v in values.items()}
                entry["attempted"], entry["failed"] = line["attempted"], line["failed"]
            entry.setdefault("samples", {}).update(notes)
        for text, passed in checks:
            print(f"{'PASS' if passed else 'FAIL'}  {workload}: {text}")
            ok &= passed
        entry["checks"] = {text: passed for text, passed in checks}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
