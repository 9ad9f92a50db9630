"""Write (or check) the expected exit code and output digest of every job.

    python3 perfbench/expect.py            # rewrite expected/*.json
    python3 perfbench/expect.py --check    # compare with the files, write nothing

Covers every job of the fixed workloads and the whole algebra_session pool,
so the files hold for every workload seed.  The files in the repository were
written from the code at the commit that defined the benchmark; rewriting
them later would move the reference that refactors are checked against.

A malformed-input job that raises gets the expectation the CLI documents
for malformed input (exit 2 with schema-error JSON, digest not pinned) and
is listed under ``seed_failures``: it fails until the crash is fixed.  Any
other job that raises is an error here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402


def expectations(jobs):
    out, seed_failures = {}, {}
    for job in jobs:
        if job["id"] in out:
            continue
        try:
            code, text = wl.execute(job)
        except Exception as exc:
            if not job["kind"].startswith("malformed."):
                raise RuntimeError(f"valid job {job['id']} ({job['kind']}) raised") from exc
            reason = f"raises {type(exc).__name__}"
            out[job["id"]] = {"kind": job["kind"], "exit": 2, "sha256": None,
                              "seed_failure": reason}
            seed_failures[job["kind"]] = reason
            continue
        out[job["id"]] = {"kind": job["kind"], "exit": code, "sha256": wl.digest(text)}
    return {"jobs": out, "seed_failures": dict(sorted(seed_failures.items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare, write nothing")
    args = ap.parse_args(argv)
    sources = {"oracle_gates": wl.oracle_gates_jobs(),
               "hecke0_derive": wl.hecke0_derive_jobs(),
               "algebra_session": wl.all_session_jobs()}
    status = 0
    for workload, jobs in sources.items():
        data = expectations(jobs)
        path = os.path.join(HERE, "expected", f"{workload}.json")
        if args.check:
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
            same = old == data
            status |= not same
            print(f"{workload}: {'matches' if same else 'DIFFERS'}")
            continue
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(data['jobs'])} jobs, seed failures {data['seed_failures']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
