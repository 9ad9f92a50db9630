"""Every benchmark job against its checked-in expectation.

A benchmark pass draws only part of the ``algebra_session`` pool, so this
runs the whole pool and both fixed job lists, in process, through
``perfbench/passrun.py`` and compares each exit code and output digest with
``perfbench/expected/``.  Only the seed failures listed there may fail.
"""

import importlib
import pathlib
import sys

import pytest

from gln_modp import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench(request):
    # passrun and run import their sibling modules by bare name
    sys.path.insert(0, str(PERFBENCH))
    request.addfinalizer(lambda: sys.path.remove(str(PERFBENCH)))
    return tuple(importlib.import_module(name) for name in ("passrun", "run", "workloads"))


@pytest.mark.parametrize("workload", ["oracle_gates", "hecke0_derive", "algebra_session"])
def test_every_benchmark_job_meets_its_expectation(bench, workload, monkeypatch):
    passrun, run, wl = bench
    monkeypatch.delenv(cli.ENV_FIELD, raising=False)   # jobs name their own field
    jobs = wl.all_session_jobs() if workload == "algebra_session" else wl.jobs_for(workload, 0)
    result = passrun.run_pass(jobs, passrun.load_expected(workload))
    assert result["attempted"] == len(jobs)
    known = run.known_failures(workload)
    assert [f for f in result["failures"] if f["id"] not in known] == []
