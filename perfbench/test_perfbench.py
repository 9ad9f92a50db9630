"""Tests of the benchmark itself: the job generator, the span arithmetic,
the expectation check and the metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
from collections import Counter

import passrun
import run
import tracer as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
KNOWN_CRASHERS = ("malformed.field_text", "malformed.pair_list", "malformed.n_list")


def test_generator_is_deterministic_per_seed():
    a, b = wl.algebra_session_jobs(7), wl.algebra_session_jobs(7)
    assert a == b
    c = wl.algebra_session_jobs(8)
    assert [j["id"] for j in a] != [j["id"] for j in c]
    # the same amount of each kind for every seed, a few thousand jobs
    assert Counter(j["kind"] for j in a) == Counter(j["kind"] for j in c)
    assert len(a) >= 2000
    assert wl.jobs_for("hecke0_derive", 3) == wl.jobs_for("hecke0_derive", 3)


def test_every_seed_draws_from_the_checked_in_pool():
    expected = passrun.load_expected("algebra_session")
    for seed in (0, 1, 12345):
        jobs = wl.algebra_session_jobs(seed)
        assert all(j["id"] in expected for j in jobs)
        kinds = {j["kind"] for j in jobs}
        assert all(k in kinds for k in KNOWN_CRASHERS)
        assert not any(k.startswith(("oracle", "hecke0", "verify")) for k in kinds)
    assert all(j["id"] == wl.job_id(j) for j in wl.all_session_jobs())


def test_seed_failures_are_listed_by_kind():
    with open(os.path.join(HERE, "expected", "algebra_session.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(KNOWN_CRASHERS) <= set(data["seed_failures"])
    assert all(k.startswith("malformed.") for k in data["seed_failures"])
    for workload in ("oracle_gates", "hecke0_derive"):
        assert not run.known_failures(workload)


def test_self_time_on_a_nested_span_tree():
    # root [0, 10] has children A [1, 4] and B [5, 9]; B has C [6, 7];
    # D [3, 6] overlaps A inside root, so root's children cover [1, 9].
    start = [0.0, 1.0, 5.0, 6.0, 3.0]
    end = [10.0, 4.0, 9.0, 7.0, 6.0]
    parent = [-1, 0, 0, 2, 0]
    assert tr.self_times(start, end, parent) == [2.0, 3.0, 3.0, 1.0, 3.0]
    # a child running past its parent only counts inside the parent
    assert tr.self_times([0.0, 2.0], [4.0, 6.0], [-1, 0]) == [2.0, 4.0]


def test_tracer_links_parents_and_restores_bindings():
    tracer = tr.Tracer()
    inner = tracer.span("m.inner", lambda x: x + 1)
    outer = tracer.span("m.outer", lambda x: inner(x) * 2)
    tracer.current_job = 4
    assert outer(1) == 4
    assert [tracer.names[n] for n in tracer.name] == ["m.outer", "m.inner"]
    assert list(tracer.parent) == [-1, 0] and list(tracer.job) == [4, 4]
    selfs = tr.self_times(tracer.start, tracer.end, tracer.parent)
    assert abs(selfs[0] + selfs[1] - (tracer.end[0] - tracer.start[0])) < 1e-12

    from gln_modp import finite_field, hecke, root_datum
    originals = (finite_field.FqElem.__mul__, hecke.interval_above, root_datum.leq_M)
    restore = tr.install(tr.Tracer())
    try:
        assert finite_field.FqElem.__rmul__ is finite_field.FqElem.__mul__
        assert hecke.interval_above is root_datum.interval_above
        assert hecke.interval_above is not originals[1]
    finally:
        restore()
    assert (finite_field.FqElem.__mul__, hecke.interval_above, root_datum.leq_M) == originals


def test_injected_wrong_expectation_shows_in_failed_frac():
    stream = wl.algebra_session_jobs(1)
    jobs = ([j for j in stream if j["kind"] in ("weights", "eigen")][:40]
            + [j for j in stream if j["kind"] == "malformed.n_list"])
    expected = passrun.load_expected("algebra_session")
    known = run.known_failures("algebra_session")
    clean = run.tally([passrun.run_pass(jobs, expected)], known)
    assert clean["correct"]
    assert clean["failed"] == sum(j["id"] in known for j in jobs) > 0

    victim = next(j for j in jobs if j["kind"] == "weights")
    wrong = dict(expected)
    wrong[victim["id"]] = dict(expected[victim["id"]], sha256="0" * 64)
    bad = run.tally([passrun.run_pass(jobs, wrong)], known)
    assert bad["failed"] == clean["failed"] + 1
    assert not bad["correct"]


def test_traced_pass_reports_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs = [j for j in wl.algebra_session_jobs(2) if j["kind"] != "lattice"][:60]
    tracer = tr.Tracer()
    restore = tr.install(tracer)
    try:
        result = passrun.run_pass(jobs, passrun.load_expected("algebra_session"), tracer)
    finally:
        restore()
    layers = tr.layer_metrics(tracer)
    layers.update(passrun.design_metrics())
    layers.update({"finite_field.mul_ns.F3": 1.0, "finite_field.mul_ns.F9": 1.0})
    values, _ = run.per_layer([result], [dict(result, layers=layers)])
    assert {m["name"] for m in spec["per_layer"]} <= set(values)
    assert layers["cli.jobs"] > 0 and layers["oracle.calls"] == layers["hecke0.calls"] == 0


def test_tail_keeps_ten_jobs_beyond():
    lat = [float(i) for i in range(100)]
    assert run.tail(lat) == (89.0, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
