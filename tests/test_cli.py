import contextlib
import hashlib
import io
import json
import pathlib
import shlex
import time

import pytest
from hypothesis import example, given, strategies as st

from gln_modp import classify, cli, hecke0, oracle
from gln_modp.cli import export_lattice_dot, main, run
from gln_modp.classify import (
    ConstituentPoset, InductionDatum, Steinberg, Supersingular, boolean_lower_sets,
    constituents, delta, lower_sets, submodule_lattice,
)
from gln_modp.eigen import SmoothCharacter, trivial_character
from gln_modp.finite_field import FqField, _smallest_factor
from gln_modp.root_datum import StandardParabolic, all_parabolics


def run_job(job):
    out = io.StringIO()
    code = run(job, out)
    return code, out.getvalue()


def trivial_ps_datum(n):
    one = {"unramified": "1", "tame": 0}
    return {"P": [1] * n,
            "blocks": [{"kind": "steinberg", "size": 1, "Q": [1], "eta": one}] * n}


_ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é\u2028\uffff\ud800😀'
_JSON_LEAVES = (st.none() | st.booleans()
                | st.integers() | st.integers(-2**200, 2**200)
                | st.text() | st.text(alphabet=_ESCAPES))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text() | st.text(alphabet=_ESCAPES), inner)),
    max_leaves=30)


@given(_JSON_VALUES)
def test_json_writer_matches_indented_json_dumps(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    [1, True], [True, False], ["a", 1], [1, None], (), [[]], [2**200, -1],
    (3, 0, -7), ["a", "b"], ['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é\u2028\uffff", "\ud800", "😀"],
    {"k": ['"', "\n"], "i": [0, 1]}, [[1, 2], ["x"], []]])
def test_json_writer_flat_lists_match_indented_json_dumps(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, [1.5], [1, 1.5], {1: "a"}, {"a": [set()]}, b"x"])
def test_json_writer_refuses_what_no_handler_returns(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_satake_job():
    code, text = run_job({"command": "satake",
                          "params": {"n": 2, "q": 3, "nu": "0,0", "lam": "-2,0"}})
    assert code == 0
    data = json.loads(text)
    assert data["basis"] == "tau"
    assert data["terms"] == {"-2,0": "1", "-1,-1": "2"}


def test_satake_main_flags(capsys):
    assert main(["satake", "--n", "2", "--q", "3", "--nu", "0,0", "--lam", "-2,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["terms"] == {"-2,0": "1", "-1,-1": "2"}


def _main_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_main_reuses_one_parser_with_fresh_parser_output(monkeypatch):
    good = ["satake", "--n", "2", "--q", "3", "--nu", "0,0", "--lam", "-2,0"]
    calls = [good,
             ["weights", "shift", "--q", "3", "--nu", "0,0"],
             ["eigen", "supersingular", "--q", "3", "--pair", "[1]"],
             good]
    shared = [_main_bytes(argv) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 2, 2, 0]
    assert "invalid choice: 'shift'" in shared[1][2]
    assert json.loads(shared[2][1])["error"]["kind"] == "schema"
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert [_main_bytes(argv) for argv in calls] == shared


def test_deterministic_output():
    job = {"command": "classify",
           "params": {"q": 3, "datum": trivial_ps_datum(3)}}
    _, a = run_job(job)
    _, b = run_job(job)
    assert a == b
    data = json.loads(a)
    assert data["count"] == 4 and data["delta"] == 2


def test_classify_output_reparses_as_input():
    job = {"command": "classify", "params": {"q": 3, "datum": trivial_ps_datum(2)}}
    code, text = run_job(job)
    assert code == 0
    for sub in json.loads(text)["constituents"]:
        code2, text2 = run_job({"command": "classify",
                                "params": {"q": 3, "action": "validate", "datum": sub}})
        assert code2 == 0
        assert json.loads(text2)["valid"] is True


def test_lattice_job_and_dot():
    job = {"command": "lattice", "params": {"q": 3, "datum": trivial_ps_datum(2)}}
    code, text = run_job(job)
    assert code == 0
    data = json.loads(text)
    assert data["lower_set_count"] == 3
    job["params"]["dot"] = False
    assert run_job(job) == (0, text)
    job["params"]["dot"] = True
    code, text = run_job(job)
    assert code == 0
    assert text.startswith("digraph lattice")
    assert text.count("->") == 2  # three-node chain


def test_dot_shape_gl3():
    one = trivial_character(FqField(3, 2), 3)
    datum = InductionDatum(
        StandardParabolic.torus(3),
        tuple(Steinberg(1, StandardParabolic.full(1), one) for _ in range(3)))
    dot = export_lattice_dot(constituents(datum), submodule_lattice(datum))
    assert dot.count("[label=") == 6


def reference_lattice_dot(poset, sets):
    """The DOT text of a datum's constituents and its lower sets, with covers
    found by comparing every pair of lower sets."""
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    sets = [frozenset(s) for s in sets]
    for idx, s in enumerate(sets):
        if s:
            label = " + ".join(poset.elements[j].short() for j in sorted(s))
        else:
            label = "0"
        lines.append(f'  L{idx} [label="{label}"];')
    for a, sa in enumerate(sets):
        for b, sb in enumerate(sets):
            if len(sb) == len(sa) + 1 and sa < sb:
                lines.append(f"  L{a} -> L{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


TRIVIAL = trivial_character(FqField(3, 2), 3)
ST1 = Steinberg(1, StandardParabolic.full(1), TRIVIAL)
TWO_RUNS = InductionDatum(   # delta = 2: runs split by a supersingular block
    StandardParabolic((1, 2, 2, 1, 1)),
    (ST1, Steinberg(2, StandardParabolic.torus(2), TRIVIAL),
     Supersingular(2, "s", TRIVIAL), ST1, ST1))


def test_dot_covers_match_pairwise_reference():
    data = [InductionDatum(StandardParabolic.torus(n), (ST1,) * n) for n in range(1, 6)]
    for datum in data + [TWO_RUNS]:
        poset, lattice = constituents(datum), submodule_lattice(datum)
        assert export_lattice_dot(poset, lattice) == reference_lattice_dot(poset, lattice.sets)


def test_lattice_combinatorics_are_shared_per_delta():
    # three delta = 2 data with different run shapes: one run of three
    # characters, two runs split by a supersingular block, and one run of
    # Steinberg blocks with non-trivial Q
    data = [InductionDatum(StandardParabolic.torus(3), (ST1,) * 3), TWO_RUNS,
            InductionDatum(StandardParabolic((2, 2, 1)), (
                Steinberg(2, StandardParabolic.torus(2), TRIVIAL),
                Steinberg(2, StandardParabolic.full(2), TRIVIAL), ST1))]
    lattices = [submodule_lattice(datum) for datum in data]
    for datum, lattice in zip(data, lattices):
        poset = constituents(datum)
        k = len(poset)
        assert k == 4 and lattice is lattices[0]
        assert lattice.sets == tuple(tuple(sorted(s)) for s in lower_sets(poset.leq, k))
        assert lattice.principal == tuple(
            tuple(i for i in range(k) if poset.leq(i, j)) for j in range(k))
        assert export_lattice_dot(poset, lattice) == reference_lattice_dot(poset, lattice.sets)
    # one entry per accepted delta = 0..5; a refused delta = 6 adds none
    assert boolean_lower_sets.cache_info().maxsize == 6
    size = boolean_lower_sets.cache_info().currsize
    code, _ = run_job({"command": "lattice", "params": {"q": 3, "datum": trivial_ps_datum(7)}})
    assert code == 1 and boolean_lower_sets.cache_info().currsize == size


def test_dot_labels_escape_quotes_and_backslashes():
    one = trivial_character(FqField(3, 2), 3)
    datum = InductionDatum(StandardParabolic((2,)), (Supersingular(2, 'a"b\\c', one),))
    dot = export_lattice_dot(constituents(datum), submodule_lattice(datum))
    assert '  L1 [label="Ind(ss2[a\\"b\\\\c])"];' in dot.splitlines()


def test_lattice_output_pinned():
    # sha256 of `lattice` output for the length-16 and length-32 principal
    # series (delta = 4 and 5), captured from the uncached enumeration; the
    # CI workflow checks the delta = 5 bytes through the argv path
    for n, dot, digest in (
            (5, False, "49436004b95209d8ccf89c3fb4b155bf31323869157c3d7f5371971d71137b47"),
            (5, True, "a00410d9da865688ea659356c61561db755313f8a4ee0045951142e94e873a30"),
            (6, False, "20d6405169e31cd7bcbbe4492a18cbc1a3f47e0dbcb4bb65a9fc22a857626827"),
            (6, True, "f407fe458bcb8ca1030e2cf0fc9fa0391bec0a024c44a462bfc15b05b8336a95")):
        code, text = run_job({"command": "lattice",
                              "params": {"q": 3, "datum": trivial_ps_datum(n), "dot": dot}})
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# a supersingular block, then one run of three equal-twist Steinberg blocks
# (delta = 2), the middle one with a non-trivial Q
MIXED_DATUM = {"P": [2, 1, 2, 1], "blocks": [
    {"kind": "supersingular", "size": 2, "label": "a", "central": {"unramified": "1", "tame": 0}},
    {"kind": "steinberg", "size": 1, "Q": [1], "eta": {"unramified": "2", "tame": 1}},
    {"kind": "steinberg", "size": 2, "Q": [1, 1], "eta": {"unramified": "2", "tame": 1}},
    {"kind": "steinberg", "size": 1, "Q": [1], "eta": {"unramified": "2", "tame": 1}}]}


def test_mixed_lattice_output_pinned():
    # sha256 of `lattice` output for MIXED_DATUM, captured before the lattice
    # was shared per delta; the CI workflow checks the same bytes through argv
    for dot, digest in (
            (False, "98798c3069164ffe62428a96289993a85702c65f081ccb9655dbad9e684b4b59"),
            (True, "e1daa76ad5e58419115ad838563281582591de2438d72d5675dc57e21d8ba7cc")):
        code, text = run_job({"command": "lattice",
                              "params": {"q": 3, "datum": MIXED_DATUM, "dot": dot}})
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_lattice_job_builds_the_constituents_once(monkeypatch):
    calls = []

    def counting(datum):
        calls.append(datum)
        return constituents(datum)

    monkeypatch.setattr(classify, "constituents", counting)
    for dot in (False, True):
        calls.clear()
        code, _ = run_job({"command": "lattice",
                           "params": {"q": 3, "datum": MIXED_DATUM, "dot": dot}})
        assert code == 0 and len(calls) == 1


def test_a_lattice_job_refuses_a_size_1_supersingular_block():
    one = {"unramified": "1", "tame": 0}
    datum = {"P": [1, 1], "blocks": [
        {"kind": "supersingular", "size": 1, "label": "s", "central": one},
        {"kind": "steinberg", "size": 1, "Q": [1], "eta": one}]}
    for dot in (False, True):
        code, text = run_job({"command": "lattice",
                              "params": {"q": 3, "datum": datum, "dot": dot}})
        assert code == 1
        assert json.loads(text) == {"error": {
            "kind": "domain", "message": "datum is not in canonical form"}}


F9 = FqField(3, 2)
F9_CHARS = st.builds(SmoothCharacter, st.sampled_from(tuple(F9.units())),
                     st.integers(0, 1), st.just(3))


@st.composite
def induction_data(draw):
    """A datum over a composition of n <= 5 with F_9 characters, drawn as the
    acceptance suite draws them: half the Steinberg blocks that follow a
    Steinberg block repeat its twist, so delta > 0 is common."""
    P = draw(st.sampled_from(all_parabolics(draw(st.integers(2, 5)))))
    blocks = []
    for size in P.composition:
        eta = draw(F9_CHARS)
        if size > 1 and draw(st.booleans()):
            blocks.append(Supersingular(size, f"s{size}", eta))
            continue
        if blocks and isinstance(blocks[-1], Steinberg) and draw(st.booleans()):
            eta = blocks[-1].eta
        sub = draw(st.sets(st.integers(1, size - 1))) if size > 1 else ()
        blocks.append(Steinberg(size, StandardParabolic.from_delta(size, sub), eta))
    return InductionDatum(P, tuple(blocks))


@given(induction_data())
@example(TWO_RUNS)   # the drawn data reach delta = 1; these reach 2, 3 and 4
@example(InductionDatum(StandardParabolic.torus(4), (ST1,) * 4))
@example(InductionDatum(StandardParabolic.torus(5), (ST1,) * 5))
def test_lattice_job_pairs_the_constituents_with_the_reference_lattice(datum):
    # the reference: the datum's constituents and the lower sets of their
    # order, with the principal sets, socle and cosocle read off those sets
    poset, k = constituents(datum), 2 ** delta(datum)
    sets = lower_sets(ConstituentPoset.leq, k)
    principal = [sorted(frozenset.intersection(*(s for s in sets if j in s)))
                 for j in range(k)]
    job = {"command": "lattice", "scalar_field": {"p": 3, "m": 2},
           "params": {"q": 3, "datum": cli._datum_json(datum)}}
    code, text = run_job(job)
    assert code == 0 and len(poset) == k
    assert json.loads(text) == {
        "constituents": [cli._datum_json(r.datum) for r in poset.elements],
        "lower_set_count": len(sets),
        "lower_sets": [sorted(s) for s in sets],
        "principal": principal,
        "socle": [j for j in range(k) if principal[j] == [j]],
        "cosocle": [j for j in range(k)
                    if not any(j in principal[i] for i in range(k) if i != j)],
    }
    job["params"]["dot"] = True
    code, text = run_job(job)
    assert code == 0 and text == reference_lattice_dot(poset, sets)
    # every datum with this delta shares the lattice object
    trivial = InductionDatum(StandardParabolic.torus(delta(datum) + 1),
                             (ST1,) * (delta(datum) + 1))
    assert submodule_lattice(datum) is submodule_lattice(trivial)


def test_lattice_delta_5_runs_and_delta_6_is_refused():
    for dot in (False, True):
        code, text = run_job({"command": "lattice",
                              "params": {"q": 3, "datum": trivial_ps_datum(6), "dot": dot}})
        assert code == 0
        if dot:
            assert text.count("[label=") == 7581
        else:
            assert json.loads(text)["lower_set_count"] == 7581
    start = time.perf_counter()
    code, text = run_job({"command": "lattice",
                          "params": {"q": 3, "datum": trivial_ps_datum(7)}})
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(text) == {"error": {
        "kind": "domain",
        "message": "poset too large for exhaustive lower-set enumeration"}}


def test_weights_jobs():
    code, text = run_job({"command": "weights",
                          "params": {"action": "cover", "q": 3, "M": "1,1,1", "nu": "0,0,0"}})
    assert code == 0 and json.loads(text)["nu"] == "4,2,0"
    code, text = run_job({"command": "weights",
                          "params": {"action": "restrict", "q": 3, "P": "1,1", "nu": "2,0"}})
    assert code == 0 and json.loads(text)["nu"] == "0,0"


def test_eigen_job():
    pair = {"M": [1, 1], "chars": [{"unramified": "1", "tame": 0},
                                   {"unramified": "2", "tame": 0}]}
    code, text = run_job({"command": "eigen",
                          "params": {"action": "eval-tau", "q": 3, "pair": pair,
                                     "lam": "-1,0"}})
    assert code == 0 and json.loads(text)["value"] == "1"
    code, text = run_job({"command": "eigen",
                          "params": {"action": "supersingular", "q": 3,
                                     "pair": {"M": [2], "chars": [{"unramified": "2"}]}}})
    assert code == 0 and json.loads(text)["supersingular"] is True


def test_hecke0_jobs():
    code, text = run_job({"command": "hecke0", "params": {"action": "verify", "n": 3}})
    assert code == 0 and json.loads(text)["ok"] is True
    code, text = run_job({"command": "hecke0", "params": {"action": "derive", "n": 2}})
    assert code == 0
    rep = json.loads(text)
    assert rep["status"] == "derived" and rep["conclusion"] == "v = Πv"


def test_hecke0_verify_ignores_the_field():
    # the identities are compared over the integers, so every field agrees
    for field in ({"p": 2}, {"p": 3, "m": 2}):
        for n in range(2, 6):
            code, text = run_job({"command": "hecke0", "scalar_field": field,
                                  "params": {"action": "verify", "n": n}})
            data = json.loads(text)
            assert code == 0 and data["ok"] is True
            assert data["braid_and_rotation"] and data["word_shift"]
            assert all(data["translation_powers"].values())


def test_hecke0_verify_below_rank_2_is_a_domain_error():
    for n in (1, 0, -2):
        code, text = run_job({"command": "hecke0", "params": {"action": "verify", "n": n}})
        assert code == 1
        assert json.loads(text)["error"] == {"kind": "domain",
                                             "message": "rank must be at least 2"}


def test_derive_above_rank_5_is_refused_at_once():
    message = "derive is measured up to rank 5; rank 7 is refused"
    start = time.perf_counter()
    code, text = run_job({"command": "hecke0", "params": {"action": "derive", "n": 7, "cap": 49}})
    assert (code, json.loads(text)) == (1, {"error": {"kind": "domain", "message": message}})
    code, out, err = _main_bytes(["hecke0", "derive", "--n", "7", "--cap", "49"])
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(out), err) == (1, {"error": {"kind": "domain", "message": message}}, "")


def test_hecke0_verify_above_rank_20_is_refused_at_once():
    # rank 20 takes under a second; without the guard rank 10^6 would run for ages
    for n in (21, 1_000_000):
        message = f"verify is measured up to rank 20; rank {n} is refused"
        start = time.perf_counter()
        code, text = run_job({"command": "hecke0", "params": {"action": "verify", "n": n}})
        assert (code, json.loads(text)) == (1, {"error": {"kind": "domain", "message": message}})
        code, out, err = _main_bytes(["hecke0", "verify", "--n", str(n)])
        assert time.perf_counter() - start < 1.0
        assert (code, json.loads(out), err) == (
            1, {"error": {"kind": "domain", "message": message}}, "")


def test_huge_field_sizes_fail_fast():
    # trial division is refused from 2^32 on, instead of running for minutes
    weights = {"action": "regular", "nu": "0,0", "M": "1,1"}
    start = time.perf_counter()
    code, text = run_job({"command": "weights", "params": dict(weights, q=10 ** 18 + 3)})
    assert time.perf_counter() - start < 0.5
    assert code == 1 and json.loads(text)["error"]["kind"] == "domain"
    start = time.perf_counter()
    code, text = run_job({"command": "weights", "scalar_field": {"p": 2 ** 61 - 1},
                          "params": dict(weights, q=3)})
    assert time.perf_counter() - start < 0.5
    assert code == 2 and json.loads(text)["error"]["kind"] == "schema"


def test_large_extension_fields_are_a_schema_error_at_once(monkeypatch):
    # past 2^16 elements no modulus is searched for, whichever source names it
    start = time.perf_counter()
    code, out, err = _main_bytes(SATAKE_ARGV + ["--field", "2,40"])
    assert (code, json.loads(out)["error"]["kind"], err) == (2, "schema", "")
    assert time.perf_counter() - start < 1
    code, text = run_job(dict(SATAKE_JOB, scalar_field={"p": 3, "m": 40}))
    assert (code, json.loads(text)["error"]["kind"]) == (2, "schema")
    monkeypatch.setenv(cli.ENV_FIELD, "3,40")
    code, text = run_job(SATAKE_JOB)
    assert (code, json.loads(text)["error"]["kind"]) == (2, "schema")
    assert time.perf_counter() - start < 1


def test_a_large_interval_is_a_domain_error_at_once():
    # the tau -> T expansion lists the interval above lam; past 2^16 members
    # the listing stops instead of running for minutes
    message = "interval too large for exhaustive enumeration"
    for lam in ("-200,0,0,200", "-1000,0,0,0,0,1000"):
        n = lam.count(",") + 1
        start = time.perf_counter()
        code, out, err = _main_bytes(["satake", "--basis", "tau", "--n", str(n), "--q", "3",
                                      "--nu", ",".join(["0"] * n), "--lam", lam])
        assert time.perf_counter() - start < 1
        assert (code, json.loads(out), err) == (
            1, {"error": {"kind": "domain", "message": message}}, "")


def test_a_levi_rank_past_13_is_a_domain_error_at_once():
    # the T -> tau row scans 2^|Delta_M| subsets: the trivial weight at
    # n = 14 (rank 13) still expands, and n = 22 is refused before the scan
    # that took 10 s
    def satake(n):
        lam = ",".join(["-1"] + ["0"] * (n - 2) + ["1"])
        job = {"command": "satake",
               "params": {"n": n, "q": 3, "nu": ",".join(["0"] * n), "lam": lam}}
        start = time.perf_counter()
        code, text = run_job(job)
        return code, json.loads(text), time.perf_counter() - start

    code, report, _ = satake(14)
    assert (code, report["basis"], len(report["terms"])) == (0, "tau", 2)
    code, report, seconds = satake(22)
    assert seconds < 1
    assert (code, report) == (1, {"error": {
        "kind": "domain", "message": "Levi rank too large for the unit-cube expansion"}})


def test_one_job_factors_its_q_once():
    # the CLI's field, FqField and WeightClass share one trial division of q
    _smallest_factor.cache_clear()
    code, text = run_job({"command": "weights", "params": {
        "action": "regular", "q": 4_294_967_291, "nu": "0,0", "M": "1,1"}})
    assert (code, json.loads(text)) == (0, {"regular": False})
    assert _smallest_factor.cache_info().misses == 1


def test_character_over_the_wrong_characteristic_is_a_domain_error():
    # q must be a positive power of the scalar field's characteristic p
    pair = json.dumps({"M": [2], "chars": [{"unramified": "2", "tame": 0}]})
    datum = json.dumps(trivial_ps_datum(2))
    for argv in (["eigen", "eval-tau", "--q", "3", "--field", "5"],
                 ["eigen", "eval-T", "--q", "3", "--field", "5"],
                 ["eigen", "eval-tau", "--q", "6", "--field", "3"],
                 ["eigen", "eval-tau", "--q", "1", "--field", "3"]):
        code, out, err = _main_bytes(argv + ["--pair", pair, "--lam", "-1,-1"])
        assert (code, json.loads(out)["error"]["kind"], err) == (1, "domain", ""), argv
        assert "not a positive power" in out
    code, out, _ = _main_bytes(["classify", "pair", "--q", "3", "--field", "7",
                                "--datum", datum])
    assert (code, json.loads(out)["error"]["kind"]) == (1, "domain")
    # q = 9 over F_3 and over F_9 is a residue field of the right characteristic
    for field, value in (("3", "2"), ("3,2", "2,0")):
        code, out, _ = _main_bytes(["eigen", "eval-tau", "--q", "9", "--field", field,
                                    "--pair", pair, "--lam", "-1,-1"])
        assert (code, json.loads(out)) == (0, {"value": value})


def test_error_paths():
    code, text = run_job({"command": "nope"})
    assert code == 2 and json.loads(text)["error"]["kind"] == "schema"
    code, text = run_job({"command": "satake",
                          "params": {"n": 2, "q": 3, "nu": "0,0", "lam": "0,-2"}})
    assert code == 1 and json.loads(text)["error"]["kind"] == "domain"
    code, text = run_job({"command": "satake",
                          "params": {"n": 2, "q": 3, "nu": "0,0", "lam": "-2,0"},
                          "scalar_field": {"p": 4}})
    assert code == 2


def test_scalar_field_configuration():
    job = {"command": "satake",
           "params": {"n": 2, "q": 3, "nu": "0,0", "lam": "-2,0"},
           "scalar_field": {"p": 3, "m": 2, "modulus": [1, 0, 1]}}
    code, text = run_job(job)
    assert code == 0
    assert json.loads(text)["terms"]["-1,-1"] == "2,0"  # coefficient vector in F_9


def test_verify_job_small():
    code, text = run_job({"command": "verify", "params": {"max_n": 2, "max_q": 2}})
    assert code == 0
    assert json.loads(text)["ok"] is True


# sha256 of the two oracle_gates benchmark jobs' reports and of the one
# report at n = 4, whose order gate enumerates GL_4(F_2)
VERIFY_PINS = {
    (3, 2): "49f7f851768a61a22cd92d88e7b7244fa3faad70180213bfec411b639d1b9601",
    (2, 5): "7066f10dc6816c02a2798ed0f9084efe9ed878fb6047d6d32e3c2a4cc95d961e",
    (4, 2): "8332083e9798b58c6a3158b5ff0e1aea86291034c7b5570d1bc3f91dd2826434",
    (2, 7): "4887c93f42e340ff0dc97695bda704859738f2593d3ef25a98e3d64dc7bac4a6",
    (2, 11): "d896888e93537d2963b8519087e560b8ec816cd3a22c1cc7fe278df2728c4a65",
}


@pytest.mark.parametrize("max_n, max_q", sorted(VERIFY_PINS))
def test_verify_output_is_pinned(max_n, max_q):
    code, text = run_job({"command": "verify", "params": {"max_n": max_n, "max_q": max_q}})
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_PINS[max_n, max_q]


def test_a_failed_check_exits_1_and_prints_its_report(monkeypatch):
    # no check fails on correct code, so one of each command is made to fail
    monkeypatch.setattr(hecke0, "verify_word_shift_identity", lambda n: False)
    monkeypatch.setattr(oracle, "check_iwahori_coset_count", lambda n, q, i: False)
    code, text = run_job({"command": "hecke0", "params": {"action": "verify", "n": 3}})
    report = json.loads(text)
    assert (code, report["ok"], report["word_shift"]) == (1, False, False)
    assert report["braid_and_rotation"] is True
    assert _main_bytes(["hecke0", "verify", "--n", "3"]) == (1, text, "")
    code, text = run_job({"command": "verify", "params": {"max_n": 2, "max_q": 2}})
    report = json.loads(text)
    assert (code, report["ok"]) == (1, False)
    assert [e["ok"] for e in report["iwahori"]] == [False, False]
    assert all(e["ok"] for e in report["minuscule"] + report["double_coset"])
    assert _main_bytes(["verify", "--max-n", "2", "--max-q", "2"]) == (1, text, "")


ONE = {"unramified": "1", "tame": 0}
PAIR = {"M": [1, 1], "chars": [ONE, {"unramified": "2", "tame": 0}]}
DATUM = {"P": [1, 1], "blocks": [{"kind": "steinberg", "size": 1, "Q": [1], "eta": ONE}] * 2}

# one job per command and action
EVERY_ACTION = {
    "satake-T": ("satake", {"n": 2, "q": 3, "nu": "0,0", "lam": "-2,0"}),
    "satake-tau": ("satake", {"n": 2, "q": 3, "nu": "0,0", "lam": "-2,0", "basis": "tau"}),
    "weights-restrict": ("weights", {"action": "restrict", "q": 3, "nu": "2,0", "P": "1,1"}),
    "weights-cover": ("weights", {"action": "cover", "q": 3, "nu": "0,0,0", "M": "1,1,1"}),
    "weights-partner": ("weights", {"action": "partner", "q": 3, "nu": "0,0", "i": 1}),
    "weights-regular": ("weights", {"action": "regular", "q": 3, "nu": "1,0", "M": "1,1"}),
    "eigen-eval-tau": ("eigen", {"action": "eval-tau", "q": 3, "pair": PAIR, "lam": "-1,0"}),
    "eigen-eval-T": ("eigen", {"action": "eval-T", "q": 3, "pair": PAIR, "nu": "0,0",
                               "lam": "-1,0"}),
    "eigen-supersingular": ("eigen", {"action": "supersingular", "q": 3, "pair": PAIR}),
    "eigen-factors": ("eigen", {"action": "factors", "q": 3, "pair": PAIR, "L": "2"}),
    "eigen-twist": ("eigen", {"action": "twist", "q": 3, "pair": PAIR,
                              "eta": {"unramified": "2", "tame": 1}}),
    "eigen-applicable": ("eigen", {"action": "applicable", "q": 3, "pair": PAIR,
                                   "nu": "0,0", "i": 1}),
    "classify-validate": ("classify", {"action": "validate", "q": 3, "datum": DATUM}),
    "classify-constituents": ("classify", {"action": "constituents", "q": 3, "datum": DATUM}),
    "classify-pair": ("classify", {"action": "pair", "q": 3, "datum": DATUM}),
    "lattice-json": ("lattice", {"q": 3, "datum": DATUM}),
    "lattice-dot": ("lattice", {"q": 3, "datum": DATUM, "dot": True}),
    "hecke0-verify": ("hecke0", {"action": "verify", "n": 3}),
    "hecke0-derive": ("hecke0", {"action": "derive", "n": 2}),
    "verify": ("verify", {"max_n": 2, "max_q": 2}),
}


def _argv(command, params):
    """The command line of a job: the action, then one flag per parameter,
    objects as JSON and True as a bare flag."""
    argv = [command] + ([params["action"]] if "action" in params else [])
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif key != "action":
            argv += [flag, json.dumps(value) if isinstance(value, dict) else str(value)]
    return argv


@pytest.mark.parametrize("name", EVERY_ACTION)
def test_every_action_exits_0_and_main_prints_what_run_writes(name):
    command, params = EVERY_ACTION[name]
    code, text = run_job({"command": command, "params": params})
    assert code == 0
    if params.get("dot"):
        assert text.startswith("digraph lattice {") and text.endswith("}\n")
    else:
        assert isinstance(json.loads(text), dict)
    assert _main_bytes(_argv(command, params)) == (0, text, "")


def test_every_action_in_the_table_has_a_job():
    # an action added to cli._COMMANDS without a job above fails here, so each
    # one runs through both run and main
    table = {(command, action) for command, (_, handlers, _) in cli._COMMANDS.items()
             for action in (handlers if isinstance(handlers, dict) else [None])}
    assert {(command, params.get("action")) for command, params in EVERY_ACTION.values()} == table


def assert_schema_error(code, text):
    assert code == 2
    assert json.loads(text)["error"]["kind"] == "schema"


# every integer, vector and composition parameter of the table: satake's n is
# read with plain int() until its fix lands with ROADMAP item 1
JUNK_CASES = [(command, prm.name) for command, (_, _, params) in cli._COMMANDS.items()
              for prm in params if prm.kind in (cli._int, cli._vec, cli._comp)]


@pytest.mark.parametrize("command, name", JUNK_CASES)
def test_a_junk_value_is_a_schema_error_as_json_and_as_a_flag(command, name):
    # the command's first job in EVERY_ACTION, whether its action reads the
    # parameter or not (weights restrict reads no i)
    params = dict(next(p for c, p in EVERY_ACTION.values() if c == command), **{name: "x"})
    assert_schema_error(*run_job({"command": command, "params": params}))
    code, out, err = _main_bytes(_argv(command, params))
    assert code == 2
    if out:
        assert_schema_error(code, out)
    else:
        assert "invalid int value: 'x'" in err


def test_weights_restrict_reads_i_although_it_needs_no_i():
    assert ("weights", "i") in JUNK_CASES
    code, text = run_job({"command": "weights", "params": {
        "action": "restrict", "q": 3, "nu": "2,0", "P": "1,1", "i": "x"}})
    assert (code, json.loads(text)) == (2, {"error": {"kind": "schema", "message": "bad integer i 'x'"}})


def test_satake_n_list_still_raises():
    # parked under ROADMAP item 1: perfbench's injected-failure test needs
    # malformed.n_list to crash
    with pytest.raises(TypeError):
        run_job({"command": "satake", "params": {"n": [2], "q": 3, "nu": "0,0", "lam": "-2,0"}})


def test_a_missing_parameter_or_block_key_is_named(tmp_path, capsys):
    # a required parameter is missed before any handler runs, as argparse
    # misses a required flag: the wrong rank of nu is never reached
    for nu in ("0,0", "0,0,0"):
        code, text = run_job({"command": "satake", "params": {"n": 2, "q": 3, "nu": nu}})
        assert (code, json.loads(text)) == (2, {"error": {
            "kind": "schema", "message": "missing parameter 'lam'"}})
    block = {"kind": "supersingular", "label": "s", "central": {"unramified": "1", "tame": 0}}
    path = _satake_job_file(tmp_path, {"command": "classify", "params": {
        "q": 3, "datum": {"P": [2], "blocks": [block]}}})
    code = main(["classify", "--q", "3", "--json-in", path])
    assert (code, json.loads(capsys.readouterr().out)) == (2, {"error": {
        "kind": "schema", "message": "missing parameter 'size'"}})


def test_a_key_error_from_the_library_is_raised_not_reported(monkeypatch):
    def broken(datum):
        raise KeyError("size")

    monkeypatch.setattr(classify, "delta", broken)
    with pytest.raises(KeyError):
        run_job({"command": "classify", "params": {"action": "validate", "q": 3, "datum": DATUM}})


def test_malformed_field_text(capsys):
    for text in ("x", "3,y", "p"):
        code = main(["satake", "--n", "2", "--q", "3", "--nu", "0,0", "--lam", "-2,0",
                     "--field", text])
        assert_schema_error(code, capsys.readouterr().out)


def test_malformed_pair_list(capsys):
    code = main(["eigen", "supersingular", "--q", "3", "--pair", "[1]"])
    assert_schema_error(code, capsys.readouterr().out)


def test_malformed_pair_chars_int():
    assert_schema_error(*run_job({"command": "eigen", "params": {
        "action": "supersingular", "q": 3, "pair": {"M": [2], "chars": 1}}}))


def test_satake_unknown_basis_is_a_schema_error():
    code, text = run_job({"command": "satake", "params": {
        "n": 2, "q": 3, "nu": "0,0", "lam": "-2,0", "basis": "x"}})
    assert_schema_error(code, text)
    assert json.loads(text)["error"]["message"] == "unknown basis tag 'x'"


def test_malformed_n_list_or_null():
    for n in ([3], None):
        assert_schema_error(*run_job({"command": "hecke0",
                                      "params": {"action": "verify", "n": n}}))


def test_weights_cover_rank_mismatch_is_a_domain_error(capsys):
    code, text = run_job({"command": "weights", "params": {
        "action": "cover", "q": 3, "nu": "2,1,0", "M": "4"}})
    assert code == 1 and json.loads(text)["error"] == {"kind": "domain",
                                                       "message": "rank mismatch"}
    assert main(["weights", "cover", "--q", "3", "--nu", "2,1,0", "--M", "4"]) == 1
    assert capsys.readouterr().out == text


def test_fractional_q_is_a_schema_error():
    assert_schema_error(*run_job({"command": "weights", "params": {
        "action": "restrict", "q": 3.7, "nu": "0,0", "P": "1,1"}}))


def test_fractional_max_n_is_a_schema_error():
    assert_schema_error(*run_job({"command": "verify", "params": {"max_n": 2.9}}))


def test_boolean_n_is_a_schema_error():
    assert_schema_error(*run_job({"command": "hecke0",
                                  "params": {"action": "verify", "n": True}}))


@pytest.mark.parametrize("dot", ["false", "no", "true", 2, 1, 0, None, [True]])
def test_a_dot_that_is_not_a_json_boolean_is_a_schema_error(dot):
    code, text = run_job({"command": "lattice", "params": {"q": 3, "datum": DATUM, "dot": dot}})
    assert (code, json.loads(text)) == (2, {"error": {
        "kind": "schema", "message": f"bad boolean dot {dot!r}"}})


SATAKE_PARAMS = {"n": 2, "q": 3, "nu": "0,0", "lam": "0,0"}


def test_fractional_modulus_coefficient_is_a_schema_error():
    # "211" would be the irreducible x^2 + x + 2 if read digit by digit
    for modulus in ([2.5, 0, 1], "211"):
        assert_schema_error(*run_job({
            "command": "eigen", "scalar_field": {"p": 3, "m": 2, "modulus": modulus},
            "params": {"action": "eval-tau", "q": 9, "lam": "-1,-1", "pair": {
                "M": [1, 1], "chars": [{"unramified": "0,1"}, {"unramified": "0,1"}]}}}))


def test_fractional_field_prime_is_a_schema_error():
    assert_schema_error(*run_job({"command": "satake", "scalar_field": {"p": 3.9},
                                  "params": SATAKE_PARAMS}))
    code, text = run_job({"command": "satake", "scalar_field": {"p": 4},
                          "params": SATAKE_PARAMS})
    assert_schema_error(code, text)
    assert json.loads(text)["error"]["message"] == (
        "bad scalar field spec {'p': 4}: p = 4 is not prime")


def test_fractional_field_degree_is_a_schema_error():
    assert_schema_error(*run_job({"command": "satake", "scalar_field": {"p": 3, "m": 2.7},
                                  "params": SATAKE_PARAMS}))


def test_fractional_tame_exponent_is_a_schema_error():
    assert_schema_error(*run_job({"command": "eigen", "params": {
        "action": "supersingular", "q": 3,
        "pair": {"M": [2], "chars": [{"unramified": "1", "tame": 1.7}]}}}))


def test_boolean_composition_part_is_a_schema_error():
    assert_schema_error(*run_job({"command": "eigen", "params": {
        "action": "factors", "q": 3, "L": [True, 1],
        "pair": {"M": [1, 1], "chars": [{"unramified": "1"}, {"unramified": "2"}]}}}))


SATAKE_ARGV = ["satake", "--n", "2", "--q", "3", "--nu", "0,0", "--lam", "-2,0"]


def assert_schema_error_naming(code, out, path):
    assert_schema_error(code, out)
    assert repr(str(path)) in json.loads(out)["error"]["message"]


def test_json_in_and_out_match_flags_and_stdout(tmp_path, capsys):
    assert main(SATAKE_ARGV) == 0
    expected = capsys.readouterr().out
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "satake", "params": {
        "n": 2, "q": 3, "nu": "0,0", "lam": "-2,0"}}), encoding="utf-8")
    out = tmp_path / "out.json"
    assert main(SATAKE_ARGV + ["--json-in", str(job), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == expected


def test_json_in_missing_file(tmp_path, capsys):
    path = tmp_path / "missing.json"
    code = main(SATAKE_ARGV + ["--json-in", str(path)])
    assert_schema_error_naming(code, capsys.readouterr().out, path)


def test_json_in_directory(tmp_path, capsys):
    code = main(SATAKE_ARGV + ["--json-in", str(tmp_path)])
    assert_schema_error_naming(code, capsys.readouterr().out, tmp_path)


def test_json_in_not_utf8(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_bytes(b'\xff{"command": "satake"}')
    code = main(SATAKE_ARGV + ["--json-in", str(path)])
    assert_schema_error_naming(code, capsys.readouterr().out, path)


def test_out_into_missing_directory(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code = main(SATAKE_ARGV + ["--out", str(path)])
    assert_schema_error_naming(code, capsys.readouterr().out, path)
    assert not path.parent.exists()


def test_out_onto_directory(tmp_path, capsys):
    code = main(SATAKE_ARGV + ["--out", str(tmp_path)])
    assert_schema_error_naming(code, capsys.readouterr().out, tmp_path)


def _satake_job_file(tmp_path, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    return str(path)


SATAKE_JOB = {"command": "satake", "params": {"n": 2, "q": 3, "nu": "0,0", "lam": "-2,0"}}


def test_field_flag_applies_to_json_in_job_without_field(tmp_path, capsys):
    assert main(SATAKE_ARGV + ["--field", "3,2"]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["terms"]["-1,-1"] == "2,0"   # F_9 coefficients
    path = _satake_job_file(tmp_path, SATAKE_JOB)
    assert main(SATAKE_ARGV + ["--json-in", path, "--field", "3,2"]) == 0
    assert capsys.readouterr().out == expected


def test_json_in_job_field_wins_over_field_flag(tmp_path, capsys):
    path = _satake_job_file(tmp_path, dict(SATAKE_JOB, scalar_field={"p": 3}))
    assert main(SATAKE_ARGV + ["--json-in", path, "--field", "3,2"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"]["-1,-1"] == "2"


def test_json_in_non_object_job_with_field_flag(tmp_path, capsys):
    path = _satake_job_file(tmp_path, [1, 2])
    code = main(SATAKE_ARGV + ["--json-in", path, "--field", "3,2"])
    assert_schema_error(code, capsys.readouterr().out)


def _readme_cli_commands():
    """The ``gln-modp`` command lines of README's CLI block, with the quoted
    JSON continuation lines joined to the line they continue."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands, pending = [], ""
    for line in block.splitlines():
        if not pending and not line.startswith("gln-modp"):
            continue
        pending = f"{pending}\n{line}" if pending else line
        try:
            commands.append(shlex.split(pending))
        except ValueError:      # an open quote: the command continues
            continue
        pending = ""
    assert not pending, pending
    return commands


def test_readme_cli_examples_parse():
    commands = _readme_cli_commands()
    assert len(commands) >= 7
    for argv in commands:
        assert argv[0] == "gln-modp"
        args = cli._parser().parse_args(cli._merge_negative_vectors(argv[1:]))
        cli._job_from_args(args)   # the inline JSON parses too


def test_field_environment_variable_ranks_below_job_and_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_FIELD, "3,2")
    assert main(SATAKE_ARGV) == 0
    assert json.loads(capsys.readouterr().out)["terms"]["-1,-1"] == "2,0"   # F_9
    assert main(SATAKE_ARGV + ["--field", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"]["-1,-1"] == "2"     # F_3
    path = _satake_job_file(tmp_path, dict(SATAKE_JOB, scalar_field={"p": 3}))
    assert main(SATAKE_ARGV + ["--json-in", path, "--field", "3,2"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"]["-1,-1"] == "2"
