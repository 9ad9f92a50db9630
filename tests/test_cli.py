import contextlib
import hashlib
import io
import json
import pathlib
import shlex
import time

import pytest

from gln_modp import cli
from gln_modp.cli import export_lattice_dot, main, run
from gln_modp.classify import InductionDatum, Steinberg, Supersingular, submodule_lattice
from gln_modp.eigen import trivial_character
from gln_modp.finite_field import FqField
from gln_modp.root_datum import StandardParabolic


def run_job(job):
    out = io.StringIO()
    code = run(job, out)
    return code, out.getvalue()


def trivial_ps_datum(n):
    one = {"unramified": "1", "tame": 0}
    return {"P": [1] * n,
            "blocks": [{"kind": "steinberg", "size": 1, "Q": [1], "eta": one}] * n}


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
    dot = export_lattice_dot(submodule_lattice(datum))
    assert dot.count("[label=") == 6


def reference_lattice_dot(lattice):
    """The DOT text with covers found by comparing every pair of lower sets."""
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    sets = lattice.sets
    for idx, s in enumerate(sets):
        if s:
            label = " + ".join(lattice.poset.elements[j].short() for j in sorted(s))
        else:
            label = "0"
        lines.append(f'  L{idx} [label="{label}"];')
    for a, sa in enumerate(sets):
        for b, sb in enumerate(sets):
            if len(sb) == len(sa) + 1 and sa < sb:
                lines.append(f"  L{a} -> L{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_dot_covers_match_pairwise_reference():
    one = trivial_character(FqField(3, 2), 3)
    st1 = Steinberg(1, StandardParabolic.full(1), one)
    two_runs = InductionDatum(   # runs split by a supersingular block
        StandardParabolic((1, 2, 2, 1, 1)),
        (st1, Steinberg(2, StandardParabolic.torus(2), one),
         Supersingular(2, "s", one), st1, st1))
    data = [InductionDatum(StandardParabolic.torus(n), (st1,) * n) for n in range(1, 6)]
    for datum in data + [two_runs]:
        lattice = submodule_lattice(datum)
        assert export_lattice_dot(lattice) == reference_lattice_dot(lattice)


def test_dot_labels_escape_quotes_and_backslashes():
    one = trivial_character(FqField(3, 2), 3)
    datum = InductionDatum(StandardParabolic((2,)), (Supersingular(2, 'a"b\\c', one),))
    dot = export_lattice_dot(submodule_lattice(datum))
    assert '  L1 [label="Ind(ss2[a\\"b\\\\c])"];' in dot.splitlines()


def test_lattice_output_pinned():
    # sha256 of `lattice` output for the length-16 principal series
    # (delta = 4), captured from the exhaustive enumeration
    for dot, digest in (
            (False, "49436004b95209d8ccf89c3fb4b155bf31323869157c3d7f5371971d71137b47"),
            (True, "a00410d9da865688ea659356c61561db755313f8a4ee0045951142e94e873a30")):
        code, text = run_job({"command": "lattice",
                              "params": {"q": 3, "datum": trivial_ps_datum(5), "dot": dot}})
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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


# sha256 of the two oracle_gates benchmark jobs' reports
VERIFY_PINS = {
    (3, 2): "49f7f851768a61a22cd92d88e7b7244fa3faad70180213bfec411b639d1b9601",
    (2, 5): "7066f10dc6816c02a2798ed0f9084efe9ed878fb6047d6d32e3c2a4cc95d961e",
}


@pytest.mark.parametrize("max_n, max_q", sorted(VERIFY_PINS))
def test_verify_output_is_pinned(max_n, max_q):
    code, text = run_job({"command": "verify", "params": {"max_n": max_n, "max_q": max_q}})
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_PINS[max_n, max_q]


def assert_schema_error(code, text):
    assert code == 2
    assert json.loads(text)["error"]["kind"] == "schema"


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
