"""Command-line surface: JSON in, JSON (or DOT) out, deterministic bytes.

Subcommands mirror the library modules: ``satake`` expands basis elements,
``weights`` runs the highest-weight calculus, ``eigen`` evaluates and tests
eigenvalue pairs, ``classify`` and ``lattice`` run the constituent engine,
``hecke0`` drives the affine 0-Hecke checks and the derivation engine, and
``verify`` runs the finite-group oracle gates.

Scalars print as coefficient vectors in the modulus basis, never as floats.
A job can also be supplied whole as JSON via --json-in; the scalar field is
taken from the job, from --field p[,m[,c0,..,cm]], or from the environment
variable GLN_MODP_FIELD, in that order.

Exit codes: 0 success, 1 domain error (structured error JSON), 2 schema or
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import classify as cls
from . import eigen as eig
from . import hecke as hk
from . import hecke0 as h0
from . import oracle as orc
from .finite_field import FqField, prime_radical
from .root_datum import StandardParabolic
from .weights import (
    make_levi_weight, make_weight,
    restrict_to_levi, regular_cover, weight_partner_for_change, is_M_regular,
)

ENV_FIELD = "GLN_MODP_FIELD"


class SchemaError(Exception):
    pass


def _int(value, name: str) -> int:
    """An integer parameter; a boolean or a float with a fractional part is
    not one, although int() would truncate it."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise TypeError(value)
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad integer {name} {value!r}") from exc


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be a JSON object, got {value!r}")
    return value


def _array(value, name: str):
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{name} must be a JSON array, got {value!r}")
    return value


def _vec(text) -> tuple:
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError as exc:
        raise SchemaError(f"bad integer vector {text!r}") from exc


def _comp(value) -> StandardParabolic:
    if isinstance(value, str):
        value = _vec(value)
    try:
        return StandardParabolic(tuple(_int(v, "part") for v in value))
    except (SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad composition {value!r}") from exc


def _field_from_spec(spec) -> FqField:
    try:
        p = _int(spec["p"], "p")
        m = _int(spec.get("m", 1), "m")
        modulus = spec.get("modulus")
        return FqField(p, m, tuple(_int(c, "modulus coefficient")
                                   for c in _array(modulus, "modulus")) if modulus else None)
    except (KeyError, SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad scalar field spec {spec!r}: {exc}") from exc


def parse_field_text(text: str) -> dict:
    try:
        parts = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"bad scalar field {text!r}, expected p[,m[,c0,..,cm]]") from exc
    if len(parts) == 1:
        return {"p": parts[0]}
    if len(parts) == 2:
        return {"p": parts[0], "m": parts[1]}
    return {"p": parts[0], "m": parts[1], "modulus": parts[2:]}


def _resolve_field(job) -> FqField:
    if job.get("scalar_field"):
        return _field_from_spec(job["scalar_field"])
    env = os.environ.get(ENV_FIELD)
    if env:
        return _field_from_spec(parse_field_text(env))
    q = job.get("params", {}).get("q")
    p = prime_radical(_int(q, "q")) if q else 3
    return FqField(p, 1)


def _char(field: FqField, q: int, obj) -> eig.SmoothCharacter:
    try:
        unram = field.parse(str(obj["unramified"]))
        tame = _int(obj.get("tame", 0), "tame")
    except (KeyError, SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad character {obj!r}") from exc
    return eig.SmoothCharacter(unram, tame, q)


def _char_json(eta: eig.SmoothCharacter) -> dict:
    return {"unramified": str(eta.unramified), "tame": eta.tame_exponent}


def _pair(field: FqField, q: int, obj) -> eig.ParamPair:
    obj = _object(obj, "pair")
    try:
        M = _comp(obj["M"])
        chars = tuple(_char(field, q, c) for c in _array(obj["chars"], "chars"))
    except KeyError as exc:
        raise SchemaError(f"pair needs M and chars: {obj!r}") from exc
    return eig.ParamPair(M, chars)


def _block(field: FqField, q: int, obj):
    kind = _object(obj, "block").get("kind")
    if kind == "supersingular":
        return cls.Supersingular(_int(obj["size"], "size"), str(obj.get("label", "ss")),
                                 _char(field, q, obj["central"]))
    if kind == "steinberg":
        return cls.Steinberg(_int(obj["size"], "size"), _comp(obj["Q"]),
                             _char(field, q, obj["eta"]))
    raise SchemaError(f"unknown block kind {kind!r}")


def _block_json(blk) -> dict:
    if isinstance(blk, cls.Supersingular):
        return {"kind": "supersingular", "size": blk.size, "label": blk.label,
                "central": _char_json(blk.central)}
    return {"kind": "steinberg", "size": blk.size,
            "Q": list(blk.Q.composition), "eta": _char_json(blk.eta)}


def _datum(field: FqField, q: int, obj) -> cls.InductionDatum:
    obj = _object(obj, "datum")
    try:
        P = _comp(obj["P"])
        blocks = tuple(_block(field, q, b) for b in _array(obj["blocks"], "blocks"))
    except KeyError as exc:
        raise SchemaError(f"datum needs P and blocks: {obj!r}") from exc
    return cls.InductionDatum(P, blocks)


def _datum_json(datum: cls.InductionDatum) -> dict:
    return {"P": list(datum.P.composition),
            "blocks": [_block_json(b) for b in datum.blocks]}


def _emit(out, obj) -> None:
    out.write(json.dumps(obj, sort_keys=True, indent=2))
    out.write("\n")


def export_lattice_dot(lattice: cls.SubmoduleLattice) -> str:
    """DOT rendering: one node per lower set labelled by its constituent
    multiset, one edge per covering relation, deterministic ordering."""
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    sets = lattice.sets
    # DOT quoted strings escape backslash and double quote
    short = [rep.short().replace("\\", "\\\\").replace('"', '\\"')
             for rep in lattice.poset.elements]
    for idx, s in enumerate(sets):
        label = " + ".join(short[j] for j in sorted(s)) if s else "0"
        lines.append(f'  L{idx} [label="{label}"];')
    # a lower set is covered exactly by the lower sets one element larger;
    # adding a larger j gives a later set in the (size, elements) order, so
    # each node's targets come out in index order
    index = {s: idx for idx, s in enumerate(sets)}
    for a, sa in enumerate(sets):
        for j in range(len(short)):
            if j not in sa and (b := index.get(sa | {j})) is not None:
                lines.append(f"  L{a} -> L{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- command handlers ---------------------------------------------------------

def _cmd_satake(params, field, out):
    # a non-integer n still raises here; the fix is parked under ROADMAP
    # item 1, because perfbench's injected-failure test relies on it
    n, q = int(params["n"]), _int(params["q"], "q")
    V = make_weight(_vec(params["nu"]), q)
    if V.n != n:
        raise SchemaError("nu has the wrong rank")
    lam = _vec(params["lam"])
    basis = params.get("basis", "T")
    if basis not in ("T", "tau"):
        raise SchemaError(f"unknown basis tag {basis!r}")
    elem = hk.basis_element(V, basis, lam, field)
    res = hk.satake_T_to_tau(elem) if basis == "T" else hk.satake_tau_to_T(elem)
    _emit(out, {
        "weight": {"nu": ",".join(map(str, V.nu)), "q": q},
        "basis": res.basis,
        "terms": {",".join(map(str, k)): str(c) for k, c in res.terms.items()},
    })
    return 0


def _cmd_weights(params, field, out):
    action = params.get("action")
    q = _int(params["q"], "q")
    if action == "restrict":
        V = make_weight(_vec(params["nu"]), q)
        res = restrict_to_levi(V, _comp(params["P"]))
        _emit(out, {"M": list(res.M.composition), "nu": ",".join(map(str, res.nu))})
    elif action == "cover":
        Vbar = make_levi_weight(_comp(params["M"]), _vec(params["nu"]), q)
        res = regular_cover(Vbar)
        _emit(out, {"nu": ",".join(map(str, res.nu))})
    elif action == "partner":
        V = make_weight(_vec(params["nu"]), q)
        res = weight_partner_for_change(V, _int(params["i"], "i"))
        _emit(out, {"nu": ",".join(map(str, res.nu))})
    elif action == "regular":
        V = make_weight(_vec(params["nu"]), q)
        _emit(out, {"regular": is_M_regular(V, _comp(params["M"]))})
    else:
        raise SchemaError(f"unknown weights action {action!r}")
    return 0


def _cmd_eigen(params, field, out):
    action = params.get("action")
    q = _int(params["q"], "q")
    pair = _pair(field, q, params["pair"])
    if action == "eval-tau":
        val = eig.eval_tau(pair, _vec(params["lam"]))
        _emit(out, {"value": str(val)})
    elif action == "eval-T":
        V = make_weight(_vec(params["nu"]), q)
        val = eig.eval_T(pair, _vec(params["lam"]), V)
        _emit(out, {"value": str(val)})
    elif action == "supersingular":
        _emit(out, {"supersingular": eig.is_supersingular(pair)})
    elif action == "factors":
        _emit(out, {"factors": eig.factors_through(pair, _comp(params["L"]))})
    elif action == "twist":
        res = eig.twist(pair, _char(field, q, params["eta"]))
        _emit(out, {"M": list(res.M.composition),
                    "chars": [_char_json(c) for c in res.chars]})
    elif action == "applicable":
        V = make_weight(_vec(params["nu"]), q)
        ok = eig.change_of_weight_applicable(V, _int(params["i"], "i"), pair)
        _emit(out, {"applicable": ok})
    else:
        raise SchemaError(f"unknown eigen action {action!r}")
    return 0


def _cmd_classify(params, field, out):
    action = params.get("action", "constituents")
    q = _int(params["q"], "q")
    datum = _datum(field, q, params["datum"])
    if action == "validate":
        _emit(out, {"valid": cls.validate(datum), "delta": cls.delta(datum)})
    elif action == "constituents":
        poset = cls.constituents(datum)
        _emit(out, {
            "count": len(poset),
            "delta": cls.delta(datum),
            "constituents": [_datum_json(r.datum) for r in poset.elements],
        })
    elif action == "pair":
        pair = cls.param_pair(datum)
        _emit(out, {"M": list(pair.M.composition),
                    "chars": [_char_json(c) for c in pair.chars]})
    else:
        raise SchemaError(f"unknown classify action {action!r}")
    return 0


def _cmd_lattice(params, field, out):
    q = _int(params["q"], "q")
    datum = _datum(field, q, params["datum"])
    lattice = cls.submodule_lattice(datum)
    if params.get("dot"):
        out.write(export_lattice_dot(lattice))
        return 0
    _emit(out, {
        "constituents": [_datum_json(r.datum) for r in lattice.poset.elements],
        "lower_set_count": lattice.count,
        "lower_sets": [sorted(s) for s in lattice.sets],
        "principal": [sorted(s) for s in lattice.principal],
        "socle": sorted(lattice.socle),
        "cosocle": sorted(lattice.cosocle),
    })
    return 0


def _cmd_hecke0(params, field, out):
    action = params.get("action")
    n = _int(params["n"], "n")
    if action == "verify":
        res = {
            "braid_and_rotation": h0.verify_braid_and_rotation(n, field),
            "word_shift": h0.verify_word_shift_identity(n, field),
            "translation_powers": {
                str(i): h0.verify_translation_power(n, i, field) for i in range(1, n)},
        }
        res["ok"] = (res["braid_and_rotation"] and res["word_shift"]
                     and all(res["translation_powers"].values()))
        _emit(out, res)
        return 0 if res["ok"] else 1
    if action == "derive":
        cap = {"length_cap": _int(params["cap"], "cap")} if "cap" in params else {}
        report = h0.derive_rotation_invariance(n, field=field, **cap)
        _emit(out, report.to_json())
        return 0
    raise SchemaError(f"unknown hecke0 action {action!r}")


def _cmd_verify(params, field, out):
    report = orc.verify_gates(_int(params.get("max_n", 3), "max_n"),
                              _int(params.get("max_q", 3), "max_q"))
    _emit(out, report)
    return 0 if report["ok"] else 1


_HANDLERS = {
    "satake": _cmd_satake,
    "weights": _cmd_weights,
    "eigen": _cmd_eigen,
    "classify": _cmd_classify,
    "lattice": _cmd_lattice,
    "hecke0": _cmd_hecke0,
    "verify": _cmd_verify,
}


def run(job, out) -> int:
    """Execute a JSON job spec; deterministic output, structured errors."""
    try:
        if not isinstance(job, dict):
            raise SchemaError("job must be a JSON object")
        command = job.get("command")
        if command not in _HANDLERS:
            raise SchemaError(f"unknown command {command!r}")
        params = job.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("params must be a JSON object")
        field = _resolve_field(job)
        return _HANDLERS[command](params, field, out)
    except SchemaError as exc:
        _emit(out, {"error": {"kind": "schema", "message": str(exc)}})
        return 2
    except (KeyError,) as exc:
        _emit(out, {"error": {"kind": "schema", "message": f"missing parameter {exc}"}})
        return 2
    except h0.DerivationCapExceeded as exc:
        _emit(out, {"error": {"kind": "domain", "message": str(exc)},
                    "report": exc.report.to_json()})
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        _emit(out, {"error": {"kind": "domain", "message": str(exc)}})
        return 1


def _add_common(sub):
    sub.add_argument("--json-in", help="read the whole job spec from a JSON file")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument("--field", help="scalar field as p[,m[,c0,..,cm]]")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gln-modp", description=__doc__.splitlines()[0])
    sp = ap.add_subparsers(dest="command", required=True)

    satake = sp.add_parser("satake", help="expand a Hecke basis element in the other basis")
    satake.add_argument("--n", type=int, required=True)
    satake.add_argument("--q", type=int, required=True)
    satake.add_argument("--nu", required=True)
    satake.add_argument("--lam", "--lambda", dest="lam", required=True)
    satake.add_argument("--basis", choices=["T", "tau"], default="T")
    _add_common(satake)

    weights = sp.add_parser("weights", help="highest-weight calculus")
    weights.add_argument("action", choices=["restrict", "cover", "partner", "regular"])
    weights.add_argument("--q", type=int, required=True)
    weights.add_argument("--nu", required=True)
    weights.add_argument("--P")
    weights.add_argument("--M")
    weights.add_argument("--i", type=int)
    _add_common(weights)

    eigen = sp.add_parser("eigen", help="eigenvalue pairs")
    eigen.add_argument("action", choices=["eval-tau", "eval-T", "supersingular",
                                          "factors", "twist", "applicable"])
    eigen.add_argument("--q", type=int, required=True)
    eigen.add_argument("--pair", help="pair JSON")
    eigen.add_argument("--lam", "--lambda", dest="lam")
    eigen.add_argument("--nu")
    eigen.add_argument("--i", type=int)
    eigen.add_argument("--L")
    eigen.add_argument("--eta", help="character JSON")
    _add_common(eigen)

    classify = sp.add_parser("classify", help="constituent classification")
    classify.add_argument("action", choices=["validate", "constituents", "pair"],
                          nargs="?", default="constituents")
    classify.add_argument("--q", type=int, required=True)
    classify.add_argument("--datum", help="induction datum JSON")
    _add_common(classify)

    lattice = sp.add_parser("lattice", help="submodule lattice of an induction datum")
    lattice.add_argument("--q", type=int, required=True)
    lattice.add_argument("--datum", help="induction datum JSON")
    lattice.add_argument("--dot", action="store_true", help="emit DOT text")
    _add_common(lattice)

    hecke0 = sp.add_parser("hecke0", help="affine 0-Hecke checks and derivation")
    hecke0.add_argument("action", choices=["verify", "derive"])
    hecke0.add_argument("--n", type=int, required=True)
    hecke0.add_argument("--cap", type=int)
    _add_common(hecke0)

    verify = sp.add_parser("verify", help="run the finite-group oracle gates")
    verify.add_argument("--max-n", type=int, default=3)
    verify.add_argument("--max-q", type=int, default=3)
    _add_common(verify)
    return ap


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and then reused: no
    argument has a mutable default and every parse builds a new Namespace."""
    return build_parser()


def _open(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot open {path!r}: {exc.strerror}") from exc


def _job_from_args(args) -> dict:
    """The job of a command line: the --json-in file, or the flags.  --field
    fills in the scalar field of a job that names none; a job that is not an
    object is left for ``run`` to reject."""
    if args.json_in:
        with _open(args.json_in, "r") as fh:
            try:
                job = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"malformed JSON job: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{args.json_in!r} is not UTF-8 text: {exc.reason}") from exc
    else:
        params = {}
        for key, value in vars(args).items():
            if key in ("command", "json_in", "out", "field") or value is None:
                continue
            params[key] = value
        for key in ("pair", "datum", "eta"):
            if key in params and isinstance(params[key], str):
                try:
                    params[key] = json.loads(params[key])
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"malformed JSON for --{key}: {exc}") from exc
        job = {"command": args.command, "params": params}
    if args.field and isinstance(job, dict) and not job.get("scalar_field"):
        job["scalar_field"] = parse_field_text(args.field)
    return job


_VECTOR_FLAGS = {"--lam", "--lambda", "--nu"}


def _merge_negative_vectors(argv):
    """Join vector flags with values that begin with a minus sign, so that
    ``--lam -2,0`` parses like ``--lam=-2,0``."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _VECTOR_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1
                and argv[i + 1][1].isdigit()):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    argv = _merge_negative_vectors(sys.argv[1:] if argv is None else list(argv))
    args = _parser().parse_args(argv)
    try:
        job = _job_from_args(args)
        out = _open(args.out, "w") if args.out else None
    except SchemaError as exc:
        print(json.dumps({"error": {"kind": "schema", "message": str(exc)}},
                         sort_keys=True, indent=2))
        return 2
    if out is None:
        return run(job, sys.stdout)
    with out:
        return run(job, out)


if __name__ == "__main__":
    sys.exit(main())
