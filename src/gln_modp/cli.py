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

Exit codes: 0 success; 1 a domain error (structured error JSON) or a failed
check (its report, with "ok": false); 2 a schema or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

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
    spec = dict(zip(("p", "m"), parts))
    if len(parts) > 2:
        spec["modulus"] = parts[2:]
    return spec


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


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for what the handlers
    return (str-keyed dicts, lists, tuples, str, int, bool, None), byte for
    byte, through the C string encoder: with an indent, json.dumps runs the
    pure-Python encoder.  Any other value raises TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # a flat list of exact ints or exact strs (no bool) in one join
        kinds = set(map(type, value))
        items = (map(int.__repr__, value) if kinds == {int}
                 else map(_quote, value) if kinds == {str}
                 else [_json(v, inner) for v in value])
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(out, result) -> None:
    out.write(result if isinstance(result, str) else _json(result) + "\n")


def _fail(out, kind: str, message: str, **extra) -> int:
    """Write error JSON; a schema error exits 2, a domain error 1."""
    _emit(out, {"error": {"kind": kind, "message": message}, **extra})
    return 2 if kind == "schema" else 1


def export_lattice_dot(poset: cls.ConstituentPoset, lattice: cls.SubmoduleLattice) -> str:
    """DOT rendering of a datum's constituents and its lattice: one node per lower
    set labelled by its constituent multiset, one edge per covering relation."""
    lines = ["digraph lattice {", "  rankdir=BT;", "  node [shape=box];"]
    # DOT quoted strings escape backslash and double quote
    short = [rep.short().replace("\\", "\\\\").replace('"', '\\"')
             for rep in poset.elements]
    for idx, t in enumerate(lattice.sets):
        label = " + ".join(short[j] for j in t) if t else "0"
        lines.append(f'  L{idx} [label="{label}"];')
    # the covering pairs depend on delta alone and come in index order
    lines += [f"  L{a} -> L{b};" for a, b in lattice.covers]
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- command handlers ---------------------------------------------------------

def _cmd_satake(params, field):
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
    return {
        "weight": {"nu": ",".join(map(str, V.nu)), "q": q},
        "basis": res.basis,
        "terms": {",".join(map(str, k)): str(c) for k, c in res.terms.items()},
    }


def _cmd_weights(params, field):
    action = params.get("action")
    q = _int(params["q"], "q")
    if action == "restrict":
        V = make_weight(_vec(params["nu"]), q)
        res = restrict_to_levi(V, _comp(params["P"]))
        return {"M": list(res.M.composition), "nu": ",".join(map(str, res.nu))}
    if action == "cover":
        Vbar = make_levi_weight(_comp(params["M"]), _vec(params["nu"]), q)
        res = regular_cover(Vbar)
        return {"nu": ",".join(map(str, res.nu))}
    if action == "partner":
        V = make_weight(_vec(params["nu"]), q)
        res = weight_partner_for_change(V, _int(params["i"], "i"))
        return {"nu": ",".join(map(str, res.nu))}
    if action == "regular":
        V = make_weight(_vec(params["nu"]), q)
        return {"regular": is_M_regular(V, _comp(params["M"]))}
    raise SchemaError(f"unknown weights action {action!r}")


def _cmd_eigen(params, field):
    action = params.get("action")
    q = _int(params["q"], "q")
    pair = _pair(field, q, params["pair"])
    if action == "eval-tau":
        val = eig.eval_tau(pair, _vec(params["lam"]))
        return {"value": str(val)}
    if action == "eval-T":
        V = make_weight(_vec(params["nu"]), q)
        val = eig.eval_T(pair, _vec(params["lam"]), V)
        return {"value": str(val)}
    if action == "supersingular":
        return {"supersingular": eig.is_supersingular(pair)}
    if action == "factors":
        return {"factors": eig.factors_through(pair, _comp(params["L"]))}
    if action == "twist":
        res = eig.twist(pair, _char(field, q, params["eta"]))
        return {"M": list(res.M.composition),
                "chars": [_char_json(c) for c in res.chars]}
    if action == "applicable":
        V = make_weight(_vec(params["nu"]), q)
        ok = eig.change_of_weight_applicable(V, _int(params["i"], "i"), pair)
        return {"applicable": ok}
    raise SchemaError(f"unknown eigen action {action!r}")


def _cmd_classify(params, field):
    action = params.get("action", "constituents")
    q = _int(params["q"], "q")
    datum = _datum(field, q, params["datum"])
    if action == "validate":
        return {"valid": cls.validate(datum), "delta": cls.delta(datum)}
    if action == "constituents":
        poset = cls.constituents(datum)
        return {
            "count": len(poset),
            "delta": cls.delta(datum),
            "constituents": [_datum_json(r.datum) for r in poset.elements],
        }
    if action == "pair":
        pair = cls.param_pair(datum)
        return {"M": list(pair.M.composition),
                "chars": [_char_json(c) for c in pair.chars]}
    raise SchemaError(f"unknown classify action {action!r}")


def _cmd_lattice(params, field):
    q = _int(params["q"], "q")
    datum = _datum(field, q, params["datum"])
    lattice = cls.submodule_lattice(datum)
    poset = cls.constituents(datum)
    if params.get("dot"):
        return export_lattice_dot(poset, lattice)
    return {
        "constituents": [_datum_json(r.datum) for r in poset.elements],
        "lower_set_count": lattice.count,
        "lower_sets": lattice.sets,
        "principal": lattice.principal,
        "socle": lattice.socle,
        "cosocle": lattice.cosocle,
    }


def _cmd_hecke0(params, field):
    action = params.get("action")
    n = _int(params["n"], "n")
    if action == "verify":
        res = {
            "braid_and_rotation": h0.verify_braid_and_rotation(n),
            "word_shift": h0.verify_word_shift_identity(n),
            "translation_powers": {
                str(i): h0.verify_translation_power(n, i) for i in range(1, n)},
        }
        res["ok"] = (res["braid_and_rotation"] and res["word_shift"]
                     and all(res["translation_powers"].values()))
        return res
    if action == "derive":
        cap = {"length_cap": _int(params["cap"], "cap")} if "cap" in params else {}
        return h0.derive_rotation_invariance(n, field=field, **cap).to_json()
    raise SchemaError(f"unknown hecke0 action {action!r}")


def _cmd_verify(params, field):
    return orc.verify_gates(_int(params.get("max_n", 3), "max_n"),
                            _int(params.get("max_q", 3), "max_q"))


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
    """Execute a JSON job spec and write its result: deterministic output,
    structured errors.  A failed check (``"ok": false``) exits 1."""
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
        result = _HANDLERS[command](params, field)
    except SchemaError as exc:
        return _fail(out, "schema", str(exc))
    except KeyError as exc:
        return _fail(out, "schema", f"missing parameter {exc}")
    except h0.DerivationCapExceeded as exc:
        return _fail(out, "domain", str(exc), report=exc.report.to_json())
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(out, "domain", str(exc))
    _emit(out, result)
    return 1 if isinstance(result, dict) and result.get("ok") is False else 0


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
        params = {key: value for key, value in vars(args).items()
                  if value is not None and key not in ("command", "json_in", "out", "field")}
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
        return _fail(sys.stdout, "schema", str(exc))
    with out or contextlib.nullcontext(sys.stdout) as stream:
        return run(job, stream)


if __name__ == "__main__":
    sys.exit(main())
