"""Command-line surface: JSON in, JSON (or DOT) out, deterministic bytes.

Subcommands mirror the library modules: ``satake`` expands basis elements,
``weights`` runs the highest-weight calculus, ``eigen`` evaluates and tests
eigenvalue pairs, ``classify`` and ``lattice`` run the constituent engine,
``hecke0`` drives the affine 0-Hecke checks and the derivation engine, and
``verify`` runs the finite-group oracle gates.

Each command is declared once, in ``_COMMANDS``: its help, its actions and its
parameters, each with a kind (integer, vector, composition, JSON object, choice
or flag) and a default or a required mark.  The argparse flags and the JSON
reading both come from it: a junk value in any declared parameter is a schema error.

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
from collections import namedtuple
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from . import classify as cls
from . import eigen as eig
from . import hecke as hk
from . import hecke0 as h0
from . import oracle as orc
from .finite_field import FqField, prime_radical
from .root_datum import StandardParabolic
from .weights import (make_levi_weight, make_weight, restrict_to_levi, regular_cover,
                      weight_partner_for_change, is_M_regular)

ENV_FIELD = "GLN_MODP_FIELD"


class SchemaError(Exception):
    pass


class _Params(dict):
    """A JSON object's values by key; a key it lacks is a schema error when read."""
    def __missing__(self, name):
        raise SchemaError(f"missing parameter {name!r}")


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


def _unchecked_int(value, name: str) -> int:
    return int(value)


def _vec(text, name: str = "") -> tuple:
    try:
        return tuple(int(t) for t in str(text).split(","))
    except ValueError as exc:
        raise SchemaError(f"bad integer vector {text!r}") from exc


def _comp(value, name: str = "") -> StandardParabolic:
    if isinstance(value, str):
        value = _vec(value)
    try:
        return StandardParabolic(tuple(_int(v, "part") for v in value))
    except (SchemaError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad composition {value!r}") from exc


def _flag(value, name: str) -> bool:
    """A JSON boolean; a string such as "false", or a number, is not one."""
    if not isinstance(value, bool):
        raise SchemaError(f"bad boolean {name} {value!r}")
    return value


def _choice(what: str, *names: str):
    """The kind of a parameter that takes one of ``names``."""
    def read(value, name):
        if value not in names:
            raise SchemaError(f"unknown {what} {value!r}")
        return value
    read.choices = names
    return read


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
    if env := os.environ.get(ENV_FIELD):
        return _field_from_spec(parse_field_text(env))
    q = job.get("params", {}).get("q")
    return FqField(prime_radical(_int(q, "q")) if q else 3, 1)


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
    obj = _Params(_object(obj, "pair"))
    return eig.ParamPair(_comp(obj["M"]),
                         tuple(_char(field, q, c) for c in _array(obj["chars"], "chars")))


def _pair_json(pair: eig.ParamPair) -> dict:
    return {"M": list(pair.M.composition), "chars": [_char_json(c) for c in pair.chars]}


def _block(field: FqField, q: int, obj):
    obj = _Params(_object(obj, "block"))
    kind = obj.get("kind")
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
    obj = _Params(_object(obj, "datum"))
    return cls.InductionDatum(_comp(obj["P"]),
                              tuple(_block(field, q, b) for b in _array(obj["blocks"], "blocks")))


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


# -- command handlers: each takes a job's params, read, and its scalar field --

def _csv(values) -> str:
    return ",".join(map(str, values))


def _weight(p):
    return make_weight(p["nu"], p["q"])


def _satake(p, field):
    V, basis = _weight(p), p["basis"]
    if V.n != p["n"]:
        raise SchemaError("nu has the wrong rank")
    elem = hk.basis_element(V, basis, p["lam"], field)
    res = hk.satake_T_to_tau(elem) if basis == "T" else hk.satake_tau_to_T(elem)
    return {"weight": {"nu": _csv(V.nu), "q": p["q"]}, "basis": res.basis,
            "terms": {_csv(k): str(c) for k, c in res.terms.items()}}


def _restrict(p, field):
    res = restrict_to_levi(_weight(p), p["P"])
    return {"M": list(res.M.composition), "nu": _csv(res.nu)}


def _constituents(p, field):
    poset = cls.constituents(p["datum"])
    return {"count": len(poset), "delta": cls.delta(p["datum"]),
            "constituents": [_datum_json(r.datum) for r in poset.elements]}


def _lattice(p, field):
    lattice, poset = cls.submodule_lattice(p["datum"]), cls.constituents(p["datum"])
    if p["dot"]:
        return export_lattice_dot(poset, lattice)
    return {"constituents": [_datum_json(r.datum) for r in poset.elements],
            "lower_set_count": lattice.count, "lower_sets": lattice.sets, "socle": lattice.socle,
            "principal": lattice.principal, "cosocle": lattice.cosocle}


def _hecke0_verify(p, field):
    n = p["n"]
    res = {"braid_and_rotation": h0.verify_braid_and_rotation(n),
           "word_shift": h0.verify_word_shift_identity(n),
           "translation_powers": {str(i): h0.verify_translation_power(n, i) for i in range(1, n)}}
    return dict(res, ok=res["braid_and_rotation"] and res["word_shift"]
                and all(res["translation_powers"].values()))


# One parameter: the ``--name`` flag (or ``flags``) of the command line and the
# ``name`` key of a JSON job's params, both read through ``kind``.
_Param = namedtuple("_Param", "name kind required default help flags",
                    defaults=(False, None, None, ()))


def _command(name: str, text: str, handlers, *params: _Param, default=None):
    """A row of ``_COMMANDS``: the help, one handler or a dict from each action to
    its handler, and the parameters, the action first (``default`` if left out)."""
    if isinstance(handlers, dict):
        action = _choice(f"{name} action", *handlers)
        params = (_Param("action", action, required=default is None, default=default),) + params
    return name, (text, handlers, params)


# the JSON-object kinds read the scalar field and q, and come on argv as JSON text
_JSON_KINDS = (_pair, _datum, _char)
_Q = _Param("q", _int, required=True)
_DATUM = _Param("datum", _datum, help="induction datum JSON")

_COMMANDS = dict((
    _command(
        "satake", "expand a Hecke basis element in the other basis", _satake,
        # a non-integer n still raises in int(); the fix is parked under ROADMAP
        # item 1, because perfbench's injected-failure test relies on it
        _Param("n", _unchecked_int, required=True), _Q, _Param("nu", _vec, required=True),
        _Param("lam", _vec, required=True, flags=("--lam", "--lambda")),
        _Param("basis", _choice("basis tag", "T", "tau"), default="T")),
    _command("weights", "highest-weight calculus", {
        "restrict": _restrict,
        "cover": lambda p, f: {"nu": _csv(regular_cover(
            make_levi_weight(p["M"], p["nu"], p["q"])).nu)},
        "partner": lambda p, f: {"nu": _csv(weight_partner_for_change(_weight(p), p["i"]).nu)},
        "regular": lambda p, f: {"regular": is_M_regular(_weight(p), p["M"])},
    }, _Q, _Param("nu", _vec, required=True), _Param("P", _comp), _Param("M", _comp),
        _Param("i", _int)),
    _command("eigen", "eigenvalue pairs", {
        "eval-tau": lambda p, f: {"value": str(eig.eval_tau(p["pair"], p["lam"]))},
        "eval-T": lambda p, f: {"value": str(eig.eval_T(p["pair"], p["lam"], _weight(p)))},
        "supersingular": lambda p, f: {"supersingular": eig.is_supersingular(p["pair"])},
        "factors": lambda p, f: {"factors": eig.factors_through(p["pair"], p["L"])},
        "twist": lambda p, f: _pair_json(eig.twist(p["pair"], p["eta"])),
        "applicable": lambda p, f: {"applicable": eig.change_of_weight_applicable(
            _weight(p), p["i"], p["pair"])},
    }, _Q, _Param("pair", _pair, help="pair JSON"),
        _Param("lam", _vec, flags=("--lam", "--lambda")), _Param("nu", _vec), _Param("i", _int),
        _Param("L", _comp), _Param("eta", _char, help="character JSON")),
    _command("classify", "constituent classification", {
        "validate": lambda p, f: {"valid": cls.validate(p["datum"]),
                                  "delta": cls.delta(p["datum"])},
        "constituents": _constituents,
        "pair": lambda p, f: _pair_json(cls.param_pair(p["datum"])),
    }, _Q, _DATUM, default="constituents"),
    _command("lattice", "submodule lattice of an induction datum", _lattice,
             _Q, _DATUM, _Param("dot", _flag, default=False, help="emit DOT text")),
    _command("hecke0", "affine 0-Hecke checks and derivation", {
        "verify": _hecke0_verify,
        "derive": lambda p, f: h0.derive_rotation_invariance(p["n"], p.get("cap"), f).to_json(),
    }, _Param("n", _int, required=True), _Param("cap", _int)),
    _command("verify", "run the finite-group oracle gates",
             lambda p, f: orc.verify_gates(p["max_n"], p["max_q"]),
             _Param("max_n", _int, default=3), _Param("max_q", _int, default=3)),
))


def _flags(prm: _Param) -> tuple:
    return prm.flags or ("--" + prm.name.replace("_", "-"),)


def run(job, out) -> int:
    """Execute a JSON job spec and write its result: deterministic output,
    structured errors.  Each declared parameter is read through its kind; an
    absent one takes its default, or is a schema error if it is required.  The
    action picks the handler.  ``"ok": false`` exits 1."""
    try:
        if not isinstance(job, dict):
            raise SchemaError("job must be a JSON object")
        command = job.get("command")
        if command not in _COMMANDS:
            raise SchemaError(f"unknown command {command!r}")
        params = job.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("params must be a JSON object")
        field = _resolve_field(job)
        _, handlers, specs = _COMMANDS[command]
        p = _Params()
        for prm in specs:
            if prm.name in params:
                value = params[prm.name]
                p[prm.name] = (prm.kind(field, p["q"], value) if prm.kind in _JSON_KINDS
                               else prm.kind(value, prm.name))
            elif prm.default is not None:
                p[prm.name] = prm.default
            elif prm.required:
                raise SchemaError(f"missing parameter {prm.name!r}")
        handler = handlers[p["action"]] if isinstance(handlers, dict) else handlers
        result = handler(p, field)
    except SchemaError as exc:
        return _fail(out, "schema", str(exc))
    except h0.DerivationCapExceeded as exc:
        return _fail(out, "domain", str(exc), report=exc.report.to_json())
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(out, "domain", str(exc))
    _emit(out, result)
    return 1 if isinstance(result, dict) and result.get("ok") is False else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gln-modp", description=__doc__.splitlines()[0])
    sp = ap.add_subparsers(dest="command", required=True)
    for command, (text, _, params) in _COMMANDS.items():
        sub = sp.add_parser(command, help=text)
        for prm in params:
            choices = getattr(prm.kind, "choices", None)
            if prm.name == "action":
                sub.add_argument("action", choices=choices, nargs=None if prm.required else "?")
            elif prm.kind is _flag:
                sub.add_argument(*_flags(prm), action="store_true", help=prm.help)
            else:
                sub.add_argument(*_flags(prm), dest=prm.name, required=prm.required,
                                 type=int if prm.kind in (_int, _unchecked_int) else None,
                                 choices=choices, help=prm.help)
        sub.add_argument("--json-in", help="read the whole job spec from a JSON file")
        sub.add_argument("--out", help="write output to a file instead of stdout")
        sub.add_argument("--field", help="scalar field as p[,m[,c0,..,cm]]")
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
        _, _, specs = _COMMANDS[args.command]
        params = {prm.name: value for prm in specs
                  if (value := getattr(args, prm.name)) is not None}
        for prm in specs:
            if prm.kind in _JSON_KINDS and prm.name in params:
                try:
                    params[prm.name] = json.loads(params[prm.name])
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"malformed JSON for --{prm.name}: {exc}") from exc
        job = {"command": args.command, "params": params}
    if args.field and isinstance(job, dict) and not job.get("scalar_field"):
        job["scalar_field"] = parse_field_text(args.field)
    return job


_VECTOR_FLAGS = {flag for _, _, specs in _COMMANDS.values() for prm in specs
                 if prm.kind is _vec for flag in _flags(prm)}


def _merge_negative_vectors(argv):
    """Join vector flags with values that begin with a minus sign, so that
    ``--lam -2,0`` parses like ``--lam=-2,0``."""
    out = []
    for tok in argv:
        if out and out[-1] in _VECTOR_FLAGS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
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
