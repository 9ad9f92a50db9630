"""The value records are plain ``__slots__`` classes on one small base: they
compare and hash by their fields within one class, refuse assignment and
print as ``Name(field=value, ...)``; no other class of the program defines
equality or hashing; and importing the CLI loads none of the heavy
standard-library modules that generated classes would pull in."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import gln_modp
from gln_modp.classify import (
    ConstituentPoset, InductionDatum, IrreducibleRep, Steinberg, Supersingular,
    boolean_lower_sets)
from gln_modp.eigen import ParamPair, SmoothCharacter
from gln_modp.finite_field import FqElem, FqField, default_modulus
from gln_modp.hecke import HeckeElement
from gln_modp.hecke0 import DerivationStep, derive_rotation_invariance
from gln_modp.oracle import TinyWeightModule, sym_power_module
from gln_modp.root_datum import StandardParabolic
from gln_modp.weights import LeviWeightClass, WeightClass

SRC = pathlib.Path(gln_modp.__file__).parent


def _values():
    """Each record class with the field values of one instance, built afresh
    on every call so that equal records are never the same objects."""
    F = FqField(3)
    chi = SmoothCharacter(F(2), 1, 3)
    st = Steinberg(2, StandardParabolic((2,)), chi)
    datum = InductionDatum(StandardParabolic((2,)), (st,))
    return [
        (FqField, {"p": 3, "m": 2, "modulus": default_modulus(3, 2)}),
        (FqElem, {"field": F, "coeffs": (1,)}),
        (HeckeElement, {"weight": WeightClass((1, 0), 3), "basis": "T",
                        "terms": {(-1, 0): F(2)}, "field": F}),
        (StandardParabolic, {"composition": (2, 1)}),
        (WeightClass, {"nu": (1, 0), "q": 3}),
        (LeviWeightClass, {"M": StandardParabolic((1, 1)), "nu": (1, 0), "q": 3}),
        (SmoothCharacter, {"unramified": F(2), "tame_exponent": 1, "q": 3}),
        (ParamPair, {"M": StandardParabolic((1, 1)), "chars": (chi, chi)}),
        (Supersingular, {"size": 2, "label": "a", "central": chi}),
        (Steinberg, {"size": 2, "Q": StandardParabolic((2,)), "eta": chi}),
        (InductionDatum, {"P": StandardParabolic((2,)), "blocks": (st,)}),
        (IrreducibleRep, {"datum": datum}),
        (ConstituentPoset, {"elements": (IrreducibleRep(datum),)}),
        (type(boolean_lower_sets(1)), {"sets": ((), (1,), (0, 1)), "principal": ((0, 1), (1,)),
                                        "covers": ((0, 1), (1, 2)), "socle": (1,),
                                        "cosocle": (0,)}),
        (DerivationStep, {"index": 1, "operator": "S_1Π", "idempotency_round": 1,
                          "vanishing_round": 0, "trace": ("a", "b"), "axiom": "U_1",
                          "derived": ("U_1v = 0",)}),
    ]


RECORDS = [cls for cls, _ in _values()]


def _pair(i):
    """Two equal instances of the i-th record, one positional, one by keyword."""
    (cls, a), (_, b) = _values()[i], _values()[i]
    return cls(*a.values()), cls(**b)


@pytest.mark.parametrize("i", range(len(RECORDS)), ids=[c.__name__ for c in RECORDS])
def test_equal_values_compare_equal_and_hash_alike(i):
    x, y = _pair(i)
    assert x is not y
    assert x == y and not x != y
    if RECORDS[i] is HeckeElement:
        with pytest.raises(TypeError):   # its terms are a dict
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1


def test_fields_built_apart_are_one_value():
    F, G = FqField(3, 2), FqField(3, 2)
    assert F is not G and F == G and hash(F) == hash(G)
    assert F == FqField(3, 2, default_modulus(3, 2)) == G
    assert F((1, 2)) == G((1, 2)) and hash(F((1, 2))) == hash(G((1, 2)))
    # x^2 + x + 2 is irreducible over F_3 too, but it is another modulus
    H = FqField(3, 2, (2, 1, 1))
    assert F != H and F((1, 2)) != H((1, 2))


@pytest.mark.parametrize("i", range(len(RECORDS)), ids=[c.__name__ for c in RECORDS])
def test_a_record_is_not_the_tuple_of_its_values(i):
    x, _ = _pair(i)
    values = tuple(_values()[i][1].values())
    assert x != values and values != x
    assert x != list(values)


def test_records_of_different_classes_are_never_equal():
    chi = SmoothCharacter(FqField(3)(2), 1, 3)
    Q = StandardParabolic((2,))
    # Supersingular does not check its label's type, so both hold the same values
    st, ss = Steinberg(2, Q, chi), Supersingular(2, Q, chi)
    assert (st.size, st.Q, st.eta) == (ss.size, ss.label, ss.central)
    assert st != ss and ss != st
    assert WeightClass((1, 0), 3) != LeviWeightClass(StandardParabolic((2,)), (1, 0), 3)


@pytest.mark.parametrize("i", range(len(RECORDS)), ids=[c.__name__ for c in RECORDS])
def test_fields_can_be_neither_assigned_nor_deleted(i):
    x, y = _pair(i)
    for name in _values()[i][1]:
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 0
    assert x == y
    assert not hasattr(x, "__dict__")


def test_repr_names_the_fields():
    F = FqField(3)
    chi = SmoothCharacter(F(2), 1, 3)
    # FqField, FqElem, HeckeElement and StandardParabolic keep their own short forms
    assert repr(FqField(3, 2)) == "FqField(p=3, m=2)"
    assert repr(F(2)) == "Fq(2)"
    assert repr(HeckeElement(WeightClass((1, 0), 3), "T", {(-1, 0): 2, (-2, 0): 1}, F)) == (
        "(1)*T_(-2, 0) + (2)*T_(-1, 0)")
    assert repr(StandardParabolic((1, 1))) == "P(1, 1)"
    assert repr(chi) == "SmoothCharacter(unramified=Fq(2), tame_exponent=1, q=3)"
    assert repr(LeviWeightClass(StandardParabolic((1, 1)), (1, 0), 3)) == (
        "LeviWeightClass(M=P(1, 1), nu=(1, 0), q=3)")
    assert repr(Supersingular(2, "a", chi)) == (
        "Supersingular(size=2, label='a', central=" + repr(chi) + ")")
    assert repr(boolean_lower_sets(1)) == (
        "SubmoduleLattice(sets=((), (1,), (0, 1)), principal=((0, 1), (1,)), "
        "covers=((0, 1), (1, 2)), socle=(1,), cosocle=(0,))")
    for i, cls in enumerate(RECORDS):
        if cls not in (FqField, FqElem, HeckeElement, StandardParabolic):
            x, _ = _pair(i)
            inner = ", ".join(f"{k}={v!r}" for k, v in _values()[i][1].items())
            assert repr(x) == f"{cls.__name__}({inner})"


def _defines_equality(item) -> bool:
    """Whether a class-body statement defines or assigns ``__eq__`` or ``__hash__``."""
    if isinstance(item, ast.FunctionDef):
        names = {item.name}
    elif isinstance(item, ast.Assign):
        names = {t.id for t in item.targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return bool(names & {"__eq__", "__hash__"})


def test_only_the_record_base_defines_equality_and_hashing():
    found = [(path.name, node.name) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef) for item in node.body if _defines_equality(item)]
    assert found == [("_record.py", "Record")] * 2


def test_weight_class_p_is_outside_equality_and_repr():
    w, v = WeightClass((1, 0), 9), WeightClass((1, 0), 9)
    assert w.p == 3
    assert repr(w) == "WeightClass(nu=(1, 0), q=9)"
    object.__setattr__(v, "p", 5)
    assert w == v and hash(w) == hash(v)
    assert w != WeightClass((1, 0), 3)


def test_validation_runs_for_positional_and_keyword_construction():
    with pytest.raises(ValueError):
        StandardParabolic(composition=(2, 0))
    with pytest.raises(ValueError):
        WeightClass(nu=(0, 1), q=3)
    with pytest.raises(ValueError):
        SmoothCharacter(unramified=FqField(3).zero, tame_exponent=0, q=3)
    assert WeightClass(nu=[1, 0], q=3).nu == (1, 0)
    assert SmoothCharacter(FqField(3)(1), tame_exponent=5, q=3).tame_exponent == 1


def test_derivation_report_json_keeps_its_keys_and_step_dicts():
    report = derive_rotation_invariance(2)
    assert report.to_json() == {
        "n": 2, "cap": 20, "status": "derived",
        "steps": [{"index": 1, "operator": "S_1Π", "idempotency_round": 1,
                   "vanishing_round": 0,
                   "trace": ("(S_1Π)²v = S_1Π(v - Πv)", "= S_1Πv - S_1v", "= S_1Πv"),
                   "axiom": "U_1 acts nilpotently (hypothesis), so idempotency forces U_1v = 0",
                   "derived": ("U_1v = 0", "S_1Πv = 0")}],
        "final_round": 0, "minimal_sufficient_cap": 1, "conclusion": "v = Πv"}
    out = report.to_json()
    assert list(out) == ["n", "cap", "status", "steps", "final_round",
                         "minimal_sufficient_cap", "conclusion"]
    assert list(out["steps"][0]) == ["index", "operator", "idempotency_round",
                                     "vanishing_round", "trace", "axiom", "derived"]
    # the JSON is a copy: editing it leaves the report alone
    out["steps"].clear()
    assert len(report.steps) == 1


def test_tiny_weight_module_is_a_plain_mutable_object():
    module = sym_power_module(2, 3, 1)
    assert isinstance(module, TinyWeightModule)
    assert module.highest_line_ok is True
    assert "highest_line_ok" in vars(module)       # cached_property stores it
    assert {"q", "gradings", "_build"} <= vars(module).keys()


HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_cli_import_loads_no_heavy_module():
    # a fresh interpreter: only modules that join sys.modules count, so what
    # site preloads (typing, on some interpreters) does not matter
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import gln_modp.cli\n"
            "gln_modp.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    added = proc.stdout.split()
    assert "gln_modp.cli" in added
    assert [name for name in added if name in HEAVY] == []


def test_no_program_file_uses_generated_classes():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    assert [p.name for p in files if "dataclass" in p.read_text(encoding="utf-8")] == []
