"""Span tracing of the program from outside the package.

``install`` wraps the public functions listed in ``TARGETS`` and rebinds
every name in the package that refers to them, so a module that imported a
function by name (``hecke`` imports ``interval_above`` and ``leq_M``) calls
the wrapper too.  Class attributes are wrapped the same way, aliases
included (``FqElem.__rmul__`` is ``FqElem.__mul__``).

A ``span`` target records one span per call: name, start, end, parent span
and job id, kept in flat arrays in memory and written out by ``write``.  A
``count`` target only counts calls; it is used for functions that are too
small and too frequent for a span, and its time stays in the caller's span.
Post hooks accumulate values measured where the work happens, such as the
number of terms a Satake change of basis returns.

A span's self time is its duration minus the part of it that its child
spans cover (``self_times``).  The program runs in one thread, so the span
stack is the call stack.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []                 # span name table; spans store the index
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.counts = defaultdict(int)  # count targets: calls
        self.values = defaultdict(int)  # post-hook accumulators
        self.current_job = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, post=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(self, result, args, kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, directory):
        """Write the spans as flat binary arrays plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name", "start", "end", "parent", "job"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        with open(os.path.join(directory, "index.json"), "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "byteorder": sys.byteorder,
                       "arrays": {f: getattr(self, f).typecode
                                  for f in ("name", "start", "end", "parent", "job")},
                       "counts": dict(self.counts), "values": dict(self.values)},
                      fh, indent=1, sort_keys=True)


def self_times(start, end, parent):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, run_start, run_end = 0.0, None, None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


# -- what is wrapped -------------------------------------------------------------

def _terms_out(tracer, result, args, kwargs):
    tracer.values["hecke.terms_out"] += len(result.terms)


def _lower_sets_ratio(tracer, result, args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.values["classify.lower_sets.returned"] += len(result)
    tracer.values["classify.lower_sets.scanned"] += 1 << k


def _final_round(tracer, result, args, kwargs):
    tracer.values["hecke0.derive.final_round"] += result.final_round


# (span or counter name, module, attribute path, mode, post hook)
TARGETS = (
    ("finite_field.mul", "finite_field", "FqElem.__mul__", "span", None),
    ("finite_field.inverse", "finite_field", "FqElem.inverse", "count", None),
    ("root_datum.interval_above", "root_datum", "interval_above", "span", None),
    ("root_datum.leq_M", "root_datum", "leq_M", "count", None),
    ("weights.make_weight", "weights", "make_weight", "span", None),
    ("weights.make_levi_weight", "weights", "make_levi_weight", "span", None),
    ("weights.restrict_to_levi", "weights", "restrict_to_levi", "span", None),
    ("weights.is_M_regular", "weights", "is_M_regular", "span", None),
    ("weights.regular_cover", "weights", "regular_cover", "span", None),
    ("weights.weight_partner_for_change", "weights", "weight_partner_for_change",
     "span", None),
    ("weights.central_character_exponents", "weights", "central_character_exponents",
     "span", None),
    ("hecke.basis_element", "hecke", "basis_element", "span", None),
    ("hecke.satake_T_to_tau", "hecke", "satake_T_to_tau", "span", _terms_out),
    ("hecke.satake_tau_to_T", "hecke", "satake_tau_to_T", "span", _terms_out),
    ("hecke.multiply", "hecke", "multiply", "span", _terms_out),
    ("eigen.eval_tau", "eigen", "eval_tau", "span", None),
    ("eigen.eval_T", "eigen", "eval_T", "span", None),
    ("eigen.eval_element", "eigen", "eval_element", "span", None),
    ("eigen.is_supersingular", "eigen", "is_supersingular", "span", None),
    ("eigen.factors_through", "eigen", "factors_through", "span", None),
    ("eigen.twist", "eigen", "twist", "span", None),
    ("eigen.change_of_weight_applicable", "eigen", "change_of_weight_applicable",
     "span", None),
    ("classify.validate", "classify", "validate", "span", None),
    ("classify.delta", "classify", "delta", "span", None),
    ("classify.param_pair", "classify", "param_pair", "span", None),
    ("classify.constituents", "classify", "constituents", "span", None),
    ("classify.lower_sets", "classify", "lower_sets", "span", _lower_sets_ratio),
    ("classify.submodule_lattice", "classify", "submodule_lattice", "span", None),
    ("hecke0.signed_product", "hecke0", "signed_product", "span", None),
    ("hecke0.reduced_word", "hecke0", "reduced_word", "count", None),
    ("hecke0.has_finite_descent", "hecke0", "has_finite_descent", "count", None),
    ("hecke0.derive_rotation_invariance", "hecke0", "derive_rotation_invariance",
     "span", _final_round),
    ("hecke0.verify_braid_and_rotation", "hecke0", "verify_braid_and_rotation",
     "span", None),
    ("hecke0.verify_word_shift_identity", "hecke0", "verify_word_shift_identity",
     "span", None),
    ("hecke0.verify_translation_power", "hecke0", "verify_translation_power",
     "span", None),
    ("oracle.verify_gates", "oracle", "verify_gates", "span", None),
    ("oracle.gl_elements", "oracle", "gl_elements", "span", None),
    ("oracle.supported_weight_modules", "oracle", "supported_weight_modules",
     "count", None),
    ("oracle.sym_power_module", "oracle", "sym_power_module", "count", None),
    ("oracle.exterior_power_module", "oracle", "exterior_power_module", "count", None),
    ("oracle.matrix", "oracle", "TinyWeightModule.matrix", "count", None),
    ("oracle.in_big_cell", "oracle", "in_big_cell", "count", None),
    ("oracle.rref", "oracle", "rref", "count", None),
    ("oracle.check_minuscule_satake", "oracle", "check_minuscule_satake", "span", None),
    ("oracle.check_iwahori_coset_count", "oracle", "check_iwahori_coset_count",
     "span", None),
    ("oracle.check_invariants_coinvariants", "oracle", "check_invariants_coinvariants",
     "span", None),
    ("oracle.check_double_coset_support", "oracle", "check_double_coset_support",
     "span", None),
    ("cli.run", "cli", "run", "span", None),
    ("cli.main", "cli", "main", "span", None),
)

LAYERS = ("finite_field", "root_datum", "weights", "hecke", "eigen", "classify",
          "hecke0", "oracle", "cli")


def install(tracer: Tracer):
    """Wrap every target and rebind each reference to it in the package.
    Returns a function that restores the original bindings."""
    namespaces = [importlib.import_module("gln_modp")] + [
        importlib.import_module(f"gln_modp.{layer}") for layer in LAYERS]
    undo = []
    for name, module, path, mode, post in TARGETS:
        owner = importlib.import_module(f"gln_modp.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = vars(owner)[attr]
        wrapper = (tracer.span(name, orig, post) if mode == "span"
                   else tracer.counter(name, orig))
        holders = namespaces + ([owner] if outer else [])
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapper)
                    undo.append((holder, key, orig))

    def restore():
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)

    return restore


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass: ``<target>.calls`` for every
    target, ``<target>.self_s`` for every span target, the post-hook values
    and ``<layer>.calls`` / ``<layer>.self_s`` totals."""
    calls = {name: 0 for name, *_ in TARGETS}
    self_s = {name: 0.0 for name, _, _, mode, _ in TARGETS if mode == "span"}
    for nid, st in zip(tracer.name, self_times(tracer.start, tracer.end, tracer.parent)):
        calls[tracer.names[nid]] += 1
        self_s[tracer.names[nid]] += st
    calls.update(tracer.counts)
    vals = tracer.values

    def total(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    out = {f"{k}.calls": v for k, v in calls.items()}
    out.update({f"{k}.self_s": v for k, v in self_s.items()})
    for layer in LAYERS:
        out[f"{layer}.calls"] = total(calls, layer + ".")
        out[f"{layer}.self_s"] = total(self_s, layer + ".")
    scanned = vals["classify.lower_sets.scanned"]
    out.update({
        "hecke.terms_out": vals["hecke.terms_out"],
        "hecke0.derive.final_round": vals["hecke0.derive.final_round"],
        "hecke0.verify.self_s": total(self_s, "hecke0.verify_"),
        "classify.lower_sets.useful_ratio":
            vals["classify.lower_sets.returned"] / scanned if scanned else 0.0,
        "oracle.modules_built": (calls["oracle.sym_power_module"]
                                 + calls["oracle.exterior_power_module"]),
        "cli.jobs": sum(1 for nid, p in zip(tracer.name, tracer.parent)
                        if p < 0 and tracer.names[nid] in ("cli.run", "cli.main")),
    })
    return out
