"""Span tracing of homlie's public functions, installed from outside.

install() wraps every public function of each layer module, rebinding it
in every homlie module namespace that imported it, and every public
method (plus @) of Matrix, Cochain, HomLieAlgebra and Representation,
except generator functions (a span would close before the work is done)
and the LEAVES below.  Nothing under src/ is edited.  Each wrapped call
records one span (name, start, end, parent span, request id) in a flat
in-memory array; summary() turns them into per-layer counts and self
times, and write_spans() dumps them when the run ends.

A layer is a module.  L.calls counts the spans of L whose parent span is
in another layer (or is absent): calls that enter L.  A span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from math import comb

LAYERS = ("cli", "io", "structures", "alternating", "linalg", "cochain",
          "graded", "ooperator", "deformation", "rmatrix")
CLASSES = {"linalg": ("Matrix",), "cochain": ("Cochain",),
           "structures": ("HomLieAlgebra", "Representation")}

# Per-function metrics: metric prefix -> wrapped span names it sums.
FUNCTIONS = {
    "structures.semidirect_product": ("structures.semidirect_product",),
    "structures.bracket": ("structures.HomLieAlgebra.bracket",),
    "structures.act": ("structures.Representation.act",
                       "structures.Representation.rho_of"),
    "alternating.wedge_coords": ("alternating.wedge_coords",),
    "linalg.det": ("linalg.Matrix.det",),
    "linalg.power": ("linalg.Matrix.power",),
    "linalg.matmul": ("linalg.Matrix.__matmul__",),
    "linalg.elim": tuple(f"linalg.Matrix.{m}" for m in
                         ("rank", "kernel_basis", "solve", "rref", "inverse")),
    "cochain.coboundary": ("cochain.coboundary",),
    "cochain.evaluate": ("cochain.Cochain.evaluate",),
    "cochain.compatible_basis": ("cochain.compatible_subspace_basis",),
    "graded.circle_product": ("graded.circle_product",),
    "graded.derived_bracket": ("graded.derived_bracket",),
    "ooperator.operator_complex": ("ooperator.operator_complex",),
    "deformation.extend_order": ("deformation.extend_order",),
    "deformation.obstruction": ("deformation.obstruction",),
    "rmatrix.is_r_matrix": ("rmatrix.is_r_matrix",),
}
# Leaf helpers cheaper than a span: wrapping them would mostly time the
# tracer.  Their time stays in the caller's self time.
LEAVES = frozenset(
    [f"linalg.{f}" for f in ("scalar", "vector", "vzero", "vadd", "vsub",
                             "vneg", "vscale", "is_zero_vector",
                             "basis_vector")]
    + [f"linalg.Matrix.{m}" for m in ("entry", "row", "column", "columns",
                                      "is_square", "is_zero")]
    + [f"cochain.Cochain.{m}" for m in ("coeff", "evaluate_basis")]
    + [f"structures.HomLieAlgebra.{m}" for m in ("bracket_basis",
                                                 "alpha_apply")]
    + [f"alternating.{f}" for f in ("sort_with_sign", "permutation_sign",
                                    "increasing_tuples")])
# Functions whose metrics report only a call count.
CALLS_ONLY = {"structures.semidirect_product", "structures.bracket",
              "structures.act", "ooperator.operator_complex"}
_FIELDS = 5  # name, start_ns, end_ns, parent, request


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = array("q")
        self.stack = []
        self.request = -1
        # Counters measured at the same boundaries as the spans.
        self.minors = 0
        self.elim_cells = 0
        self.coboundary_nonzero = 0
        self.basis_keys = set()

    def wrap(self, name, fn, note=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans) // _FIELDS
            spans.extend((index, clock(), 0, stack[-1] if stack else -1,
                          self.request))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[span * _FIELDS + 2] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result

        return traced

    # Counter hooks run after the span has closed.

    def _note_wedge(self, args, result):
        vectors, dim = args
        self.minors += comb(dim, len(vectors))

    def _note_elim(self, args, result):
        matrix = args[0]
        self.elim_cells += matrix.nrows * matrix.ncols

    def _note_coboundary(self, args, result):
        if any(x != 0 for value in result.values for x in value):
            self.coboundary_nonzero += 1

    def _note_basis(self, args, result):
        desc, arity = args
        self.basis_keys.add((desc, arity))

    def install(self):
        """Wrap the public API of every layer module; call once."""
        notes = {
            "alternating.wedge_coords": self._note_wedge,
            "cochain.coboundary": self._note_coboundary,
            "cochain.compatible_subspace_basis": self._note_basis,
        }
        for name in FUNCTIONS["linalg.elim"]:
            notes[name] = self._note_elim
        modules = {layer: importlib.import_module(f"homlie.{layer}")
                   for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "homlie" or n.startswith("homlie.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj)
                        or name in LEAVES):
                    continue
                wrapped = self.wrap(name, obj, notes.get(name))
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, key, wrapped)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_") and attr != "__matmul__":
                        continue
                    name = f"{layer}.{cls_name}.{attr}"
                    if name in LEAVES:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        setattr(cls, attr, type(raw)(
                            self.wrap(name, raw.__func__, notes.get(name))))
                    elif inspect.isfunction(raw):
                        setattr(cls, attr,
                                self.wrap(name, raw, notes.get(name)))

    def summary(self):
        """Per-layer and per-function metrics from the recorded spans.

        A function's total_s sums its outermost spans only (none of its
        ancestors belongs to the same function), so recursion and nested
        members of one group are not counted twice.
        """
        spans, names = self.spans, self.names
        count = len(spans) // _FIELDS
        layer_of = [n.split(".", 1)[0] for n in names]
        group_bit = [0] * len(names)
        for bit, members in enumerate(FUNCTIONS.values()):
            for member in members:
                if member in names:
                    group_bit[names.index(member)] = 1 << bit
        duration = [spans[s * _FIELDS + 2] - spans[s * _FIELDS + 1]
                    for s in range(count)]
        child = [0] * count
        # Spans are stored in start order, so a parent precedes its child.
        open_groups = [0] * count
        calls = [0] * len(names)
        self_ns = [0] * len(names)
        total_ns = [0] * len(names)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for s in range(count):
            base = s * _FIELDS
            name, parent = spans[base], spans[base + 3]
            calls[name] += 1
            inside = 0
            if parent >= 0:
                child[parent] += duration[s]
                inside = open_groups[parent] | group_bit[spans[
                    parent * _FIELDS]]
            open_groups[s] = inside
            if not inside & group_bit[name]:
                total_ns[name] += duration[s]
            if parent < 0 or layer_of[spans[parent * _FIELDS]] != \
                    layer_of[name]:
                layer_calls[layer_of[name]] += 1
        layer_self = dict.fromkeys(LAYERS, 0)
        for s in range(count):
            name = spans[s * _FIELDS]
            own = duration[s] - child[s]
            self_ns[name] += own
            layer_self[layer_of[name]] += own
        index = {n: k for k, n in enumerate(names)}
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        for metric, members in FUNCTIONS.items():
            found = [index[m] for m in members if m in index]
            out[f"{metric}.calls"] = sum(calls[k] for k in found)
            if metric not in CALLS_ONLY:
                out[f"{metric}.self_s"] = sum(self_ns[k] for k in found) / 1e9
                out[f"{metric}.total_s"] = sum(
                    total_ns[k] for k in found) / 1e9
        out["alternating.minors"] = self.minors
        out["linalg.elim.cells"] = self.elim_cells
        cob = out["cochain.coboundary.calls"]
        out["cochain.coboundary.nonzero_ratio"] = (
            self.coboundary_nonzero / cob if cob else 0.0)
        basis = out["cochain.compatible_basis.calls"]
        out["cochain.compatible_basis.distinct_ratio"] = (
            len(self.basis_keys) / basis if basis else 0.0)
        return out, count

    def write_spans(self, stem):
        """Dump the spans: stem.json names the fields and span names, and
        stem.bin holds the spans as native int64 records of those fields."""
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request"],
                       "names": self.names,
                       "count": len(self.spans) // _FIELDS}, handle)
        with open(f"{stem}.bin", "wb") as handle:
            self.spans.tofile(handle)
