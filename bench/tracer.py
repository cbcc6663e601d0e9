"""Outside-in tracing of the opgeo layers.

The tracer wraps the public functions of each layer from outside the
package: it captures each original before patching and rebinds it in every
``opgeo`` namespace that holds it, because the modules bind names such as
``element_norm`` and ``x1_member`` with ``from ... import`` (patching only
the defining module would miss most calls).  ``Element`` construction is
traced through ``Element.__init__``, and the LAPACK-backed entry points of
``numpy.linalg`` are traced at the numpy boundary because opgeo also calls
numpy directly.

Each traced call records a span (name, start, end, parent span, op id) in
memory; self time is the span minus the parts its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: layer -> (module, public functions wrapped there)
LAYERS = {
    "linalg": (
        "opgeo.linalg",
        (
            "svd",
            "polar",
            "hermitian_eig",
            "operator_norm",
            "trace_norm",
            "singular_values",
            "apply_function_hermitian",
        ),
    ),
    "algebra": (
        "opgeo.algebra",
        (
            "element_norm",
            "norming_set",
            "sample_norming_functional",
            "numeric_span_rank",
            "evaluate",
            "min_real_over_norming",
        ),
    ),
    "classify": (
        "opgeo.classify",
        (
            "is_partial_isometry_geometric",
            "construct_witness",
            "x1_member",
            "x2_member",
            "x2_deviation",
            "is_extreme_point",
            "is_unitary_geometric",
            "invertibility_certificate",
            "verify_certificate",
            "is_self_adjoint_lumer",
            "is_self_adjoint_states",
            "is_positive",
            "is_projection",
            "recover_adjoint",
        ),
    ),
    "documents": (
        "opgeo.documents",
        (
            "load_element",
            "element_from_doc",
            "witness_from_doc",
            "certificate_from_doc",
            "element_to_doc",
            "witness_to_doc",
            "certificate_to_doc",
            "verdict_to_doc",
            "dumps",
        ),
    ),
    "cli": ("opgeo.cli", ("main",)),
    "harness": ("opgeo.harness", ("run_suite",)),
}

#: numpy.linalg entry points counted at the boundary
NUMPY_FUNCTIONS = ("svd", "eigh", "eigvalsh", "qr", "lstsq", "norm")

ELEMENT_SPAN = "algebra.Element"


def generator_functions() -> tuple[str, ...]:
    gens = importlib.import_module("opgeo.generators")
    return tuple(sorted(n for n, v in vars(gens).items() if n.startswith("gen_") and callable(v)))


def lapack_work(name: str, args, kwargs) -> int | None:
    """Computed LAPACK work batch*m*n*min(m, n) of one numpy.linalg call,
    or None when the call does not reach LAPACK (vector or Frobenius norms)."""
    a = np.asarray(args[0]) if args else np.asarray(kwargs.get("a", kwargs.get("x")))
    if name == "norm":
        ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
        axis = args[2] if len(args) > 2 else kwargs.get("axis")
        if a.ndim < 2 or axis is not None or ord_ not in (2, -2, "nuc"):
            return None
    if a.ndim < 2:
        return None
    m, n = a.shape[-2:]
    return math.prod(a.shape[:-2]) * m * n * min(m, n)


class Tracer:
    """Records spans around the wrapped calls while installed.

    Columns are kept in flat arrays so that a traced pass of a few hundred
    thousand calls stays small in memory.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.extra: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        cols = (self.name, self.start, self.end, self.parent, self.op)
        name_col, start_col, end_col, parent_col, op_col = cols

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            op_col.append(self.current_op)
            end_col.append(0)
            stack.append(idx)
            start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        extra = self.extra

        def span_rank(args, kwargs, result):
            fs = args[0] if args else kwargs["fs"]
            extra["numeric_span_rank.rows"] += len(fs)
            extra["numeric_span_rank.rank"] += int(result)

        def load_element(args, kwargs, result):
            extra["documents.bytes_in"] += len(result[2])

        def dumps(args, kwargs, result):
            extra["documents.bytes_out"] += len(result.encode())

        return {
            "algebra.numeric_span_rank": span_rank,
            "documents.load_element": load_element,
            "documents.dumps": dumps,
        }

    def _numpy_hook(self, fname: str):
        extra = self.extra

        def hook(args, kwargs, result):
            work = lapack_work(fname, args, kwargs)
            if work is not None:
                extra["lapack_calls"] += 1
                extra[f"lapack_calls.{fname}"] += 1
                extra["lapack_work"] += work

        return hook

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it in each opgeo namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, _ in LAYERS.values():
            importlib.import_module(modname)
        importlib.import_module("opgeo.generators")
        namespaces = [m for n, m in sys.modules.items() if n == "opgeo" or n.startswith("opgeo.")]
        hooks = self._hooks()
        targets = [(layer, modname, names) for layer, (modname, names) in LAYERS.items()]
        targets.append(("generators", "opgeo.generators", generator_functions()))
        for layer, modname, names in targets:
            mod = sys.modules[modname]
            for fname in names:
                original = getattr(mod, fname)
                span = f"{layer}.{fname}"
                wrapped = self._wrap(span, original, hooks.get(span))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)
                            self._patches.append((ns, attr, original))
        element = sys.modules["opgeo.algebra"].Element
        original_init = element.__init__
        element.__init__ = self._wrap(ELEMENT_SPAN, original_init)
        self._patches.append((element, "__init__", original_init))
        for fname in NUMPY_FUNCTIONS:
            original = getattr(np.linalg, fname)
            setattr(np.linalg, fname, self._wrap(f"numpy.{fname}", original, self._numpy_hook(fname)))
            self._patches.append((np.linalg, fname, original))

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self time in ns)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_ns[k]) for k, name in enumerate(self.names)}

    def op_ids(self, name: str) -> list[int]:
        """The op id of every `name` span."""
        nid = self._name_ids.get(name)
        return [self.op[i] for i in range(len(self.start)) if self.name[i] == nid]

    def calls_under(self, inner: str, outer: str) -> int:
        """Number of `inner` spans that have an `outer` span as an ancestor."""
        if inner not in self._name_ids or outer not in self._name_ids:
            return 0
        inner_id, outer_id = self._name_ids[inner], self._name_ids[outer]
        n = len(self.start)
        inside = [False] * n
        count = 0
        for i in range(n):
            p = self.parent[i]
            inside[i] = self.name[i] == outer_id or (p >= 0 and inside[p])
            if self.name[i] == inner_id and p >= 0 and inside[p]:
                count += 1
        return count

    def write_spans(self, path) -> None:
        """Write the spans as gzipped JSON lines; `parent` is a line index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[self.name[i]],
                            "start_ns": self.start[i],
                            "end_ns": self.end[i],
                            "parent": self.parent[i],
                            "op": self.op[i],
                        }
                    )
                    + "\n"
                )
