"""Spans around the calls into each upbkit module's public functions.

A wrapper replaces every module attribute that is bound to a traced function,
so callers' ordinary global lookups (``upbkit.cli.certify_gap``,
``upbkit.filtering.state_of``, ``upbkit.product_search.complement_basis``,
...) go through it and the spans nest as the calls do, without editing the
program.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "serialize", "filtering", "product_search", "upb", "linalg", "graphs", "qutrit")

# (module that defines the function, function name)
TRACED = (
    ("cli", "main"),
    ("serialize", "dumps_report"),
    ("serialize", "upb_from_document"),
    ("filtering", "certify_gap"),
    ("filtering", "apply_filter"),
    ("filtering", "span_overlap"),
    ("filtering", "boundary_limit"),
    ("product_search", "find_product_vectors"),
    ("product_search", "is_extendible"),
    ("upb", "canonicalize"),
    ("upb", "equivalent"),
    ("upb", "build_canonical"),
    ("upb", "validate"),
    ("upb", "state_of"),
    ("linalg", "complement_basis"),
    ("linalg", "kron_all"),
    ("graphs", "enumerate_colorings"),
    ("graphs", "realize_coloring"),
    ("qutrit", "bundled_upb"),
)

# cli.main is split by the op kind that calls it, find_product_vectors by the
# kind of subspace it searches
CLI_KINDS = ("certify", "audit", "qutrit", "classify")
SEARCH_CASES = ("span3", "cut", "complement", "extend", "qutrit")
OP_KINDS = ("certify", "audit", "extend", "qutrit", "classify")


def layer_names() -> list[str]:
    """Every traced layer name, cases included."""
    names = []
    for module, fn in TRACED:
        base = f"{module}.{fn}"
        if base == "cli.main":
            names += [f"{base}.{k}" for k in CLI_KINDS]
        elif base == "product_search.find_product_vectors":
            names += [f"{base}.{c}" for c in SEARCH_CASES]
        else:
            names.append(base)
    return names


class Tracer:
    """Records spans as ``[name, start, end, parent index, op id, count]``.

    ``count`` is the number of hits a product-vector search returned, or the
    length of a serialized report; it is None for other spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _search_case(self, args, kwargs) -> str:
        callers = {self.spans[i][0] for i in self._stack}
        if "upb.validate" in callers:
            return "complement"
        if "product_search.is_extendible" in callers:
            return "extend"
        subspace = args[0] if args else kwargs["subspace"]
        if subspace.dims == (3, 3):
            return "qutrit"
        partition = args[1] if len(args) > 1 else kwargs.get("partition")
        return "cut" if partition is not None and len(partition) == 2 else "span3"

    def _wrap(self, base: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base
            if base == "cli.main":
                name = f"{base}.{self._op[1]}"
            elif base == "product_search.find_product_vectors":
                name = f"{base}.{self._search_case(args, kwargs)}"
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if base in ("product_search.find_product_vectors", "serialize.dumps_report"):
                span[5] = len(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every module attribute bound to a traced function through a
        wrapper, and restore the originals on exit."""
        modules = [importlib.import_module(f"upbkit.{m}") for m in MODULES]
        modules.append(importlib.import_module("upbkit"))
        patched = []
        try:
            for owner, fn_name in TRACED:
                original = getattr(importlib.import_module(f"upbkit.{owner}"), fn_name)
                wrapper = self._wrap(f"{owner}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    @contextmanager
    def op(self, op_id: int, kind: str):
        """The span of one op; layer spans opened inside it are its children."""
        self._op = (op_id, kind)
        span = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op[0] if op else None, "count": count,
                }) + "\n")

    def rollup(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics: ``calls`` per round, median ``s`` and ``self_s``
        per call, median hits or report bytes, and ``trace.covered`` per op
        kind.  A layer with no calls reports zeros."""
        covered_by_child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered_by_child[parent] += end - start
        durations: dict[str, list[float]] = {}
        selfs: dict[str, list[float]] = {}
        counts: dict[str, list[int]] = {}
        op_time = {k: 0.0 for k in OP_KINDS}
        op_covered = {k: 0.0 for k in OP_KINDS}
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            if name.startswith("op."):
                kind = name[3:]
                op_time[kind] += end - start
                op_covered[kind] += covered_by_child[i]
                continue
            durations.setdefault(name, []).append(end - start)
            selfs.setdefault(name, []).append(end - start - covered_by_child[i])
            if count is not None:
                counts.setdefault(name, []).append(count)
        out: dict[str, float] = {}
        for name in layer_names():
            d = durations.get(name, [])
            out[f"{name}.calls"] = len(d) / rounds
            out[f"{name}.s"] = statistics.median(d) if d else 0.0
            out[f"{name}.self_s"] = statistics.median(selfs[name]) if d else 0.0
        for case in SEARCH_CASES:
            c = counts.get(f"product_search.find_product_vectors.{case}", [])
            out[f"product_search.find_product_vectors.{case}.hits"] = statistics.median(c) if c else 0.0
        c = counts.get("serialize.dumps_report", [])
        out["serialize.report_bytes"] = statistics.median(c) if c else 0.0
        for kind in OP_KINDS:
            out[f"trace.covered.{kind}"] = op_covered[kind] / op_time[kind] if op_time[kind] else 0.0
        return out
