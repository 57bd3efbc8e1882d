"""Spans around the package's layer functions, installed from outside it.

``Tracer.install()`` replaces each traced function at every binding site:
the defining module and every ``macomplex`` module (the package included)
that imported the same object under its own name, such as
``cells.rank_sparse`` or ``cli.classify``.  ``uninstall()`` puts the
originals back.  No file of the package changes.

A span is (id, parent, request, name, start, end, counts).  Each thread
keeps its own parent stack; a span opened on a worker thread of the CLI's
batch fan-out, whose stack is empty, takes the request's root span as its
parent.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
import time

# (defining module, attribute, span name, counter hook or None)
# A hook maps (args, result) to the counts recorded on the span.
TARGETS = (
    ("complexes", "SimplicialComplex.from_json_dict", "complexes.from_json_dict", None),
    ("complexes", "SimplicialComplex.face_masks", "complexes.face_masks",
     lambda args, out: {"faces": len(out)}),
    ("nonfaces", "minimal_nonfaces", "nonfaces.minimal_nonfaces",
     lambda args, out: {"facets_in": len(args[0].facets), "members_out": len(out.members)}),
    ("classify", "classify", "classify.classify",
     lambda args, out: {"hyperbolic": int(out.kind == "hyperbolic")}),
    ("classify", "find_witness", "classify.find_witness", None),
    ("cohomology", "hochster_table", "cohomology.hochster_table",
     lambda args, out: {"subsets": 1 << args[0].n}),
    ("cohomology", "hochster_betti", "cohomology.hochster_betti", None),
    ("cohomology", "is_trivial_ring", "cohomology.is_trivial_ring", None),
    ("cohomology", "star_product_scan", "cohomology.star_product_scan",
     lambda args, out: {"star_products": out[1]}),
    ("linalg", "rank_sparse", "linalg.rank_sparse",
     lambda args, out: {"nnz_in": sum(len(r) for r in args[0]),
                        "rows": len(args[0]), "rank": out}),
    ("linalg", "rref", "linalg.fraction", None),
    ("linalg", "kernel_basis", "linalg.fraction", None),
    ("linalg", "solve_columns", "linalg.fraction", None),
    ("linalg", "RowSpan.add", "linalg.fraction", None),
    ("cells", "build", "cells.build",
     lambda args, out: {"cells": out.cell_count,
                        "boundary_nnz": sum(len(r) for dim in out.boundaries for r in dim)}),
    ("cells", "MomentAngleCellComplex.betti_numbers", "cells.betti_numbers", None),
    ("loops", "wedge_model", "loops.wedge_model", None),
    ("loops", "free_lie_ranks", "loops.free_lie_ranks", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        packages = [m for name, m in sys.modules.items()
                    if name == "macomplex" or name.startswith("macomplex.")]
        for module_name, attr, span_name, hook in TARGETS:
            owner = sys.modules[f"macomplex.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                self._set(cls, meth, self._wrap_method(raw, span_name, hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span_name, hook, is_main=attr == "main"
                                 and module_name == "cli")
            for module in packages:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapped)
        cli = sys.modules["macomplex.cli"]
        for command, handler in list(cli.HANDLERS.items()):
            self._set_item(cli.HANDLERS, command, self._wrap(handler, "cli.handler", None))

    def binding_sites(self) -> set[str]:
        """'module.name' for every patched module-level binding."""
        return {f"{getattr(o, '__name__', '?')}.{n}" for o, n, _ in self._patches
                if not isinstance(o, dict)}

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def _set_item(self, mapping, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, args, kwargs, span_name, hook, is_main=False):
        if span_name == "linalg.rank_sparse" and not isinstance(args[0], list):
            args = (list(args[0]),) + tuple(args[1:])
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else (None if is_main else self.root)
        if is_main:
            self.root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = hook(args, out) if hook else None
        self.spans.append((span_id, parent, self.request, span_name, start, end, counts))
        return out

    def _wrap(self, fn, span_name, hook, is_main=False):
        def traced(*args, **kwargs):
            return self._call(fn, args, kwargs, span_name, hook, is_main)
        traced.__wrapped__ = fn
        return traced

    def _wrap_method(self, raw, span_name, hook):
        if isinstance(raw, classmethod):
            func = raw.__func__

            def traced_cls(cls, *args, **kwargs):
                return self._call(func, (cls,) + args, kwargs, span_name, None)
            return classmethod(traced_cls)

        def traced(obj, *args, **kwargs):
            return self._call(raw, (obj,) + args, kwargs, span_name,
                              hook and (lambda a, out: hook(a[1:], out)))
        return traced

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


LAYER_METRICS = (
    ("complexes.parse_s", "s"), ("complexes.face_masks_s", "s"), ("complexes.faces", "count"),
    ("nonfaces.minimal_nonfaces_s", "s"), ("nonfaces.calls", "count"),
    ("nonfaces.facets_in", "count"), ("nonfaces.members_out", "count"),
    ("classify.self_s", "s"), ("classify.find_witness_s", "s"), ("classify.hyperbolic", "count"),
    ("cohomology.hochster_table_self_s", "s"), ("cohomology.hochster_tables", "count"),
    ("cohomology.subsets", "count"), ("cohomology.star_product_scan_self_s", "s"),
    ("cohomology.star_products", "count"), ("cohomology.is_trivial_ring_s", "s"),
    ("linalg.rank_sparse_s", "s"), ("linalg.rank_sparse_calls", "count"),
    ("linalg.rank_sparse_nnz_in", "count"), ("linalg.rank_sparse_max_rows", "count"),
    ("linalg.rank_out", "count"), ("linalg.fraction_s", "s"), ("linalg.fraction_calls", "count"),
    ("cells.build_s", "s"), ("cells.cells", "count"), ("cells.boundary_nnz", "count"),
    ("cells.betti_self_s", "s"),
    ("loops.wedge_model_self_s", "s"), ("loops.tables_per_wedge", "ratio"),
    ("loops.free_lie_ranks_s", "s"),
    ("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.json_out_bytes", "bytes"),
)

# metrics that must repeat exactly between passes over the same requests
COUNTS = tuple(name for name, unit in LAYER_METRICS if unit != "s")


def layer_metrics(spans, json_out_bytes: int) -> dict[str, float]:
    """Per-layer totals over one traced pass.

    ``*_self_s`` is a span's duration minus the part covered by its child
    spans; other ``*_s`` metrics are inclusive span time.
    """
    children: dict[int, list] = {}
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        children.setdefault(span[1], []).append((span[4], span[5]))

    def dur(span):
        return span[5] - span[4]

    def self_time(span):
        return dur(span) - _covered(children.get(span[0], ()), span[4], span[5])

    def inside(span, name) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    m = {name: 0 for name, _ in LAYER_METRICS}
    wedges = tables_in_wedges = 0
    for span in spans:
        name, counts = span[3], span[6] or {}
        if name == "complexes.from_json_dict":
            m["complexes.parse_s"] += dur(span)
        elif name == "complexes.face_masks":
            m["complexes.face_masks_s"] += dur(span)
            m["complexes.faces"] += counts["faces"]
        elif name == "nonfaces.minimal_nonfaces":
            m["nonfaces.minimal_nonfaces_s"] += dur(span)
            m["nonfaces.calls"] += 1
            m["nonfaces.facets_in"] += counts["facets_in"]
            m["nonfaces.members_out"] += counts["members_out"]
        elif name == "classify.classify":
            m["classify.self_s"] += self_time(span)
            m["classify.hyperbolic"] += counts["hyperbolic"]
        elif name == "classify.find_witness":
            m["classify.find_witness_s"] += dur(span)
        elif name == "cohomology.hochster_table":
            m["cohomology.hochster_table_self_s"] += self_time(span)
            m["cohomology.hochster_tables"] += 1
            m["cohomology.subsets"] += counts["subsets"]
            tables_in_wedges += inside(span, "loops.wedge_model")
        elif name == "cohomology.star_product_scan":
            m["cohomology.star_product_scan_self_s"] += self_time(span)
            m["cohomology.star_products"] += counts["star_products"]
        elif name == "cohomology.is_trivial_ring":
            m["cohomology.is_trivial_ring_s"] += dur(span)
        elif name == "linalg.rank_sparse":
            m["linalg.rank_sparse_s"] += dur(span)
            m["linalg.rank_sparse_calls"] += 1
            m["linalg.rank_sparse_nnz_in"] += counts["nnz_in"]
            m["linalg.rank_sparse_max_rows"] = max(m["linalg.rank_sparse_max_rows"], counts["rows"])
            m["linalg.rank_out"] += counts["rank"]
        elif name == "linalg.fraction":
            m["linalg.fraction_calls"] += 1
            if by_id.get(span[1], (None,) * 4)[3] != "linalg.fraction":
                m["linalg.fraction_s"] += dur(span)
        elif name == "cells.build":
            m["cells.build_s"] += dur(span)
            m["cells.cells"] += counts["cells"]
            m["cells.boundary_nnz"] += counts["boundary_nnz"]
        elif name == "cells.betti_numbers":
            m["cells.betti_self_s"] += self_time(span)
        elif name == "loops.wedge_model":
            m["loops.wedge_model_self_s"] += self_time(span)
            wedges += 1
        elif name == "loops.free_lie_ranks":
            m["loops.free_lie_ranks_s"] += dur(span)
        elif name == "cli.main":
            m["cli.main_s"] += dur(span)
            m["cli.self_s"] += self_time(span)
    m["loops.tables_per_wedge"] = tables_in_wedges / wedges if wedges else 0
    m["cli.json_out_bytes"] = json_out_bytes
    return m
