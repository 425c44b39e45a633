"""In-memory spans around the library's public layer functions.

The tracer replaces each traced function at every module attribute that
holds it (``ab_linkpred.evaluate.train``, ``ab_linkpred.featurize.build_dataset``,
the package namespace, ...), so calls the library makes between its own
modules are recorded without touching the library's source. Spans are kept
in memory while a phase is open and written out as JSON lines at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "ab_linkpred"

# Public functions per layer (module of ab_linkpred). The cli module is a thin
# argparse wrapper over the same calls and is not traced separately.
LAYER_FUNCTIONS = {
    "graph": ("load_edge_list",),
    "centrality": ("table_for", "neighbor_orders"),
    "featurize": ("build_dataset", "balanced_dataset", "split"),
    "model": ("train", "predict_scores", "save_model", "load_model"),
    "evaluate": ("run_experiment", "sweep", "export_csv", "render_heatmap"),
    "predict": ("complete_iterative",),
}


def _tree_nodes(clf) -> int:
    return sum(len(tree["feature"]) for tree in clf.payload.get("trees", ()))


# Counts read from each call's inputs and result, recorded on its span.
COUNTERS = {
    "featurize.build_dataset": lambda args, out: {"rows": len(out.y)},
    "model.train": lambda args, out: {"rows": len(args[0]), "tree_nodes": _tree_nodes(out)},
    "model.predict_scores": lambda args, out: {"rows": len(args[1])},
    "model.save_model": lambda args, out: {"bytes": len(out)},
    "evaluate.sweep": lambda args, out: {
        "cells": len(out.cells),
        "failed_cells": sum(cell.error is not None for cell in out.cells),
        "wall_ms_sum_s": sum(cell.wall_ms for cell in out.cells) / 1000.0,
    },
    "predict.complete_iterative": lambda args, out: {
        "steps": len(out.batches),
        "added_edges": len(out.added_edges),
    },
}


class Tracer:
    """Records spans (name, start, end, parent, thread, phase) while a phase is open.

    A span's parent is the innermost open span of its own thread. A span
    opened on a worker thread with nothing open there takes the innermost
    open span of the thread that opened the phase, so a sweep's cells nest
    under the sweep that scheduled them.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._phase: str | None = None
        self._phase_thread: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, names in LAYER_FUNCTIONS.items():
            source = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname in names:
                original = getattr(source, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._phase is None:
                return fn(*args, **kwargs)
            span_id = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span_id)
            if counter is not None:
                tracer.spans[span_id]["counts"] = counter(args, out)
            return out

        return traced

    # -- spans -------------------------------------------------------------

    @contextmanager
    def phase(self, label: str):
        """Record the spans of calls made inside the block under this label."""
        self._phase = label
        self._phase_thread = threading.get_ident()
        try:
            yield
        finally:
            self._phase = None
            self._phase_thread = None

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        else:
            origin = self._stacks.get(self._phase_thread) or [None]
            parent = origin[-1]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                {"id": span_id, "name": name, "start": time.perf_counter(), "end": None,
                 "parent": parent, "thread": tid, "phase": self._phase, "counts": {}}
            )
        stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def phase_totals(spans: list[dict], phase: str) -> dict[str, float]:
    """Per function: summed seconds ``<name>.s``, self seconds ``<name>.self_s``,
    call count ``<name>.calls`` and summed counters ``<name>.<counter>``
    over the spans of one phase. Self time is a span's duration minus the
    part of it that its child spans cover."""
    mine = [s for s in spans if s["phase"] == phase]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in mine:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    by_id = {s["id"]: s for s in mine}
    for s in mine:
        name = s["name"]
        duration = s["end"] - s["start"]
        clipped = [(max(lo, s["start"]), min(hi, s["end"])) for lo, hi in children[s["id"]]]
        out[name + ".s"] += duration
        out[name + ".self_s"] += duration - _covered([c for c in clipped if c[1] > c[0]])
        out[name + ".calls"] += 1
        for key, value in s["counts"].items():
            out[f"{name}.{key}"] += value
        if name == "model.predict_scores" and _has_ancestor(s, by_id, "predict.complete_iterative"):
            out["predict.rescored_rows"] += s["counts"]["rows"]
    return dict(out)


def _has_ancestor(span: dict, by_id: dict[int, dict], name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        up = by_id[parent]
        if up["name"] == name:
            return True
        parent = up["parent"]
    return False
