"""The benchmark workloads: set-up, timed operation and output checks.

Every workload generates the 333-node fixture graph as edge-list text and
hands the library only that text and pipeline seeds. The workload seed
changes the inputs but hardly the amount of work, so runs with different
seeds can be compared:

- ``cell``, ``complete`` and ``sweep`` load the seed-3 fixture, the graph
  the test suite and the ROADMAP measure on, and take the workload seed as
  their pipeline seed (balancing, split, forest, random ordering). Forest
  size, and so training and scoring time, swings by a fifth from one
  generated graph, or one relabelling, to the next, which no bound absorbs.
- ``build`` runs no forest; its work depends on the structure alone, so it
  loads the seed-3 fixture under a label permutation drawn from the seed.

Sizes:

- ``cell``: ``run_experiment`` at a=5 b=3, degree ordering, 100 trees,
  balance 1.0, test 0.25, so 5,038 rows of 262 columns; training is about
  95% of the operation.
- ``complete``: set-up trains an a=3 b=1 degree model and saves it to JSON
  bytes; the operation loads it and runs three iterative completion steps
  at epsilon 0.9, each featurizing and scoring about 52.8k non-edges.
- ``build``: the full unbalanced a=5 b=5 betweenness dataset, 55,278 rows
  of 262 columns, with the centrality table computed inside the operation.
- ``sweep``: the a=1 b=0 grid over four strategies and one seed on two
  threads, then CSV and SVG export to memory.

In ``cell`` and ``sweep`` each operation of a run takes its own pipeline
seed (``Workload.op_seeds``), so a run's median spans several samplings;
``complete`` and ``build`` repeat one input.

Library calls go through ``lp.<name>`` so a tracer that replaces the
package attributes sees them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import ab_linkpred as lp
from ab_linkpred.featurize import config_to_dict

from fixture import FIXTURE_SEED, fixture_text

EPSILON = 0.9
COMPLETE_STEPS = 3
SWEEP_STRATEGIES = ("degree", "betweenness", "closeness", "random")
SWEEP_THREADS = 2
REFERENCE_ROWS = 16  # rows per operation checked against reference_block


@dataclass
class Outcome:
    """What one operation decided, and whether its outputs were right."""

    pairs: int  # candidate pairs decided, counted from inputs and outputs
    f1: float
    digest: str  # repeats exactly for the same input, across operations and runs
    failures: list[str]


@dataclass(frozen=True)
class Workload:
    setup_reps: int  # set-ups per run; setup_s is their median
    vary_seed: bool  # each operation of a run gets its own pipeline seed
    setup: Callable[[int], dict]
    op: Callable[[dict, int], object]
    outcome: Callable[[dict, int, object], Outcome]

    def op_seeds(self, seed: int):
        """Pipeline seeds of a run's operations 0, 1, ...; with vary_seed,
        distinct across operations and across workload seeds."""
        i = 0
        while True:
            yield seed * 1000 + i if self.vary_seed else seed
            i += 1


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fixture_graph(relabel_seed: int | None = None):
    return lp.load_edge_list(io.StringIO(fixture_text(FIXTURE_SEED, relabel_seed)))


def _pair_count(g) -> int:
    n = g.node_count
    return n * (n - 1) // 2


def _balanced_rows(g) -> int:
    """Rows a balance ratio of 1.0 keeps: every edge and as many non-edges."""
    m = g.edge_count
    return m + min(m, _pair_count(g) - m)


def _test_rows(g, fraction: float = 0.25) -> int:
    """Test rows of the stratified split of the balanced rows."""
    m = g.edge_count
    return sum(max(1, min(round(fraction * k), k - 1)) for k in (m, min(m, _pair_count(g) - m)))


def reference_block(nbrs, score, root: int, a: int, b: int) -> list[int]:
    """The block rule written out plainly: the root's first `a` neighbors by
    descending score (ties by ascending ID), then b rounds, round i taking
    the first `a` not-yet-seen neighbors of each entry at positions
    (i-1)*a .. i*a-1; short groups and zero entries pad with zeros."""
    seen = {root}
    block: list[int] = []

    def group(node: int) -> None:
        got = []
        if node:
            for w in sorted(nbrs(node), key=lambda w: (-score[w], w)):
                if len(got) == a:
                    break
                if w not in seen:
                    got.append(w)
                    seen.add(w)
        block.extend(got + [0] * (a - len(got)))

    group(root)
    for i in range(b):
        for node in block[i * a:(i + 1) * a]:
            group(node)
    return block


def _reference_failures(g, data, rows, rng: random.Random) -> list[str]:
    """Sampled rows of a Dataset against reference_block; the label is edge presence."""
    config = data.config
    score = lp.table_for(g, config.strategy).values
    for i in sorted(rng.sample(range(len(data.pairs)), min(rows, len(data.pairs)))):
        u, v = data.pairs[i]
        want = [*reference_block(g.neighbors, score, u, config.a, config.b),
                *reference_block(g.neighbors, score, v, config.a, config.b), u, v]
        if data.X[i].tolist() != want or int(data.y[i]) != int(g.has_edge(u, v)):
            return [f"row {i} for pair {(u, v)} differs from the reference block rule"]
    return []



# ---------------------------------------------------------------------------
# cell: one balanced sweep cell, dominated by model.train


def _cell_setup(seed: int) -> dict:
    return {"g": _fixture_graph()}


def _cell_op(state: dict, seed: int):
    return lp.run_experiment(state["g"], lp.FeatureConfig(a=5, b=3, strategy=lp.Strategy("degree"), seed=seed))


def _cell_outcome(state: dict, seed: int, report) -> Outcome:
    c = report.counts
    want = _test_rows(state["g"])
    failures = [] if c.total == want else [f"confusion counts sum to {c.total}, want {want} test rows"]
    return Outcome(_balanced_rows(state["g"]), report.f1, repr((c.tp, c.fp, c.fn, c.tn)), failures)


# ---------------------------------------------------------------------------
# complete: load a saved model and complete the graph; featurize and predict


def _complete_setup(seed: int) -> dict:
    g = _fixture_graph()
    config = lp.FeatureConfig(a=3, b=1, strategy=lp.Strategy("degree"), seed=seed)
    parts = lp.split(lp.balanced_dataset(g, config, 1.0), 0.25, seed)
    clf = lp.train(parts.Xtrain, parts.ytrain, seed=seed)
    clf.featurize_config = config_to_dict(config)
    return {"g": g, "config": config, "parts": parts, "model_bytes": lp.save_model(clf)}


def _complete_op(state: dict, seed: int):
    model = lp.load_model(state["model_bytes"])
    cfg = lp.CompletionConfig(epsilon=EPSILON, mode="iterative", max_steps=COMPLETE_STEPS)
    return lp.complete_iterative(state["g"], model, cfg)


def _complete_outcome(state: dict, seed: int, trace) -> Outcome:
    """Replays the batches: each edge must be a non-edge of the state it was
    added to and must rescore, against that state, to its recorded score
    of at least epsilon. F1 is the model's on its held-out split."""
    model = lp.load_model(state["model_bytes"])
    work = state["g"].copy()
    total = _pair_count(work)
    failures: list[str] = []
    pairs = 0
    for step, batch in enumerate(trace.batches):
        pairs += total - work.edge_count
        if not batch:
            failures.append(f"step {step} recorded an empty batch")
            continue
        edges = [(u, v) for u, v, _ in batch]
        if len(set(edges)) != len(edges) or any(work.has_edge(u, v) for u, v in edges):
            failures.append(f"step {step} adds a pair that is already an edge")
        rows = lp.build_dataset(work, state["config"], pairs=edges)
        failures += _reference_failures(work, rows, REFERENCE_ROWS, random.Random(step))
        rescored = lp.predict_scores(model, rows.X)
        recorded = np.array([s for _, _, s in batch])
        if not (rescored >= EPSILON).all() or not np.array_equal(rescored, recorded):
            failures.append(f"step {step} holds edges that do not rescore to their recorded score >= {EPSILON}")
        for u, v in edges:
            work.add_edge(u, v)
    if len(trace.batches) < COMPLETE_STEPS:
        pairs += total - work.edge_count  # the last step, which found nothing to add
    if work.edge_count != trace.final_graph.edge_count:
        failures.append("final graph does not hold exactly the input edges plus the batches")
    parts = state["parts"]
    y_pred = (lp.predict_scores(model, parts.Xtest) >= 0.5).astype(np.int8)
    f1 = lp.metrics(lp.confusion(parts.ytest, y_pred)).f1
    return Outcome(pairs, f1, _digest(repr(trace.batches)), failures)


# ---------------------------------------------------------------------------
# build: the full unbalanced dataset; centrality and featurize only


def _build_setup(seed: int) -> dict:
    return {"g": _fixture_graph(relabel_seed=seed)}


def _build_op(state: dict, seed: int):
    return lp.build_dataset(state["g"], lp.FeatureConfig(a=5, b=5, strategy=lp.Strategy("betweenness"), seed=seed))


def _build_outcome(state: dict, seed: int, data) -> Outcome:
    """Shape, label count and sampled rows against the plain reference. F1
    is that of reading the label off the level-0 groups alone (a pair is
    called an edge when either endpoint is among the other's first `a`
    entries), which any change to the block rule moves."""
    g, config = state["g"], data.config
    rows = _pair_count(g)
    failures: list[str] = []
    if data.X.shape != (rows, config.row_length):
        failures.append(f"X has shape {data.X.shape}, want {(rows, config.row_length)}")
    if int(data.y.sum()) != g.edge_count:
        failures.append(f"y sums to {int(data.y.sum())}, want {g.edge_count} edges")
    failures += _reference_failures(g, data, REFERENCE_ROWS, random.Random(seed))
    a, k, X = config.a, config.block_length, data.X
    visible = (X[:, :a] == X[:, -1:]).any(axis=1) | (X[:, k:k + a] == X[:, -2:-1]).any(axis=1)
    f1 = lp.metrics(lp.confusion(data.y, visible.astype(np.int8))).f1
    digest = hashlib.sha256(X)  # hashes the buffer in place: a copy would raise peak RSS
    digest.update(data.y)
    return Outcome(rows, f1, digest.hexdigest(), failures)


# ---------------------------------------------------------------------------
# sweep: four narrow cells on two threads, then CSV and SVG export


def _sweep_setup(seed: int) -> dict:
    return {"g": _fixture_graph()}


def _sweep_op(state: dict, seed: int):
    result = lp.sweep(state["g"], 1, 0, SWEEP_STRATEGIES, [seed], threads=SWEEP_THREADS)
    sink = io.StringIO()
    lp.export_csv(result, sink)
    return result, sink.getvalue(), lp.render_heatmap(result)


def _sweep_outcome(state: dict, seed: int, out) -> Outcome:
    result, csv_text, svg = out
    failures: list[str] = []
    failed = [f"{c.strategy}: {c.error}" for c in result.cells if c.error is not None]
    if failed:
        failures.append(f"failed cells: {failed}")
    if len(result.cells) != len(SWEEP_STRATEGIES):
        failures.append(f"{len(result.cells)} cells, want {len(SWEEP_STRATEGIES)}")
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        failures.append("heatmap is not an SVG document")
    stable = "\n".join(",".join(row[:-1]) for row in csv.reader(io.StringIO(csv_text)))  # all but wall_ms
    # The grid's answer is its best cell. The mean over cells is no steady
    # figure: at a=1 b=0 the ranked strategies all see the hub as every
    # node's first neighbor, so their F1 swings with the sampling seed.
    f1 = max((c.report.f1 for c in result.cells if c.report is not None), default=0.0)
    return Outcome(len(result.cells) * _balanced_rows(state["g"]), f1, _digest(stable), failures)


# `complete` trains a forest in its set-up; the others only generate and
# load the graph, which takes milliseconds.
WORKLOADS = {
    "cell": Workload(9, True, _cell_setup, _cell_op, _cell_outcome),
    "complete": Workload(2, False, _complete_setup, _complete_op, _complete_outcome),
    "build": Workload(9, False, _build_setup, _build_op, _build_outcome),
    "sweep": Workload(9, True, _sweep_setup, _sweep_op, _sweep_outcome),
}
