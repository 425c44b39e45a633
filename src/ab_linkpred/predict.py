"""Graph completion: add every non-edge whose score clears a threshold.

Non-iterative mode scores all non-edges of the input graph once and adds
the qualifying ones in a single batch. Iterative mode repeats against each
intermediate state, so features (including centrality orderings) reflect
previously added edges, until a step adds nothing or the step limit is hit.
The model is never retrained during completion.

A step scores its non-edges at the floor epsilon: a forest stops voting on
a pair as soon as its score can no longer reach epsilon, so a step walks
far fewer trees than full scoring, while every added edge and its recorded
score are exactly those of full scoring (see model.predict_scores). The
model's walk arrays are built once per run (model._forest_walks). A step
never holds a row for every non-edge: it cuts them into row chunks over one
block table of every root, and each chunk is gathered, scored by
model._scores (which picks the rows' walk dtype from the rows) and reduced
to its pairs at or above epsilon. Large steps score their chunks on forked
workers (model._fork_map), small ones here; either way the batch is the
same (see _step). The trace records each pass's scored non-edges, added
edges and seconds as its steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._seeds import as_int, as_unit
from .featurize import (FeatureConfig, _block_table, _edge_index, _finish_rows, _gathered_rows, _outside,
                        _pair_index, _pair_nodes, config_from_dict)
from .graph import Graph
from .model import Classifier, _fork_map, _fork_workers, _forest_walks, _scores

MODES = ("iterative", "noniterative")


@dataclass(frozen=True)
class CompletionConfig:
    """Threshold and mode of a completion run.

    epsilon is a number in [0, 1] (see as_unit; a numpy float is kept as
    a float). max_steps, an integer (a numpy integer is kept as an int),
    caps the iterative mode and is an error in any other; None means run to
    the fixed point (termination is still guaranteed, the non-edge pool is
    finite and every non-final step consumes from it). Each step considers
    every non-edge of the current state.
    """

    epsilon: float
    mode: str
    max_steps: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_unit(self.epsilon, "epsilon"))
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps", as_int(self.max_steps, "max_steps", 0))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_steps is not None and self.mode != "iterative":
            raise ValueError(f"max_steps applies to iterative mode only, got {self.max_steps} in mode {self.mode!r}")


@dataclass
class CompletionTrace:
    """Per-step batches of added edges as (u, v, score), plus the final graph.

    States grow monotonically: every batch edge was absent from all earlier
    states and scored at least epsilon against the state it was added to.
    steps has one {"non_edges": scored, "added": n, "seconds": s} per
    scoring pass, with the pass's featurize and scoring time in seconds,
    including an iterative run's last pass, which adds nothing and has no
    batch.
    """

    batches: list[list[tuple[int, int, float]]]
    final_graph: Graph
    steps: list[dict] = field(default_factory=list)

    @property
    def added_edges(self) -> list[tuple[int, int, float]]:
        return [edge for batch in self.batches for edge in batch]


def _feature_config(model: Classifier, feat: FeatureConfig | None) -> FeatureConfig:
    if feat is None:
        if model.featurize_config is None:
            raise ValueError("model carries no featurize settings; pass a FeatureConfig or retrain with this package")
        feat = config_from_dict(model.featurize_config)
    if feat.row_length != model.feature_length:
        raise ValueError(
            f"feature length mismatch: config produces rows of {feat.row_length}, "
            f"model expects {model.feature_length}"
        )
    return feat


# A step's non-edges are scored in chunks of at most this many rows, so
# that no matrix holds every non-edge: 3.7 MB of int32 rows at a=2 b=1.
_CHUNK_ROWS = 2**16
# A step's chunks are scored on forked workers from this many non-edges x
# trees on (see _step). Measured as one _step on 2 forked workers against
# this process, a 100-tree a=3 b=1 forest at epsilon 0.9 on community
# graphs (medians of 15 alternating calls, 2 shared CPUs): 1.29x the time at
# 0.33M, 1.03x at 0.74M, 0.98x at 0.87M, 0.92x at 1.0M, 0.90x at 1.65M and
# 0.72x at 5.28M, the 52.8k non-edges of the 333-node fixture.
_FORK_MIN_ROW_TREES = 1_000_000


def _step(g: Graph, model: Classifier, walks: list[dict], feat: FeatureConfig,
          epsilon: float) -> tuple[list[tuple[int, int, float]], int]:
    """Every non-edge of g scoring at least epsilon, as (u, v, score) in
    candidate-pair order, and the number of non-edges scored.

    The non-edges are ranks 0 .. rows - 1 among the pair indices outside the
    edge index; they are cut into contiguous, near-equal chunks of at most
    _CHUNK_ROWS rows, at least one per worker. Each chunk turns its ranks
    into pairs, gathers its rows from one block table of every root, scores
    them at the epsilon floor with the model's walks (model._scores) and
    keeps only the rows at or above it. A score depends on its row alone,
    so the chunks, joined in rank order, give the same batch however they
    are cut and wherever they run: on _fork_map's workers when rows x trees
    reaches _FORK_MIN_ROW_TREES and model._fork_workers allows it, else
    here.
    """
    n = g.node_count
    edges = _edge_index(g)
    rows = _pair_index(n + 1, 1) - len(edges)
    orders, blocks = _block_table(g, feat, range(1, n + 1), None)
    workers = _fork_workers(rows * len(walks), _FORK_MIN_ROW_TREES, rows)
    chunks = max(workers, -(-rows // _CHUNK_ROWS))

    def scored(i: int):
        u, v = _pair_nodes(_outside(edges, np.arange(rows * i // chunks, rows * (i + 1) // chunks)))
        X = _gathered_rows(blocks, feat, u, v)
        _finish_rows(X, orders, blocks, feat, u, v, np.zeros(len(u), bool))
        scores = _scores(model, walks, X, epsilon)
        keep = scores >= epsilon
        return u[keep], v[keep], scores[keep]

    u, v, scores = (np.concatenate(parts) for parts in zip(*_fork_map(scored, chunks, workers)))
    return list(zip(u.tolist(), v.tolist(), scores.tolist())), rows


def complete(
    g: Graph,
    model: Classifier,
    cfg: CompletionConfig,
    feat: FeatureConfig | None = None,
) -> CompletionTrace:
    """Add every non-edge scoring >= epsilon, one batch per step.

    Noniterative mode is a single step against g, recorded even when it adds
    nothing. Iterative mode rescores each intermediate state and stops at
    the first step that adds nothing (no batch, only a steps entry) or after
    max_steps steps, so every batch is nonempty.
    """
    feat = _feature_config(model, feat)
    walks = _forest_walks(model)
    work = g.copy()
    batches: list[list[tuple[int, int, float]]] = []
    steps: list[dict] = []
    limit = 1 if cfg.mode == "noniterative" else cfg.max_steps
    while limit is None or len(batches) < limit:
        start = time.perf_counter()
        batch, scored = _step(work, model, walks, feat, cfg.epsilon)
        steps.append({"non_edges": scored, "added": len(batch), "seconds": time.perf_counter() - start})
        if not batch and cfg.mode == "iterative":
            break
        for u, v, _ in batch:
            work.add_edge(u, v)
        batches.append(batch)
    return CompletionTrace(batches=batches, final_graph=work, steps=steps)


def complete_noniterative(
    g: Graph,
    model: Classifier,
    cfg: CompletionConfig,
    feat: FeatureConfig | None = None,
) -> CompletionTrace:
    """complete() for a config whose mode must be 'noniterative'."""
    if cfg.mode != "noniterative":
        raise ValueError(f"complete_noniterative needs mode 'noniterative', got {cfg.mode!r}")
    return complete(g, model, cfg, feat)


def complete_iterative(
    g: Graph,
    model: Classifier,
    cfg: CompletionConfig,
    feat: FeatureConfig | None = None,
) -> CompletionTrace:
    """complete() for a config whose mode must be 'iterative'."""
    if cfg.mode != "iterative":
        raise ValueError(f"complete_iterative needs mode 'iterative', got {cfg.mode!r}")
    return complete(g, model, cfg, feat)
