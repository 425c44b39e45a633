"""Graph completion: add every non-edge whose score clears a threshold.

Non-iterative mode scores all non-edges of the input graph once and adds
the qualifying ones in a single batch. Iterative mode repeats against each
intermediate state, so features (including centrality orderings) reflect
previously added edges, until a step adds nothing or the step limit is hit.
The model is never retrained during completion.

A step scores its non-edges with predict_scores(..., floor=epsilon): a
forest stops voting on a pair as soon as its score can no longer reach
epsilon, so a step walks far fewer trees than full scoring, while every
added edge and its recorded score are exactly those of full scoring. Each
tree is walked in this process over the pairs still unfinished, a few
levels between looks for pairs at a leaf, with the features as int16 when
they fit (see model._tree_leaf_values). The trace records each pass's
scored non-edges, added edges and seconds as its steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ._seeds import as_int, as_unit
from .featurize import FeatureConfig, _feature_rows, config_from_dict, labeled_candidates
from .graph import Graph
from .model import Classifier, predict_scores

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
            object.__setattr__(self, "max_steps", as_int(self.max_steps, "max_steps"))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
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


def _step(g: Graph, model: Classifier, feat: FeatureConfig, epsilon: float) -> tuple[list[tuple[int, int, float]], int]:
    """Every non-edge of g scoring at least epsilon, as (u, v, score) in
    candidate-pair order, and the number of non-edges scored."""
    u, v, edge = labeled_candidates(g)
    u, v, edge = u[~edge], v[~edge], edge[~edge]
    if not len(u):
        return [], 0
    scores = predict_scores(model, _feature_rows(g, feat, u, v, edge, None), floor=epsilon)
    keep = scores >= epsilon
    return list(zip(u[keep].tolist(), v[keep].tolist(), scores[keep].tolist())), len(u)


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
    work = g.copy()
    batches: list[list[tuple[int, int, float]]] = []
    steps: list[dict] = []
    limit = 1 if cfg.mode == "noniterative" else cfg.max_steps
    while limit is None or len(batches) < limit:
        start = time.perf_counter()
        batch, scored = _step(work, model, feat, cfg.epsilon)
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
