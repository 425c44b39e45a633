"""Graph completion: add every non-edge whose score clears a threshold.

Non-iterative mode scores all non-edges of the input graph once and adds
the qualifying ones in a single batch. Iterative mode repeats against each
intermediate state, so features (including centrality orderings) reflect
previously added edges, until a step adds nothing or the step limit is hit.
The model is never retrained during completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .featurize import FeatureConfig, build_dataset, config_from_dict, labeled_candidates, pair_list
from .graph import Graph
from .model import Classifier, predict_scores

MODES = ("iterative", "noniterative")


@dataclass(frozen=True)
class CompletionConfig:
    """Threshold and mode of a completion run.

    max_steps applies to the iterative mode; None means run to the fixed
    point (termination is still guaranteed, the non-edge pool is finite and
    every non-final step consumes from it). Each step considers every
    non-edge of the current state.
    """

    epsilon: float
    mode: str
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")


@dataclass
class CompletionTrace:
    """Per-step batches of added edges as (u, v, score), plus the final graph.

    States grow monotonically: every batch edge was absent from all earlier
    states and scored at least epsilon against the state it was added to.
    """

    batches: list[list[tuple[int, int, float]]]
    final_graph: Graph

    @property
    def added_edges(self) -> list[tuple[int, int, float]]:
        return [edge for batch in self.batches for edge in batch]


def _feature_config(model: Classifier, feat: FeatureConfig | None) -> FeatureConfig:
    if feat is None:
        if model.featurize_config is None:
            raise ValueError("model document carries no featurize settings; pass a FeatureConfig")
        feat = config_from_dict(model.featurize_config)
    if feat.row_length != model.feature_length:
        raise ValueError(
            f"feature length mismatch: config produces rows of {feat.row_length}, "
            f"model expects {model.feature_length}"
        )
    return feat


def _score_non_edges(g: Graph, model: Classifier, feat: FeatureConfig) -> list[tuple[int, int, float]]:
    u, v, edge = labeled_candidates(g)
    non_edges = pair_list(u[~edge], v[~edge])
    if not non_edges:
        return []
    data = build_dataset(g, feat, pairs=non_edges)
    scores = predict_scores(model, data.X)
    return [(u, v, float(s)) for (u, v), s in zip(non_edges, scores)]


def complete_noniterative(
    g: Graph,
    model: Classifier,
    cfg: CompletionConfig,
    feat: FeatureConfig | None = None,
) -> CompletionTrace:
    """Score every non-edge against the original graph once; add all that
    score >= epsilon as a single batch."""
    if cfg.mode != "noniterative":
        raise ValueError(f"complete_noniterative needs mode 'noniterative', got {cfg.mode!r}")
    feat = _feature_config(model, feat)
    work = g.copy()
    batch = [(u, v, s) for u, v, s in _score_non_edges(g, model, feat) if s >= cfg.epsilon]
    for u, v, _ in batch:
        work.add_edge(u, v)
    return CompletionTrace(batches=[batch], final_graph=work)


def complete_iterative(
    g: Graph,
    model: Classifier,
    cfg: CompletionConfig,
    feat: FeatureConfig | None = None,
) -> CompletionTrace:
    """Repeatedly rescore the current non-edges and add qualifying batches.

    Stops when a step adds nothing or after max_steps steps; each recorded
    batch is nonempty and disjoint from all earlier states.
    """
    if cfg.mode != "iterative":
        raise ValueError(f"complete_iterative needs mode 'iterative', got {cfg.mode!r}")
    feat = _feature_config(model, feat)
    work = g.copy()
    batches: list[list[tuple[int, int, float]]] = []
    step = 0
    while cfg.max_steps is None or step < cfg.max_steps:
        batch = [(u, v, s) for u, v, s in _score_non_edges(work, model, feat) if s >= cfg.epsilon]
        if not batch:
            break
        for u, v, _ in batch:
            work.add_edge(u, v)
        batches.append(batch)
        step += 1
    return CompletionTrace(batches=batches, final_graph=work)
