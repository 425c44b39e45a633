"""Node centrality measures and the strategy-driven neighbor ordering.

Feature extraction consumes neighbors in a per-node order: either a seeded
shuffle or descending centrality (degree, betweenness, or closeness) with
ties broken by ascending node ID. Only the ordering matters downstream, so
all measures are kept unnormalized.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from ._seeds import derive_seed
from .graph import Graph

MEASURES = ("degree", "betweenness", "closeness")
STRATEGY_KINDS = ("random",) + MEASURES


@dataclass(frozen=True)
class Strategy:
    """Neighbor-selection rule: seeded shuffle, or ranking by one measure."""

    kind: str
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}, expected one of {STRATEGY_KINDS}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random strategy requires a seed")


@dataclass
class CentralityTable:
    """Per-node scores for one measure; values[v] is node v's score, index 0 unused."""

    measure: str
    values: list[float]


def degree_centrality(g: Graph) -> CentralityTable:
    values = [0] + [g.degree(v) for v in range(1, g.node_count + 1)]
    return CentralityTable("degree", values)


def betweenness_centrality(g: Graph) -> CentralityTable:
    """Unnormalized betweenness over unordered pairs.

    Single-source BFS accumulation (Brandes): each source contributes path
    dependencies to every intermediate node; summing over all sources counts
    each unordered pair twice, hence the final halving. Disconnected pairs
    contribute nothing.
    """
    n = g.node_count
    bc = [0.0] * (n + 1)
    for s in range(1, n + 1):
        dist = [-1] * (n + 1)
        sigma = [0] * (n + 1)
        preds: list[list[int]] = [[] for _ in range(n + 1)]
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        order: list[int] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            dv1 = dist[v] + 1
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dv1
                    queue.append(w)
                if dist[w] == dv1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * (n + 1)
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    return CentralityTable("betweenness", [x / 2.0 for x in bc])


def closeness_centrality(g: Graph) -> CentralityTable:
    """Component-local closeness: (r - 1) / sum of BFS distances, where r is
    the size of the node's connected component. Isolated nodes score 0, so
    disconnected graphs still get finite values."""
    n = g.node_count
    values = [0.0] * (n + 1)
    for s in range(1, n + 1):
        dist = [-1] * (n + 1)
        dist[s] = 0
        queue = deque([s])
        reached = 0
        total = 0
        while queue:
            v = queue.popleft()
            reached += 1
            total += dist[v]
            for w in g.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        values[s] = (reached - 1) / total if total > 0 else 0.0
    return CentralityTable("closeness", values)


def centrality_table(g: Graph, measure: str) -> CentralityTable:
    if measure == "degree":
        return degree_centrality(g)
    if measure == "betweenness":
        return betweenness_centrality(g)
    if measure == "closeness":
        return closeness_centrality(g)
    raise ValueError(f"unknown centrality measure {measure!r}, expected one of {MEASURES}")


def table_for(g: Graph, strategy: Strategy) -> CentralityTable | None:
    """The centrality table a strategy needs, or None for the random kind."""
    if strategy.kind == "random":
        return None
    return centrality_table(g, strategy.kind)


def ordered_neighbors(g: Graph, v: int, strategy: Strategy, table: CentralityTable | None = None) -> list[int]:
    """Permutation of adj(v) under the given strategy.

    Ranked kinds sort by descending score with ascending-ID tie-break and
    require a matching table. The random kind shuffles with a seed derived
    from (strategy.seed, v), so the order is stable across calls, processes,
    and any parallel schedule.
    """
    nbrs = list(g.neighbors(v))
    if strategy.kind == "random":
        random.Random(derive_seed(strategy.seed, "order", v)).shuffle(nbrs)
        return nbrs
    if table is None:
        raise ValueError(f"{strategy.kind} ordering requires a centrality table")
    if table.measure != strategy.kind:
        raise ValueError(f"table holds {table.measure!r} scores but strategy wants {strategy.kind!r}")
    values = table.values
    nbrs.sort(key=lambda w: (-values[w], w))
    return nbrs


def neighbor_orders(g: Graph, strategy: Strategy, table: CentralityTable | None = None) -> list[list[int]]:
    """Precomputed ordered_neighbors for every node; index 0 is an empty list.

    Computes the strategy's centrality table on the fly when not supplied.
    Bulk feature extraction uses this so each node is ordered exactly once.
    """
    if table is None:
        table = table_for(g, strategy)
    return [[]] + [ordered_neighbors(g, v, strategy, table) for v in range(1, g.node_count + 1)]
