"""Node centrality measures and the strategy-driven neighbor ordering.

Feature extraction consumes neighbors in a per-node order: either a seeded
shuffle or descending centrality (degree, betweenness, or closeness) with
ties broken by ascending node ID; scores are compared rounded to 12
significant digits, so scores equal in exact arithmetic tie. Only the
ordering matters downstream, so all measures are kept unnormalized.
Betweenness and closeness are read from one shared shortest-path pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._seeds import as_int, derive_seed
from .graph import Graph

MEASURES = ("degree", "betweenness", "closeness")
STRATEGY_KINDS = ("random",) + MEASURES
_BLOCK = 128  # BFS sources per block of the shortest-path pass


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
        if self.seed is not None:
            object.__setattr__(self, "seed", as_int(self.seed, "strategy seed"))


@dataclass
class CentralityTable:
    """Per-node scores for one measure; values[v] is node v's score, index 0 unused."""

    measure: str
    values: list[float]

    @cached_property
    def _rank_keys(self) -> list[float]:
        """Scores rounded once to 12 significant digits, the keys every
        ranking sorts on, so scores equal in exact arithmetic tie."""
        return [float(f"{x:.12g}") for x in self.values]


def degree_centrality(g: Graph) -> CentralityTable:
    values = [0] + [g.degree(v) for v in range(1, g.node_count + 1)]
    return CentralityTable("degree", values)


def _component_sizes(g: Graph) -> np.ndarray:
    """The size of each node's connected component, indexed by 0-based node
    as in _searches: one O(n + m) pass over the adjacency lists."""
    component = [0] * (g.node_count + 1)  # 1-based component number, 0 until reached
    sizes = [0]
    for root in range(1, g.node_count + 1):
        if component[root]:
            continue
        sizes.append(0)
        component[root] = len(sizes) - 1
        stack = [root]
        while stack:
            sizes[-1] += 1
            for u in g.neighbors(stack.pop()):
                if not component[u]:
                    component[u] = component[root]
                    stack.append(u)
    return np.array(sizes)[component[1:]]


def _searches(g: Graph):
    """The shortest-path pass that betweenness and closeness both read.

    BFS runs from _BLOCK sources at a time, level by level, and visits only
    the edges at each level's nodes: a block takes O(_BLOCK x (n + m))
    memory and, up to the sort that merges each level, as much time, plus a
    fixed numpy cost per level, whatever the graph's diameter. Row r of a
    block searches from node lo + r + 1; (r, node) has the flat key
    r * n + node. Yields per block lo, each level's sorted keys, the
    (predecessor, successor) indexes of the edges between consecutive
    levels, and the flat path counts sigma and distances dist (-1 where
    unreached).

    A block stops once its sources have reached their whole components:
    it counts the keys still to reach, the sum of its sources' component
    sizes less one each, and ends the level loop at 0. Expanding the last
    level could only find nothing, yet on a small-world graph it is the
    largest: every fixture source reaches all 333 nodes by level 2, and
    expanding level 2 took about 70% of the pass. On a path or a grid the
    last level is small, so the stop saves little there.
    """
    n = g.node_count
    adj = [g.neighbors(v) for v in range(1, n + 1)]
    indptr = np.cumsum([0] + [len(a) for a in adj])  # CSR over 0-based nodes
    indices = np.array([u - 1 for a in adj for u in a], dtype=np.int64)
    sizes = _component_sizes(g)
    for lo in range(0, n, _BLOCK):
        keys = np.arange(min(_BLOCK, n - lo)) * (n + 1) + lo
        dist = np.full(len(keys) * n, -1, dtype=np.int64)
        sigma = np.zeros(len(keys) * n)
        dist[keys], sigma[keys] = 0, 1.0
        levels, edges = [keys], []
        unreached = int(sizes[lo:lo + len(keys)].sum()) - len(keys)
        while unreached > 0:
            # One entry per edge at this level's nodes: the index i of its
            # key, and the neighbor's key in the same row.
            rows, nodes = np.divmod(keys, n)
            deg = indptr[nodes + 1] - indptr[nodes]
            i = np.repeat(np.arange(len(keys)), deg)
            pos = np.arange(len(i)) + np.repeat(indptr[nodes] - (np.cumsum(deg) - deg), deg)
            nbr = rows[i] * n + indices[pos]
            fresh = dist[nbr] < 0
            keys, slot = np.unique(nbr[fresh], return_inverse=True)
            if not len(keys):
                break
            # A level's path counts sum its predecessors' counts.
            edges.append((i[fresh], slot))
            sigma[keys] = np.bincount(slot, weights=sigma[levels[-1]][i[fresh]], minlength=len(keys))
            dist[keys] = len(levels)
            levels.append(keys)
            unreached -= len(keys)
        yield lo, levels, edges, sigma, dist


def betweenness_centrality(g: Graph) -> CentralityTable:
    """Unnormalized betweenness over unordered pairs; disconnected pairs
    contribute nothing. Dependencies flow back through the shared pass's
    levels as in Brandes' accumulation, in the level-synchronous form of
    Kepner & Gilbert (SIAM 2011)."""
    bc = np.zeros(g.node_count)
    for _, levels, edges, sigma, _ in _searches(g):
        delta = np.zeros_like(sigma)
        # Down to level 1: a source gets no dependency from its own search.
        for d in range(len(levels) - 1, 1, -1):
            (pred, succ), keys, prev = edges[d - 1], levels[d], levels[d - 1]
            coeff = (1.0 + delta[keys]) / sigma[keys]
            delta[prev] = sigma[prev] * np.bincount(pred, weights=coeff[succ], minlength=len(prev))
        bc += delta.reshape(-1, g.node_count).sum(axis=0)
    # Summing over all sources counts each unordered pair twice.
    return CentralityTable("betweenness", [0.0] + (bc / 2.0).tolist())


def closeness_centrality(g: Graph) -> CentralityTable:
    """Component-local closeness: (r - 1) / sum of BFS distances, where r is
    the size of the node's connected component. Isolated nodes score 0, so
    disconnected graphs still get finite values. Computed from the shared
    pass's integer distances, so the floats are exact quotients."""
    values = [0.0] * (g.node_count + 1)
    for lo, _, _, _, dist in _searches(g):
        dist = dist.reshape(-1, g.node_count)
        reach = (dist >= 0).sum(axis=1).tolist()
        total = dist.clip(min=0).sum(axis=1).tolist()
        for s, (r, t) in enumerate(zip(reach, total), lo + 1):
            values[s] = (r - 1) / t if t > 0 else 0.0
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


def _ranked(table: CentralityTable, nodes) -> list[int]:
    """The nodes by descending rounded score, ties broken by ascending node
    ID: the ranking rule of every ordering."""
    keys = table._rank_keys
    return sorted(nodes, key=lambda v: (-keys[v], v))


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
    return _ranked(table, nbrs)


def neighbor_orders(g: Graph, strategy: Strategy, table: CentralityTable | None = None) -> list[list[int]]:
    """Precomputed ordered_neighbors for every node; index 0 is an empty list.

    Computes the strategy's centrality table on the fly when not supplied.
    Bulk feature extraction uses this so each node is ordered exactly once.
    """
    if table is None:
        table = table_for(g, strategy)
    return [[]] + [ordered_neighbors(g, v, strategy, table) for v in range(1, g.node_count + 1)]
