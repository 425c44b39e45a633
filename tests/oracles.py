"""Brute-force reference implementations used to check the library.

Deliberately independent of the library's BFS-accumulation code paths:
distances come from Floyd-Warshall and betweenness from explicit
enumeration of every shortest path. The feature reference rebuilds both
neighbor blocks of every pair one by one, the plain form of the block
table that build_dataset gathers from.
"""

from __future__ import annotations

import itertools

import numpy as np

from ab_linkpred import Dataset, ordered_neighbors, table_for

INF = float("inf")


def floyd_warshall(g):
    n = g.node_count
    dist = [[INF] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        dist[v][v] = 0
        for w in g.neighbors(v):
            dist[v][w] = 1
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            dik = dist[i][k]
            if dik == INF:
                continue
            for j in range(1, n + 1):
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    return dist


def enumerate_shortest_paths(g, s, t, dist):
    """All shortest s-t paths by explicit DFS along distance-decreasing edges."""
    if dist[s][t] == INF:
        return []
    paths = []

    def walk(node, path):
        if node == t:
            paths.append(list(path))
            return
        for w in g.neighbors(node):
            if dist[w][t] == dist[node][t] - 1:
                path.append(w)
                walk(w, path)
                path.pop()

    walk(s, [s])
    return paths


def brute_betweenness(g):
    n = g.node_count
    dist = floyd_warshall(g)
    scores = [0.0] * (n + 1)
    for s, t in itertools.combinations(range(1, n + 1), 2):
        paths = enumerate_shortest_paths(g, s, t, dist)
        if not paths:
            continue
        for path in paths:
            for v in path[1:-1]:
                scores[v] += 1.0 / len(paths)
    return scores


def brute_closeness(g):
    n = g.node_count
    dist = floyd_warshall(g)
    scores = [0.0] * (n + 1)
    for v in range(1, n + 1):
        reach = [dist[v][u] for u in range(1, n + 1) if dist[v][u] != INF]
        total = sum(reach)
        scores[v] = (len(reach) - 1) / total if total > 0 else 0.0
    return scores


def _emit_group(orders, node, a, visited, block, mask_u, mask_v):
    filled = 0
    if node:
        for w in orders[node]:
            if w in visited:
                continue
            if (w == mask_v and node == mask_u) or (w == mask_u and node == mask_v):
                continue
            block.append(w)
            visited.add(w)
            filled += 1
            if filled == a:
                break
    if filled < a:
        block.extend((0,) * (a - filled))


def _neighbor_block(orders, root, a, b, mask_u, mask_v):
    visited = {root}
    block = []
    _emit_group(orders, root, a, visited, block, mask_u, mask_v)
    for i in range(b):
        lo = i * a
        for node in block[lo:lo + a]:
            _emit_group(orders, node, a, visited, block, mask_u, mask_v)
    return block


class _LazyOrders:
    """ordered_neighbors computed on first use of each node."""

    def __init__(self, g, strategy, table):
        self._g = g
        self._strategy = strategy
        self._table = table
        self._cache = {}

    def __getitem__(self, v):
        got = self._cache.get(v)
        if got is None:
            got = self._cache[v] = ordered_neighbors(self._g, v, self._strategy, self._table)
        return got


def reference_dataset(g, config, pairs=None):
    """The feature rows extracted pair by pair: both blocks are rebuilt for
    every pair, masking the pair's own edge when the config asks for it, and
    the label is read off has_edge."""
    orders = _LazyOrders(g, config.strategy, table_for(g, config.strategy))
    pair_list = list(pairs) if pairs is not None else list(g.candidate_pairs())
    X = np.zeros((len(pair_list), config.row_length), dtype=np.int32)
    y = np.zeros(len(pair_list), dtype=np.int8)
    for i, (u, v) in enumerate(pair_list):
        mask_u, mask_v = (u, v) if config.mask_pair_edge else (0, 0)
        row = _neighbor_block(orders, u, config.a, config.b, mask_u, mask_v)
        row += _neighbor_block(orders, v, config.a, config.b, mask_u, mask_v)
        X[i] = row + [u, v]
        y[i] = 1 if g.has_edge(u, v) else 0
    return Dataset(X=X, y=y, pairs=pair_list, config=config)
