"""Brute-force reference implementations used to check the library.

Deliberately independent of the library's array shortest-path pass:
distances come from Floyd-Warshall and betweenness from explicit
enumeration of every shortest path, or from Brandes' accumulation over
adjacency lists in exact rational arithmetic. The feature reference
rebuilds both neighbor blocks of every pair one by one, the plain form of
the block table that build_dataset fills rows from. The dense candidate
references label every pair off the (n+1) x (n+1) adjacency matrix and
sample negatives from the list of every negative row, the plain form of the
sorted edge index that build_dataset, balance and balanced_dataset share.
The tree reference grows
a CART tree one node and one full sort per split, the plain form of the
level-wise builder that train uses. The forest vote reference walks every
row through every tree one node at a time, the plain form of the walk that
predict_scores runs: that one moves all unfinished rows of a batch down a
level by one gather from the paired child pointers, and drops rows at their
leaves and rows that can no longer reach the floor.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from ab_linkpred import Dataset, ordered_neighbors, table_for
from ab_linkpred._seeds import derive_seed
from ab_linkpred.featurize import _feature_rows
from ab_linkpred.model import _tree_arrays

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


def exact_betweenness(g):
    """Brandes' accumulation, one queue BFS per source, in fractions.Fraction,
    so scores that are equal in exact arithmetic compare equal."""
    n = g.node_count
    scores = [Fraction(0)] * (n + 1)
    for s in range(1, n + 1):
        dist = {s: 0}
        sigma = {s: 1}
        preds = collections.defaultdict(list)
        order = [s]
        for v in order:  # order grows while it is walked: a FIFO queue
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    sigma[w] = 0
                    order.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = dict.fromkeys(order, Fraction(0))
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            if w != s:
                scores[w] += delta[w]
    return [x / 2 for x in scores]


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


def adjacency(g):
    """Boolean (n+1, n+1) adjacency matrix; row and column 0 stay False."""
    adj = np.zeros((g.node_count + 1, g.node_count + 1), dtype=bool)
    for u in range(1, g.node_count + 1):
        adj[u, g.neighbors(u)] = True
    return adj


def dense_labeled_candidates(g):
    """Endpoint columns u > v of every candidate pair, in
    Graph.candidate_pairs() order, and whether each pair is an edge."""
    u, v = np.tril_indices(g.node_count, -1)
    u += 1
    v += 1
    return u, v, adjacency(g)[u, v]


def dense_balanced_row_indices(y, negative_ratio, seed):
    """Indices keeping all positives plus a seeded sample of negatives."""
    pos = np.flatnonzero(y == 1)
    if len(pos) == 0:
        raise ValueError("cannot balance a dataset with no positive rows")
    neg = np.flatnonzero(y == 0)
    want = int(min(negative_ratio * len(pos), len(neg)))
    rng = random.Random(derive_seed(seed, "balance"))
    chosen = rng.sample(range(len(neg)), want)
    return np.sort(np.concatenate([pos, neg[chosen]])).astype(np.int64)


def dense_dataset(g, config, pairs=None):
    """build_dataset with its labels read off the dense adjacency matrix."""
    if pairs is None:
        u, v, edge = dense_labeled_candidates(g)
    else:
        u, v = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
        edge = adjacency(g)[u, v]
    X = _feature_rows(g, config, u, v, edge, None)
    return Dataset(X=X, y=edge.astype(np.int8), pairs=list(zip(u.tolist(), v.tolist())), config=config)


def dense_balance(d, negative_ratio, seed):
    """balance with the dense negative sample."""
    keep = dense_balanced_row_indices(d.y, negative_ratio, seed)
    return Dataset(X=d.X[keep], y=d.y[keep], pairs=[d.pairs[i] for i in keep], config=d.config)


def _best_split(Xn, ys, min_leaf):
    """Best (column, threshold) by gini among all value boundaries, or None.

    Maximizing sum over both sides of (pos^2 + neg^2) / size is equivalent
    to minimizing the weighted gini impurity. Ties resolve to the smallest
    split position, then the lowest column.
    """
    m = Xn.shape[0]
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ys_sorted = ys[order]
    cum_pos = np.cumsum(ys_sorted, axis=0, dtype=np.int64)
    total_pos = cum_pos[-1]
    left_n = np.arange(1, m, dtype=np.int64)[:, None]
    left_pos = cum_pos[:-1]
    right_pos = total_pos[None, :] - left_pos
    right_n = m - left_n
    valid = xs[1:] != xs[:-1]
    if min_leaf > 1:
        valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
    purity = (
        (left_pos * left_pos + (left_n - left_pos) ** 2) / left_n
        + (right_pos * right_pos + (right_n - right_pos) ** 2) / right_n
    )
    purity = np.where(valid, purity, -1.0)
    flat = int(np.argmax(purity))
    if purity.flat[flat] < 0:
        return None
    i, col = divmod(flat, Xn.shape[1])
    below, above = float(xs[i, col]), float(xs[i + 1, col])
    threshold = (below + above) / 2.0
    if not math.isfinite(threshold):  # the sum overflowed
        threshold = below / 2.0 + above / 2.0
    return col, threshold


def reference_tree(X, y, rng, max_depth, min_leaf, n_features, bootstrap):
    """One CART tree grown one node at a time in level order; returns its node arrays.

    The row sample (bootstrap, with repeats, or identity) is drawn first.
    Each splittable node, taken first in first out, then draws one key per
    column when fewer than all columns are candidates, and tries blocks of
    n_features columns in key order until one holds a valid split. The
    finished nodes are numbered in level order, taken first in first out:
    a node's children get the next two node IDs when it splits, so the
    j-th split node in level order has children 2j+1 and 2j+2.
    """
    m, total_features = X.shape
    row_idx = rng.integers(0, m, size=m) if bootstrap else np.arange(m)
    root = {"idx": row_idx, "depth": 0}
    queue = collections.deque([root])
    while queue:
        node = queue.popleft()
        idx = node["idx"]
        ys = y[idx]
        pos = int(ys.sum())
        count = len(idx)
        node["value"] = pos / count
        if pos == 0 or pos == count or count < 2 * min_leaf or (max_depth is not None and node["depth"] >= max_depth):
            continue
        if n_features < total_features:
            column_order = np.argsort(rng.random(total_features), kind="stable")
        else:
            column_order = np.arange(total_features)
        for lo in range(0, total_features, n_features):
            cols = np.sort(column_order[lo:lo + n_features])
            found = _best_split(X[idx[:, None], cols[None, :]], ys, min_leaf)
            if found is not None:
                break
        if found is None:
            continue
        col = int(cols[found[0]])
        go_left = X[idx, col] <= found[1]
        node["split"] = (col, found[1])
        node["children"] = [{"idx": idx[side], "depth": node["depth"] + 1} for side in (go_left, ~go_left)]
        queue.extend(node["children"])

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(node):
        for column, blank in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, node["value"])):
            column.append(blank)
        return len(feature) - 1

    queue = collections.deque([(new_node(root), root)])
    while queue:
        i, node = queue.popleft()
        if "split" not in node:
            continue
        feature[i], threshold[i] = node["split"]
        low, high = node["children"]
        left[i] = new_node(low)
        right[i] = new_node(high)
        queue.append((left[i], low))
        queue.append((right[i], high))

    return _tree_arrays({"feature": feature, "threshold": threshold, "left": left, "right": right, "value": value})


def reference_leaf_values(c, X):
    """Per tree and row, the value of the leaf the row reaches: each row
    walked alone, node by node, through every tree of the forest."""
    trees = [{key: tree[key].tolist() for key in tree} for tree in c.payload["trees"]]
    values = np.zeros((len(trees), len(X)))
    for t, tree in enumerate(trees):
        for i, row in enumerate(np.asarray(X).tolist()):
            node = 0
            while tree["feature"][node] >= 0:
                go_left = row[tree["feature"][node]] <= tree["threshold"][node]
                node = tree["left"][node] if go_left else tree["right"][node]
            values[t, i] = tree["value"][node]
    return values


def reference_forest_votes(c, X):
    """Per tree and row, 1 where the row's leaf votes positive (value >= 0.5)."""
    return (reference_leaf_values(c, X) >= 0.5).astype(np.int64)
