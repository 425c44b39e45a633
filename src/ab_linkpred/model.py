"""Binary classifiers scoring candidate edges in [0, 1].

Three kinds, all trained from scratch so runs are exactly repeatable and
models serialize to plain JSON:

* forest (default): bagged CART trees with gini splits; the score is the
  fraction of trees voting positive. Raw node-ID features are close to
  categorical, which axis-aligned splits handle well. Each tree is grown
  level by level, with its bootstrap sample kept as distinct rows weighted
  by their draw counts, and candidate columns drawn once per level; a node
  whose drawn columns hold no valid split tries further columns. Tree t
  draws from its own generator, so a large enough forest is grown in
  forked worker processes, one per usable CPU, with the same bytes as a
  serial run (see _forest_workers).
* tree: a single CART tree on every row and column; the score is the
  positive fraction at the leaf.
* logistic: full-batch gradient descent on the log loss; the score is the
  sigmoid of the linear response.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from ._seeds import derive_seed
from ._streams import open_stream
from .featurize import config_from_dict

FORMAT_VERSION = 1

DEFAULT_PARAMS = {
    "forest": {
        "tree_count": 100,
        "max_depth": None,
        "min_leaf": 1,
        "feature_subsample": None,  # None = round(sqrt(feature count))
        "bootstrap": True,
    },
    "tree": {"max_depth": None, "min_leaf": 1},
    "logistic": {"learning_rate": 0.01, "epochs": 200, "l2": 0.0},
}


class ModelFormatError(ValueError):
    """A model document that cannot be loaded (corrupt, truncated, wrong version)."""


@dataclass
class Classifier:
    """A trained scorer plus everything needed to rebuild it from JSON."""

    kind: str
    params: dict
    feature_length: int
    seed: int
    payload: dict
    featurize_config: dict | None = None
    loss_history: list[float] = field(default_factory=list, repr=False)


def _as_matrix(X) -> np.ndarray:
    try:
        arr = np.asarray(X)
    except ValueError as err:
        raise ValueError(f"feature rows must all have the same length: {err}") from None
    if arr.dtype == object or arr.ndim != 2:
        raise ValueError("feature rows must form a 2-D matrix of equal-length rows")
    if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        raise ValueError("feature values must be finite numbers")
    return arr


def _as_labels(y, rows: int) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1 or len(arr) != rows:
        raise ValueError(f"need one label per row, got {arr.shape} labels for {rows} rows")
    if arr.dtype.kind not in "biuf" or not np.isin(arr, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return arr.astype(np.int64)


def _merged_params(kind: str, params: dict | None) -> dict:
    if kind not in DEFAULT_PARAMS:
        raise ValueError(f"unknown classifier kind {kind!r}, expected one of {tuple(DEFAULT_PARAMS)}")
    merged = dict(DEFAULT_PARAMS[kind])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown {kind} hyperparameter {key!r}")
        merged[key] = value
    nullable = ("max_depth", "feature_subsample")
    for key in ("tree_count", "min_leaf", "feature_subsample", "max_depth", "epochs"):
        if key in merged and not (type(merged[key]) is int or key in nullable and merged[key] is None):
            raise ValueError(f"{key} must be an integer{' or None' if key in nullable else ''}, got {merged[key]!r}")
    if kind in ("forest", "tree"):
        if merged["min_leaf"] < 1:
            raise ValueError(f"min_leaf must be >= 1, got {merged['min_leaf']}")
        if merged["max_depth"] is not None and merged["max_depth"] < 0:
            raise ValueError(f"max_depth must be None or >= 0, got {merged['max_depth']}")
    if kind == "forest":
        if merged["tree_count"] < 1:
            raise ValueError(f"tree_count must be >= 1, got {merged['tree_count']}")
        if not isinstance(merged["bootstrap"], bool):
            raise ValueError(f"bootstrap must be true or false, got {merged['bootstrap']!r}")
    if kind == "logistic" and merged["epochs"] < 0:
        raise ValueError(f"epochs must be >= 0, got {merged['epochs']}")
    return merged


# ---------------------------------------------------------------------------
# CART trees

# A tree is flat node arrays of these dtypes; feature -1 marks a leaf.
_TREE_DTYPES = {"feature": np.int32, "threshold": np.float64, "left": np.int32, "right": np.int32, "value": np.float64}


def _tree_arrays(tree: dict) -> dict:
    return {key: np.array(tree[key], dtype=dtype) for key, dtype in _TREE_DTYPES.items()}


def _small_int(top: int):
    """uint16 when it holds 0..top: numpy sorts 16-bit keys by radix, several times faster."""
    return np.uint16 if top < 2**16 else np.int64


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column."""
    ranks = np.empty(X.shape, dtype=_small_int(X.shape[0] - 1))
    for col in range(X.shape[1]):
        ranks[:, col] = np.unique(X[:, col], return_inverse=True)[1]
    return ranks


def _level_splits(
    X: np.ndarray,
    ranks: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    pos_weight: np.ndarray,
    sizes: np.ndarray,
    cols: np.ndarray,
    min_leaf: int,
):
    """Best split of each node of a level among its candidate columns.

    The entries (rows, weight, pos_weight) are grouped by node, sizes[i] of
    them for node i, whose candidate columns are cols[i]. Returns per node
    the split column (-1 where no boundary is valid), the rank on the left
    side of the cut, and the threshold.
    """
    nodes, k = cols.shape
    total_features = ranks.shape[1]
    starts = np.cumsum(sizes) - sizes
    node_n = np.add.reduceat(weight, starts)
    node_pos = np.add.reduceat(pos_weight, starts)
    node = np.repeat(np.arange(nodes), sizes)
    split_col = np.full(nodes, -1, dtype=np.intp)
    cut = np.zeros(nodes, dtype=ranks.dtype)
    threshold = np.zeros(nodes)

    # Entry e * k + j is row e under its node's j-th column; sort the
    # entries by (segment, rank).
    seg = (node[:, None] * k + np.arange(k)).ravel().astype(_small_int(nodes * k))
    rank = ranks.ravel()[((rows * total_features)[:, None] + cols[node]).ravel()]
    order = np.lexsort((rank, seg))
    entry = order // k
    s_seg, s_rank = seg[order], rank[order]
    cum_n = np.cumsum(weight[entry])
    cum_pos = np.cumsum(pos_weight[entry])

    # Boundaries between distinct values inside a segment; left side ends at b.
    b = np.flatnonzero((s_rank[1:] != s_rank[:-1]) & (s_seg[1:] == s_seg[:-1]))
    bseg = s_seg[b].astype(np.intp)
    # Every segment of a node holds the node's rows, so the sums before
    # segment (i, j) are k times those of nodes before i plus j times i's.
    before_n = ((np.cumsum(node_n) - node_n)[:, None] * k + np.arange(k) * node_n[:, None]).ravel()
    before_pos = ((np.cumsum(node_pos) - node_pos)[:, None] * k + np.arange(k) * node_pos[:, None]).ravel()
    left_n = cum_n[b] - before_n[bseg]
    left_pos = cum_pos[b] - before_pos[bseg]
    bnode = bseg // k
    right_n = node_n[bnode] - left_n
    right_pos = node_pos[bnode] - left_pos
    if min_leaf > 1:
        ok = (left_n >= min_leaf) & (right_n >= min_leaf)
        b, bseg, bnode, left_n, left_pos, right_n, right_pos = (
            arr[ok] for arr in (b, bseg, bnode, left_n, left_pos, right_n, right_pos)
        )
    if not len(b):
        return split_col, cut, threshold
    purity = (
        (left_pos * left_pos + (left_n - left_pos) ** 2) / left_n
        + (right_pos * right_pos + (right_n - right_pos) ** 2) / right_n
    )
    per_node = np.bincount(bnode)
    per_node = per_node[per_node > 0]
    first = np.cumsum(per_node) - per_node
    best = purity == np.repeat(np.maximum.reduceat(purity, first), per_node)
    tie = np.where(best, left_n * k + bseg % k, np.iinfo(np.int64).max)
    chosen = np.flatnonzero(tie == np.repeat(np.minimum.reduceat(tie, first), per_node))
    at = b[chosen]
    split = bnode[chosen]
    split_col[split] = cols[split, bseg[chosen] % k]
    cut[split] = s_rank[at]
    below, above = (X[rows[entry[i]], split_col[split]].astype(np.float64) for i in (at, at + 1))
    with np.errstate(over="ignore"):
        mid = (below + above) / 2.0
    # Halve first only where the sum overflows, so every other threshold
    # keeps its bytes.
    threshold[split] = np.where(np.isfinite(mid), mid, below / 2.0 + above / 2.0)
    return split_col, cut, threshold


def _grow_tree(
    X: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_depth: int | None,
    min_leaf: int,
    n_features: int,
    bootstrap: bool,
) -> dict:
    """Grow one tree level by level; returns its node arrays.

    ranks holds the _dense_ranks of X.
    The bootstrap sample is drawn first and kept as distinct rows with
    integer weights. Each depth level is handled by one _level_splits call
    (or a few, see below): the entries (frontier node, candidate column,
    row) are sorted by rank within each (node, column) segment, and every
    boundary between distinct values is scored by weighted cumulative
    counts. A node splits at the boundary of maximum gini purity, sum over
    both sides of (pos^2 + neg^2) / size; ties go to the smallest left
    count, then the lowest column. The threshold is the midpoint of the two
    values at the boundary.

    When fewer than all columns are candidates, each splittable node of a
    level gets one random key per column, drawn once per level in level
    order, and its candidates are the n_features columns of lowest key. A
    node with no valid boundary among them goes on to the next n_features
    columns in key order, until one block splits it or the columns run out,
    so an unlucky draw of constant columns does not end a branch that could
    still be split.

    The nodes are finally numbered in depth-first order: the children of
    the j-th split node in preorder are 2j+1 and 2j+2. The tree is fully
    determined by (data, params, rng seed).
    """
    m, total_features = ranks.shape
    if bootstrap:
        rows, weight = np.unique(rng.integers(0, m, size=m), return_counts=True)
    else:
        rows, weight = np.arange(m), np.ones(m, dtype=np.int64)
    pos_weight = weight * y[rows]
    sizes = np.array([len(rows)])  # entries of each frontier node; entries are grouped by node
    levels = []  # per depth: (value, feature, threshold) of its nodes, in level order
    depth = 0
    while True:
        starts = np.cumsum(sizes) - sizes
        count = np.add.reduceat(weight, starts)
        pos = np.add.reduceat(pos_weight, starts)
        feature = np.full(len(sizes), -1, dtype=np.int32)
        threshold = np.zeros(len(sizes))
        levels.append((pos / count, feature, threshold))
        splittable = (pos > 0) & (pos < count) & (count >= 2 * min_leaf)
        if max_depth is not None and depth >= max_depth or not splittable.any():
            break
        keep = np.repeat(splittable, sizes)
        rows, weight, pos_weight = rows[keep], weight[keep], pos_weight[keep]
        open_nodes = np.flatnonzero(splittable)
        sizes = sizes[open_nodes]
        if n_features < total_features:
            column_order = np.argsort(rng.random((len(open_nodes), total_features)), axis=1, kind="stable")
        else:
            column_order = np.broadcast_to(np.arange(total_features), (len(open_nodes), total_features))

        split_col = np.full(len(open_nodes), -1, dtype=np.intp)
        cut = np.zeros(len(open_nodes), dtype=ranks.dtype)
        todo = np.arange(len(open_nodes))  # open nodes still without a split
        entries = rows, weight, pos_weight  # the entries of the todo nodes
        for lo in range(0, total_features, n_features):
            cols = np.sort(column_order[todo, lo:lo + n_features], axis=1)
            col, at_rank, at_threshold = _level_splits(X, ranks, *entries, sizes[todo], cols, min_leaf)
            found = col >= 0
            split_col[todo[found]] = col[found]
            cut[todo[found]] = at_rank[found]
            threshold[open_nodes[todo[found]]] = at_threshold[found]
            if found.all():
                break
            keep = np.repeat(~found, sizes[todo])
            entries = tuple(arr[keep] for arr in entries)
            todo = todo[~found]
        split_open = np.flatnonzero(split_col >= 0)
        if not len(split_open):
            break
        feature[open_nodes[split_open]] = split_col[split_open]

        # Next frontier: the rows of each split node, left child then right.
        # Rows go by rank, which agrees with X <= threshold whenever the
        # midpoint lies below the right-hand value, and never empties a child.
        child_of = np.full(len(open_nodes), -1, dtype=np.int64)
        child_of[split_open] = 2 * np.arange(len(split_open))
        node = np.repeat(np.arange(len(open_nodes)), sizes)
        child = child_of[node]
        moved = child >= 0
        child = child[moved] + (ranks[rows[moved], split_col[node[moved]]] > cut[node[moved]])
        order = np.argsort(child.astype(_small_int(2 * len(split_open))), kind="stable")
        rows, weight, pos_weight = rows[moved][order], weight[moved][order], pos_weight[moved][order]
        sizes = np.bincount(child)
        depth += 1
    return _depth_first_arrays(levels)


def _depth_first_arrays(levels: list) -> dict:
    """Node arrays in depth-first numbering from per-level node arrays.

    Within a level, the children of the i-th split node of the level above
    are nodes 2i and 2i+1.
    """
    splits = [feature >= 0 for _, feature, _ in levels]
    size = [np.ones(len(s), dtype=np.int64) for s in splits]
    for d in range(len(levels) - 2, -1, -1):
        size[d][splits[d]] += size[d + 1][0::2] + size[d + 1][1::2]
    pre = [np.zeros(1, dtype=np.int64)]  # preorder position
    for d in range(len(levels) - 1):
        parent = pre[d][splits[d]]
        child = np.empty(2 * len(parent), dtype=np.int64)
        child[0::2] = parent + 1
        child[1::2] = parent + 1 + size[d + 1][0::2]
        pre.append(child)
    is_split = np.concatenate(splits)
    split_pre = np.concatenate(pre)[is_split]
    j = np.empty(len(split_pre), dtype=np.int64)
    j[np.argsort(split_pre)] = np.arange(len(split_pre))
    new_id = np.zeros(len(is_split), dtype=np.int64)
    new_id[1:] = 2 * np.repeat(j, 2) + np.tile([1, 2], len(j))
    n = len(is_split)
    left = np.full(n, -1, dtype=np.int64)
    right = np.full(n, -1, dtype=np.int64)
    left[new_id[is_split]] = 2 * j + 1
    right[new_id[is_split]] = 2 * j + 2
    out = {"left": left, "right": right}
    for key, col in (("value", 0), ("feature", 1), ("threshold", 2)):
        arr = np.empty(n, dtype=_TREE_DTYPES[key])
        arr[new_id] = np.concatenate([level[col] for level in levels])
        out[key] = arr
    return _tree_arrays(out)


def _tree_leaf_values(tree: dict, X: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Positive fraction at the leaf reached by each row of X, or by each
    row X[rows] when row indices are given (read in place, not copied)."""
    feature = tree["feature"]
    threshold = tree["threshold"]
    left = tree["left"]
    right = tree["right"]
    node = np.zeros(len(X) if rows is None else len(rows), dtype=np.int32)
    active = np.flatnonzero(feature[node] >= 0)
    while len(active):
        cur = node[active]
        cols = feature[cur]
        go_left = X[active if rows is None else rows[active], cols] <= threshold[cur]
        node[active] = np.where(go_left, left[cur], right[cur])
        active = active[feature[node[active]] >= 0]
    return tree["value"][node]


def _resolve_feature_count(total: int, requested) -> int:
    if requested is None:
        return max(1, min(total, round(math.sqrt(total))))
    if not 1 <= requested <= total:
        raise ValueError(f"feature_subsample must be in 1..{total}, got {requested}")
    return requested


# Set in each forest worker process by _init_worker: the training inputs,
# inherited through fork rather than pickled.
_worker_data = None


def _init_worker(*data) -> None:
    global _worker_data
    _worker_data = data
    # Ctrl-C interrupts the parent alone, which lets the workers finish the
    # trees they hold and stop; a worker whose parent is killed would wait
    # for work forever, so it exits with it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _grow_one(t: int, data: tuple | None = None) -> dict:
    """Tree t of a forest, from its own generator; data defaults to the
    worker's inherited (X, ranks, y, params, n_features, seed)."""
    X, ranks, y, params, n_features, seed = _worker_data if data is None else data
    rng = np.random.default_rng(derive_seed(seed, "tree", t))
    return _grow_tree(X, ranks, y, rng, params["max_depth"], params["min_leaf"], n_features, params["bootstrap"])


# Worker processes grow a forest only from this many rows x trees on.
# Measured with 2 workers on forests of 10-100 trees and 4-162 columns: at
# 10,000 they saved 11-38%, at 5,000 0-29%, and at 2,500 some forests took
# up to twice as long, the pool's start and per-tree round trips costing
# more than the trees. Rows x columns x trees predicted this worse.
_POOL_MIN_ROW_TREES = 10_000


def _forest_workers(X: np.ndarray, tree_count: int) -> int:
    """Worker processes to grow a forest in; 1 means grow it in this process.

    More than one only when rows x trees reaches _POOL_MIN_ROW_TREES, this
    process runs a single thread (forking a multi-threaded process is
    unsafe, so sweep cells on worker threads train here) and fork is
    available; then one per usable CPU, at most one per tree.
    """
    if X.shape[0] * tree_count < _POOL_MIN_ROW_TREES or threading.active_count() != 1:
        return 1
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(len(os.sched_getaffinity(0)), tree_count)


def _train_forest(X: np.ndarray, y: np.ndarray, params: dict, seed: int) -> dict:
    """Grow the trees, in worker processes when _forest_workers allows it.

    Tree t depends only on the inputs and derive_seed(seed, "tree", t), so
    the trees, collected in index order, are the same bytes whichever
    process grows them. A worker that dies raises ChildProcessError.
    """
    n_features = _resolve_feature_count(X.shape[1], params["feature_subsample"])
    data = (X, _dense_ranks(X), y, params, n_features, seed)
    tree_count = params["tree_count"]
    workers = _forest_workers(X, tree_count)
    if workers == 1:
        return {"trees": [_grow_one(t, data) for t in range(tree_count)]}
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_init_worker, initargs=data
    )
    try:
        trees = list(pool.map(_grow_one, range(tree_count)))
    except BrokenProcessPool as err:
        raise ChildProcessError(f"a forest worker process died while growing trees: {err}") from None
    except OSError:
        # A fork that fails stops the pool before its manager thread starts
        # and hands out work; the workers forked before it would wait for
        # work forever and hold up interpreter exit. Once work is out, a
        # worker must not be stopped: it may be writing a result.
        if pool._executor_manager_thread is None:
            for process in pool._processes.values():
                process.terminate()
                process.join()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    return {"trees": trees}


# ---------------------------------------------------------------------------
# Logistic regression


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_loss(p: np.ndarray, y: np.ndarray, weights: np.ndarray, l2: float) -> float:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    data = -float(np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    return data + 0.5 * l2 * float(weights @ weights)


def _train_logistic(X: np.ndarray, y: np.ndarray, params: dict, seed: int):
    Xf = X.astype(np.float64)
    yf = y.astype(np.float64)
    m, k = Xf.shape
    lr = float(params["learning_rate"])
    l2 = float(params["l2"])
    weights = np.zeros(k, dtype=np.float64)
    bias = 0.0
    losses: list[float] = []
    for _ in range(params["epochs"]):
        p = _sigmoid(Xf @ weights + bias)
        losses.append(_log_loss(p, yf, weights, l2))
        err = p - yf
        weights -= lr * (Xf.T @ err / m + l2 * weights)
        bias -= lr * float(err.mean())
    losses.append(_log_loss(_sigmoid(Xf @ weights + bias), yf, weights, l2))
    return {"weights": weights, "bias": bias}, losses


# ---------------------------------------------------------------------------
# Public API


def train(X, y, kind: str = "forest", params: dict | None = None, seed: int = 42) -> Classifier:
    """Fit a classifier; deterministic given (data, kind, params, seed).

    Feature values must be finite numbers, labels exactly 0 or 1, count
    hyperparameters (tree_count, min_leaf, feature_subsample, max_depth,
    epochs) ints, where None is allowed only for feature_subsample and
    max_depth, and bootstrap a bool; else ValueError. Large forests are
    grown in worker processes (see _forest_workers); a worker that dies
    raises ChildProcessError and a failed fork its OSError.
    """
    matrix = _as_matrix(X)
    labels = _as_labels(y, matrix.shape[0])
    if matrix.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    if labels.min() == labels.max():
        raise ValueError("training data holds a single class, need both labels")
    merged = _merged_params(kind, params)
    loss_history: list[float] = []
    if kind == "forest":
        payload = _train_forest(matrix, labels, merged, seed)
    elif kind == "tree":
        single = {**merged, "tree_count": 1, "feature_subsample": matrix.shape[1], "bootstrap": False}
        payload = _train_forest(matrix, labels, single, seed)
    else:
        payload, loss_history = _train_logistic(matrix, labels, merged, seed)
    return Classifier(
        kind=kind,
        params=merged,
        feature_length=matrix.shape[1],
        seed=seed,
        payload=payload,
        loss_history=loss_history,
    )


def predict_scores(c: Classifier, X, *, floor: float = 0.0) -> np.ndarray:
    """Scores in [0, 1] for a batch of rows; pure, so batch order is irrelevant.

    Feature values must be finite numbers, else ValueError. Only the rows
    scoring at least floor (in [0, 1]) need their exact score: a forest
    stops walking a row once votes / tree count can no longer reach floor,
    and reports that row's votes so far, which score below floor. Every
    other row, and every row of the tree and logistic kinds, gets its full
    score, so `scores >= floor` is the same mask whatever the floor.
    """
    matrix = _as_matrix(X)
    if matrix.shape[1] != c.feature_length:
        raise ValueError(f"expected rows of length {c.feature_length}, got {matrix.shape[1]}")
    if not 0.0 <= floor <= 1.0:
        raise ValueError(f"floor must be in [0, 1], got {floor}")
    if c.kind == "logistic":
        return _sigmoid(matrix.astype(np.float64) @ c.payload["weights"] + c.payload["bias"])
    trees = c.payload["trees"]
    if c.kind == "tree":
        return _tree_leaf_values(trees[0], matrix)
    total = len(trees)
    votes = np.zeros(matrix.shape[0], dtype=np.int64)
    rows = np.arange(matrix.shape[0])  # the rows that can still reach floor
    for t, tree in enumerate(trees, 1):
        if not floor:
            votes += _tree_leaf_values(tree, matrix) >= 0.5
            continue
        votes[rows] += _tree_leaf_values(tree, matrix, rows) >= 0.5
        # The final score divides the same way and only grows with votes,
        # so a row dropped here cannot reach floor with the trees left.
        rows = rows[(votes[rows] + (total - t)) / total >= floor]
    return votes / total


def predict_score(c: Classifier, x) -> float:
    """Score one feature vector."""
    return float(predict_scores(c, [list(x)])[0])


def predict_label(c: Classifier, x, threshold: float = 0.5) -> int:
    """1 when the score clears the threshold (inclusive), else 0."""
    return 1 if predict_score(c, x) >= threshold else 0


# ---------------------------------------------------------------------------
# Serialization: versioned JSON, numbers kept at full round-trip precision


def _payload_to_jsonable(c: Classifier) -> dict:
    if c.kind in ("forest", "tree"):
        return {
            "trees": [
                {key: tree[key].tolist() for key in _TREE_DTYPES}
                for tree in c.payload["trees"]
            ]
        }
    return {"weights": c.payload["weights"].tolist(), "bias": c.payload["bias"]}


def _payload_from_jsonable(kind: str, doc: dict) -> dict:
    if kind in ("forest", "tree"):
        return {"trees": [_tree_arrays(tree) for tree in doc["trees"]]}
    return {"weights": np.array(doc["weights"], dtype=np.float64), "bias": float(doc["bias"])}


def _check_payload(kind: str, payload: dict, feature_length: int) -> None:
    """Raise ModelFormatError unless the payload can be scored safely.

    A node splits exactly when its feature is >= 0, as _tree_leaf_values
    reads it. Split nodes need a readable column and both children at
    higher indices, so every walk moves forward and ends at a leaf; leaves
    have no children.
    """

    def bad(message: str):
        raise ModelFormatError(f"malformed model payload: {message}")

    if kind == "logistic":
        if payload["weights"].shape != (feature_length,):
            bad(f"logistic weights have shape {payload['weights'].shape}, want ({feature_length},)")
        if not (np.isfinite(payload["weights"]).all() and math.isfinite(payload["bias"])):
            bad("logistic weights and bias must be finite numbers")
        return
    if not payload["trees"]:
        bad("the model holds no trees")
    for t, tree in enumerate(payload["trees"]):
        size = tree["feature"].size
        if size == 0 or any(tree[key].shape != (size,) for key in _TREE_DTYPES):
            bad(f"tree {t}: node arrays must be one-dimensional, nonempty and of equal length")
        feature, left, right = tree["feature"], tree["left"], tree["right"]
        splits = feature >= 0
        if not (np.array_equal(left >= 0, splits) and np.array_equal(right >= 0, splits)):
            bad(f"tree {t}: split nodes need both children and leaves neither")
        parent = np.flatnonzero(splits)
        for child in (left[splits], right[splits]):
            if ((child <= parent) | (child >= size)).any():
                bad(f"tree {t}: a child index is not after its parent within {size} nodes")
        if (feature >= feature_length).any():
            bad(f"tree {t}: a split reads a column outside 0..{feature_length - 1}")
        if not np.isfinite(tree["threshold"]).all():
            bad(f"tree {t}: thresholds must be finite numbers")
        if not ((tree["value"] >= 0.0) & (tree["value"] <= 1.0)).all():
            bad(f"tree {t}: leaf values must lie in [0, 1]")


def save_model(c: Classifier, sink=None) -> bytes:
    """Serialize to canonical JSON bytes; also writes them when a sink is given."""
    doc = {
        "version": FORMAT_VERSION,
        "kind": c.kind,
        "hyperparameters": c.params,
        "feature_length": c.feature_length,
        "seed": c.seed,
        "featurize_config": c.featurize_config,
        "payload": _payload_to_jsonable(c),
    }
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if sink is not None:
        with open_stream(sink, "wb") as stream:
            stream.write(data)
    return data


def load_model(source) -> Classifier:
    """Rebuild a Classifier from bytes, a JSON string, a stream, or a path.

    Raises ModelFormatError for any document that cannot be scored safely:
    bad JSON or version, missing fields, unknown hyperparameters or feature
    settings, node arrays of unequal length, a tree whose child pointers do
    not move forward, a split on a column outside the feature length, a
    missing threshold, a leaf value outside [0, 1], logistic weights of the
    wrong length, or a logistic weight or bias that is not a finite number.
    """
    if isinstance(source, (str, os.PathLike)) and not (isinstance(source, str) and source.lstrip().startswith("{")):
        with open(source, "rb") as f:
            data = f.read()
    elif hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"model document is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version!r}, expected {FORMAT_VERSION}")
    missing = [key for key in ("kind", "hyperparameters", "feature_length", "seed", "payload") if key not in doc]
    if missing:
        raise ModelFormatError(f"model document is missing fields: {missing}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in DEFAULT_PARAMS:
        raise ModelFormatError(f"unknown classifier kind {kind!r} in model document")
    feature_length = doc["feature_length"]
    if type(feature_length) is not int or feature_length < 1:
        raise ModelFormatError(f"feature_length must be a positive integer, got {feature_length!r}")
    try:
        payload = _payload_from_jsonable(kind, doc["payload"])
        if not isinstance(doc["hyperparameters"], dict):
            raise TypeError("hyperparameters must be a JSON object")
        _merged_params(kind, doc["hyperparameters"])
        if doc.get("featurize_config") is not None:
            config_from_dict(doc["featurize_config"])
        seed = int(doc["seed"])
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ModelFormatError(f"malformed model document: {err}") from None
    _check_payload(kind, payload, feature_length)
    return Classifier(
        kind=kind,
        params=doc["hyperparameters"],
        feature_length=feature_length,
        seed=seed,
        payload=payload,
        featurize_config=doc.get("featurize_config"),
    )
