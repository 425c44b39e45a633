"""Binary classifiers scoring candidate edges in [0, 1].

Three kinds, all trained from scratch so runs are exactly repeatable and
models serialize to plain JSON:

* forest (default): bagged CART trees with gini splits; the score is the
  fraction of trees voting positive. Raw node-ID features are close to
  categorical, which axis-aligned splits handle well. Trees are grown in
  batches, level by level: one level of every tree of a batch is one pass
  over the batch's frontier nodes, so a level's fixed numpy calls are paid
  once per batch, not once per tree. Each tree's bootstrap sample is kept
  as distinct rows weighted by their draw counts, and candidate columns
  are drawn once per level; a node whose drawn columns hold no valid split
  tries further columns. A level finds its splits from a histogram of each
  (node, column) pair's rows per distinct value when there are few
  distinct values per row, as at the shallow levels, and from its rows
  sorted by value otherwise. Tree t draws from its own generator, so its
  bytes do not depend on its batch, and a large enough forest is grown in
  one-shot forked worker processes, one per usable CPU and each growing
  an equal share of the batches, with the same bytes as a serial run (see
  _train_forest and _workers._fork_map).
  Scoring walks each tree over the rows still unfinished: a state 2 * node
  per row, and leaves that loop to themselves so finished rows are looked
  for only every few levels. A tree's walk holds both its float thresholds
  and their int16 floors, so one walk serves every kind of row, and _scores
  alone decides, from the rows, to walk them as int16 wherever every value
  fits. _scores scores every kind: predict_scores builds each tree's walk
  as it is read, and a completion step, which may score its row chunks on
  the same forked workers, reads walks built once per run (see
  _forest_walks and predict._step).
* tree: a single CART tree on every row and column; the score is the
  positive fraction at the leaf.
* logistic: full-batch gradient descent on the log loss; the score is the
  sigmoid of the linear response.

A model saves as one canonical JSON document (sorted keys, compact
separators), written one tree at a time so the whole text is never held on
the way to a file (see _document_chunks), and loads with each tree's lists
turned into arrays as soon as the tree is parsed (see _parse_document).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._seeds import as_int, as_real, as_unit, derive_seed
from ._streams import open_stream
from ._workers import _fork_map, _fork_workers
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

# The score at or above which a row is labeled positive, unless a caller
# passes its own threshold.
DEFAULT_THRESHOLD = 0.5


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
    """The kind's default hyperparameters updated with params, checked.

    Count hyperparameters must be integers (see as_int; None where nullable),
    bootstrap a bool, and learning_rate > 0 and l2 >= 0 real numbers (see
    as_real); numpy numbers are kept as Python ints and floats, so the model
    serializes. Else ValueError. train and load_model share this check.
    """
    if kind not in DEFAULT_PARAMS:
        raise ValueError(f"unknown classifier kind {kind!r}, expected one of {tuple(DEFAULT_PARAMS)}")
    merged = dict(DEFAULT_PARAMS[kind])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown {kind} hyperparameter {key!r}")
        merged[key] = value
    for key, low in (("tree_count", 1), ("min_leaf", 1), ("feature_subsample", 1), ("max_depth", 0), ("epochs", 0)):
        if key in merged and not (key in ("max_depth", "feature_subsample") and merged[key] is None):
            merged[key] = as_int(merged[key], key, low)
    if kind == "forest" and not isinstance(merged["bootstrap"], bool):
        raise ValueError(f"bootstrap must be true or false, got {merged['bootstrap']!r}")
    if kind == "logistic":
        merged["learning_rate"] = as_real(merged["learning_rate"], "learning_rate", "a finite number > 0",
                                          lambda x: x > 0)
        merged["l2"] = as_real(merged["l2"], "l2", "a finite number >= 0", lambda x: x >= 0)
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


def _dense_ranks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's rank among the distinct values of its column, and those
    distinct values: column c's, ascending, are values[offsets[c]:offsets[c + 1]].
    The ranks' dtype holds the most distinct values of any column, which
    may be far fewer than the rows."""
    distinct, inverses = [], []
    for col in range(X.shape[1]):
        column_values, inverse = np.unique(X[:, col], return_inverse=True)
        distinct.append(column_values)
        inverses.append(inverse.astype(_small_int(len(column_values) - 1)))
    ranks = np.stack(inverses, axis=1, dtype=_small_int(max(map(len, distinct)) - 1))
    offsets = np.cumsum([0] + [len(column_values) for column_values in distinct])
    return ranks, np.concatenate(distinct), offsets


# A level's split search counts its entries into one histogram bin per
# (node, candidate column, distinct value) when there are at most this many
# bins per entry, and sorts its entries otherwise.
_HISTOGRAM_BINS_PER_ENTRY = 2
# A histogram bin sums count + positives * 2**_COUNT_BITS in one float64,
# exact while a node's count stays below 2**_COUNT_BITS.
_COUNT_BITS = 26


def _histogram_boundaries(rank: np.ndarray, sizes: np.ndarray, seg_bins: np.ndarray, weight: np.ndarray,
                          pos_weight: np.ndarray):
    """_level_splits' boundaries from the entries' weighted counts in one bin
    per (segment, rank); a boundary lies between consecutive non-empty bins
    of one segment."""
    seg_end = np.cumsum(seg_bins)
    seg_start = seg_end - seg_bins
    bins = (np.repeat(seg_start.reshape(-1, rank.shape[1]), sizes, axis=0) + rank).ravel()
    packed = np.repeat(weight + pos_weight * float(2**_COUNT_BITS), rank.shape[1])
    sums = np.bincount(bins, packed, seg_end[-1]).astype(np.int64)
    filled = np.flatnonzero(sums)
    sums = sums[filled]
    filled_seg = np.searchsorted(seg_end, filled, side="right")
    inner = np.flatnonzero(filled_seg[1:] == filled_seg[:-1])
    b, bseg = filled[inner], filled_seg[inner]
    cum_n = np.cumsum(sums & (2**_COUNT_BITS - 1))[inner]
    cum_pos = np.cumsum(sums >> _COUNT_BITS)[inner]
    return bseg, b - seg_start[bseg], filled[inner + 1] - seg_start[bseg], cum_n, cum_pos


def _sorted_boundaries(rank: np.ndarray, sizes: np.ndarray, weight: np.ndarray, pos_weight: np.ndarray):
    """_level_splits' boundaries from its entries sorted by (segment, rank);
    a boundary lies between distinct ranks of one segment."""
    k = rank.shape[1]
    segments = np.arange(len(sizes) * k, dtype=_small_int(len(sizes) * k)).reshape(-1, k)
    seg = np.repeat(segments, sizes, axis=0).ravel()
    rank = rank.ravel()
    order = np.lexsort((rank, seg))
    entry = order // k
    s_seg, s_rank = seg[order], rank[order]
    cum_n = np.cumsum(weight[entry])
    cum_pos = np.cumsum(pos_weight[entry])
    b = np.flatnonzero((s_rank[1:] != s_rank[:-1]) & (s_seg[1:] == s_seg[:-1]))
    return s_seg[b].astype(np.intp), s_rank[b], s_rank[b + 1], cum_n[b], cum_pos[b]


def _level_splits(
    ranks: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    rows: np.ndarray,
    weight: np.ndarray,
    pos_weight: np.ndarray,
    sizes: np.ndarray,
    node_n: np.ndarray,
    node_pos: np.ndarray,
    cols: np.ndarray,
    min_leaf: int,
):
    """Best split of each node of a level among its candidate columns.

    ranks, values and offsets are _dense_ranks(X). The entries (rows,
    weight, pos_weight) are grouped by node, sizes[i] of them for node i,
    whose weights sum to node_n[i] and positive weights to node_pos[i], and
    whose candidate columns are cols[i]. Returns per node the split column
    (-1 where no boundary is valid), the rank on the left side of the cut,
    and the threshold.

    Row e under its node's j-th column is entry e * k + j, in segment
    (node, j). Every boundary between two distinct ranks of a segment is
    scored from the weighted counts left of it. When the level's segments
    hold at most _HISTOGRAM_BINS_PER_ENTRY distinct ranks per entry in
    total, those counts come from one histogram bin per (segment, rank);
    otherwise from the entries sorted by (segment, rank). Both give the
    same boundaries in the same order, with integer counts.
    """
    nodes, k = cols.shape
    total_features = ranks.shape[1]
    split_col = np.full(nodes, -1, dtype=np.intp)
    cut = np.zeros(nodes, dtype=ranks.dtype)
    threshold = np.zeros(nodes)

    rank = ranks.ravel().take((rows * total_features)[:, None] + np.repeat(cols, sizes, axis=0))
    seg_bins = np.diff(offsets)[cols].ravel()
    if seg_bins.sum() <= _HISTOGRAM_BINS_PER_ENTRY * rank.size and node_n.max() < 2**_COUNT_BITS:
        bseg, low, high, cum_n, cum_pos = _histogram_boundaries(rank, sizes, seg_bins, weight, pos_weight)
    else:
        bseg, low, high, cum_n, cum_pos = _sorted_boundaries(rank, sizes, weight, pos_weight)

    # Every segment of a node holds the node's rows, so the sums before
    # segment (i, j) are k times those of nodes before i plus j times i's.
    before_n = ((np.cumsum(node_n) - node_n)[:, None] * k + np.arange(k) * node_n[:, None]).ravel()
    before_pos = ((np.cumsum(node_pos) - node_pos)[:, None] * k + np.arange(k) * node_pos[:, None]).ravel()
    left_n = cum_n - before_n[bseg]
    left_pos = cum_pos - before_pos[bseg]
    bnode = bseg // k
    right_n = node_n[bnode] - left_n
    right_pos = node_pos[bnode] - left_pos
    if min_leaf > 1:
        ok = (left_n >= min_leaf) & (right_n >= min_leaf)
        bseg, low, high, bnode, left_n, left_pos, right_n, right_pos = (
            arr[ok] for arr in (bseg, low, high, bnode, left_n, left_pos, right_n, right_pos)
        )
    if not len(bseg):
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
    split = bnode[chosen]
    split_col[split] = cols[split, bseg[chosen] % k]
    cut[split] = low[chosen]
    # The distinct values on both sides of the cut; a zero's sign, which
    # np.unique keeps for only one of 0.0 and -0.0, cannot change the sum
    # with the other, nonzero value.
    below, above = (values[offsets[split_col[split]] + side[chosen]].astype(np.float64) for side in (low, high))
    with np.errstate(over="ignore"):
        mid = (below + above) / 2.0
    # Halve first only where the sum overflows, so every other threshold
    # keeps its bytes.
    threshold[split] = np.where(np.isfinite(mid), mid, below / 2.0 + above / 2.0)
    return split_col, cut, threshold


def _lowest_keys(keys: np.ndarray, k: int) -> np.ndarray:
    """Per row of keys, the k columns a stable argsort puts first (those of
    the k lowest keys, the lower column winning a tie), in no set order. A
    partition finds them; a row whose k-th and (k+1)-th lowest keys tie is
    sorted instead."""
    part = np.argpartition(keys, (k - 1, k), axis=1)
    edge = np.take_along_axis(keys, part[:, k - 1:k + 1], axis=1)
    tied = edge[:, 0] == edge[:, 1]
    lowest = part[:, :k]
    if tied.any():
        lowest[tied] = np.argsort(keys[tied], axis=1, kind="stable")[:, :k]
    return lowest


def _grow_trees(
    ranks: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    y: np.ndarray,
    rngs: list,
    max_depth: int | None,
    min_leaf: int,
    n_features: int,
    bootstrap: bool,
) -> list[dict]:
    """Grow a batch of trees in lockstep, level by level; returns each tree's
    node arrays, tree t drawing from rngs[t].

    ranks, values and offsets are _dense_ranks(X). Each tree's bootstrap
    sample is drawn first and kept as distinct rows with integer weights.
    The frontier nodes of every tree form one array, tree-major, and each
    depth level is handled by one _level_splits call for the whole batch
    (or a few, see below): within each (frontier node, candidate column)
    segment, every boundary between distinct values is scored by weighted
    counts of the rows left of it, taken from a histogram of the ranks at
    levels with few distinct values per entry and from a sort of the
    entries at the others. A node splits at the boundary of maximum gini
    purity, sum over both sides of (pos^2 + neg^2) / size; ties go to the
    smallest left count, then the lowest column. The threshold is the
    midpoint of the two values at the boundary. Every node's split depends
    only on its own entries, so a tree is the same in any batch.

    When fewer than all columns are candidates, each splittable node of a
    level gets one random key per column, drawn from its tree's generator
    once per level in level order, and its candidates are the n_features
    columns of lowest key (the lower column first among equal keys). A node
    with no valid boundary among them goes on to the next n_features
    columns in key order, until one block splits it or the columns run out,
    so an unlucky draw of constant columns does not end a branch that could
    still be split. Only the nodes that go past the first block have their
    keys fully sorted.

    Each tree's nodes are numbered in the order they are grown, level by
    level: the children of its j-th split node are 2j+1 and 2j+2. A tree
    stops growing when its frontier empties, and is fully determined by
    (data, params, its generator's seed).
    """
    m, total_features = ranks.shape
    samples = [np.unique(rng.integers(0, m, size=m), return_counts=True) if bootstrap
               else (np.arange(m), np.ones(m, dtype=np.int64)) for rng in rngs]
    rows, weight = (np.concatenate(arrays) for arrays in zip(*samples))
    pos_weight = weight * y[rows]
    sizes = np.array([len(sample_rows) for sample_rows, _ in samples])  # entries of each frontier node, grouped by node
    tree = np.arange(len(rngs))  # the tree of each frontier node, ascending
    levels = []  # per depth: (value, feature, threshold, tree) of its nodes, in level order
    depth = 0
    while True:
        starts = np.cumsum(sizes) - sizes
        count = np.add.reduceat(weight, starts)
        pos = np.add.reduceat(pos_weight, starts)
        feature = np.full(len(sizes), -1, dtype=np.int32)
        threshold = np.zeros(len(sizes))
        levels.append((pos / count, feature, threshold, tree))
        splittable = (pos > 0) & (pos < count) & (count >= 2 * min_leaf)
        if max_depth is not None and depth >= max_depth or not splittable.any():
            break
        keep = np.repeat(splittable, sizes)
        rows, weight, pos_weight = rows[keep], weight[keep], pos_weight[keep]
        open_nodes = np.flatnonzero(splittable)
        sizes = sizes[open_nodes]
        drawn = n_features < total_features
        if drawn:
            per_tree = np.bincount(tree[open_nodes], minlength=len(rngs))
            keys = np.concatenate([rngs[t].random((n, total_features)) for t, n in enumerate(per_tree) if n])

        split_col = np.full(len(open_nodes), -1, dtype=np.intp)
        cut = np.zeros(len(open_nodes), dtype=ranks.dtype)
        todo = np.arange(len(open_nodes))  # open nodes still without a split
        entries = rows, weight, pos_weight  # the entries of the todo nodes
        for lo in range(0, total_features, n_features):
            if not drawn:
                cols = np.broadcast_to(np.arange(total_features), (len(todo), total_features))
            elif lo == 0:
                cols = np.sort(_lowest_keys(keys, n_features), axis=1)
            else:
                if lo == n_features:
                    column_order = np.empty(keys.shape, dtype=np.intp)
                    column_order[todo] = np.argsort(keys[todo], axis=1, kind="stable")
                cols = np.sort(column_order[todo, lo:lo + n_features], axis=1)
            col, at_rank, at_threshold = _level_splits(ranks, values, offsets, *entries, sizes[todo],
                                                       count[open_nodes[todo]], pos[open_nodes[todo]], cols, min_leaf)
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

        # Next frontier: the rows of each split node, left child then right,
        # so each tree's children follow its split order and stay tree-major.
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
        tree = np.repeat(tree[open_nodes[split_open]], 2)
        depth += 1
    # Each tree's nodes of every level, in level order.
    value, feature, threshold, tree = (np.concatenate(arrays) for arrays in zip(*levels))
    order = np.argsort(tree, kind="stable")
    bounds = np.searchsorted(tree[order], np.arange(1, len(rngs)))
    return [_level_order_arrays(*arrays) for arrays in
            zip(*(np.split(arr[order], bounds) for arr in (value, feature, threshold)))]


def _level_order_arrays(value: np.ndarray, feature: np.ndarray, threshold: np.ndarray) -> dict:
    """Node arrays numbered in level order from a tree's nodes in level
    order: as each level holds the children of the split nodes above, left
    then right, the j-th split node has the children 2j+1 and 2j+2."""
    left = np.full(len(feature), -1)
    left[feature >= 0] = 2 * np.arange(np.count_nonzero(feature >= 0)) + 1
    right = np.where(left >= 0, left + 1, -1)
    return _tree_arrays({"feature": feature, "threshold": threshold, "left": left, "right": right, "value": value})


def _narrows_to_int16(X: np.ndarray) -> bool:
    """Whether X holds integers in -2**15 < x < 2**15. The lower bound is
    strict so that no value meets a threshold clipped to -2**15."""
    return X.dtype.kind in "iu" and (X.size == 0 or (X.min() > -2**15 and X.max() < 2**15))


def _tree_walk(tree: dict) -> dict:
    """The arrays _tree_leaf_values walks one tree with, indexed by the state
    s = 2 * node: feature, threshold, floor, leaf and value repeated twice,
    and child the interleaved (left, right) pairs times 2. A leaf reads
    column 0 and both its children are itself, so a row stays at its leaf
    whatever it reads. floor is the int16 floor(threshold) clipped to the
    int16 range, read in place of threshold by rows that _scores narrows to
    int16 (see _narrows_to_int16): for an integer x and a real t, x > t
    exactly when x > floor(t). So one walk serves every kind of row.
    """
    leaf = tree["feature"] < 0
    node = np.arange(len(leaf))
    floor = np.clip(np.floor(tree["threshold"]), -2**15, 2**15 - 1).astype(np.int16)
    pairs = np.where(leaf[:, None], node[:, None], np.stack([tree["left"], tree["right"]], axis=1))
    return {
        "feature": np.repeat(np.where(leaf, 0, tree["feature"]).astype(np.intp), 2),
        "threshold": np.repeat(tree["threshold"], 2),
        "floor": np.repeat(floor, 2),
        "child": 2 * pairs.ravel().astype(np.intp),
        "leaf": np.repeat(leaf, 2),
        "value": np.repeat(tree["value"], 2),
    }


# _tree_leaf_values moves its rows this many levels between looks for
# finished rows; rows at a leaf meanwhile stay there.
_LEAF_CHECK_LEVELS = 3


def _tree_leaf_values(walk: dict, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positive fraction at the leaf reached by each row X[rows] in the tree
    of walk (_tree_walk), for the row indices rows (read in place: X is
    C-contiguous). int16 rows, which must hold no -2**15, are compared with
    the walk's floor thresholds, every other dtype with its float ones.

    Only the unfinished rows are walked: their positions in rows, their
    offsets into the flat matrix and their states. One level is one gather
    of each row's value at offset + feature and one gather of the child
    pair, child[s + (value > threshold)], so any numbering whose child
    pointers move forward is walked alike. Every _LEAF_CHECK_LEVELS levels
    the rows at a leaf take its value and leave the three arrays. Indices
    are intp and gathers use take, numpy's fastest gather for them.
    """
    feature, child = walk["feature"], walk["child"]
    threshold = walk["floor" if X.dtype == np.int16 else "threshold"]
    flat = X.ravel()
    out = np.empty(len(rows))
    at = np.arange(len(rows))
    offset = rows * X.shape[1]
    s = np.zeros(len(rows), dtype=np.intp)
    while len(at):
        for _ in range(_LEAF_CHECK_LEVELS):
            s = child.take(s + (flat.take(offset + feature.take(s)) > threshold.take(s)))
        done = walk["leaf"].take(s)
        if done.any():
            out[at[done]] = walk["value"].take(s[done])
            going = ~done
            at, offset, s = at[going], offset[going], s[going]
    return out


def _resolve_feature_count(total: int, requested) -> int:
    if requested is None:
        return round(math.sqrt(total))
    if requested > total:
        raise ValueError(f"feature_subsample must be in 1..{total}, got {requested}")
    return requested


# Worker processes grow a forest only from this many rows x trees on.
# Measured with 2 workers against batched in-process growth, on forests of
# 10-100 trees and 4-162 columns: from 30,000 they took 0.63-0.88 of the
# time, at 20,000-25,000 0.77-1.00, at 15,000 0.86-1.08 and at 10,000
# 0.91-1.31, starting the workers and collecting the trees costing about
# as much as the trees. Rows x columns x trees predicted this worse.
_POOL_MIN_ROW_TREES = 20_000


# A batch of trees grows in one level loop while its trees' bootstrap rows x
# candidate columns stay within this many entries; a level's arrays grow
# with them. Measured with 100 trees on 3,778 rows and 2 workers: from 2^17
# to 2^20, a=3 b=1 (5 candidate columns) took 0.27-0.23 s, a=5 b=3 (13)
# was fastest here at 0.45 s and took 0.51 s at 2^19-2^20, as its levels'
# arrays outgrew the caches, and a worker's peak RSS rose by 2-4 MB here
# against 18-27 MB at 2^20.
_BATCH_ENTRIES = 2**18


def _train_forest(X: np.ndarray, y: np.ndarray, params: dict, seed: int) -> dict:
    """Grow the trees in batches, in worker processes (_fork_map) from
    _POOL_MIN_ROW_TREES rows x trees on.

    Batch i holds the trees i, i + batches, i + 2 * batches, ..., at most
    _BATCH_ENTRIES // (rows x candidate columns) of them, and the batch
    count is rounded up to a multiple of the worker count (but no more than
    one batch per tree), so each worker grows an equal share. Tree t
    depends only on the inputs and derive_seed(seed, "tree", t), so its
    bytes do not depend on its batch or on which process grows it.
    """
    n_features = _resolve_feature_count(X.shape[1], params["feature_subsample"])
    table = _dense_ranks(X)
    tree_count = params["tree_count"]
    workers = _fork_workers(X.shape[0] * tree_count, _POOL_MIN_ROW_TREES)
    batches = -(-tree_count // max(1, _BATCH_ENTRIES // (X.shape[0] * n_features)))
    batches = min(tree_count, -(-batches // workers) * workers)

    def grow(i: int) -> list[dict]:
        rngs = [np.random.default_rng(derive_seed(seed, "tree", t)) for t in range(i, tree_count, batches)]
        return _grow_trees(*table, y, rngs, params["max_depth"], params["min_leaf"], n_features, params["bootstrap"])

    trees = [None] * tree_count
    for i, batch in enumerate(_fork_map(grow, batches, workers)):
        trees[i::batches] = batch
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

    Rows must have at least one column, feature values be finite numbers,
    labels exactly 0 or 1, the seed and the count hyperparameters
    (tree_count, min_leaf, feature_subsample, max_depth, epochs) integers
    (kept as ints; None is allowed only for feature_subsample and
    max_depth), bootstrap a bool (which is no integer), and learning_rate
    > 0 and l2 >= 0 real numbers (see as_real; a numpy number is kept as
    a Python int or float); else ValueError. A logistic fit that
    diverges to weights or a bias that are not finite raises ValueError
    too, so every returned model saves and loads. Large forests are grown
    in worker processes (see _train_forest): an error a worker raises is
    raised here, a worker that dies raises ChildProcessError and a failed
    fork its OSError.
    """
    matrix = _as_matrix(X)
    labels = _as_labels(y, matrix.shape[0])
    if matrix.shape[0] == 0:
        raise ValueError("cannot train on an empty dataset")
    if matrix.shape[1] == 0:
        raise ValueError("cannot train on rows with no columns")
    if labels.min() == labels.max():
        raise ValueError("training data holds a single class, need both labels")
    seed = as_int(seed, "seed")
    merged = _merged_params(kind, params)
    loss_history: list[float] = []
    if kind == "forest":
        payload = _train_forest(matrix, labels, merged, seed)
    elif kind == "tree":
        single = {**merged, "tree_count": 1, "feature_subsample": matrix.shape[1], "bootstrap": False}
        payload = _train_forest(matrix, labels, single, seed)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
            payload, loss_history = _train_logistic(matrix, labels, merged, seed)
        if not (np.isfinite(payload["weights"]).all() and math.isfinite(payload["bias"])):
            raise ValueError("logistic training diverged to weights or a bias that are not finite; "
                             "lower learning_rate or l2")
    return Classifier(
        kind=kind,
        params=merged,
        feature_length=matrix.shape[1],
        seed=seed,
        payload=payload,
        loss_history=loss_history,
    )


def predict_scores(c: Classifier, X, *, floor: float = 0.0) -> np.ndarray:
    """Scores in [0, 1] for a batch of rows; a row's score depends on that
    row alone, so batch order and size are irrelevant, to the last bit.

    Feature values must be finite numbers, else ValueError. Only the rows
    scoring at least floor (in [0, 1]) need their exact score: a forest
    walks each tree over the rows that can still reach need, the fewest
    votes whose score reaches floor (0 at floor 0, so every row), drops a
    row once its votes plus the trees left fall short of need, and reports
    that row's votes so far, which score below floor. Every other row, and
    every row of the tree and logistic kinds, gets its full score, so
    `scores >= floor` is the same mask whatever the floor.
    """
    matrix = _as_matrix(X)
    if matrix.shape[1] != c.feature_length:
        raise ValueError(f"expected rows of length {c.feature_length}, got {matrix.shape[1]}")
    floor = as_unit(floor, "floor")
    # Each tree's walk is built as it is read, so a call holds one tree's
    # walk arrays at a time: built for the whole forest first, they raised
    # the `cell` benchmark's peak RSS from 52 to 57 MB.
    return _scores(c, (_tree_walk(tree) for tree in c.payload.get("trees", ())), matrix, floor)


def _forest_walks(c: Classifier) -> list[dict]:
    """The walk arrays of every tree of c (none for a logistic model),
    built once for many calls of _scores with rows of any kind."""
    return [_tree_walk(tree) for tree in c.payload.get("trees", ())]


def _scores(c: Classifier, walks, X: np.ndarray, floor: float) -> np.ndarray:
    """predict_scores of c at floor over the checked rows X, from the walks
    of its trees (an iterable in tree order; a logistic model reads none).

    This is the one place the rows' walk dtype is decided, from the rows
    themselves: the walk reads X in place, C-contiguous, as int16 wherever
    _narrows_to_int16 allows, so it compares 2-byte values with the walks'
    floor thresholds; other rows keep their dtype, except int16 rows that
    hold -2**15, which become int32. A forest's fewest votes whose score
    reaches floor, by the final score's own division, is need; after each
    tree, a row short of need with the trees left cannot reach floor and is
    walked no further.
    """
    if c.kind == "logistic":
        # Summed one column at a time: the last bits of a matrix product's
        # row depend on the rows multiplied with it, so row chunks would
        # score differently from one matrix.
        Xf = X.astype(np.float64)
        return _sigmoid(sum(Xf[:, j] * weight for j, weight in enumerate(c.payload["weights"])) + c.payload["bias"])
    X = np.ascontiguousarray(X, dtype=np.int16 if _narrows_to_int16(X) else np.int32 if X.dtype == np.int16 else None)
    if c.kind == "tree":
        return _tree_leaf_values(next(iter(walks)), X, np.arange(len(X)))
    total = len(c.payload["trees"])
    need = int(np.searchsorted(np.arange(total + 1) / total, floor))
    votes = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])  # the rows that can still reach floor
    for t, walk in enumerate(walks, 1):
        votes[rows] += _tree_leaf_values(walk, X, rows) >= 0.5
        if total - t < need:
            rows = rows[votes[rows] + (total - t) >= need]
    return votes / total


def predict_score(c: Classifier, x) -> float:
    """Score one feature vector."""
    return float(predict_scores(c, [list(x)])[0])


def predict_label(c: Classifier, x, threshold: float = DEFAULT_THRESHOLD) -> int:
    """1 when the score clears the threshold (inclusive), else 0. threshold
    must be a number in [0, 1] (see as_unit), else ValueError."""
    threshold = as_unit(threshold, "threshold")
    return 1 if predict_score(c, x) >= threshold else 0


# ---------------------------------------------------------------------------
# Serialization: versioned JSON, numbers kept at full round-trip precision


def _json_array(values, name: str, dtype) -> np.ndarray:
    """values as a dtype array, if a JSON array of integers (numbers for a float dtype; a bool is neither)
    or already such an array (see _parse_document)."""
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        return values
    integers = np.issubdtype(dtype, np.integer)
    if not isinstance(values, list) or not set(map(type, values)) <= ({int} if integers else {int, float}):
        raise TypeError(f"{name} must be an array of JSON {'integers' if integers else 'numbers'}")
    return np.array(values, dtype=dtype)


def _parse_document(text: str):
    """json.loads(text), with each tree's node lists made arrays as soon as
    the tree is parsed, so no list copy of more than one tree is held.

    Every object whose keys are exactly the node arrays' names is converted
    by _json_array while the JSON is parsed; one it refuses is left as
    parsed, for _payload_from_jsonable to refuse with its message. Only the
    objects in the payload's "trees" list are trees: should a converted
    object sit anywhere else, the text is parsed again as plain JSON, so
    every field reads as written and every error names it so.
    """
    converted = []

    def tree_arrays(obj: dict):
        if obj.keys() == _TREE_DTYPES.keys():
            try:
                obj = {key: _json_array(value, key, _TREE_DTYPES[key]) for key, value in obj.items()}
            except (TypeError, OverflowError):  # OverflowError: an integer past int32 or float64
                return obj
            converted.append(obj)
        return obj

    doc = json.loads(text, object_hook=tree_arrays)
    payload = doc.get("payload") if isinstance(doc, dict) else None
    trees = payload.get("trees") if isinstance(payload, dict) else None
    placed = {id(tree) for tree in trees} if isinstance(trees, list) else set()
    if any(id(tree) not in placed for tree in converted):
        return json.loads(text)
    return doc


def _payload_from_jsonable(kind: str, doc: dict) -> dict:
    if kind in ("forest", "tree"):
        return {"trees": [{key: _json_array(tree[key], key, dtype) for key, dtype in _TREE_DTYPES.items()}
                          for tree in doc["trees"]]}
    bias = float(as_real(doc["bias"], "bias", "a finite number", lambda x: True))
    return {"weights": _json_array(doc["weights"], "weights", np.float64), "bias": bias}


def _check_payload(kind: str, payload: dict, feature_length: int) -> None:
    """Raise ModelFormatError unless the payload can be scored safely.

    A node splits exactly when its feature is >= 0, as _tree_walk reads
    it. Split nodes need a readable column and both children at higher
    indices, so every walk moves forward and ends at a leaf, where
    _tree_walk's self-loops hold it; leaves have no children, and
    feature_length >= 1 gives them column 0 to read.
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
    if kind == "tree" and len(payload["trees"]) != 1:
        bad(f"a tree model holds exactly one tree, got {len(payload['trees'])}")
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


def _document_chunks(c: Classifier):
    """The model document as text chunks whose concatenation is one
    json.dumps of it (sort_keys, compact separators): a logistic model is
    one chunk; a forest or tree is the text up to its trees' list, then each
    tree, then the rest. A compact, key-sorted dumps of an object is its
    members' dumps joined by commas, so a tree dumped alone gives the same
    bytes as inside the whole document, and only one tree's text is built at
    a time. json.dumps reads each array through tolist as it reaches it
    (default=), so no list copy of more than one array is held."""
    def dumps(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)

    doc = {
        "version": FORMAT_VERSION,
        "kind": c.kind,
        "hyperparameters": c.params,
        "feature_length": c.feature_length,
        "seed": c.seed,
        "featurize_config": c.featurize_config,
        "payload": {"trees": []},
    }
    if c.kind == "logistic":
        yield dumps({**doc, "payload": {"weights": c.payload["weights"], "bias": c.payload["bias"]}})
        return
    # The trees' list is the document's last "[]": only the seed and the
    # version, two numbers, follow the payload in key order.
    head, _, tail = dumps(doc).rpartition("[]")
    yield head + "["
    for t, tree in enumerate(c.payload["trees"]):
        yield ("," if t else "") + dumps({key: tree[key] for key in _TREE_DTYPES})
    yield "]" + tail


def save_model(c: Classifier, sink=None) -> bytes | None:
    """The model as canonical JSON bytes; with a sink (a path or a binary
    stream), writes them there instead, chunk by chunk (see
    _document_chunks), and returns None, so the whole document is never
    held. A path is written to a new file that replaces it only once every
    chunk is written (see open_stream)."""
    chunks = _document_chunks(c)
    if sink is None:
        return "".join(chunks).encode("utf-8")
    with open_stream(sink, "wb") as stream:
        for chunk in chunks:
            stream.write(chunk.encode("utf-8"))
    return None


def load_model(source) -> Classifier:
    """Rebuild a Classifier from bytes, a JSON string, a stream, or a path;
    a str that names an existing file is a path, even if it starts with "{".

    Raises ModelFormatError for any document that cannot be scored safely:
    bad JSON or version, missing fields, a seed that is not an int, unknown
    or mistyped hyperparameters or feature settings (a bool is not an int),
    split columns or child pointers that are not JSON integers, other node
    or logistic values that are not JSON numbers (a bool is neither), a
    learning_rate or l2 that is not a finite number (or not > 0 and >= 0),
    a tree model with other than exactly one tree, node arrays of unequal
    length, a tree whose child pointers do not move forward, a split on a
    column outside the feature length, a leaf value outside [0, 1],
    logistic weights of the wrong length, or a threshold, logistic weight
    or bias that is not a finite number.

    Each tree becomes arrays as soon as it is parsed (see _parse_document),
    and bytes read from a path or stream are dropped once decoded, so the
    parse holds the text, the arrays and one tree's lists at most.
    """
    if isinstance(source, (bytes, bytearray)) or (
            isinstance(source, str) and source.lstrip().startswith("{") and not os.path.isfile(source)):
        data = source
    else:
        with open_stream(source, "rb") as stream:
            data = stream.read()
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")  # bytes read here are dropped as soon as decoded
    try:
        doc = _parse_document(data)
    except (json.JSONDecodeError, RecursionError) as err:  # RecursionError: nested too deeply
        raise ModelFormatError(f"model document is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version!r}, expected {FORMAT_VERSION}")
    missing = [key for key in ("kind", "hyperparameters", "feature_length", "seed", "payload") if key not in doc]
    if missing:
        raise ModelFormatError(f"model document is missing fields: {missing}")
    seed = doc["seed"]
    if type(seed) is not int:
        raise ModelFormatError(f"seed must be an integer, got {seed!r}")
    kind = doc["kind"]
    try:
        if not isinstance(doc["hyperparameters"], dict):
            raise TypeError("hyperparameters must be a JSON object")
        _merged_params(kind, doc["hyperparameters"])  # checks kind first
        feature_length = as_int(doc["feature_length"], "feature_length", 1)
        payload = _payload_from_jsonable(kind, doc["payload"])
        if doc.get("featurize_config") is not None:
            config_from_dict(doc["featurize_config"])
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
