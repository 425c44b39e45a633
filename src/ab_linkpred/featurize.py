"""Per-pair neighborhood features, dataset assembly, balancing, splitting.

Each node pair (u, v) becomes one integer row: a block of neighbor IDs
grown from u, the same for v, then u and v themselves. Those last two
columns are the only record of a row's pair: Dataset, Split and PairRow
read their pairs off them. A block starts with the first `a` ordered
neighbors of the root and is expanded for `b` rounds; round i re-expands
the block entries at positions (i-1)*a .. i*a-1, each contributing its own
first `a` not-yet-emitted neighbors. Groups short of `a` entries are padded
with zeros, and a zero entry expands to `a` zeros, so every row has exactly
2*(a + a*a*b) + 2 values.

A pair (u, v), u > v, is named by its index p = (u-1)(u-2)/2 + v - 1, its
rank in Graph.candidate_pairs() order. A graph's edge index is the sorted
array of its edges' pair indices, read off the adjacency lists in O(m).
Every label, balanced sample and completion's non-edges come from it, so
no stage holds an n x n array or all n(n-1)/2 pairs unless it returns a
row for each.

Rows are filled from a block table, each root's block built once. All
candidate pairs, in pair index order, are root u's contiguous slab of rows
(u, 1) .. (u, u - 1), written as one broadcast of u's block and one copy of
the blocks of 1 .. u - 1; explicit pairs are gathered from the table in
row chunks.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass

import numpy as np

from ._seeds import as_int, as_real, derive_seed
from ._streams import open_stream
from .centrality import CentralityTable, Strategy, neighbor_orders
from .graph import Graph


@dataclass(frozen=True)
class FeatureConfig:
    """Knobs of the neighborhood features.

    ``a`` is the number of neighbors taken per expanded node, ``b`` the
    number of expansion rounds. ``seed`` drives every randomized stage of a
    pipeline built from this config. ``mask_pair_edge`` hides the pair's
    own edge: v is left out of u's level-0 group and u out of v's, the only
    place the edge can appear. The label always reflects the true graph.
    Off by default: the plain features deliberately expose the pair's own
    edge through the level-0 neighbors.
    """

    a: int
    b: int
    strategy: Strategy
    mask_pair_edge: bool = False
    seed: int = 42

    def __post_init__(self) -> None:
        for name, low in (("a", 1), ("b", 0), ("seed", None)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, low))
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"strategy must be a Strategy, got {self.strategy!r}")
        if not isinstance(self.mask_pair_edge, bool):
            raise ValueError(f"mask_pair_edge must be a bool, got {self.mask_pair_edge!r}")

    @property
    def block_length(self) -> int:
        return self.a + self.a * self.a * self.b

    @property
    def row_length(self) -> int:
        return 2 * self.block_length + 2


def _row_pairs(X: np.ndarray) -> list[tuple[int, int]]:
    """The (u, v) pair of each row of X, read off its last two columns."""
    return list(zip(X[:, -2].tolist(), X[:, -1].tolist()))


@dataclass
class PairRow:
    """One extracted row: feature vector x, which ends with the pair, and
    label y; u and v read the pair off x."""

    x: list[int]
    y: int
    u = property(lambda self: self.x[-2])
    v = property(lambda self: self.x[-1])


@dataclass
class Dataset:
    """Feature matrix and labels for a sequence of node pairs. Each row ends
    with its pair, the only record of it: pairs reads them off X's last two
    columns on every access, as a list of (u, v) tuples of ints."""

    X: np.ndarray  # (rows, row_length) int32
    y: np.ndarray  # (rows,) int8
    config: FeatureConfig
    pairs = property(lambda self: _row_pairs(self.X))

    @property
    def positive_count(self) -> int:
        return int(self.y.sum())

    @property
    def negative_count(self) -> int:
        return len(self.y) - self.positive_count


@dataclass
class Split:
    """Stratified train/test partition of a Dataset; train_pairs and
    test_pairs read each side's pairs off its rows, as Dataset.pairs does."""

    Xtrain: np.ndarray
    ytrain: np.ndarray
    Xtest: np.ndarray
    ytest: np.ndarray
    test_fraction: float
    seed: int
    train_pairs = property(lambda self: _row_pairs(self.Xtrain))
    test_pairs = property(lambda self: _row_pairs(self.Xtest))


def config_to_dict(config: FeatureConfig) -> dict:
    return {
        "a": config.a,
        "b": config.b,
        "strategy_kind": config.strategy.kind,
        "strategy_seed": config.strategy.seed,
        "mask_pair_edge": config.mask_pair_edge,
        "seed": config.seed,
    }


def config_from_dict(doc: dict) -> FeatureConfig:
    return FeatureConfig(
        a=doc["a"],
        b=doc["b"],
        strategy=Strategy(doc["strategy_kind"], doc["strategy_seed"]),
        mask_pair_edge=doc["mask_pair_edge"],
        seed=doc["seed"],
    )


def _emit_group(neighbors, a: int, visited: set, block: list) -> None:
    """Append the first `a` unvisited entries of neighbors, zero-padded.

    Emitted IDs join the visited set immediately, so later groups of the
    same block never repeat them. A zero entry is expanded with orders[0],
    the empty list, so its group is `a` zeros.
    """
    filled = 0
    for w in neighbors:
        if w in visited:
            continue
        block.append(w)
        visited.add(w)
        filled += 1
        if filled == a:
            break
    if filled < a:
        block.extend((0,) * (a - filled))


def _neighbor_block(orders, root: int, a: int, b: int, hidden: int = 0) -> list[int]:
    """One root's block: level-0 group plus b expansion rounds.

    The visited set starts as {root}, so the root never appears in its own
    block and no nonzero ID is emitted twice within it. The hidden node
    (by default 0, which names no node) is left out of the level-0 group;
    that masks the edge (root, hidden) from the whole block, since the root
    is expanded only there, and when hidden is reached and expanded later
    the root is already visited.
    """
    visited = {root}
    block: list[int] = []
    level0 = [w for w in orders[root] if w != hidden] if hidden else orders[root]  # no copy when unmasked
    _emit_group(level0, a, visited, block)
    for i in range(b):
        lo = i * a
        for node in block[lo:lo + a]:
            _emit_group(orders[node], a, visited, block)
    return block


_GATHER_ROWS = 4096  # rows per gather step; bounds the temporaries of the block copies


def _pair_index(u, v):
    """The rank of the pair (u, v), u > v, in Graph.candidate_pairs() order;
    _pair_index(n + 1, 1) is the number of pairs of n nodes."""
    return (u - 1) * (u - 2) // 2 + v - 1


def _pair_nodes(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint columns u > v of the pair indices p: u is the largest
    node with _pair_index(u, 1) <= p. For u below 2^28 the float square
    root can only round up, by at most one row, so one integer step
    corrects it."""
    u = ((np.sqrt(8 * p + 1) + 3) * 0.5).astype(np.int64)
    u -= _pair_index(u, 1) > p
    return u, p - _pair_index(u, 1) + 1


def _edge_index(g: Graph) -> np.ndarray:
    """The sorted pair index of every edge, read off the sorted adjacency
    lists in O(m): each node's neighbors below it, node by node."""
    adj = [g.neighbors(u) for u in range(1, g.node_count + 1)]
    u = np.repeat(np.arange(1, g.node_count + 1), [len(a) for a in adj])
    v = np.array([w for a in adj for w in a], dtype=np.int64)
    return _pair_index(u, v)[v < u]


def _pair_columns(pairs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint columns of explicit pairs, a list or a (k, 2) array; each
    must name two distinct nodes in 1..n."""
    arr = np.asarray(pairs) if len(pairs) else np.zeros((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ValueError("pairs must be a sequence of (u, v) integer node IDs")
    u, v = arr.T.astype(np.intp)
    bad = (u < 1) | (u > n) | (v < 1) | (v > n) | (u == v)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"pair {(int(u[i]), int(v[i]))} must name two distinct nodes in 1..{n}")
    return u, v


def create_pair_features(g: Graph, u: int, v: int, config: FeatureConfig) -> PairRow:
    """Extract the feature row and label for one node pair: a one-row build_dataset."""
    d = build_dataset(g, config, pairs=[(u, v)])
    return PairRow(x=d.X[0].tolist(), y=int(d.y[0]))


def build_dataset(g: Graph, config: FeatureConfig, *, table: CentralityTable | None = None, pairs=None) -> Dataset:
    """One row per candidate pair (or per given pair, in the given order).

    The centrality table is computed when not supplied. Explicit pairs must
    name two distinct nodes in 1..n, else ValueError; whatever their form,
    they are written into the rows, and Dataset.pairs reads them back as
    (u, v) tuples of ints. Every row is labelled alike: its pair index, in
    either orientation, is looked up in the edge index. All candidate pairs are written root by root as slabs
    of the block table (_slab_rows); explicit pairs are gathered from it
    (_gathered_rows).
    """
    if pairs is None:
        p = np.arange(_pair_index(g.node_count + 1, 1))
        u, v = _pair_nodes(p)
        orders, blocks = _block_table(g, config, range(1, g.node_count + 1), table)
        X = _slab_rows(blocks, config)
    else:
        u, v = _pair_columns(pairs if isinstance(pairs, np.ndarray) else list(pairs), g.node_count)
        p = _pair_index(np.maximum(u, v), np.minimum(u, v))
        orders, blocks = _block_table(g, config, np.unique(np.concatenate([u, v])).tolist(), table)
        X = _gathered_rows(blocks, config, u, v)
    edge = np.isin(p, _edge_index(g))
    _finish_rows(X, orders, blocks, config, u, v, edge)
    return Dataset(X=X, y=edge.astype(np.int8), config=config)


def _block_table(g: Graph, config: FeatureConfig, roots, table: CentralityTable | None):
    """The neighbor orders and the (n + 1) x block_length table holding each
    root's unmasked block in its row; other rows stay zero. Unmasked, a
    block depends on its root alone, so each is built once and every row
    copies it from here. neighbor_orders computes a missing table."""
    orders = neighbor_orders(g, config.strategy, table)
    blocks = np.zeros((g.node_count + 1, config.block_length), dtype=np.int32)
    for root in roots:
        blocks[root] = _neighbor_block(orders, root, config.a, config.b)
    return orders, blocks


def _slab_rows(blocks: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """The block columns of every candidate pair's row. In pair index order
    root u's rows are the contiguous slab of pairs (u, 1) .. (u, u - 1), so
    each slab is one broadcast of blocks[u] and one copy of blocks[1:u],
    with no gather and no temporary. On the 333-node fixture at a=5 b=5
    (55,278 rows of 262 columns), with the betweenness table passed in,
    build_dataset took 34-37 ms with this fill and 43-58 ms with the
    chunked gather (2 shared CPUs)."""
    n, k = len(blocks) - 1, config.block_length
    X = np.empty((_pair_index(n + 1, 1), config.row_length), dtype=np.int32)
    for u in range(2, n + 1):
        slab = X[_pair_index(u, 1):_pair_index(u + 1, 1)]
        slab[:, :k] = blocks[u]
        slab[:, k:2 * k] = blocks[1:u]
    return X


def _gathered_rows(blocks: np.ndarray, config: FeatureConfig, u, v) -> np.ndarray:
    """The block columns of the rows of explicit pairs u, v, gathered from
    the block table in chunks of _GATHER_ROWS rows."""
    k = config.block_length
    X = np.empty((len(u), config.row_length), dtype=np.int32)
    for lo in range(0, len(u), _GATHER_ROWS):
        rows = slice(lo, lo + _GATHER_ROWS)
        X[rows, :k] = blocks[u[rows]]
        X[rows, k:2 * k] = blocks[v[rows]]
    return X


def _finish_rows(X: np.ndarray, orders, blocks: np.ndarray, config: FeatureConfig, u, v, edge) -> None:
    """Write the pairs' own IDs into X's last two columns and, under
    mask_pair_edge, rebuild the blocks that show the pair's own edge.

    That edge can only show in an endpoint's level-0 group, and only if the
    pair is an edge, so a positive row rebuilds its u-block only when v is
    in the table's level-0 group of u, and its v-block only when u is in
    that of v; every other block is the table's.
    """
    a, b, k = config.a, config.b, config.block_length
    X[:, -2] = u
    X[:, -1] = v
    if config.mask_pair_edge:
        pos = np.flatnonzero(edge)
        for cols, root, hidden in ((slice(0, k), u[pos], v[pos]), (slice(k, 2 * k), v[pos], u[pos])):
            held = (blocks[root, :a] == hidden[:, None]).any(axis=1)
            for i, r, h in zip(pos[held].tolist(), root[held].tolist(), hidden[held].tolist()):
                X[i, cols] = _neighbor_block(orders, r, a, b, h)


def _as_ratio(negative_ratio) -> float:
    """The balance ratio checked (see as_real): a finite number > 0."""
    return as_real(negative_ratio, "negative_ratio", "a finite number > 0", lambda r: r > 0)


def _as_test_fraction(test_fraction) -> float:
    """The test fraction checked (see as_real): a number in (0, 1)."""
    return as_real(test_fraction, "test_fraction", "in (0, 1)", lambda f: 0 < f < 1)


def _outside(index: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The integers of the given ranks (from 0) among the non-negative
    integers outside index (sorted, distinct): rank j's is j plus the
    number of index entries with at most j outsiders before them."""
    return ranks + np.searchsorted(index - np.arange(len(index)), ranks, side="right")


def _non_edge_rows(g: Graph, config: FeatureConfig):
    """The number of non-edges of g, and rows(lo, hi): the finished feature
    rows of the non-edges of ranks lo .. hi - 1, in pair index order, each
    ending with its pair. A non-edge's rank is its rank among the
    pair indices outside the edge index, so no array of all pairs is held.
    Every call gathers from one block table of every root, built here."""
    n = g.node_count
    edges = _edge_index(g)
    orders, blocks = _block_table(g, config, range(1, n + 1), None)

    def rows(lo: int, hi: int):
        u, v = _pair_nodes(_outside(edges, np.arange(lo, hi)))
        X = _gathered_rows(blocks, config, u, v)
        _finish_rows(X, orders, blocks, config, u, v, np.zeros(len(u), bool))
        return X

    return _pair_index(n + 1, 1) - len(edges), rows


def _balanced_row_indices(pos: np.ndarray, rows: int, negative_ratio: float, seed: int) -> np.ndarray:
    """Sorted indices, out of rows, of the positive rows pos (sorted) and a
    seeded sample of the others, drawn as ranks among the negative rows."""
    negative_ratio = _as_ratio(negative_ratio)
    if len(pos) == 0:
        raise ValueError("cannot balance a dataset with no positive rows")
    want = int(min(negative_ratio * len(pos), rows - len(pos)))
    rng = random.Random(derive_seed(seed, "balance"))
    chosen = np.array(rng.sample(range(rows - len(pos)), want), dtype=np.int64)
    return np.sort(np.concatenate([pos, _outside(pos, chosen)]))


def balance(d: Dataset, negative_ratio: float, seed: int) -> Dataset:
    """Keep all positives and a uniform seeded subsample of negatives.

    The target negative count is floor(negative_ratio * positives), capped
    at the negatives available. Surviving rows keep their original order.
    The sample is balanced_dataset's, drawn over the dataset's rows.
    """
    keep = _balanced_row_indices(np.flatnonzero(d.y == 1), len(d.y), negative_ratio, seed)
    return Dataset(X=d.X[keep], y=d.y[keep], config=d.config)


def balanced_dataset(
    g: Graph,
    config: FeatureConfig,
    negative_ratio: float,
    seed: int | None = None,
    *,
    table: CentralityTable | None = None,
) -> Dataset:
    """Same output as balance(build_dataset(g, config), ratio, seed), but
    features are only extracted for rows that survive balancing.

    Labels depend on edge presence alone, so the kept rows are drawn from
    the edge index before any feature work: the negatives are sampled as
    ranks among the non-edge pair indices, and only the kept indices are
    turned back into pairs. Memory grows with the kept rows and the edges,
    not with the n(n-1)/2 candidate pairs.
    """
    if seed is None:
        seed = config.seed
    keep = _balanced_row_indices(_edge_index(g), _pair_index(g.node_count + 1, 1), negative_ratio, seed)
    return build_dataset(g, config, table=table, pairs=np.stack(_pair_nodes(keep), axis=1))


def split(d: Dataset, test_fraction: float, seed: int) -> Split:
    """Stratified random partition into train and test rows.

    Each class contributes round(test_fraction * class_size) test rows,
    clamped so both sides keep at least one row of each class; classes with
    fewer than two rows cannot be stratified and raise.
    """
    test_fraction = _as_test_fraction(test_fraction)
    if len(d.y) == 0:
        raise ValueError("cannot split an empty dataset")
    rng = random.Random(derive_seed(seed, "split"))
    test_idx: list[int] = []
    for cls in (1, 0):
        cls_idx = [int(i) for i in np.flatnonzero(d.y == cls)]
        if len(cls_idx) < 2:
            raise ValueError(f"class {cls} has {len(cls_idx)} rows, need at least 2 to stratify")
        k = int(round(test_fraction * len(cls_idx)))
        k = max(1, min(k, len(cls_idx) - 1))
        rng.shuffle(cls_idx)
        test_idx.extend(cls_idx[:k])
    test = np.array(sorted(test_idx), dtype=np.int64)
    train = np.setdiff1d(np.arange(len(d.y), dtype=np.int64), test)
    return Split(
        Xtrain=d.X[train],
        ytrain=d.y[train],
        Xtest=d.X[test],
        ytest=d.y[test],
        test_fraction=test_fraction,
        seed=seed,
    )


def export_dataset_csv(d: Dataset, g: Graph, sink) -> None:
    """CSV with header u,v,y,f1..fK: original labels for the pair, read off
    the row's last two columns, and internal IDs for the K = row_length - 2
    neighbor features."""
    with open_stream(sink, "w", encoding="utf-8", newline="") as stream:
        k = d.config.row_length - 2
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["u", "v", "y"] + [f"f{i}" for i in range(1, k + 1)])
        for row, label in zip(d.X, d.y):
            writer.writerow([g.labels[row[-2]], g.labels[row[-1]], int(label)] + row[:-2].tolist())
