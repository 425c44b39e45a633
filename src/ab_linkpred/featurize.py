"""Per-pair neighborhood features, dataset assembly, balancing, splitting.

Each node pair (u, v) becomes one integer row: a block of neighbor IDs
grown from u, the same for v, then u and v themselves. A block starts with
the first `a` ordered neighbors of the root and is expanded for `b` rounds;
round i re-expands the block entries at positions (i-1)*a .. i*a-1, each
contributing its own first `a` not-yet-emitted neighbors. Groups short of
`a` entries are padded with zeros, and a zero entry expands to `a` zeros,
so every row has exactly 2*(a + a*a*b) + 2 values.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

import numpy as np

from ._seeds import as_int, derive_seed
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
        for name in ("a", "b", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if not isinstance(self.mask_pair_edge, bool):
            raise ValueError(f"mask_pair_edge must be a bool, got {self.mask_pair_edge!r}")
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if self.b < 0:
            raise ValueError(f"b must be >= 0, got {self.b}")

    @property
    def block_length(self) -> int:
        return self.a + self.a * self.a * self.b

    @property
    def row_length(self) -> int:
        return 2 * self.block_length + 2


@dataclass
class PairRow:
    """One extracted row: feature vector x, label y, and the pair itself."""

    x: list[int]
    y: int
    u: int
    v: int


@dataclass
class Dataset:
    """Feature matrix and labels for a sequence of node pairs."""

    X: np.ndarray  # (rows, row_length) int32
    y: np.ndarray  # (rows,) int8
    pairs: list[tuple[int, int]]
    config: FeatureConfig

    @property
    def positive_count(self) -> int:
        return int(self.y.sum())

    @property
    def negative_count(self) -> int:
        return len(self.y) - self.positive_count


@dataclass
class Split:
    """Stratified train/test partition of a Dataset."""

    Xtrain: np.ndarray
    ytrain: np.ndarray
    Xtest: np.ndarray
    ytest: np.ndarray
    train_pairs: list[tuple[int, int]]
    test_pairs: list[tuple[int, int]]
    test_fraction: float
    seed: int


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


def labeled_candidates(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint columns u > v of every candidate pair, in Graph.candidate_pairs()
    order, and whether each pair is an edge."""
    u, v = np.tril_indices(g.node_count, -1)
    u += 1
    v += 1
    return u, v, g.adjacency()[u, v]


def _pair_columns(pairs, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint columns of explicit pairs, a list or a (k, 2) array; each
    must name two distinct nodes in 1..n."""
    arr = np.asarray(pairs) if len(pairs) else np.zeros((0, 2), dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ValueError("pairs must be a sequence of (u, v) integer node IDs")
    u, v = arr.T.astype(np.intp)
    bad = (u < 1) | (u > n) | (v < 1) | (v > n) | (u == v)
    if bad.any():
        raise ValueError(f"pair {tuple(pairs[int(np.argmax(bad))])} must name two distinct nodes in 1..{n}")
    return u, v


def create_pair_features(g: Graph, u: int, v: int, config: FeatureConfig) -> PairRow:
    """Extract the feature row and label for one node pair: a one-row build_dataset."""
    d = build_dataset(g, config, pairs=[(u, v)])
    return PairRow(x=d.X[0].tolist(), y=int(d.y[0]), u=u, v=v)


def build_dataset(g: Graph, config: FeatureConfig, *, table: CentralityTable | None = None, pairs=None) -> Dataset:
    """One row per candidate pair (or per given pair, in the given order).

    The centrality table is computed when not supplied. Explicit pairs must
    name two distinct nodes in 1..n, else ValueError; whatever their form,
    Dataset.pairs holds them as (u, v) tuples of ints.
    """
    if pairs is None:
        u, v, edge = labeled_candidates(g)
    else:
        u, v = _pair_columns(pairs if isinstance(pairs, np.ndarray) else list(pairs), g.node_count)
        edge = g.adjacency()[u, v]
    X = _feature_rows(g, config, u, v, edge, table)
    return Dataset(X=X, y=edge.astype(np.int8), pairs=list(zip(u.tolist(), v.tolist())), config=config)


def _feature_rows(g: Graph, config: FeatureConfig, u, v, edge, table: CentralityTable | None) -> np.ndarray:
    """build_dataset's X for the endpoint columns u, v; edge says which pairs are edges.

    Unmasked, a block depends on its root alone, so each distinct endpoint's
    block is built once and the rows are gathered from that table. Under
    mask_pair_edge a pair's own edge can only show in an endpoint's level-0
    group, and only if the pair is an edge, so a positive row rebuilds its
    u-block only when v is in the table's level-0 group of u, and its
    v-block only when u is in that of v; every other block is the table's.
    neighbor_orders computes a missing table.
    """
    orders = neighbor_orders(g, config.strategy, table)
    a, b, k = config.a, config.b, config.block_length
    blocks = np.zeros((g.node_count + 1, k), dtype=np.int32)
    for root in np.unique(np.concatenate([u, v])).tolist():
        blocks[root] = _neighbor_block(orders, root, a, b)
    X = np.empty((len(u), config.row_length), dtype=np.int32)
    for lo in range(0, len(u), _GATHER_ROWS):
        rows = slice(lo, lo + _GATHER_ROWS)
        X[rows, :k] = blocks[u[rows]]
        X[rows, k:2 * k] = blocks[v[rows]]
    X[:, -2] = u
    X[:, -1] = v
    if config.mask_pair_edge:
        pos = np.flatnonzero(edge)
        for cols, root, hidden in ((slice(0, k), u[pos], v[pos]), (slice(k, 2 * k), v[pos], u[pos])):
            held = (blocks[root, :a] == hidden[:, None]).any(axis=1)
            for i, r, h in zip(pos[held].tolist(), root[held].tolist(), hidden[held].tolist()):
                X[i, cols] = _neighbor_block(orders, r, a, b, h)
    return X


def _balanced_row_indices(y: np.ndarray, negative_ratio: float, seed: int) -> np.ndarray:
    """Indices keeping all positives plus a seeded sample of negatives."""
    if not 0 < negative_ratio < math.inf:
        raise ValueError(f"negative_ratio must be a finite number > 0, got {negative_ratio}")
    pos = np.flatnonzero(y == 1)
    if len(pos) == 0:
        raise ValueError("cannot balance a dataset with no positive rows")
    neg = np.flatnonzero(y == 0)
    want = int(min(negative_ratio * len(pos), len(neg)))
    rng = random.Random(derive_seed(seed, "balance"))
    chosen = rng.sample(range(len(neg)), want)
    return np.sort(np.concatenate([pos, neg[chosen]])).astype(np.int64)


def balance(d: Dataset, negative_ratio: float, seed: int) -> Dataset:
    """Keep all positives and a uniform seeded subsample of negatives.

    The target negative count is floor(negative_ratio * positives), capped
    at the negatives available. Surviving rows keep their original order.
    """
    keep = _balanced_row_indices(d.y, negative_ratio, seed)
    return Dataset(
        X=d.X[keep],
        y=d.y[keep],
        pairs=[d.pairs[i] for i in keep],
        config=d.config,
    )


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

    Labels depend on edge presence alone, so the kept-row selection can be
    made before any feature work; on sparse graphs this skips most pairs.
    """
    if seed is None:
        seed = config.seed
    u, v, edge = labeled_candidates(g)
    keep = _balanced_row_indices(edge.astype(np.int8), negative_ratio, seed)
    return build_dataset(g, config, table=table, pairs=np.stack([u[keep], v[keep]], axis=1))


def split(d: Dataset, test_fraction: float, seed: int) -> Split:
    """Stratified random partition into train and test rows.

    Each class contributes round(test_fraction * class_size) test rows,
    clamped so both sides keep at least one row of each class; classes with
    fewer than two rows cannot be stratified and raise.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
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
        train_pairs=[d.pairs[i] for i in train],
        test_pairs=[d.pairs[i] for i in test],
        test_fraction=test_fraction,
        seed=seed,
    )


def export_dataset_csv(d: Dataset, g: Graph, sink) -> None:
    """CSV with header u,v,y,f1..fK: original labels for the pair, internal
    IDs for the K = row_length - 2 neighbor features."""
    with open_stream(sink, "w", encoding="utf-8", newline="") as stream:
        k = d.config.row_length - 2
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["u", "v", "y"] + [f"f{i}" for i in range(1, k + 1)])
        for row, label, (u, v) in zip(d.X, d.y, d.pairs):
            writer.writerow([g.labels[u], g.labels[v], int(label)] + [int(x) for x in row[:-2]])
