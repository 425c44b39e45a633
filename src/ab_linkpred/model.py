"""Binary classifiers scoring candidate edges in [0, 1].

Three kinds, all trained from scratch so runs are exactly repeatable and
models serialize to plain JSON:

* forest (default): bagged CART trees with gini splits; the score is the
  fraction of trees voting positive. Raw node-ID features are close to
  categorical, which axis-aligned splits handle well.
* tree: a single CART tree; the score is the positive fraction at the leaf.
* logistic: full-batch gradient descent on the log loss; the score is the
  sigmoid of the linear response.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._seeds import derive_seed
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
    return arr


def _as_labels(y, rows: int) -> np.ndarray:
    arr = np.asarray(y, dtype=np.int64)
    if arr.ndim != 1 or len(arr) != rows:
        raise ValueError(f"need one label per row, got {arr.shape} labels for {rows} rows")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return arr


def _merged_params(kind: str, params: dict | None) -> dict:
    if kind not in DEFAULT_PARAMS:
        raise ValueError(f"unknown classifier kind {kind!r}, expected one of {tuple(DEFAULT_PARAMS)}")
    merged = dict(DEFAULT_PARAMS[kind])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"unknown {kind} hyperparameter {key!r}")
        merged[key] = value
    if kind in ("forest", "tree"):
        if merged["min_leaf"] < 1:
            raise ValueError(f"min_leaf must be >= 1, got {merged['min_leaf']}")
        if merged["max_depth"] is not None and merged["max_depth"] < 0:
            raise ValueError(f"max_depth must be None or >= 0, got {merged['max_depth']}")
    if kind == "forest" and merged["tree_count"] < 1:
        raise ValueError(f"tree_count must be >= 1, got {merged['tree_count']}")
    if kind == "logistic" and merged["epochs"] < 0:
        raise ValueError(f"epochs must be >= 0, got {merged['epochs']}")
    return merged


# ---------------------------------------------------------------------------
# CART trees


def _best_split(Xn: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Best (column, threshold) by gini among all value boundaries, or None.

    Maximizing sum over both sides of (pos^2 + neg^2) / size is equivalent
    to minimizing the weighted gini impurity. Ties resolve to the smallest
    split position, then the lowest column, so rebuilds are identical.
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
    threshold = (float(xs[i, col]) + float(xs[i + 1, col])) / 2.0
    return col, threshold


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_depth: int | None,
    min_leaf: int,
    n_features: int,
    bootstrap: bool,
) -> dict:
    """Grow one tree; returns flat arrays (feature -1 marks a leaf).

    The row sample (bootstrap or identity) is drawn first, then candidate
    features are drawn per node in a fixed depth-first build order, so the
    tree is fully determined by (data, params, rng seed).
    """
    m, total_features = X.shape
    if bootstrap:
        row_idx = rng.integers(0, m, size=m)
    else:
        row_idx = np.arange(m)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), row_idx, 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        pos = int(ys.sum())
        count = len(idx)
        value[node] = pos / count
        if (
            pos == 0
            or pos == count
            or count < 2 * min_leaf
            or (max_depth is not None and depth >= max_depth)
        ):
            continue
        if n_features < total_features:
            cols = np.sort(rng.choice(total_features, size=n_features, replace=False))
        else:
            cols = np.arange(total_features)
        found = _best_split(X[idx[:, None], cols[None, :]], ys, min_leaf)
        if found is None:
            continue
        col_local, thr = found
        col = int(cols[col_local])
        go_left = X[idx, col] <= thr
        feature[node] = col
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, idx[~go_left], depth + 1))
        stack.append((left_id, idx[go_left], depth + 1))

    return {
        "feature": np.array(feature, dtype=np.int32),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int32),
        "right": np.array(right, dtype=np.int32),
        "value": np.array(value, dtype=np.float64),
    }


def _tree_leaf_values(tree: dict, X: np.ndarray) -> np.ndarray:
    """Positive fraction at the leaf reached by each row."""
    feature = tree["feature"]
    threshold = tree["threshold"]
    left = tree["left"]
    right = tree["right"]
    node = np.zeros(len(X), dtype=np.int32)
    active = np.flatnonzero(feature[node] >= 0)
    while len(active):
        cur = node[active]
        cols = feature[cur]
        go_left = X[active, cols] <= threshold[cur]
        node[active] = np.where(go_left, left[cur], right[cur])
        active = active[feature[node[active]] >= 0]
    return tree["value"][node]


def _resolve_feature_count(total: int, requested) -> int:
    if requested is None:
        return max(1, min(total, round(math.sqrt(total))))
    k = int(requested)
    if not 1 <= k <= total:
        raise ValueError(f"feature_subsample must be in 1..{total}, got {requested}")
    return k


def _train_forest(X: np.ndarray, y: np.ndarray, params: dict, seed: int) -> dict:
    n_features = _resolve_feature_count(X.shape[1], params["feature_subsample"])
    trees = []
    for t in range(int(params["tree_count"])):
        rng = np.random.default_rng(derive_seed(seed, "tree", t))
        trees.append(
            _build_tree(X, y, rng, params["max_depth"], params["min_leaf"], n_features, params["bootstrap"])
        )
    return {"trees": trees}


def _train_tree(X: np.ndarray, y: np.ndarray, params: dict, seed: int) -> dict:
    rng = np.random.default_rng(derive_seed(seed, "tree", 0))
    tree = _build_tree(X, y, rng, params["max_depth"], params["min_leaf"], X.shape[1], bootstrap=False)
    return {"trees": [tree]}


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
    for _ in range(int(params["epochs"])):
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
    """Fit a classifier; deterministic given (data, kind, params, seed)."""
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
        payload = _train_tree(matrix, labels, merged, seed)
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


def predict_scores(c: Classifier, X) -> np.ndarray:
    """Scores in [0, 1] for a batch of rows; pure, so batch order is irrelevant."""
    matrix = _as_matrix(X)
    if matrix.shape[1] != c.feature_length:
        raise ValueError(f"expected rows of length {c.feature_length}, got {matrix.shape[1]}")
    if c.kind in ("forest", "tree"):
        trees = c.payload["trees"]
        if c.kind == "tree":
            return _tree_leaf_values(trees[0], matrix)
        votes = np.zeros(matrix.shape[0], dtype=np.int64)
        for tree in trees:
            votes += _tree_leaf_values(tree, matrix) >= 0.5
        return votes / len(trees)
    z = matrix.astype(np.float64) @ c.payload["weights"] + c.payload["bias"]
    return _sigmoid(z)


def predict_score(c: Classifier, x) -> float:
    """Score one feature vector."""
    return float(predict_scores(c, [list(x)])[0])


def predict_label(c: Classifier, x, threshold: float = 0.5) -> int:
    """1 when the score clears the threshold (inclusive), else 0."""
    return 1 if predict_score(c, x) >= threshold else 0


# ---------------------------------------------------------------------------
# Serialization: versioned JSON, numbers kept at full round-trip precision


_TREE_KEYS = ("feature", "threshold", "left", "right", "value")


def _payload_to_jsonable(c: Classifier) -> dict:
    if c.kind in ("forest", "tree"):
        return {
            "trees": [
                {key: tree[key].tolist() for key in _TREE_KEYS}
                for tree in c.payload["trees"]
            ]
        }
    return {"weights": c.payload["weights"].tolist(), "bias": c.payload["bias"]}


def _payload_from_jsonable(kind: str, doc: dict) -> dict:
    if kind in ("forest", "tree"):
        return {
            "trees": [
                {
                    "feature": np.array(tree["feature"], dtype=np.int32),
                    "threshold": np.array(tree["threshold"], dtype=np.float64),
                    "left": np.array(tree["left"], dtype=np.int32),
                    "right": np.array(tree["right"], dtype=np.int32),
                    "value": np.array(tree["value"], dtype=np.float64),
                }
                for tree in doc["trees"]
            ]
        }
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
        return
    if not payload["trees"]:
        bad("the model holds no trees")
    for t, tree in enumerate(payload["trees"]):
        size = tree["feature"].size
        if size == 0 or any(tree[key].shape != (size,) for key in _TREE_KEYS):
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
        if isinstance(sink, (str, os.PathLike)):
            with open(sink, "wb") as f:
                f.write(data)
        else:
            sink.write(data)
    return data


def load_model(source) -> Classifier:
    """Rebuild a Classifier from bytes, a JSON string, a stream, or a path.

    Raises ModelFormatError for any document that cannot be scored safely:
    bad JSON or version, missing fields, unknown hyperparameters or feature
    settings, node arrays of unequal length, a tree whose child pointers do
    not move forward, a split on a column outside the feature length, a
    missing threshold, a leaf value outside [0, 1], or logistic weights of
    the wrong length.
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
