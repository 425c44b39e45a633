import _thread
import dataclasses
import errno
import hashlib
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from ab_linkpred import (
    FeatureConfig,
    ModelFormatError,
    Strategy,
    balanced_dataset,
    fit,
    load_model,
    predict_label,
    predict_score,
    predict_scores,
    save_model,
    split,
    train,
)

from ab_linkpred import model as model_module
from ab_linkpred._seeds import derive_seed
from ab_linkpred.model import _train_forest

from graphgen import community_edges, graph_from_edges, two_cliques_edges
from oracles import reference_forest_votes, reference_leaf_values, reference_tree


@pytest.fixture(scope="module")
def clique_split():
    g = graph_from_edges(two_cliques_edges(6))
    cfg = FeatureConfig(a=3, b=1, strategy=Strategy("degree"), seed=11)
    data = balanced_dataset(g, cfg, 1.0)
    return split(data, 0.25, seed=11)


def brute_confusion(y_true, y_pred):
    pairs = list(zip(y_true, y_pred))
    return (
        sum(1 for t, p in pairs if t == 1 and p == 1),
        sum(1 for t, p in pairs if t == 0 and p == 1),
        sum(1 for t, p in pairs if t == 1 and p == 0),
    )


def test_forest_separable_training_f1_is_one(clique_split):
    clf = train(clique_split.Xtrain, clique_split.ytrain, seed=1)
    # brute-force re-score the training rows one at a time and count by hand
    preds = [predict_label(clf, row) for row in clique_split.Xtrain]
    tp, fp, fn = brute_confusion(clique_split.ytrain.tolist(), preds)
    assert fp == 0 and fn == 0
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 == 1.0


def test_logistic_separable_toy_rows():
    X = [[1]] * 50 + [[9]] * 50
    y = [0] * 50 + [1] * 50
    clf = train(X, y, kind="logistic", params={"learning_rate": 0.5, "epochs": 400}, seed=0)
    acc = np.mean((predict_scores(clf, X) >= 0.5).astype(int) == np.array(y))
    assert acc == 1.0


def test_logistic_scores_sum_each_row_in_column_order():
    """A logistic score is the sigmoid of its row's products summed in
    column order, as a plain loop sums them."""
    rng = np.random.default_rng(8)
    X = rng.integers(-300, 300, size=(40, 9))
    clf = train(X, (X[:, 0] + X[:, 1] > 0).astype(int), kind="logistic", seed=0)
    weights, bias = clf.payload["weights"].tolist(), clf.payload["bias"]
    response = [sum((x * w for x, w in zip(row, weights)), 0.0) + bias for row in X.tolist()]
    assert predict_scores(clf, X).tobytes() == model_module._sigmoid(np.array(response)).tobytes()


def test_logistic_zero_weights_scores_half():
    clf = train([[1.0], [2.0]], [0, 1], kind="logistic", params={"epochs": 0})
    assert predict_score(clf, [123.0]) == 0.5


def test_logistic_loss_nonincreasing():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 5))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    clf = train(X, y, kind="logistic", params={"learning_rate": 1e-3, "epochs": 300}, seed=0)
    diffs = np.diff(clf.loss_history)
    assert (diffs <= 1e-9).all()


def test_same_seed_gives_identical_model_bytes(clique_split):
    a = train(clique_split.Xtrain, clique_split.ytrain, seed=5)
    b = train(clique_split.Xtrain, clique_split.ytrain, seed=5)
    assert save_model(a) == save_model(b)


def test_scores_bounded_and_batch_order_invariant(clique_split):
    clf = train(clique_split.Xtrain, clique_split.ytrain, seed=2)
    scores = predict_scores(clf, clique_split.Xtest)
    assert ((0.0 <= scores) & (scores <= 1.0)).all()
    perm = np.random.default_rng(0).permutation(len(scores))
    shuffled = predict_scores(clf, clique_split.Xtest[perm])
    assert np.array_equal(shuffled, scores[perm])


@pytest.mark.parametrize("kind", ["forest", "tree", "logistic"])
def test_a_row_scores_the_same_bytes_in_a_batch_of_any_size(clique_split, kind):
    clf = train(clique_split.Xtrain, clique_split.ytrain, kind, seed=2)
    X = np.vstack([clique_split.Xtrain, clique_split.Xtest])
    whole = predict_scores(clf, X).tobytes()
    for size in (1, 7):
        assert np.concatenate([predict_scores(clf, X[i:i + size]) for i in range(0, len(X), size)]).tobytes() == whole


def test_forest_unanimous_vote_is_exactly_one(clique_split):
    clf = train(clique_split.Xtrain, clique_split.ytrain, seed=3)
    scores = predict_scores(clf, clique_split.Xtrain)
    positives = scores[clique_split.ytrain == 1]
    assert positives.max() == 1.0  # separable data: some row gets every tree's vote


def test_forest_trees_split_past_constant_column_draws(clique_split):
    # 14 of the 26 columns are constant, so about 3% of root draws of 5
    # columns hold no boundary; such a node must try further columns
    # instead of ending the tree as one leaf.
    X, y = clique_split.Xtrain, clique_split.ytrain
    assert (X.min(axis=0) == X.max(axis=0)).sum() == 14
    clf = train(X, y, seed=3)
    assert all(tree["feature"][0] >= 0 for tree in clf.payload["trees"])


def test_predict_label_threshold_semantics():
    clf = train([[1.0], [9.0]], [0, 1], kind="logistic", params={"learning_rate": 0.5, "epochs": 200})
    x = [9.0]
    score = predict_score(clf, x)
    assert predict_label(clf, x, threshold=score) == 1  # inclusive comparison
    assert predict_label(clf, x, threshold=min(1.0, score + 1e-9)) == 0
    assert predict_label(clf, x, threshold=0.0) == 1
    assert predict_label(clf, [1.0], threshold=0.0) == 1


@pytest.mark.parametrize("threshold", [-1.0, 2.0])
def test_predict_label_refuses_a_threshold_outside_the_unit_interval(threshold):
    clf = train([[1.0], [9.0]], [0, 1], kind="tree")
    with pytest.raises(ValueError, match="threshold must be a number in"):
        predict_label(clf, [9.0], threshold)


def test_threshold_monotonicity(clique_split):
    clf = train(clique_split.Xtrain, clique_split.ytrain, seed=4)
    scores = predict_scores(clf, clique_split.Xtest)
    grid = sorted(random.Random(1).uniform(0, 1) for _ in range(20))
    previous = None
    for eps in grid:
        positives = {i for i, s in enumerate(scores) if s >= eps}
        if previous is not None:
            assert positives <= previous
        previous = positives


def test_forest_single_tree_equals_tree_classifier():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 50, size=(120, 6))
    X[:, 0] = np.arange(120)  # distinct rows so leaves purify
    y = (X[:, 0] < 60).astype(int)
    params = {"tree_count": 1, "bootstrap": False, "feature_subsample": 6}
    forest = train(X, y, kind="forest", params=params, seed=9)
    single = train(X, y, kind="tree", seed=9)
    probe = rng.integers(0, 130, size=(200, 6))
    assert np.array_equal(predict_scores(forest, probe), predict_scores(single, probe))


def _golden_fixture_rows():
    g = graph_from_edges(community_edges(40, 120, communities=3, seed=2))
    config = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), seed=7)
    parts = split(balanced_dataset(g, config, 1.0), 0.25, 7)
    return parts.Xtrain, parts.ytrain


def _feature_columns(kind):
    """Training rows of one column kind: node IDs from a graph, quarter-step
    floats, negative integers, or extreme floats (0.0 beside -0.0, values
    near the float limit whose midpoints overflow, many repeats)."""
    if kind == "graph":
        X, y = _golden_fixture_rows()
        return X, y.astype(np.int64)
    rng = np.random.default_rng(0)
    if kind == "extreme":
        X = rng.choice([-1.5e308, -1e308, -2.5, -0.0, 0.0, 1.5, 1e308, 1.5e308], size=(120, 4))
        noise = rng.random(120) < 0.15
        return X, ((X[:, 0] > 1.0) ^ (X[:, 1] < -1e300) ^ noise).astype(np.int64)
    if kind == "float":
        X = rng.integers(-6, 6, size=(120, 4)) / 4.0
    else:
        X = -rng.integers(0, 9, size=(120, 5))
    y = (X[:, 0] + X[:, 1] + rng.normal(size=120) > X[:, :2].sum(axis=1).mean()).astype(np.int64)
    return X, y


# Bins per entry up to which a level's split search takes the histogram:
# as chosen by level size, at every level, at no level.
SPLIT_PATHS = {"chosen": model_module._HISTOGRAM_BINS_PER_ENTRY, "histogram": float("inf"), "sort": 0}


def _assert_same_tree(tree, want):
    for key in want:
        assert tree[key].dtype == want[key].dtype, key
        assert tree[key].tobytes() == want[key].tobytes(), key


def _assert_matches_reference(X, y, max_depth, min_leaf, bootstrap, seed, tree_count=1, n_features=None):
    """The level-wise builder against reference_tree, byte for byte, on each
    of the SPLIT_PATHS; every column is drawn by default."""
    n_features = X.shape[1] if n_features is None else n_features
    params = {"tree_count": tree_count, "max_depth": max_depth, "min_leaf": min_leaf,
              "feature_subsample": n_features, "bootstrap": bootstrap}
    want = [reference_tree(X, y, np.random.default_rng(derive_seed(seed, "tree", t)), max_depth, min_leaf,
                           n_features, bootstrap) for t in range(tree_count)]
    for path, bins_per_entry in SPLIT_PATHS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "_HISTOGRAM_BINS_PER_ENTRY", bins_per_entry)
            trees = _train_forest(X, y, params, seed)["trees"]
        for tree, reference in zip(trees, want, strict=True):
            _assert_same_tree(tree, reference)


@pytest.mark.parametrize("columns", ["graph", "float", "negative", "extreme"])
@pytest.mark.parametrize("max_depth", [None, 0, 1, 4])
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("bootstrap_seed", [None, 3, 8])
def test_level_wise_tree_matches_reference_with_every_column(columns, max_depth, min_leaf, bootstrap_seed):
    X, y = _feature_columns(columns)
    seed = 1 if bootstrap_seed is None else bootstrap_seed
    _assert_matches_reference(X, y, max_depth, min_leaf, bootstrap_seed is not None, seed)


@pytest.mark.parametrize("columns", ["graph", "clique", "float", "negative", "extreme"])
@pytest.mark.parametrize("max_depth", [None, 2])
@pytest.mark.parametrize("min_leaf", [1, 3])
@pytest.mark.parametrize("n_features", [1, 2, 3])
def test_level_wise_forest_matches_reference_with_column_draws(columns, max_depth, min_leaf, n_features, clique_split):
    if columns == "clique":
        X, y = clique_split.Xtrain, clique_split.ytrain.astype(np.int64)
    else:
        X, y = _feature_columns(columns)
    _assert_matches_reference(X, y, max_depth, min_leaf, True, 5, tree_count=3, n_features=n_features)


def test_extreme_columns_split_at_zero_and_at_overflowing_midpoints():
    """The extreme kind reaches what it is there for: a split between -2.5
    and a zero (both signs in the column), and one whose midpoint is halved
    first because the sum overflows."""
    X, y = _feature_columns("extreme")
    assert {np.copysign(1.0, v) for v in X[X == 0.0]} == {-1.0, 1.0}
    thresholds = set()
    for seed in range(3):
        tree = _train_forest(X, y, {**model_module.DEFAULT_PARAMS["forest"], "tree_count": 8, "feature_subsample": 4}, seed)
        thresholds |= {float(v) for t in tree["trees"] for v in t["threshold"][t["feature"] >= 0]}
    assert -1.25 in thresholds
    assert 1e308 / 2 + 1.5e308 / 2 in thresholds


class _TiedKeys:
    """A generator whose random() draws are quantized to thirds, so that
    column keys tie; integers() draws as the generator of the seed does."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size=None):
        return np.floor(self._rng.random(size) * 3) / 3


@pytest.mark.parametrize("columns", ["graph", "negative", "extreme"])
@pytest.mark.parametrize("n_features", [1, 2, 3])
@pytest.mark.parametrize("path", sorted(SPLIT_PATHS))
def test_level_wise_tree_matches_reference_when_column_keys_tie(columns, n_features, path, monkeypatch):
    """Tied keys take the lower column first, in the first block of a node
    and in the blocks after it, as reference_tree's stable sort does."""
    monkeypatch.setattr(model_module, "_HISTOGRAM_BINS_PER_ENTRY", SPLIT_PATHS[path])
    X, y = _feature_columns(columns)
    table = model_module._dense_ranks(X)
    trees = model_module._grow_trees(*table, y, [_TiedKeys(seed) for seed in range(4)], None, 1, n_features, True)
    for seed, tree in enumerate(trees):
        _assert_same_tree(tree, reference_tree(X, y, _TiedKeys(seed), None, 1, n_features, True))


@settings(max_examples=60, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    data=st.data(),
    rows=st.integers(2, 40),
    cols=st.integers(1, 4),
    span=st.integers(1, 4),
    min_leaf=st.integers(1, 3),
    max_depth=st.one_of(st.none(), st.integers(0, 5)),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_level_wise_tree_matches_reference_on_tied_values(data, rows, cols, span, min_leaf, max_depth, bootstrap, seed):
    X = np.array(data.draw(st.lists(st.lists(st.integers(-span, span), min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)), dtype=np.int64)
    _assert_matches_reference(X, y, max_depth, min_leaf, bootstrap, seed, tree_count=2)


@settings(max_examples=60, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    data=st.data(),
    rows=st.integers(2, 40),
    cols=st.integers(2, 6),
    span=st.integers(1, 4),
    min_leaf=st.integers(1, 3),
    max_depth=st.one_of(st.none(), st.integers(0, 5)),
    seed=st.integers(0, 2**16),
)
def test_level_wise_forest_matches_reference_with_column_draws_on_tied_values(data, rows, cols, span, min_leaf, max_depth, seed):
    X = np.array(data.draw(st.lists(st.lists(st.integers(-span, span), min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)), dtype=np.int64)
    n_features = data.draw(st.integers(1, cols - 1))
    _assert_matches_reference(X, y, max_depth, min_leaf, True, seed, tree_count=2, n_features=n_features)


@settings(max_examples=60, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    data=st.data(),
    rows=st.integers(2, 40),
    cols=st.integers(1, 5),
    span=st.integers(1, 4),
    tree_count=st.integers(2, 5),
    min_leaf=st.integers(1, 3),
    max_depth=st.one_of(st.none(), st.integers(0, 5)),
    bootstrap=st.booleans(),
    tied=st.booleans(),
    path=st.sampled_from(sorted(SPLIT_PATHS)),
    seed=st.integers(0, 2**16),
)
def test_trees_grown_as_one_batch_match_trees_grown_one_per_batch(data, rows, cols, span, tree_count, min_leaf,
                                                                  max_depth, bootstrap, tied, path, seed):
    X = np.array(data.draw(st.lists(st.lists(st.integers(-span, span), min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)), dtype=np.int64)
    n_features = data.draw(st.integers(1, cols))
    generator = _TiedKeys if tied else np.random.default_rng
    table = model_module._dense_ranks(X)

    def grow(trees):
        return model_module._grow_trees(*table, y, [generator(seed + t) for t in trees], max_depth, min_leaf,
                                        n_features, bootstrap)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "_HISTOGRAM_BINS_PER_ENTRY", SPLIT_PATHS[path])
        batch = grow(range(tree_count))
        assert len(batch) == tree_count
        for t, tree in enumerate(batch):
            _assert_same_tree(tree, grow([t])[0])


class _OneRowSample(_TiedKeys):
    """A generator whose bootstrap sample is row 0 drawn every time, so
    that its tree is a single leaf; its column keys tie as _TiedKeys' do."""

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)


@pytest.mark.parametrize("path", sorted(SPLIT_PATHS))
@pytest.mark.parametrize("leaf", [0, 1, 3])
def test_a_single_leaf_tree_leaves_the_rest_of_its_batch_as_grown_alone(path, leaf, monkeypatch):
    monkeypatch.setattr(model_module, "_HISTOGRAM_BINS_PER_ENTRY", SPLIT_PATHS[path])
    X, y = _feature_columns("graph")
    table = model_module._dense_ranks(X)

    def generator(t):
        return _OneRowSample(t) if t == leaf else np.random.default_rng(t)

    batch = model_module._grow_trees(*table, y, [generator(t) for t in range(4)], None, 1, 2, True)
    for t, tree in enumerate(batch):
        assert (len(tree["feature"]) == 1) == (t == leaf)
        assert t == leaf or len(tree["feature"]) > 2**4  # the others grow deep
        _assert_same_tree(tree, model_module._grow_trees(*table, y, [generator(t)], None, 1, 2, True)[0])


def test_a_batch_traces_a_peak_bounded_by_its_budget(monkeypatch):
    """Each batch's traced peak, past the trees it returns, stays within a
    fixed number of bytes per entry of _BATCH_ENTRIES, so a forest of many
    batches needs no more memory than one. A batch of all 32 trees needs
    about four times as much."""
    budget = 2**16
    monkeypatch.setattr(model_module, "_BATCH_ENTRIES", budget)
    _cpus(monkeypatch, 1)
    grow_trees = model_module._grow_trees
    peaks = []

    def traced(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        trees = grow_trees(*args)
        kept = sum(arr.nbytes for tree in trees for arr in tree.values())
        peaks.append(tracemalloc.get_traced_memory()[1] - before - kept)
        return trees

    monkeypatch.setattr(model_module, "_grow_trees", traced)
    rng = np.random.default_rng(0)
    X = rng.integers(0, 300, size=(2000, 16))  # 4 candidate columns: 8 trees of 2,000 rows per batch
    y = (X[:, 0] + rng.integers(0, 100, 2000) > 200).astype(np.int64)
    params = {**model_module.DEFAULT_PARAMS["forest"], "tree_count": 32, "bootstrap": False}
    tracemalloc.start()
    try:
        _train_forest(X, y, params, 1)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4
    assert max(peaks) <= 128 * budget  # 79 bytes per entry measured


def test_ranks_are_sized_by_distinct_values_not_by_rows(monkeypatch):
    """From 65,536 rows on, columns of few distinct values keep 16-bit
    ranks, and the trees grown on them equal those grown on int64 ranks."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 12, size=(70_000, 3))
    y = (X[:, 0] + X[:, 1] + rng.integers(0, 8, 70_000) > 14).astype(np.int64)
    assert model_module._dense_ranks(X)[0].dtype == np.uint16
    narrow = save_model(train(X, y, params={"tree_count": 2}, seed=3))
    dense_ranks = model_module._dense_ranks

    def wide(X):
        ranks, values, offsets = dense_ranks(X)
        return ranks.astype(np.int64), values, offsets

    monkeypatch.setattr(model_module, "_dense_ranks", wide)
    assert save_model(train(X, y, params={"tree_count": 2}, seed=3)) == narrow


def test_predict_scores_holds_one_tree_walk_at_a_time():
    """predict_scores builds each tree's walk arrays as it walks the tree, so
    its traced peak stays far below the whole forest's walk arrays, which
    _forest_walks builds for a completion run."""
    rng = np.random.default_rng(6)
    X = rng.integers(0, 300, size=(600, 6))
    y = (X[:, 0] + rng.integers(0, 150, 600) > 220).astype(np.int64)
    forest = train(X, y, params={"tree_count": 200}, seed=6)
    whole = sum(arr.nbytes for walk in model_module._forest_walks(forest) for arr in walk.values())
    tracemalloc.start()
    try:
        scores = predict_scores(forest, X[:50])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 10, f"predict_scores peaked at {peak} bytes, against {whole} for every tree's walk"
    votes = reference_forest_votes(forest, X[:50])
    assert scores.tobytes() == (votes.sum(axis=0) / len(votes)).tobytes()


@pytest.mark.parametrize("kind", ["forest", "tree", "logistic"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_train_rejects_non_finite_feature_values(kind, bad):
    X = np.array([[2.0, 1.0], [bad, 1.0], [3.0, 0.0], [5.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        train(X, [0, 1, 0, 1], kind=kind, seed=1)


@pytest.mark.parametrize("kind", ["forest", "tree", "logistic"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "x"])
def test_predict_rejects_non_finite_or_non_numeric_feature_values(kind, bad):
    clf = train([[2, 1], [1, 1], [3, 0], [5, 0]], [0, 1, 0, 1], kind=kind, seed=1)
    rows = [[2, 1], [bad, 1]]
    for floor in (0.0, 0.5):
        with pytest.raises(ValueError, match="feature values must be finite numbers"):
            predict_scores(clf, rows, floor=floor)
    with pytest.raises(ValueError, match="feature values must be finite numbers"):
        predict_score(clf, [bad, 1])


@pytest.mark.parametrize("kind", ["forest", "tree", "logistic"])
@pytest.mark.parametrize("floor", [-0.1, 1.5, float("nan"), float("inf"), True, "0.5"])
def test_predict_rejects_floor_outside_unit_interval(kind, floor):
    clf = train([[2, 1], [1, 1], [3, 0], [5, 0]], [0, 1, 0, 1], kind=kind, seed=1)
    with pytest.raises(ValueError, match="floor"):
        predict_scores(clf, [[2, 1]], floor=floor)


# A scoring walk that never ends fails these tests within 30 s instead of
# hanging the suite (see conftest.py).
WALK_TIME_LIMIT = pytest.mark.time_limit(30)


@pytest.fixture(scope="module")
def voting_forests():
    """Forests of 1, 2, 3, 7 and 100 trees, probe rows with varied scores,
    and each forest's per-tree votes on them from the plain reference."""
    X, y = _golden_fixture_rows()
    probe = np.vstack([X, np.random.default_rng(4).integers(0, 41, size=(300, X.shape[1]))])
    forests = {}
    for T in (1, 2, 3, 7, 100):
        clf = train(X, y, params={"tree_count": T}, seed=5)
        forests[T] = clf, reference_forest_votes(clf, probe)
    return probe, forests


def _assert_floor_is_exact(clf, votes, X, floor):
    """predict_scores at floor keeps the rows full scoring keeps, with the
    same score bytes, and every other row scores below floor."""
    full = votes.sum(axis=0) / len(votes)
    got = predict_scores(clf, X, floor=floor)
    kept = full >= floor
    assert np.array_equal(got >= floor, kept)
    assert got[kept].tobytes() == full[kept].tobytes()
    assert (got[~kept] < floor).all()


FLOORS = {"0": lambda T: 0.0, "1/T": lambda T: 1 / T, "2/3": lambda T: 2 / 3,
          "0.5": lambda T: 0.5, "0.9": lambda T: 0.9, "1.0": lambda T: 1.0}


@WALK_TIME_LIMIT
@pytest.mark.parametrize("T", [1, 2, 3, 7, 100])
@pytest.mark.parametrize("floor", sorted(FLOORS))
def test_floor_keeps_exactly_the_rows_full_scoring_keeps(voting_forests, T, floor):
    probe, forests = voting_forests
    clf, votes = forests[T]
    assert predict_scores(clf, probe).tobytes() == (votes.sum(axis=0) / T).tobytes()
    _assert_floor_is_exact(clf, votes, probe, FLOORS[floor](T))


@WALK_TIME_LIMIT
def test_floor_cases_hold_rows_at_and_around_the_floor(voting_forests):
    """The 100-tree forest at 0.9 has rows below, exactly at and above it,
    so the exactness cases above test both sides of the boundary."""
    probe, forests = voting_forests
    clf, votes = forests[100]
    count = votes.sum(axis=0)
    assert (count < 90).any() and (count == 90).any() and (count > 90).any()


@pytest.mark.parametrize("floor", [0.0, 0.01, 0.5, 0.9, 1.0])
def test_forest_stops_walking_a_row_as_soon_as_it_cannot_reach_the_floor(voting_forests, monkeypatch, floor):
    probe, forests = voting_forests
    clf, votes = forests[100]
    walked = []
    walk = model_module._tree_leaf_values

    def counted(tree, X, rows=None):
        walked.append(len(X) if rows is None else len(rows))
        return walk(tree, X, rows)

    monkeypatch.setattr(model_module, "_tree_leaf_values", counted)
    predict_scores(clf, probe, floor=floor)
    # After tree t a row stays while its votes so far plus the trees left can reach floor.
    so_far = np.cumsum(votes, axis=0)
    want = [len(probe)] + [int(((so_far[t - 1] + (100 - t)) / 100 >= floor).sum()) for t in range(1, 100)]
    assert walked == want


@WALK_TIME_LIMIT
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    rows=st.integers(2, 40),
    cols=st.integers(1, 4),
    trees=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_floor_is_exact_on_random_forests(data, rows, cols, trees, seed):
    X = np.array(data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)), dtype=np.int64)
    assume(0 < y.sum() < rows)
    clf = train(X, y, params={"tree_count": trees}, seed=seed)
    probe = np.vstack([X, np.random.default_rng(seed).integers(-4, 5, size=(30, cols))])
    floor = data.draw(st.one_of(st.integers(0, trees).map(lambda k: k / trees), st.floats(0.0, 1.0)))
    _assert_floor_is_exact(clf, reference_forest_votes(clf, probe), probe, floor)


def _pool_rows(pools, rows, seed):
    """rows x 3 integers drawn from the pools (inclusive ranges), labelled by
    whether the first column exceeds the second, with a fifth of the labels
    flipped, so splits fall between neighbouring integers all over the pools."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.arange(lo, hi + 1) for lo, hi in pools])
    X = rng.choice(values, size=(rows, 3))
    y = (X[:, 0] > X[:, 1]) ^ (rng.random(rows) < 0.2)
    return X, y.astype(np.int64)


def _assert_scores_match_reference(forest, tree, X):
    """The forest's scores at floors 0, 0.5 and 0.9 and the tree's leaf
    values are those of the row-by-row reference walk."""
    votes = reference_forest_votes(forest, X)
    assert predict_scores(forest, X).tobytes() == (votes.sum(axis=0) / len(votes)).tobytes()
    for floor in (0.5, 0.9):
        _assert_floor_is_exact(forest, votes, X, floor)
    for floor in (0.0, 0.5, 0.9):
        assert predict_scores(tree, X, floor=floor).tobytes() == reference_leaf_values(tree, X)[0].tobytes()


def _forest_and_tree(X, y):
    return train(X, y, params={"tree_count": 15}, seed=7), train(X, y, kind="tree", seed=7)


@WALK_TIME_LIMIT
def test_walk_matches_reference_on_values_at_the_int16_limits():
    """Values reaching -32767 and 32767 are walked as int16 against floored
    thresholds; a matrix holding -32768 or 32768 is walked as it is, so no
    value meets a threshold clipped to -32768."""
    X, y = _pool_rows([(-32767, -32737), (-15, 15), (32737, 32767)], 400, seed=1)
    forest, tree = _forest_and_tree(X, y)
    probe = np.vstack([X, np.full((1, 3), -32767), np.full((1, 3), 32767)])
    assert model_module._narrows_to_int16(probe)
    for form in (probe, probe.astype(np.int32), probe.astype(np.float64)):
        _assert_scores_match_reference(forest, tree, form)

    X, y = _pool_rows([(-32772, -32742), (-15, 15), (32742, 32772)], 400, seed=2)
    forest, tree = _forest_and_tree(X, y)
    for probe in (np.clip(X, -2**15, 2**15 - 1), np.clip(X, -2**15 + 1, 2**15), X):
        assert not model_module._narrows_to_int16(probe)
        _assert_scores_match_reference(forest, tree, probe)


@WALK_TIME_LIMIT
def test_walk_matches_reference_on_small_ints_of_every_dtype_and_layout():
    """A forest with thresholds beyond the int16 range scores small integers
    alike whatever their dtype, memory order or strides."""
    X, y = _pool_rows([(-100_000, -99_970), (0, 120), (99_970, 100_000)], 400, seed=3)
    forest, tree = _forest_and_tree(X, y)
    thresholds = np.concatenate([t["threshold"][t["feature"] >= 0] for t in forest.payload["trees"]])
    assert thresholds.min() < -2**15 and thresholds.max() > 2**15
    probe, _ = _pool_rows([(0, 120)], 200, seed=4)
    forms = [probe.astype(dtype) for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint16, np.float32, bool)]
    strided = np.repeat(np.repeat(probe, 2, axis=0), 2, axis=1)[::2, ::2]
    assert np.array_equal(strided, probe) and not strided.flags.c_contiguous
    forms += [np.asfortranarray(probe), strided]
    for form in forms:
        _assert_scores_match_reference(forest, tree, form)


@WALK_TIME_LIMIT
def test_one_walk_list_serves_every_row_kind():
    """_forest_walks builds one walk list per model, and _scores walks rows
    of every kind with it: int16-range integers (narrowed), int16 rows
    holding -32768 (widened), integers around +-40,000 and floats, each at
    floors 0 and 0.9, as predict_scores and the reference walk score them."""
    X, y = _pool_rows([(-40_000, -39_970), (-32_767, -32_737), (-15, 15), (32_737, 32_767), (39_970, 40_000)],
                      500, seed=5)
    forest, tree = _forest_and_tree(X, y)
    thresholds = np.concatenate([t["threshold"][t["feature"] >= 0] for t in forest.payload["trees"]])
    assert thresholds.min() < -2**15 and thresholds.max() > 2**15
    narrow, _ = _pool_rows([(-32_767, -32_737), (-15, 15), (32_737, 32_767)], 200, seed=6)
    wide, _ = _pool_rows([(-40_000, -39_970), (-15, 15), (39_970, 40_000)], 200, seed=7)
    kinds = [narrow, np.vstack([narrow, np.full((1, 3), -2**15)]).astype(np.int16), wide, wide + 0.25, wide * 0.5]
    assert [model_module._narrows_to_int16(rows) for rows in kinds] == [True, False, False, False, False]
    for clf in (forest, tree):
        walks = model_module._forest_walks(clf)
        for rows in kinds:
            if clf.kind == "forest":
                votes = reference_forest_votes(clf, rows)
                full = votes.sum(axis=0) / len(votes)
            else:
                full = reference_leaf_values(clf, rows)[0]
            for floor in (0.0, 0.9):
                got = model_module._scores(clf, walks, rows, floor)
                assert got.tobytes() == predict_scores(clf, rows, floor=floor).tobytes()
                kept = (full >= floor) | (clf.kind == "tree")  # a tree scores every row in full
                assert got[kept].tobytes() == full[kept].tobytes()
                assert (got[~kept] < floor).all()


# sha256 of save_model() for models trained on a fixed fixture with fixed
# seeds. A change to training, tie-breaking or serialization moves these;
# such a change must say so, since saved models and sweep results then
# no longer reproduce across versions.
GOLDEN_MODEL_DIGESTS = {
    "forest": "02a13fe1d2dbec2b6fcde178c64056bed5d422b191aa1892903535882638caa4",
    "tree": "84022cd2546309e374769c18b14599f75279a83365d440bfc338980a46117237",
    "logistic": "39bfefb711a0762d3bb63f9e2eba52136c6baf4d60352198c89b21bbcc93ff69",
}


@pytest.mark.parametrize("kind,params", [("forest", {"tree_count": 4}), ("tree", None), ("logistic", {"epochs": 50})])
def test_model_bytes_match_golden_digests(kind, params):
    X, y = _golden_fixture_rows()
    clf = train(X, y, kind=kind, params=params, seed=3)
    assert hashlib.sha256(save_model(clf)).hexdigest() == GOLDEN_MODEL_DIGESTS[kind]


# sha256 of the golden forest and tree as earlier versions saved them, with
# their nodes numbered depth first.
DEPTH_FIRST_MODEL_DIGESTS = {
    "forest": "d45497efa76a0599e5d3e01f7ff5673eb7764ad355b549409dd2491d39c1f819",
    "tree": "41d9780a0a085b7b77821b6e9cd5f2a63005558e2743361690a7e1fc90a82256",
}


def _depth_first(tree):
    """The tree with its nodes numbered as earlier versions saved them: the
    j-th split node in preorder has the children 2j+1 and 2j+2."""
    old = [0]  # old node ID of each new node ID
    left = np.full(len(tree["feature"]), -1, dtype=np.int32)
    right = left.copy()
    stack = [0]
    while stack:
        i = stack.pop()
        if tree["feature"][old[i]] < 0:
            continue
        left[i], right[i] = len(old), len(old) + 1
        old += [tree["left"][old[i]], tree["right"][old[i]]]
        stack += [right[i], left[i]]
    out = {key: tree[key][old] for key in ("feature", "threshold", "value")}
    return {**out, "left": left, "right": right}


@pytest.mark.parametrize("kind,params", [("forest", {"tree_count": 4}), ("tree", None)])
def test_depth_first_numbering_gives_the_earlier_model_bytes_and_the_same_scores(kind, params):
    X, y = _golden_fixture_rows()
    clf = train(X, y, kind=kind, params=params, seed=3)
    earlier = dataclasses.replace(clf, payload={"trees": [_depth_first(t) for t in clf.payload["trees"]]})
    data = save_model(earlier)
    assert hashlib.sha256(data).hexdigest() == DEPTH_FIRST_MODEL_DIGESTS[kind]
    assert len(data) == len(save_model(clf))
    loaded = load_model(data)
    assert save_model(loaded) == data
    probe = np.vstack([X, np.random.default_rng(3).integers(0, 42, size=(300, X.shape[1]))])
    for floor in (0.0, 0.5, 0.9):
        assert predict_scores(loaded, probe, floor=floor).tobytes() == predict_scores(clf, probe, floor=floor).tobytes()


def test_training_input_validation():
    with pytest.raises(ValueError):
        train([[1, 2], [1]], [0, 1])  # ragged
    with pytest.raises(ValueError):
        train([[1], [2]], [1, 1])  # single class
    with pytest.raises(ValueError):
        train([[1], [2]], [0, 2])  # bad label
    with pytest.raises(ValueError):
        train([[1], [2]], [0])  # length mismatch
    with pytest.raises(ValueError):
        train([[1], [2]], [0, 1], kind="svm")
    with pytest.raises(ValueError):
        train([[1], [2]], [0, 1], params={"bogus": 3})
    with pytest.raises(ValueError):
        train([[1], [2]], [0, 1], params={"min_leaf": 0})


def test_zero_columns_and_one_row_per_class_train_as_before():
    """Every kind refuses rows of no columns with one message, since
    load_model refuses a model of no columns; one row of each class splits
    once, at the midpoint. Scores and model digests are those the previous
    version gave."""
    for kind in ("forest", "tree", "logistic"):
        with pytest.raises(ValueError, match="^cannot train on rows with no columns$"):
            train(np.zeros((4, 0)), [0, 1, 0, 1], kind=kind)
    two = np.array([[3, 1], [5, 1]])
    forest = train(two, [0, 1])
    assert predict_scores(forest, two).tolist() == [0.26, 0.79]
    assert hashlib.sha256(save_model(forest)).hexdigest() == (
        "eb08c856d89ef0f8705130d98fe7868e9646dd1b3e857b616781d2f03b1cce01")
    tree = train(two, [0, 1], kind="tree")
    assert tree.payload["trees"][0]["threshold"].tolist() == [4.0, 0.0, 0.0]
    assert predict_scores(tree, two).tolist() == [0.0, 1.0]
    assert hashlib.sha256(save_model(tree)).hexdigest() == (
        "97f20d507f6bc17752afe9bc6952d32e9facf0d8b77c54036957a2a524456230")


@pytest.mark.parametrize("seed", [1.5, "7", True])
def test_train_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        train([[1], [2]], [0, 1], seed=seed)


def test_train_keeps_a_numpy_integer_seed_as_an_int():
    X, y = _golden_fixture_rows()
    clf = train(X, y, params={"tree_count": 4}, seed=np.int64(3))
    assert type(clf.seed) is int
    assert hashlib.sha256(save_model(clf)).hexdigest() == GOLDEN_MODEL_DIGESTS["forest"]


def _fitted_bytes(strategy, **settings):
    g = graph_from_edges(two_cliques_edges(6))
    config = FeatureConfig(strategy=strategy, **settings)
    return save_model(fit(g, config, classifier_params={"tree_count": 3})[0])


def test_a_numpy_integer_strategy_seed_is_kept_as_an_int():
    strategy = Strategy("random", seed=np.int64(4))
    assert type(strategy.seed) is int
    assert _fitted_bytes(strategy, a=2, b=1, seed=5) == _fitted_bytes(Strategy("random", seed=4), a=2, b=1, seed=5)


def test_numpy_integer_feature_settings_are_kept_as_ints():
    config = FeatureConfig(a=np.int64(2), b=np.int64(1), strategy=Strategy("degree"), seed=np.int64(5))
    assert [type(value) for value in (config.a, config.b, config.seed)] == [int] * 3
    settings = {"a": np.int64(2), "b": np.int64(1), "seed": np.int64(5)}
    assert _fitted_bytes(Strategy("degree"), **settings) == _fitted_bytes(Strategy("degree"), a=2, b=1, seed=5)


@pytest.mark.parametrize("kind,params", [
    ("forest", {"tree_count": 2.5}),
    ("forest", {"tree_count": True}),
    ("forest", {"tree_count": "3"}),
    ("forest", {"tree_count": np.float64(3.0)}),
    ("forest", {"min_leaf": 1.5}),
    ("forest", {"min_leaf": False}),
    ("forest", {"max_depth": 2.5}),
    ("forest", {"feature_subsample": 1.0}),
    ("forest", {"bootstrap": "no"}),
    ("forest", {"bootstrap": 0}),
    ("tree", {"min_leaf": 1.5}),
    ("tree", {"max_depth": True}),
    ("logistic", {"epochs": 2.5}),
    ("logistic", {"epochs": True}),
])
def test_train_rejects_hyperparameters_it_would_truncate(kind, params):
    with pytest.raises(ValueError):
        train([[1], [2]] * 3, [0, 1] * 3, kind=kind, params=params)


def test_numpy_integer_hyperparameters_are_kept_as_ints():
    X, y = [[1, 4], [2, 3], [3, 1], [4, 2]] * 3, [0, 1, 1, 0] * 3
    for kind, params in (("forest", {"tree_count": 3, "max_depth": 2}), ("logistic", {"epochs": 5})):
        as_numpy = {key: np.int64(value) for key, value in params.items()}
        clf = train(X, y, kind=kind, params=as_numpy, seed=2)
        assert all(type(clf.params[key]) is int for key in params)
        assert save_model(clf) == save_model(train(X, y, kind=kind, params=params, seed=2))
        assert save_model(load_model(save_model(clf))) == save_model(clf)


@pytest.mark.parametrize("kind", ["forest", "tree", "logistic"])
@pytest.mark.parametrize("labels", [[0.6, 1, 0, 1] * 3, [0, 1, 0, 1.5] * 3, ["0", "1", "0", "1"] * 3, [0, 1, 0, -0.4] * 3])
def test_train_rejects_labels_other_than_0_or_1(kind, labels):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        train([[1], [2], [3], [4]] * 3, labels, kind=kind)


def test_train_accepts_labels_of_any_numeric_type_that_are_0_or_1():
    X = [[1], [2], [3], [4]] * 3
    want = save_model(train(X, [0, 1, 0, 1] * 3, kind="tree"))
    for labels in ([0.0, 1.0, 0.0, 1.0] * 3, [False, True, False, True] * 3, np.array([0, 1, 0, 1] * 3, dtype=np.uint8)):
        assert save_model(train(X, labels, kind="tree")) == want


def test_predict_length_validation(clique_split):
    clf = train(clique_split.Xtrain, clique_split.ytrain, seed=1)
    with pytest.raises(ValueError):
        predict_score(clf, [1, 2, 3])


def test_save_load_round_trip_scores(clique_split):
    clf = train(clique_split.Xtrain, clique_split.ytrain, seed=8)
    clf.featurize_config = {"a": 3, "b": 1, "strategy_kind": "degree", "strategy_seed": None, "mask_pair_edge": False, "seed": 11}
    restored = load_model(save_model(clf))
    assert restored.kind == clf.kind
    assert restored.params == clf.params
    assert restored.featurize_config == clf.featurize_config
    rng = np.random.default_rng(12)
    probe = rng.integers(0, 13, size=(1000, clf.feature_length))
    assert np.array_equal(predict_scores(restored, probe), predict_scores(clf, probe))


def test_save_model_holds_no_list_copy_of_the_forest():
    """save_model hands the payload's arrays to the encoder as they are: its
    traced peak stays below 3x the document's bytes, where copying every
    tree into lists first took about 7x."""
    rng = np.random.default_rng(8)
    X = rng.integers(0, 1000, size=(10_000, 4))
    forest = train(X, rng.integers(0, 2, 10_000), params={"tree_count": 20}, seed=8)
    tracemalloc.start()
    try:
        data = save_model(forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(data), f"save_model peaked at {peak} bytes for a {len(data)}-byte document"
    assert save_model(load_model(data)) == data


def test_save_load_round_trip_logistic():
    clf = train([[1.0], [9.0]] * 10, [0, 1] * 10, kind="logistic", params={"learning_rate": 0.3, "epochs": 57})
    restored = load_model(save_model(clf))
    probe = np.linspace(-5, 15, 101).reshape(-1, 1)
    assert np.array_equal(predict_scores(restored, probe), predict_scores(clf, probe))


def test_load_rejects_corrupt_documents(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(b"this is not json")
    for document in (b"\xff\xfe{", bytearray(b"\xff\xfe{")):  # not UTF-8
        with pytest.raises(ModelFormatError):
            load_model(document)
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(b"[" * 100_000 + b"]" * 100_000)  # nested deeper than the parser recurses
    with pytest.raises(ModelFormatError):
        load_model(b'{"version": 99, "kind": "forest"}')
    with pytest.raises(ModelFormatError):
        load_model(b'{"version": 1, "kind": "forest"}')  # missing fields
    with pytest.raises(ModelFormatError):
        load_model(b'[1, 2, 3]')
    good = save_model(train([[1], [9]] * 5, [0, 1] * 5, kind="logistic"))
    with pytest.raises(ModelFormatError):
        load_model(good[: len(good) // 2])  # truncated


def test_loaded_model_with_wrong_feature_length_errors_at_predict():
    clf = train([[1, 2], [9, 1]] * 5, [0, 1] * 5, kind="logistic")
    restored = load_model(save_model(clf))
    with pytest.raises(ValueError):
        predict_scores(restored, [[1.0, 2.0, 3.0]])


def first_split(tree):
    return next(i for i, f in enumerate(tree["feature"]) if f >= 0)


def first_leaf(tree):
    return next(i for i, f in enumerate(tree["feature"]) if f < 0)


def _set(tree, key, i, value):
    tree[key][i] = value


TREE_CORRUPTIONS = {
    "unequal_arrays": lambda t: t["value"].pop(),
    "child_is_parent": lambda t: _set(t, "left", first_split(t), first_split(t)),
    "child_before_parent": lambda t: _set(t, "right", t["left"][first_split(t)], first_split(t)),
    "child_past_end": lambda t: _set(t, "right", first_split(t), len(t["feature"])),
    "one_child": lambda t: _set(t, "right", first_split(t), -1),
    "leaf_with_children": lambda t: _set(t, "left", first_leaf(t), len(t["feature"]) - 1),
    "feature_past_end": lambda t: _set(t, "feature", first_split(t), 26),
    "split_without_feature": lambda t: _set(t, "feature", first_split(t), -1),
    "value_above_one": lambda t: _set(t, "value", first_leaf(t), 1.5),
    "threshold_null": lambda t: _set(t, "threshold", first_split(t), None),
    "nested_array": lambda t: _set(t, "threshold", 0, [0.5]),
}


@pytest.fixture(scope="module")
def small_forest_doc(clique_split):
    clf = train(clique_split.Xtrain, clique_split.ytrain, params={"tree_count": 3}, seed=4)
    clf.featurize_config = {"a": 3, "b": 1, "strategy_kind": "degree", "strategy_seed": None, "mask_pair_edge": False, "seed": 11}
    return save_model(clf)


@pytest.fixture(scope="module")
def small_logistic_doc(clique_split):
    return save_model(train(clique_split.Xtrain, clique_split.ytrain, kind="logistic", seed=4))


@pytest.mark.parametrize("corruption", sorted(TREE_CORRUPTIONS))
def test_load_rejects_unsafe_trees(small_forest_doc, corruption):
    doc = json.loads(small_forest_doc)
    TREE_CORRUPTIONS[corruption](doc["payload"]["trees"][1])
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def _stump(**changes):
    """A forest payload of one valid split on column 0, with some node arrays replaced."""
    tree = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1],
            "value": [0.5, 0.0, 1.0]}
    return {"trees": [{**tree, **changes}]}


@pytest.mark.parametrize("field,value", [
    ("feature_length", 0),
    ("feature_length", "26"),
    ("seed", None),
    ("hyperparameters", {"bogus": 1}),
    ("hyperparameters", [1]),
    ("featurize_config", {"a": 3}),
    ("featurize_config", {"a": 0, "b": 1, "strategy_kind": "degree", "strategy_seed": None, "mask_pair_edge": False, "seed": 1}),
    ("payload", {"trees": []}),
    ("payload", {"trees": [None]}),
    ("payload", {"trees": [{"feature": 1, "threshold": 0.5, "left": -1, "right": -1, "value": 0.5}]}),
    ("kind", ["forest"]),
    ("featurize_config", {"a": 2.0, "b": 1.0, "strategy_kind": "degree", "strategy_seed": None, "mask_pair_edge": False, "seed": 1}),
    ("featurize_config", {"a": 2, "b": 1, "strategy_kind": "random", "strategy_seed": 1.5, "mask_pair_edge": False, "seed": 1}),
    ("payload", {"weights": [float("nan")] + [0.0] * 25, "bias": 0.0}),
    ("payload", {"weights": [0.0] * 25 + [float("inf")], "bias": 0.0}),
    ("payload", {"weights": [0.0] * 25 + [float("-inf")], "bias": 0.0}),
    ("payload", {"weights": [0.0] * 26, "bias": float("nan")}),
    ("payload", {"weights": [0.0] * 26, "bias": float("inf")}),
    ("hyperparameters", {"tree_count": 2.5}),
    ("hyperparameters", {"tree_count": True}),
    ("hyperparameters", {"tree_count": "3"}),
    ("hyperparameters", {"min_leaf": 1.5}),
    ("hyperparameters", {"max_depth": 2.5}),
    ("hyperparameters", {"feature_subsample": 2.0}),
    ("hyperparameters", {"bootstrap": "no"}),
    ("hyperparameters", {"bootstrap": 1}),
    ("seed", 1.5),
    ("seed", "7"),
    ("seed", True),
    ("featurize_config", {"a": True, "b": 1, "strategy_kind": "degree", "strategy_seed": None, "mask_pair_edge": False, "seed": 1}),
    ("featurize_config", {"a": 2, "b": 1, "strategy_kind": "degree", "strategy_seed": None, "mask_pair_edge": False, "seed": True}),
    ("featurize_config", {"a": 2, "b": 1, "strategy_kind": "random", "strategy_seed": True, "mask_pair_edge": False, "seed": 1}),
    ("featurize_config", {"a": 2, "b": 1, "strategy_kind": "degree", "strategy_seed": None, "mask_pair_edge": "no", "seed": 1}),
    ("payload", _stump(feature=[0.4, -1, -1])),
    ("payload", _stump(feature=[True, -1, -1])),
    ("payload", _stump(left=[1.0, -1, -1])),
    ("payload", _stump(left=[True, -1, -1])),
    ("payload", _stump(right=[2.0, -1, -1])),
    ("payload", _stump(threshold=["0.5", 0.0, 0.0])),
    ("payload", _stump(threshold=[True, 0.0, 0.0])),
    ("payload", _stump(value=["0.5", 0.0, 1.0])),
    ("payload", _stump(value=[0.5, False, True])),
    ("payload", {"weights": ["1", "2"] + [0.0] * 24, "bias": 0.0}),
    ("payload", {"weights": [True] + [0.0] * 25, "bias": 0.0}),
    ("payload", {"weights": [0.0] * 26, "bias": "0.5"}),
    ("payload", {"weights": [0.0] * 26, "bias": True}),
])
def test_load_rejects_bad_fields(small_forest_doc, small_logistic_doc, field, value):
    # A logistic payload goes into a logistic document, whose other fields are valid.
    base = small_logistic_doc if field == "payload" and "weights" in value else small_forest_doc
    doc = json.loads(base)
    doc[field] = value
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def test_the_stump_payload_loads_and_its_numbers_round_trip(small_forest_doc, small_logistic_doc):
    doc = json.loads(small_forest_doc)
    doc["payload"] = _stump()
    assert save_model(load_model(json.dumps(doc))) == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    doc = json.loads(small_logistic_doc)
    doc["payload"] = {"weights": [1] + [0.5] * 25, "bias": 2}
    loaded = load_model(json.dumps(doc))
    assert loaded.payload["weights"][0] == 1.0 and loaded.payload["bias"] == 2.0


def test_tree_on_values_near_the_float_limit_round_trips():
    X, y = [[1e308], [1.5e308]] * 2, [0, 1, 0, 1]
    clf = train(X, y, kind="tree")
    assert np.isfinite(clf.payload["trees"][0]["threshold"]).all()
    loaded = load_model(save_model(clf))
    assert save_model(loaded) == save_model(clf)
    assert predict_scores(loaded, X).tolist() == y


@pytest.mark.parametrize("params", [
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"learning_rate": 0.0},
    {"learning_rate": -0.1},
    {"learning_rate": "0.1"},
    {"learning_rate": True},
    {"learning_rate": None},
    {"learning_rate": 10**400},
    {"l2": float("nan")},
    {"l2": float("-inf")},
    {"l2": -1.0},
    {"l2": "0"},
    {"l2": False},
    {"learning_rate": 1e308},  # finite, but the weights overflow
    {"l2": 1e308},
])
def test_train_returns_no_logistic_model_that_cannot_be_saved_and_loaded(params):
    X, y = _golden_fixture_rows()
    with pytest.raises(ValueError):
        train(X, y, kind="logistic", params={"epochs": 50, **params}, seed=3)


def test_numpy_float_logistic_numbers_are_kept_as_python_floats():
    X, y = _golden_fixture_rows()
    clf = train(X, y, kind="logistic", params={"epochs": 50, "learning_rate": np.float64(0.01), "l2": np.float64(0.0)},
                seed=3)
    assert [type(clf.params[key]) for key in ("learning_rate", "l2")] == [float, float]
    assert hashlib.sha256(save_model(clf)).hexdigest() == GOLDEN_MODEL_DIGESTS["logistic"]
    clf = train(X, y, kind="logistic", params={"epochs": 5, "learning_rate": np.float32(0.1)}, seed=3)
    assert type(clf.params["learning_rate"]) is float
    assert save_model(load_model(save_model(clf))) == save_model(clf)


@pytest.mark.parametrize("params", [
    {"learning_rate": "abc"},
    {"learning_rate": True},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"learning_rate": 0},
    {"learning_rate": None},
    {"l2": "0"},
    {"l2": -0.5},
    {"l2": float("inf")},
])
def test_load_rejects_bad_logistic_numbers(small_logistic_doc, params):
    doc = json.loads(small_logistic_doc)
    doc["hyperparameters"].update(params)
    with pytest.raises(ModelFormatError, match="learning_rate|l2"):
        load_model(json.dumps(doc))


def test_load_rejects_a_tree_model_without_exactly_one_tree():
    X, y = _golden_fixture_rows()
    doc = json.loads(save_model(train(X, y, kind="tree", seed=3)))
    doc["payload"]["trees"] *= 2  # predict_scores would read only the first
    with pytest.raises(ModelFormatError, match="exactly one tree"):
        load_model(json.dumps(doc))


def test_load_rejects_logistic_weights_of_wrong_length():
    doc = json.loads(save_model(train([[1, 2], [9, 1]] * 5, [0, 1] * 5, kind="logistic")))
    doc["payload"]["weights"].append(0.0)
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_tree_documents_load_and_predict_or_raise(small_forest_doc, data):
    doc = json.loads(small_forest_doc)
    tree = data.draw(st.sampled_from(doc["payload"]["trees"]))
    key = data.draw(st.sampled_from(["feature", "threshold", "left", "right", "value"]))
    i = data.draw(st.integers(0, len(tree[key]) - 1))
    tree[key][i] = data.draw(st.one_of(st.integers(-3, 40), st.floats(), st.none(), st.text(max_size=2)))
    try:
        clf = load_model(json.dumps(doc))
    except ModelFormatError:
        return
    probe = np.random.default_rng(5).integers(0, 13, size=(200, clf.feature_length))
    scores = predict_scores(clf, probe)
    assert ((scores >= 0.0) & (scores <= 1.0)).all()


# ---------------------------------------------------------------------------
# Forests grown in worker processes

def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture()
def fixture_forests_fork(monkeypatch):
    """Forests fork from 10,000 rows x trees, so that forests of the 180
    golden fixture rows fork from 57 trees on and the pool tests stay quick."""
    monkeypatch.setattr(model_module, "_POOL_MIN_ROW_TREES", 10_000)


def _trained_bytes(kind, params):
    X, y = _golden_fixture_rows()
    return save_model(train(X, y, kind=kind, params=params, seed=3))


def _trained_bytes_on_a_second_thread(kind, params):
    out = []
    worker = threading.Thread(target=lambda: out.append(_trained_bytes(kind, params)))
    worker.start()
    worker.join(timeout=600)
    assert not worker.is_alive()
    return out[0]


@pytest.mark.parametrize("kind,params", [
    ("forest", None),  # bootstrap and column draws
    ("forest", {"bootstrap": False, "min_leaf": 2, "tree_count": 57}),
    ("forest", {"feature_subsample": 1, "max_depth": 4}),
    ("tree", None),
])
def test_model_bytes_do_not_depend_on_the_worker_count(monkeypatch, pools, kind, params, fixture_forests_fork):
    serial = _trained_bytes_on_a_second_thread(kind, params)
    assert pools == []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        del pools[:]
        assert _trained_bytes(kind, params) == serial
        assert pools == ([] if cpus == 1 or kind == "tree" else [cpus])


def test_a_small_forest_grows_in_this_process(monkeypatch, pools):
    _cpus(monkeypatch, 2)
    _trained_bytes("forest", {"tree_count": 4})
    assert pools == []
    rows = model_module._POOL_MIN_ROW_TREES // 40
    assert model_module._forest_workers(np.zeros((rows - 1, 3)), 40) == 1
    assert model_module._forest_workers(np.zeros((rows, 3)), 40) == 2
    assert model_module._forest_workers(np.zeros((rows, 3)), 1) == 1


def test_a_thread_unknown_to_threading_grows_its_forest_in_this_process(monkeypatch, pools, fixture_forests_fork):
    _cpus(monkeypatch, 1)
    serial = _trained_bytes("forest", None)
    _cpus(monkeypatch, 2)
    out = []

    def grow():
        try:
            out.append(_trained_bytes("forest", None))
        except BaseException as err:
            out.append(err)

    _thread.start_new_thread(grow, ())  # threading.active_count() stays 1
    deadline = time.monotonic() + 120
    while not out and time.monotonic() < deadline:
        time.sleep(0.01)
    assert out == [serial]
    assert pools == []
    assert threading.active_count() == 1  # the check registered no thread, so later forests still fork


def test_a_dead_worker_raises_and_leaves_no_process(dying_forest_workers, pools, fixture_forests_fork):
    with pytest.raises(ChildProcessError, match="worker process died"):
        _trained_bytes("forest", None)
    assert pools == [2]
    assert multiprocessing.active_children() == []  # conftest's no_worker_left stops any left


def test_a_failed_fork_stops_the_workers_already_started(monkeypatch, pools, fixture_forests_fork):
    _cpus(monkeypatch, 3)
    forks = []
    real_fork = os.fork

    def fork_twice():
        forks.append(1)
        if len(forks) > 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_twice)
    with pytest.raises(OSError):
        _trained_bytes("forest", None)
    assert pools == [3] and len(forks) == 3
    assert multiprocessing.active_children() == []  # conftest's no_worker_left stops any left


_KILLED_PARENT_SCRIPT = """
import os
import signal
import numpy as np
from ab_linkpred import model, train

# A background job of a shell starts with SIGINT ignored; Ctrl-C must reach this one.
signal.signal(signal.SIGINT, signal.default_int_handler)
os.sched_getaffinity = lambda pid: {0, 1}
grow_trees = model._grow_trees

def announce(*args):
    print("worker", os.getpid(), flush=True)
    return grow_trees(*args)

model._grow_trees = announce
rng = np.random.default_rng(0)
train(rng.integers(0, 50, size=(400, 8)), rng.integers(0, 2, 400), params={"tree_count": 10_000})
"""


def _start_forked_training():
    """A fresh interpreter training a 10,000-tree forest on 2 workers, in a
    process group of its own; each batch of trees prints a `worker` line first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(model_module.__file__)), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", _KILLED_PARENT_SCRIPT], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)


def _kill_group(parent):
    try:
        os.killpg(parent.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    parent.stdout.close()
    parent.stderr.close()


def test_workers_exit_when_their_parent_is_killed():
    parent = _start_forked_training()
    try:
        assert parent.stdout.readline().startswith("worker")
        parent.kill()
        parent.wait(timeout=60)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(parent.pid, 0)  # is any process of the group left?
            except ProcessLookupError:
                return
            time.sleep(0.05)
        pytest.fail("forest workers outlived their killed parent")
    finally:
        _kill_group(parent)


def test_ctrl_c_stops_the_parent_and_its_workers_at_once():
    parent = _start_forked_training()
    try:
        assert parent.stdout.readline().startswith("worker")
        os.killpg(parent.pid, signal.SIGINT)  # what Ctrl-C in a terminal does
        err = parent.communicate(timeout=10)[1]
        with pytest.raises(ProcessLookupError):
            os.killpg(parent.pid, 0)  # no process of the group is left
        assert err.count("Traceback") == 1 and err.rstrip().endswith("KeyboardInterrupt")
    finally:
        _kill_group(parent)
