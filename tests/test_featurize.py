import dataclasses
import io
import random
import re

import numpy as np
import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from ab_linkpred import (
    FeatureConfig,
    Strategy,
    balance,
    balanced_dataset,
    build_dataset,
    create_pair_features,
    export_dataset_csv,
    load_edge_list,
    split,
)
from ab_linkpred.featurize import _edge_index, _pair_index, _pair_nodes, config_from_dict, config_to_dict

from graphgen import community_edges, complete_graph, gnm_edges, gnp_edges, graph_from_edges
from oracles import dense_balance, dense_dataset, dense_labeled_candidates, reference_dataset


def degree_cfg(a, b, seed=42, mask=False):
    return FeatureConfig(a=a, b=b, strategy=Strategy("degree"), mask_pair_edge=mask, seed=seed)


def random_cfg(a, b, seed=42, mask=False):
    return FeatureConfig(a=a, b=b, strategy=Strategy("random", seed=seed), mask_pair_edge=mask, seed=seed)


def test_config_validation_and_lengths():
    with pytest.raises(ValueError):
        degree_cfg(0, 1)
    with pytest.raises(ValueError):
        degree_cfg(1, -1)
    for a, b, seed in ((2.0, 1, 42), (2, 1.0, 42), (2, 1, 4.2), ("2", 1, 42)):
        with pytest.raises(ValueError, match="must be an integer"):
            degree_cfg(a, b, seed=seed)
    assert degree_cfg(np.int64(3), np.int64(2)).row_length == 44
    assert degree_cfg(3, 2).row_length == 44
    assert degree_cfg(2, 1).row_length == 14


@pytest.mark.parametrize("strategy", ["degree", None, ("degree", None)], ids=["str", "None", "tuple"])
def test_config_refuses_a_strategy_that_is_not_a_strategy(strategy):
    with pytest.raises(ValueError, match="strategy must be a Strategy"):
        FeatureConfig(a=1, b=0, strategy=strategy)


def test_triangle_hand_trace():
    g = complete_graph(3)
    row = create_pair_features(g, 1, 2, degree_cfg(1, 0))
    assert row.x == [2, 1, 1, 2]
    assert row.y == 1


def test_isolated_pair_is_all_padding():
    from ab_linkpred import Graph

    g = Graph()
    g.intern("1")
    g.intern("2")
    row = create_pair_features(g, 1, 2, degree_cfg(2, 1))
    assert row.x == [0] * 12 + [1, 2]
    assert row.y == 0
    assert len(row.x) == 14


def test_pair_requires_distinct_valid_nodes():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        create_pair_features(g, 1, 1, degree_cfg(1, 0))
    with pytest.raises(ValueError):
        create_pair_features(g, 1, 9, degree_cfg(1, 0))


def expansion_groups(block, a, b):
    """The level-0 group plus each expansion group of a block, in order."""
    return [block[i : i + a] for i in range(0, a + a * a * b, a)]


@pytest.mark.parametrize("a,b", [(1, 0), (1, 3), (2, 2), (3, 1), (4, 0), (5, 2)])
def test_row_shape_and_block_contracts(a, b):
    g = graph_from_edges(gnp_edges(30, 0.15, seed=4))
    cfg = random_cfg(a, b, seed=11)
    rng = random.Random(a * 100 + b)
    n = g.node_count
    for _ in range(40):
        u, v = rng.sample(range(1, n + 1), 2)
        row = create_pair_features(g, u, v, cfg)
        x = row.x
        assert len(x) == 2 * (a + a * a * b) + 2
        assert x[-2] == u and x[-1] == v
        assert all(0 <= e <= n for e in x)
        half = a + a * a * b
        for root, block in ((u, x[:half]), (v, x[half:-2])):
            assert root not in block
            nonzero = [e for e in block if e]
            assert len(nonzero) == len(set(nonzero))  # visited set: no repeats
            for group in expansion_groups(block, a, b):
                tail = False
                for e in group:
                    if e == 0:
                        tail = True
                    else:
                        assert not tail, "zeros must only pad the end of a group"


def test_zero_entries_expand_to_zero_groups():
    g = graph_from_edges([(1, 2)])
    # node 1 has a single neighbor, so with a=2 level 0 is [2, 0] and the
    # second expansion group (for the 0 slot) must be all zeros
    row = create_pair_features(g, 1, 2, degree_cfg(2, 1))
    block = row.x[:6]
    assert block[:2] == [2, 0]
    assert block[4:6] == [0, 0]


def test_mask_pair_edge_hides_level0_leak():
    g = graph_from_edges(gnp_edges(20, 0.3, seed=7))
    a = 3
    plain = degree_cfg(a, 1)
    masked = degree_cfg(a, 1, mask=True)
    from ab_linkpred import degree_centrality, ordered_neighbors

    table = degree_centrality(g)
    checked = 0
    for u in range(1, g.node_count + 1):
        for v in g.neighbors(u):
            if v < u:
                continue
            row = create_pair_features(g, u, v, plain)
            expect_leak = v in ordered_neighbors(g, u, Strategy("degree"), table)[:a]
            assert (v in row.x[:a]) == expect_leak
            masked_row = create_pair_features(g, u, v, masked)
            assert v not in masked_row.x[:a]
            assert masked_row.y == 1  # label still reflects the true graph
            checked += 1
    assert checked >= 10


def test_build_dataset_counts_and_order():
    k3 = complete_graph(3)
    d = build_dataset(k3, degree_cfg(1, 0))
    assert d.pairs == [(2, 1), (3, 1), (3, 2)]
    assert d.y.tolist() == [1, 1, 1]
    assert d.positive_count == 3

    from ab_linkpred import Graph

    empty4 = Graph()
    for label in "1234":
        empty4.intern(label)
    d0 = build_dataset(empty4, degree_cfg(2, 1))
    assert len(d0.y) == 6
    assert d0.positive_count == 0
    assert not d0.X[:, :-2].any()

    g151 = graph_from_edges(gnm_edges(151, 235, seed=5))
    d151 = build_dataset(g151, random_cfg(1, 0))
    assert len(d151.y) == 11_325
    assert d151.positive_count == 235


def with_isolated_nodes():
    g = graph_from_edges(gnm_edges(24, 55, seed=12))
    for label in ("iso1", "iso2", "iso3"):
        g.intern(label)
    return g


def edgeless(n):
    from ab_linkpred import Graph

    g = Graph()
    for i in range(1, n + 1):
        g.intern(str(i))
    return g


def assert_same_bytes(d, ref):
    assert d.X.tobytes() == ref.X.tobytes()
    assert d.y.tobytes() == ref.y.tobytes()
    assert d.pairs == ref.pairs


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("a,b", [(1, 0), (2, 1), (3, 2), (5, 5)])
@pytest.mark.parametrize("kind", ["degree", "betweenness", "closeness", "random"])
def test_build_dataset_matches_per_pair_oracle(kind, a, b, mask):
    g = with_isolated_nodes()
    cfg = FeatureConfig(a=a, b=b, strategy=Strategy(kind, 5 if kind == "random" else None), mask_pair_edge=mask)
    assert_same_bytes(build_dataset(g, cfg), reference_dataset(g, cfg))


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("pairs", [[], [(7, 3)], [(5, 9), (26, 1), (2, 14), (14, 2), (3, 27), (9, 5)]])
def test_build_dataset_explicit_pairs_match_oracle(pairs, mask):
    g = with_isolated_nodes()
    for kind in ("betweenness", "random"):
        cfg = FeatureConfig(a=2, b=1, strategy=Strategy(kind, 3 if kind == "random" else None), mask_pair_edge=mask)
        assert_same_bytes(build_dataset(g, cfg, pairs=pairs), reference_dataset(g, cfg, pairs))
    empty = edgeless(6)
    cfg = FeatureConfig(a=3, b=2, strategy=Strategy("closeness"), mask_pair_edge=mask)
    assert_same_bytes(build_dataset(empty, cfg), reference_dataset(empty, cfg))


@settings(max_examples=60, deadline=None, derandomize=True, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    edges=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda e: (e[0], e[0] + e[1])),
                   min_size=1, max_size=40),
    a=st.integers(1, 4),
    b=st.integers(0, 3),
    kind=st.sampled_from(["degree", "betweenness", "closeness", "random"]),
    ratio=st.sampled_from([0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**16),
)
def test_masked_rows_match_the_oracle_on_random_graphs(edges, a, b, kind, ratio, seed):
    g = graph_from_edges(sorted(set(edges)))
    cfg = FeatureConfig(a=a, b=b, strategy=Strategy(kind, seed if kind == "random" else None),
                        mask_pair_edge=True, seed=seed)
    ref = reference_dataset(g, cfg)
    assert_same_bytes(build_dataset(g, cfg), ref)
    assert_same_bytes(balanced_dataset(g, cfg, ratio, seed=seed), balance(ref, ratio, seed))
    # The mask changes a block only when the other endpoint is in the
    # block's level-0 group, so both kinds of positive rows must occur.
    plain = build_dataset(g, dataclasses.replace(cfg, mask_pair_edge=False))
    k = cfg.block_length
    for x, (u, v) in zip(plain.X.tolist(), plain.pairs):
        if g.has_edge(u, v):
            for group, hidden in ((x[:a], v), (x[k:k + a], u)):
                event("hidden endpoint inside the level-0 group" if hidden in group else
                      "hidden endpoint outside the level-0 group")


def test_explicit_pairs_are_stored_as_int_tuples_whatever_their_form():
    g = with_isolated_nodes()
    cfg = degree_cfg(2, 1, mask=True)
    want = build_dataset(g, cfg, pairs=[(5, 9), (26, 1), (2, 14), (14, 2)])
    assert all(type(u) is int and type(v) is int for u, v in want.pairs)
    for pairs in ([[5, 9], [26, 1], [2, 14], [14, 2]],
                  np.array([(5, 9), (26, 1), (2, 14), (14, 2)]),
                  [(np.int64(5), np.int64(9)), (np.int32(26), np.int32(1)), (np.int64(2), np.int64(14)),
                   (np.uint8(14), np.uint8(2))]):
        got = build_dataset(g, cfg, pairs=pairs)
        assert_same_bytes(got, want)
        assert [tuple(map(type, p)) for p in got.pairs] == [(int, int)] * 4
        assert set(got.pairs) == set(want.pairs)  # hashable


@pytest.mark.parametrize("bad", [[(0, 1)], [(3, -1)], [(-2, 4)], [(1, 29)], [(4, 4)], [(1, 2, 3)], [(1.0, 2.0)]])
def test_build_dataset_rejects_invalid_pairs(bad):
    g = with_isolated_nodes()  # 27 nodes
    with pytest.raises(ValueError):
        build_dataset(g, degree_cfg(2, 1), pairs=[(2, 1)] + bad)
    if len(bad[0]) == 2 and all(type(x) is int for x in bad[0]):
        # The refusal names the pair in plain ints, whatever the pairs' form.
        for pairs in ([(2, 1)] + bad, np.array([(2, 1)] + bad)):
            with pytest.raises(ValueError, match=re.escape(f"pair {bad[0]} must name two distinct nodes in 1..27")):
                build_dataset(g, degree_cfg(2, 1), pairs=pairs)


def test_labels_do_not_depend_on_ordering_seed():
    g = graph_from_edges(gnm_edges(40, 90, seed=6))
    y1 = build_dataset(g, random_cfg(2, 1, seed=1)).y
    y2 = build_dataset(g, random_cfg(2, 1, seed=2)).y
    assert np.array_equal(y1, y2)


def test_balance_arithmetic_cap_and_determinism():
    g = graph_from_edges(gnm_edges(60, 100, seed=3))
    d = build_dataset(g, degree_cfg(1, 0))
    b1 = balance(d, 1.0, seed=5)
    assert b1.positive_count == 100
    assert b1.negative_count == 100
    capped = balance(d, 1e9, seed=5)
    assert capped.negative_count == d.negative_count
    again = balance(d, 1.0, seed=5)
    assert np.array_equal(b1.X, again.X)
    assert b1.pairs == again.pairs
    other = balance(d, 1.0, seed=6)
    assert b1.pairs != other.pairs


def test_balance_requires_positives_and_positive_ratio():
    from ab_linkpred import Graph

    g = Graph()
    g.intern("1")
    g.intern("2")
    g.intern("3")
    d = build_dataset(g, degree_cfg(1, 0))
    with pytest.raises(ValueError):
        balance(d, 1.0, seed=1)
    g2 = complete_graph(3)
    with pytest.raises(ValueError):
        balance(build_dataset(g2, degree_cfg(1, 0)), 0.0, seed=1)


@pytest.mark.parametrize("ratio", [float("inf"), float("-inf"), float("nan"), -1.0])
def test_balance_rejects_non_finite_ratio_with_value_error(ratio):
    g = graph_from_edges(gnm_edges(20, 40, seed=3))
    d = build_dataset(g, degree_cfg(1, 0))
    for call in (lambda: balance(d, ratio, seed=1), lambda: balanced_dataset(g, degree_cfg(1, 0), ratio)):
        with pytest.raises(ValueError, match="negative_ratio must be a finite number > 0"):
            call()


def test_a_huge_finite_ratio_keeps_every_negative():
    g = graph_from_edges(gnm_edges(60, 100, seed=3))
    cfg = degree_cfg(1, 0)
    d = build_dataset(g, cfg)
    pairs = ((balance(d, 1e308, seed=5), balance(d, 1e9, seed=5)),
             (balanced_dataset(g, cfg, 1e308, seed=5), balanced_dataset(g, cfg, 1e9, seed=5)))
    for huge, every in pairs:
        assert huge.negative_count == d.negative_count
        assert huge.pairs == every.pairs
        assert np.array_equal(huge.X, every.X)
        assert np.array_equal(huge.y, every.y)


def test_balanced_dataset_matches_unfused_pipeline():
    g = graph_from_edges(gnm_edges(45, 120, seed=8))
    for cfg in (degree_cfg(2, 1, seed=9), random_cfg(3, 0, seed=9)):
        fused = balanced_dataset(g, cfg, 1.5, seed=9)
        plain = balance(build_dataset(g, cfg), 1.5, seed=9)
        assert fused.pairs == plain.pairs
        assert np.array_equal(fused.X, plain.X)
        assert np.array_equal(fused.y, plain.y)


def two_nodes(joined):
    return graph_from_edges([(1, 2)]) if joined else edgeless(2)


# Graphs for the sorted edge index against the dense references: the
# community fixture, random graphs, no negatives, isolated nodes and two nodes.
INDEX_GRAPHS = {
    "fixture": lambda: graph_from_edges(community_edges(333, 2519, 9, seed=3)),
    "gnm_45_120": lambda: graph_from_edges(gnm_edges(45, 120, seed=8)),
    "gnm_300_299": lambda: graph_from_edges(gnm_edges(300, 299, seed=2)),
    "complete_7": lambda: complete_graph(7),
    "isolated_nodes": with_isolated_nodes,
    "two_nodes_joined": lambda: two_nodes(True),
}


@pytest.mark.parametrize("make", list(INDEX_GRAPHS.values()), ids=list(INDEX_GRAPHS))
def test_the_edge_index_labels_and_samples_pairs_as_the_dense_references_do(make):
    g = make()
    cfg = random_cfg(2, 1, seed=3, mask=True)
    u, v, edge = dense_labeled_candidates(g)
    assert _edge_index(g).tolist() == np.flatnonzero(edge).tolist()
    assert [a.tolist() for a in _pair_nodes(np.arange(len(u)))] == [u.tolist(), v.tolist()]
    full = build_dataset(g, cfg)
    assert_same_bytes(full, dense_dataset(g, cfg))
    rng = random.Random(g.node_count)
    pairs = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in rng.sample(full.pairs, min(len(full.pairs), 300))]
    pairs += [(b, a) for a, b in pairs[:20]]
    assert_same_bytes(build_dataset(g, cfg, pairs=pairs), dense_dataset(g, cfg, pairs))
    for ratio in (0.5, 1.0, 3.0, 1e9):  # 1e9 keeps every negative
        for seed in (1, 7):
            want = dense_balance(dense_dataset(g, cfg), ratio, seed)
            assert_same_bytes(balance(full, ratio, seed), want)
            assert_same_bytes(balanced_dataset(g, cfg, ratio, seed=seed), want)
    every = balanced_dataset(g, cfg, 1e9, seed=1)
    assert (every.positive_count, every.negative_count) == (g.edge_count, full.negative_count)


@pytest.mark.parametrize("make", [lambda: edgeless(9), lambda: two_nodes(False)], ids=["no_edges", "two_nodes"])
def test_a_graph_with_no_edges_has_no_positive_rows_to_balance(make):
    g = make()
    cfg = degree_cfg(2, 1)
    assert _edge_index(g).tolist() == []
    assert_same_bytes(build_dataset(g, cfg), dense_dataset(g, cfg))
    for call in (lambda: balanced_dataset(g, cfg, 1.0), lambda: balance(build_dataset(g, cfg), 1.0, seed=1)):
        with pytest.raises(ValueError, match="cannot balance a dataset with no positive rows"):
            call()


# Near 2^27 the float square root rounds the last pair of a row up into the
# next row, and the integer step must correct it.
@pytest.mark.parametrize("u", [2**24 - 1, 2**24, 2**24 + 1, 2**27, 2**28 - 1])
def test_pair_nodes_inverts_pair_index_at_the_ends_of_rows(u):
    for v in (1, 2, u - 1):
        p = _pair_index(u, v)
        got = _pair_nodes(np.array([p]))
        assert (int(got[0][0]), int(got[1][0])) == (u, v)
        assert _pair_index(*got).tolist() == [p]


def test_no_path_builds_an_n_by_n_array(monkeypatch):
    from ab_linkpred import CompletionConfig, complete, fit

    g = graph_from_edges(gnm_edges(40, 90, seed=6))
    cfg = degree_cfg(2, 1, seed=4)
    model, _ = fit(g, cfg, classifier_params={"tree_count": 5})

    def refuse(*args, **kwargs):
        raise AssertionError("dense n x n array")

    monkeypatch.setattr(np, "tril_indices", refuse)
    assert len(balanced_dataset(g, cfg, 1.0).y) == 180
    assert len(build_dataset(g, cfg, pairs=[(3, 1), (1, 3)]).y) == 2
    assert create_pair_features(g, 2, 1, cfg).u == 2
    assert complete(g, model, CompletionConfig(epsilon=0.5, mode="iterative", max_steps=2)).steps


def test_balanced_dataset_on_a_sparse_graph_keeps_its_memory_to_its_rows():
    import tracemalloc

    g = graph_from_edges(gnm_edges(4000, 12000, seed=1))
    tracemalloc.start()
    try:
        d = balanced_dataset(g, degree_cfg(2, 1), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d.y) == 24000
    assert peak < 32 * 2**20, peak


def test_split_stratification_partition_and_determinism():
    g = graph_from_edges(gnm_edges(80, 200, seed=10))
    d = balance(build_dataset(g, degree_cfg(1, 0)), 1.0, seed=1)
    assert len(d.y) == 400
    parts = split(d, 0.25, seed=2)
    assert len(parts.ytrain) == 300
    assert len(parts.ytest) == 100
    assert int(parts.ytest.sum()) == 50
    again = split(d, 0.25, seed=2)
    assert np.array_equal(parts.Xtest, again.Xtest)
    assert parts.test_pairs == again.test_pairs
    all_pairs = sorted(parts.train_pairs + parts.test_pairs)
    assert all_pairs == sorted(d.pairs)
    assert not set(parts.train_pairs) & set(parts.test_pairs)


def test_split_errors():
    g = complete_graph(3)
    d = build_dataset(g, degree_cfg(1, 0))  # 3 rows, all positive
    with pytest.raises(ValueError):
        split(d, 0.5, seed=1)
    g2 = graph_from_edges(gnm_edges(10, 15, seed=1))
    d2 = build_dataset(g2, degree_cfg(1, 0))
    with pytest.raises(ValueError):
        split(d2, 0.0, seed=1)
    with pytest.raises(ValueError):
        split(d2, 1.0, seed=1)


def test_split_refuses_an_empty_dataset():
    empty = build_dataset(complete_graph(3), degree_cfg(1, 0), pairs=[])
    assert empty.X.shape == (0, 4)
    with pytest.raises(ValueError, match="^cannot split an empty dataset$"):
        split(empty, 0.5, seed=1)


def test_export_csv_shape_and_labels(tmp_path):
    g = load_edge_list(io.StringIO("10 20\n20 30\n"))
    cfg = degree_cfg(2, 1)
    d = build_dataset(g, cfg)
    out = tmp_path / "d.csv"
    export_dataset_csv(d, g, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + len(d.y)
    k = cfg.row_length - 2
    assert lines[0] == "u,v,y," + ",".join(f"f{i}" for i in range(1, k + 1))
    first = lines[1].split(",")
    assert first[:2] == ["20", "10"]  # original labels for the pair (2, 1)
    assert len(first) == 3 + k


def test_config_dict_round_trip():
    for cfg in (degree_cfg(3, 2, seed=5, mask=True), random_cfg(1, 0, seed=17)):
        assert config_from_dict(config_to_dict(cfg)) == cfg
