import random

import pytest

from ab_linkpred import (
    Strategy,
    betweenness_centrality,
    centrality_table,
    closeness_centrality,
    degree_centrality,
    neighbor_orders,
    ordered_neighbors,
)
from ab_linkpred.centrality import CentralityTable

from graphgen import complete_graph, gnp_edges, graph_from_edges, path_graph, star_graph
from oracles import brute_betweenness, brute_closeness


# --- fixtures ---


def test_degree_fixed_graphs():
    assert degree_centrality(path_graph(3)).values[1:] == [1, 2, 1]
    assert degree_centrality(complete_graph(4)).values[1:] == [3, 3, 3, 3]
    star = star_graph(5)
    values = degree_centrality(star).values
    assert values[1] == 5
    assert values[2:] == [1] * 5


def test_betweenness_fixed_graphs():
    assert betweenness_centrality(path_graph(3)).values[1:] == [0.0, 1.0, 0.0]
    assert betweenness_centrality(complete_graph(4)).values[1:] == [0.0] * 4
    star = betweenness_centrality(star_graph(5)).values
    assert star[1] == pytest.approx(10.0)  # C(5,2) leaf pairs, all through the hub
    assert star[2:] == [0.0] * 5


def test_closeness_fixed_graphs():
    assert closeness_centrality(path_graph(3)).values[2] == pytest.approx(1.0)
    assert closeness_centrality(complete_graph(4)).values[1:] == pytest.approx([1.0] * 4)
    lonely = graph_from_edges([(1, 2), (3, 4)])
    assert closeness_centrality(lonely).values[1:] == pytest.approx([1.0] * 4)


def test_betweenness_and_closeness_match_oracles_on_random_graphs():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        g = graph_from_edges(gnp_edges(n, rng.uniform(0.2, 0.9), seed) or [(1, 2)])
        bc = betweenness_centrality(g).values
        cc = closeness_centrality(g).values
        bc_ref = brute_betweenness(g)
        cc_ref = brute_closeness(g)
        for v in range(1, g.node_count + 1):
            assert bc[v] == pytest.approx(bc_ref[v], abs=1e-9)
            assert cc[v] == pytest.approx(cc_ref[v], abs=1e-9)


# --- ordering ---


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy("pagerank")
    with pytest.raises(ValueError):
        Strategy("random")
    with pytest.raises(ValueError):
        Strategy("random", seed=1.0)
    Strategy("random", seed=1)
    Strategy("degree")


def test_ordered_neighbors_tie_break_ascending_id():
    star = star_graph(3)
    table = degree_centrality(star)
    assert ordered_neighbors(star, 1, Strategy("degree"), table) == [2, 3, 4]


def test_ordered_neighbors_single_neighbor():
    g = path_graph(3)
    for kind in ("degree", "betweenness", "closeness"):
        assert ordered_neighbors(g, 1, Strategy(kind), centrality_table(g, kind)) == [2]


def test_ordered_neighbors_ranked_needs_matching_table():
    g = path_graph(3)
    with pytest.raises(ValueError):
        ordered_neighbors(g, 2, Strategy("degree"))
    with pytest.raises(ValueError):
        ordered_neighbors(g, 2, Strategy("degree"), centrality_table(g, "closeness"))


def test_random_order_deterministic_and_permutation():
    g = graph_from_edges(gnp_edges(12, 0.5, seed=5))
    strategy = Strategy("random", seed=99)
    for v in range(1, g.node_count + 1):
        first = ordered_neighbors(g, v, strategy)
        second = ordered_neighbors(g, v, strategy)
        assert first == second
        assert sorted(first) == list(g.neighbors(v))
    other = ordered_neighbors(g, 1, Strategy("random", seed=100))
    assert sorted(other) == list(g.neighbors(1))


def test_ranked_order_is_permutation_and_scale_invariant():
    g = graph_from_edges(gnp_edges(10, 0.5, seed=2))
    table = betweenness_centrality(g)
    scaled = CentralityTable("betweenness", [x * 37.5 for x in table.values])
    strategy = Strategy("betweenness")
    for v in range(1, g.node_count + 1):
        base = ordered_neighbors(g, v, strategy, table)
        assert sorted(base) == list(g.neighbors(v))
        assert ordered_neighbors(g, v, strategy, scaled) == base


def test_tables_recompute_identically():
    g = graph_from_edges(gnp_edges(15, 0.4, seed=8))
    for measure in ("degree", "betweenness", "closeness"):
        assert centrality_table(g, measure).values == centrality_table(g, measure).values


def test_neighbor_orders_covers_all_nodes():
    g = path_graph(4)
    orders = neighbor_orders(g, Strategy("degree"))
    assert orders[0] == []
    assert len(orders) == g.node_count + 1
    assert orders[2] in ([3, 1], [1, 3])  # node 3 has degree 2, node 1 degree 1
    assert orders[2][0] == 3
