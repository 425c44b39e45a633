import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ab_linkpred import (
    Graph,
    Strategy,
    betweenness_centrality,
    centrality_table,
    closeness_centrality,
    degree_centrality,
    neighbor_orders,
    ordered_neighbors,
)
from ab_linkpred.centrality import MEASURES, CentralityTable, _component_sizes, _searches

from graphgen import (
    community_edges,
    complete_bipartite_edges,
    complete_graph,
    cycle_edges,
    gnm_edges,
    gnp_edges,
    graph_from_edges,
    grid_edges,
    path_graph,
    star_graph,
)
from oracles import brute_betweenness, brute_closeness, exact_betweenness


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


def test_measures_on_graphs_without_edges():
    lonely = Graph()
    for label in "abc":
        lonely.intern(label)
    for g in (Graph(), lonely):
        for measure in MEASURES:
            assert centrality_table(g, measure).values == [0.0] * (g.node_count + 1)


def test_measures_on_a_long_path_across_source_blocks():
    # BFS depth up to n - 1 and several blocks of sources; closed forms, exactly.
    n = 300
    g = path_graph(n)
    bc = betweenness_centrality(g).values
    cc = closeness_centrality(g).values
    for k in range(1, n + 1):
        assert bc[k] == (k - 1) * (n - k)
        assert cc[k] == (n - 1) / ((k - 1) * k // 2 + (n - k) * (n - k + 1) // 2)


def _two_communities_with_strays() -> Graph:
    """Two random communities of 150 and 100 nodes, a stray edge and eight
    isolated nodes: components of five sizes, with node IDs shuffled so
    each source block mixes them."""
    labels = list(range(260))
    random.Random(11).shuffle(labels)
    g = Graph()
    for label in labels:
        g.intern(str(label))
    edges = gnm_edges(150, 600, seed=4) + [(u + 150, v + 150) for u, v in gnm_edges(100, 300, seed=5)] + [(251, 252)]
    for u, v in edges:
        g.add_edge(g.id_map[str(u - 1)], g.id_map[str(v - 1)])
    return g


def _no_edges() -> Graph:
    g = Graph()
    for label in "abcde":
        g.intern(label)
    return g


GOLDEN_GRAPHS = {
    "fixture": lambda: graph_from_edges(community_edges(333, 2519, 9, seed=3)),
    "two_communities": _two_communities_with_strays,
    "path_50": lambda: path_graph(50),
    "star_20": lambda: star_graph(20),
    "no_edges": _no_edges,
}

# sha256 of repr(table.values), as the shortest-path pass gave them while it
# still expanded each block's last level; stopping before it must not change
# a bit.
GOLDEN_TABLE_DIGESTS = {
    ("betweenness", "fixture"): "d34eef068ce3c99031f5f77cebc899bf06457c336100e12e6ccb6804651ba59c",
    ("betweenness", "no_edges"): "b0e305ab73fcc227670292a0e26b5b1da482eedfe66bfedc12ef238a90586388",
    ("betweenness", "path_50"): "df3ddcc562bc352321aaf55c67e777128be0654038a01bc9904a11206342e241",
    ("betweenness", "star_20"): "8709e600886120f868946d39f713ae7e780748045fa3b453e08a08cfe402f47b",
    ("betweenness", "two_communities"): "b5fe5efbb69243120db5737947c5ff723033e0c950caf3d28aaa5a2f26f13c56",
    ("closeness", "fixture"): "a3efdae0f989fc731b190a1afe313d7672b65f5d6360ed1f71bd5216f1e57859",
    ("closeness", "no_edges"): "b0e305ab73fcc227670292a0e26b5b1da482eedfe66bfedc12ef238a90586388",
    ("closeness", "path_50"): "c5faea94be1594121ee4af632a93bcf109746ab1232833f94329f4c29a2ae755",
    ("closeness", "star_20"): "6d4eaa1ff06def5c958055a0e375e51bf84abc85233bf821a6cf97a7527905e0",
    ("closeness", "two_communities"): "26ecd4c0ca983ab3ffc03e4d901cec826e7133b93e774366b2c0831c216e830e",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
@pytest.mark.parametrize("measure", ["betweenness", "closeness"])
def test_tables_match_golden_digests(measure, name):
    values = centrality_table(GOLDEN_GRAPHS[name](), measure).values
    assert hashlib.sha256(repr(values).encode()).hexdigest() == GOLDEN_TABLE_DIGESTS[measure, name]


def test_betweenness_on_the_fixture_traces_a_small_peak(g333):
    """One block's level arrays, without a last expansion that finds no
    new node (23.5 MB traced when the pass still ran it; 7.8 MB without)."""
    tracemalloc.start()
    try:
        betweenness_centrality(g333)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def _bfs_component_size(g: Graph, v: int) -> int:
    seen, frontier = {v}, [v]
    while frontier:
        frontier = [u for w in frontier for u in g.neighbors(w) if u not in seen]
        seen.update(frontier)
    return len(seen)


def test_component_sizes_match_a_plain_bfs():
    for seed in range(30):
        rng = random.Random(seed)
        g = graph_from_edges(gnp_edges(rng.randint(2, 40), rng.uniform(0.0, 0.15), seed) or [(1, 2)])
        for label in range(rng.randint(0, 3)):
            g.intern(f"isolated{label}")
        sizes = _component_sizes(g)
        assert len(sizes) == g.node_count
        assert sizes.tolist() == [_bfs_component_size(g, v) for v in range(1, g.node_count + 1)]


def _seeded_gnp_edges(seed):
    rng = random.Random(seed)
    return gnp_edges(rng.randint(5, 30), rng.uniform(0.1, 0.6), seed)


# Graphs with groups of exactly tied betweenness scores. Comparing raw floats
# ranks some neighbors against the rule on the grids, the ladder and these
# gnp seeds (every such seed of 0..99); the cycle and K5,7 tie by symmetry.
TIED_GRAPHS = {
    "grid_8x8": grid_edges(8, 8),
    "grid_6x9": grid_edges(6, 9),
    "ladder_2x15": grid_edges(2, 15),
    "cycle_40": cycle_edges(40),
    "k_5_7": complete_bipartite_edges(5, 7),
    "gnp_seed_19": _seeded_gnp_edges(19),
    "gnp_seed_21": _seeded_gnp_edges(21),
    "gnp_seed_30": _seeded_gnp_edges(30),
    "gnp_seed_73": _seeded_gnp_edges(73),
}


def _assert_matches_exact_oracles(g):
    exact = exact_betweenness(g)
    orders = neighbor_orders(g, Strategy("betweenness"))
    for v in range(1, g.node_count + 1):
        assert orders[v] == sorted(g.neighbors(v), key=lambda w: (-exact[w], w)), f"node {v}"
    assert closeness_centrality(g).values == brute_closeness(g)


@pytest.mark.parametrize("name", sorted(TIED_GRAPHS))
def test_betweenness_orders_match_exact_ranking(name):
    _assert_matches_exact_oracles(graph_from_edges(TIED_GRAPHS[name]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(5, 30), st.floats(0.1, 0.6), st.integers(0, 10_000))
def test_betweenness_orders_match_exact_ranking_on_random_graphs(n, p, seed):
    _assert_matches_exact_oracles(graph_from_edges(gnp_edges(n, p, seed) or [(1, 2)]))


def _shortest_path_pass(g):
    """Everything _searches yields, as lists."""
    return [
        (lo, [k.tolist() for k in levels], [(p.tolist(), s.tolist()) for p, s in edges], sigma.tolist(), dist.tolist())
        for lo, levels, edges, sigma, dist in _searches(g)
    ]


# Each level's new keys are deduplicated by a sort or, on a level dense in
# its block's key space, by counting. A _DENSE of 0 sends every level to the
# sort; one no level can stay under sends every nonempty level to counting.
@pytest.mark.parametrize("dense", [0, 2**62], ids=["always_sort", "always_count"])
def test_both_level_dedups_give_the_golden_and_exact_tables(monkeypatch, dense):
    monkeypatch.setattr("ab_linkpred.centrality._DENSE", dense)
    for name, make in GOLDEN_GRAPHS.items():
        g = make()
        with monkeypatch.context() as sorted_only:
            sorted_only.setattr("ab_linkpred.centrality._DENSE", 0)
            want = _shortest_path_pass(g)
        # Same sorted keys, slots and edges, so the same sums in the same order.
        assert _shortest_path_pass(g) == want
        for measure in ("betweenness", "closeness"):
            values = centrality_table(g, measure).values
            assert hashlib.sha256(repr(values).encode()).hexdigest() == GOLDEN_TABLE_DIGESTS[measure, name]
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(4, 30)
        for edges in (gnm_edges(n, rng.randint(n - 1, 2 * n), seed), gnp_edges(n, rng.uniform(0.1, 0.6), seed)):
            g = graph_from_edges(edges or [(1, 2)])
            exact = exact_betweenness(g)
            assert betweenness_centrality(g).values == pytest.approx([float(x) for x in exact], rel=1e-12, abs=1e-12)
            _assert_matches_exact_oracles(g)


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
