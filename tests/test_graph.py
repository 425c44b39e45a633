import io
import random

import pytest

from ab_linkpred import EdgeListParseError, load_edge_list, stats, write_edge_list

from graphgen import edge_text, gnm_edges, graph_from_edges, path_graph
from oracles import adjacency


def test_load_two_edge_path():
    g = load_edge_list(io.StringIO("1 2\n2 3\n"))
    assert g.node_count == 3
    assert g.edge_count == 2
    two = g.id_map["2"]
    assert sorted(g.labels[v] for v in g.neighbors(two)) == ["1", "3"]


def test_load_dedups_and_symmetrizes():
    g = load_edge_list(io.StringIO("7 9\n9 7\n7 9\n"))
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.has_edge(1, 2) and g.has_edge(2, 1)


def test_load_skips_comments_blank_lines_and_self_loops():
    g = load_edge_list(io.StringIO("# header\n\n1 2\n3 3\n2 4\n"))
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.skipped_self_loops == 1


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.StringIO("1 2\n1 2 3\n"))
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def test_load_arbitrary_tokens_and_first_appearance_order():
    g = load_edge_list(io.StringIO("alice bob\nbob carol\n"))
    assert g.id_map == {"alice": 1, "bob": 2, "carol": 3}


def test_stats_values():
    assert stats(graph_from_edges(gnm_edges(151, 235, seed=1))).avg_degree == pytest.approx(2 * 235 / 151)
    g1 = load_edge_list(io.StringIO("1 2\n"))
    # single-node graphs cannot come from edges; check the n=1 rule directly
    from ab_linkpred import Graph, GraphStats

    lonely = Graph()
    lonely.intern("1")
    assert stats(lonely) == GraphStats(1, 0, 0.0)
    assert stats(g1) == GraphStats(2, 1, 1.0)


def test_candidate_pairs_order_and_counts():
    g = path_graph(2)
    assert list(g.candidate_pairs()) == [(2, 1)]
    g5 = graph_from_edges(gnm_edges(5, 6, seed=2))
    pairs = list(g5.candidate_pairs())
    assert len(pairs) == 10
    assert len(set(pairs)) == 10
    assert all(u > v for u, v in pairs)
    g151 = graph_from_edges(gnm_edges(151, 235, seed=3))
    assert sum(1 for _ in g151.candidate_pairs()) == 11_325


def test_has_edge_and_validation():
    g = path_graph(3)
    assert g.has_edge(1, 2)
    assert not g.has_edge(1, 3)
    for u, v in g.candidate_pairs():
        assert g.has_edge(u, v) == g.has_edge(v, u)
    with pytest.raises(ValueError):
        g.has_edge(0, 1)
    with pytest.raises(ValueError):
        g.has_edge(1, 4)


def test_add_edge_idempotent_and_symmetric():
    g = path_graph(3)
    g.add_edge(1, 3)
    assert g.edge_count == 3
    g.add_edge(1, 2)
    assert g.edge_count == 3
    assert g.has_edge(3, 1)
    assert g.neighbors(1) == [2, 3]
    with pytest.raises(ValueError):
        g.add_edge(2, 2)


def test_handshake_sum_over_random_graphs():
    for seed in range(10):
        n = random.Random(seed).randint(5, 40)
        g = graph_from_edges(gnm_edges(n, min(2 * n, n * (n - 1) // 2), seed=seed))
        assert sum(g.degree(v) for v in range(1, g.node_count + 1)) == 2 * g.edge_count
        h = g.copy()
        rng = random.Random(seed)
        for _ in range(5):
            u, v = rng.sample(range(1, n + 1), 2)
            h.add_edge(u, v)
        for graph in (g, h):
            adj = adjacency(graph)
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    assert graph.has_edge(u, v) == adj[u, v]


def labeled_edges(g):
    return {
        frozenset((g.labels[u], g.labels[v]))
        for u in range(1, g.node_count + 1)
        for v in g.neighbors(u)
        if v > u
    }


def test_write_then_reload_round_trips():
    for seed in range(8):
        g = graph_from_edges(gnm_edges(30, 55, seed=seed))
        buf = io.StringIO()
        write_edge_list(g, buf)
        g2 = load_edge_list(io.StringIO(buf.getvalue()))
        assert g2.node_count == g.node_count
        assert g2.edge_count == g.edge_count
        assert labeled_edges(g2) == labeled_edges(g)


def test_copy_is_independent():
    g = path_graph(3)
    h = g.copy()
    h.add_edge(1, 3)
    assert g.edge_count == 2
    assert h.edge_count == 3


def test_edge_text_loader_agrees_with_generator():
    edges = gnm_edges(20, 35, seed=9)
    g = load_edge_list(io.StringIO(edge_text(edges)))
    assert g.node_count == 20
    assert g.edge_count == 35
