"""Deterministic graph generators used across the test suite.

Everything returns edge-list text so tests exercise the real loader. The
generators guarantee exact node and edge counts: every node appears in at
least one edge and the edge total is hit precisely.
"""

from __future__ import annotations

import io
import itertools
import random

from ab_linkpred import Graph, load_edge_list


def edge_text(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def graph_from_edges(edges) -> Graph:
    return load_edge_list(io.StringIO(edge_text(edges)))


def gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Random graph with exactly n nodes (labels 1..n, all used) and m edges.

    A random spanning tree covers every node, then random extra pairs fill
    up to m; requires n - 1 <= m <= n(n-1)/2.
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"need n-1 <= m <= n(n-1)/2, got n={n} m={m}")
    rng = random.Random(seed)
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        a, b = nodes[i], nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < m:
        a, b = rng.randint(1, n), rng.randint(1, n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def community_edges(n: int, m: int, communities: int, seed: int, intra_bias: float = 0.93) -> list[tuple[int, int]]:
    """Ego-network-like graph with exactly n nodes and m edges.

    Shape mirrors a social circle export: one focal member adjacent to every
    other node, plus dense friend circles with a sprinkle of cross-circle
    edges. Node labels are a random permutation, so an ID value says nothing
    about circle membership; structure is only visible through
    neighborhoods, as in real exports.
    """
    rng = random.Random(seed)
    hub = n  # virtual id; relabeled below like everything else
    members_n = n - 1
    bounds = [round(i * members_n / communities) for i in range(communities + 1)]
    blocks = [range(bounds[i] + 1, bounds[i + 1] + 1) for i in range(communities)]
    edges = {(v, hub) for v in range(1, members_n + 1)}
    for block in blocks:  # spanning tree per block keeps circles connected
        members = list(block)
        rng.shuffle(members)
        for i in range(1, len(members)):
            a, b = members[i], members[rng.randrange(i)]
            edges.add((min(a, b), max(a, b)))
    if len(edges) > m:
        raise ValueError(f"m={m} too small for {communities} covered blocks of {n} nodes")
    while len(edges) < m:
        if rng.random() < intra_bias:
            block = blocks[rng.randrange(communities)]
            a, b = rng.choice(block), rng.choice(block)
        else:
            a, b = rng.randint(1, members_n), rng.randint(1, members_n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    return sorted((min(relabel[a - 1], relabel[b - 1]), max(relabel[a - 1], relabel[b - 1])) for a, b in edges)


def gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Plain Bernoulli graph; node count in the file may be below n when a
    node ends up isolated, which is fine for small-oracle tests."""
    rng = random.Random(seed)
    return [(u, v) for v, u in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """rows x cols lattice; node r * cols + c + 1 sits at row r, column c."""
    edges = []
    for r, c in itertools.product(range(rows), range(cols)):
        v = r * cols + c + 1
        if c + 1 < cols:
            edges.append((v, v + 1))
        if r + 1 < rows:
            edges.append((v, v + cols))
    return edges


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i % n + 1) for i in range(1, n + 1)]


def complete_bipartite_edges(p: int, q: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, p + 1) for v in range(p + 1, p + q + 1)]


def two_cliques_edges(k: int = 6) -> list[tuple[int, int]]:
    edges = [(u, v) for u, v in itertools.combinations(range(1, k + 1), 2)]
    edges += [(u, v) for u, v in itertools.combinations(range(k + 1, 2 * k + 1), 2)]
    return edges


def path_graph(n: int) -> Graph:
    return graph_from_edges([(i, i + 1) for i in range(1, n)])


def star_graph(leaves: int) -> Graph:
    return graph_from_edges([(1, i) for i in range(2, leaves + 2)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(list(itertools.combinations(range(1, n + 1), 2)))
