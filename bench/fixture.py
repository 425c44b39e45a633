"""Seeded stand-in for the 333-node evaluation graph, as edge-list text.

Reproduces the test suite's ``community_edges(333, 2519, 9, seed)``: one
focal node adjacent to every other node, nine dense circles joined by a
few cross-circle edges, and labels permuted so an ID says nothing about
circle membership. The benchmark hands only this text to the library, so
the loader is exercised as it is for a real file.
"""

from __future__ import annotations

import random

NODES = 333
EDGES = 2519
CIRCLES = 9
INTRA_BIAS = 0.93
FIXTURE_SEED = 3  # the graph the test suite and the ROADMAP measure on


def fixture_text(seed: int, relabel_seed: int | None = None) -> str:
    """Edge-list text with exactly NODES nodes and EDGES edges, one "u v" line per edge.

    With ``relabel_seed`` the final label permutation is drawn from its own
    stream: the same graph as ``fixture_text(seed)`` under other node IDs,
    so every feature value changes while the structure does not.
    """
    n, m, circles = NODES, EDGES, CIRCLES
    rng = random.Random(seed)
    hub = n
    members = n - 1
    bounds = [round(i * members / circles) for i in range(circles + 1)]
    blocks = [range(bounds[i] + 1, bounds[i + 1] + 1) for i in range(circles)]
    edges = {(v, hub) for v in range(1, members + 1)}
    for block in blocks:
        order = list(block)
        rng.shuffle(order)
        for i in range(1, len(order)):
            a, b = order[i], order[rng.randrange(i)]
            edges.add((min(a, b), max(a, b)))
    if len(edges) > m:
        raise ValueError(f"m={m} too small for {circles} connected circles of {n} nodes")
    while len(edges) < m:
        if rng.random() < INTRA_BIAS:
            block = blocks[rng.randrange(circles)]
            a, b = rng.choice(block), rng.choice(block)
        else:
            a, b = rng.randint(1, members), rng.randint(1, members)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    relabel = list(range(1, n + 1))
    (rng if relabel_seed is None else random.Random(relabel_seed)).shuffle(relabel)
    pairs = sorted((min(relabel[a - 1], relabel[b - 1]), max(relabel[a - 1], relabel[b - 1])) for a, b in edges)
    return "".join(f"{u} {v}\n" for u, v in pairs)
