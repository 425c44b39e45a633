"""Undirected simple graph with edge-list ingestion and pair enumeration.

Input labels are remapped to dense internal IDs 1..n in first-appearance
order. ID 0 is reserved: feature extraction uses it as the padding value for
missing neighbors, so it never denotes a real node.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator

from ._streams import open_stream


class EdgeListParseError(ValueError):
    """A malformed edge-list line; remembers the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class GraphStats:
    nodes: int
    edges: int
    avg_degree: float


class Graph:
    """Unweighted, undirected simple graph with nodes 1..node_count.

    Adjacency lists are kept sorted ascending and deduplicated; self loops
    are rejected. Readers must treat the graph as immutable; only the
    completion stage adds edges, and it does so on its own copy.
    """

    __slots__ = ("labels", "id_map", "_adj", "edge_count", "skipped_self_loops")

    def __init__(self) -> None:
        self.labels: list[str] = ["<pad>"]  # labels[0] is the reserved padding slot
        self.id_map: dict[str, int] = {}
        self._adj: list[list[int]] = [[]]
        self.edge_count = 0
        self.skipped_self_loops = 0

    @property
    def node_count(self) -> int:
        return len(self.labels) - 1

    def intern(self, label: str) -> int:
        """Return the internal ID for a label, assigning the next one if new."""
        node = self.id_map.get(label)
        if node is None:
            node = len(self.labels)
            self.id_map[label] = node
            self.labels.append(label)
            self._adj.append([])
        return node

    def _check_node(self, v: int) -> None:
        if not 1 <= v <= self.node_count:
            raise ValueError(f"node ID {v} out of range 1..{self.node_count}")

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor IDs of v. The returned list is shared; do not mutate."""
        self._check_node(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        adj = self._adj[u]
        i = bisect_left(adj, v)
        return i < len(adj) and adj[i] == v

    def add_edge(self, u: int, v: int) -> "Graph":
        """Insert the undirected edge (u, v); a no-op if already present."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self loop on node {u} not allowed")
        adj = self._adj[u]
        i = bisect_left(adj, v)
        if i == len(adj) or adj[i] != v:
            adj.insert(i, v)
            insort(self._adj[v], u)
            self.edge_count += 1
        return self

    def candidate_pairs(self) -> Iterator[tuple[int, int]]:
        """Every unordered node pair exactly once, as (u, v) with u > v.

        Order is fixed: u ascending, and v ascending within each u, which
        makes downstream datasets reproducible row for row.
        """
        for i in range(self.node_count):
            for j in range(i):
                yield (i + 1, j + 1)

    def copy(self) -> "Graph":
        g = Graph()
        g.labels = list(self.labels)
        g.id_map = dict(self.id_map)
        g._adj = [list(a) for a in self._adj]
        g.edge_count = self.edge_count
        g.skipped_self_loops = self.skipped_self_loops
        return g


def load_edge_list(source) -> Graph:
    """Build a Graph from whitespace-separated label pairs.

    ``source`` may be a path or an open text stream. Lines starting with '#'
    and blank lines are ignored. Self-loop lines are skipped and counted in
    ``Graph.skipped_self_loops``; duplicate edges (in either order) collapse
    to one. Any other malformed line raises EdgeListParseError with its
    line number.
    """
    with open_stream(source, "r", encoding="utf-8") as stream:
        g = Graph()
        for line_no, raw in enumerate(stream, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise EdgeListParseError(line_no, f"expected two labels, got {len(parts)}: {text!r}")
            if parts[0] == parts[1]:
                g.skipped_self_loops += 1
                continue
            u = g.intern(parts[0])
            v = g.intern(parts[1])
            g.add_edge(u, v)
        return g


def write_edge_list(g: Graph, sink) -> None:
    """Write one "label_u label_v" line per edge, using original labels."""
    with open_stream(sink, "w", encoding="utf-8") as stream:
        for u in range(1, g.node_count + 1):
            for v in g.neighbors(u):
                if v > u:
                    stream.write(f"{g.labels[u]} {g.labels[v]}\n")


def stats(g: Graph) -> GraphStats:
    """Node count, edge count, and average degree 2m/n (0 for the empty graph)."""
    n = g.node_count
    m = g.edge_count
    return GraphStats(n, m, (2.0 * m / n) if n else 0.0)
