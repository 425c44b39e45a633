import os

import pytest

from ab_linkpred import load_edge_list
from ab_linkpred import model

from graphgen import community_edges, edge_text, graph_from_edges, two_cliques_edges

# Stand-ins for the evaluation networks: same node/edge totals, same flavor
# (dense friend circles), generated deterministically since the original
# files are not shipped with the repository.
G333_NODES, G333_EDGES = 333, 2519


@pytest.fixture(scope="session")
def g333_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ego333.txt"
    path.write_text(edge_text(community_edges(G333_NODES, G333_EDGES, communities=9, seed=3)))
    return path


@pytest.fixture(scope="session")
def g333(g333_file):
    return load_edge_list(g333_file)


@pytest.fixture(scope="session")
def two_k6():
    return graph_from_edges(two_cliques_edges(6))


_TEST_PID = os.getpid()
_GROW_ONE = model._grow_one


def _die_in_worker(t, data=None):
    """model._grow_one, except that a forest worker process exits at once."""
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return _GROW_ONE(t, data)


@pytest.fixture()
def dying_forest_workers(monkeypatch):
    """Two usable CPUs, and forest worker processes that die on their first tree."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(model, "_grow_one", _die_in_worker)


@pytest.fixture()
def pools(monkeypatch):
    """The worker counts above 1 that forests were grown with while it is in use."""
    started = []
    forest_workers = model._forest_workers

    def recording(X, tree_count):
        workers = forest_workers(X, tree_count)
        if workers > 1:
            started.append(workers)
        return workers

    monkeypatch.setattr(model, "_forest_workers", recording)
    return started
