import contextlib
import os
import signal

import pytest

from ab_linkpred import load_edge_list
from ab_linkpred import model

from graphgen import community_edges, edge_text, graph_from_edges, two_cliques_edges

# Stand-ins for the evaluation networks: same node/edge totals, same flavor
# (dense friend circles), generated deterministically since the original
# files are not shipped with the repository.
G333_NODES, G333_EDGES = 333, 2519


# A test whose setup or call runs longer than its limit fails instead of
# hanging the suite. The default is criterion 8's own budget, the largest any
# test states; @pytest.mark.time_limit(seconds) sets a test's own.
DEFAULT_TIME_LIMIT_S = 900


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that code catching Exception, such as a sweep's
    cell isolation or hypothesis's shrinker, does not run on past the limit."""


@contextlib.contextmanager
def _time_limit(item):
    marker = item.get_closest_marker("time_limit")
    seconds = marker.args[0] if marker else DEFAULT_TIME_LIMIT_S

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# One limit for setup and one for the call, each inside the phase pytest
# reports on, so an expiry is always that phase's failure.
@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _time_limit(item):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _time_limit(item):
        return (yield)


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
_GROW_TREES = model._grow_trees


def _die_in_worker(*args):
    """model._grow_trees, except that a forest worker process exits at once."""
    if os.getpid() != _TEST_PID:
        os._exit(1)
    return _GROW_TREES(*args)


@pytest.fixture()
def dying_forest_workers(monkeypatch):
    """Two usable CPUs, and forest worker processes that die on their first batch of trees."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(model, "_grow_trees", _die_in_worker)


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
