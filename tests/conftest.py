import contextlib
import multiprocessing
import os
import signal

import pytest

from ab_linkpred import load_edge_list
from ab_linkpred import model, predict

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


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fails a test that leaves a multiprocessing child running, from either
    forked path (forest training or completion), and stops such children so
    that they do not outlive the test."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"the test left {len(left)} worker process(es) running"


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
_SCORES = predict._scores


def _in_workers(real, fault):
    """real, except that in a worker process it meets fault() at once."""
    def patched(*args):
        if os.getpid() != _TEST_PID:
            fault()
        return real(*args)
    return patched


def _die():
    os._exit(1)


WORKER_ERROR = "Unable to allocate 9.00 EiB for an array in a worker"


def _raise():
    raise MemoryError(WORKER_ERROR)


def _forest_workers_that(monkeypatch, fault):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(model, "_grow_trees", _in_workers(_GROW_TREES, fault))


def _completion_workers_that(monkeypatch, fault):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(predict, "_FORK_MIN_ROW_TREES", 0)
    monkeypatch.setattr(predict, "_scores", _in_workers(_SCORES, fault))


@pytest.fixture()
def dying_forest_workers(monkeypatch):
    """Two usable CPUs, and forest worker processes that die on their first batch of trees."""
    _forest_workers_that(monkeypatch, _die)


@pytest.fixture()
def raising_forest_workers(monkeypatch):
    """Two usable CPUs, and forest worker processes whose first batch of
    trees raises MemoryError; its message is the fixture's value."""
    _forest_workers_that(monkeypatch, _raise)
    return WORKER_ERROR


@pytest.fixture()
def dying_completion_workers(monkeypatch):
    """Two usable CPUs, completion steps scored on forked workers whatever
    their size, and completion workers that die on their first chunk."""
    _completion_workers_that(monkeypatch, _die)


@pytest.fixture()
def raising_completion_workers(monkeypatch):
    """Two usable CPUs, completion steps scored on forked workers whatever
    their size, and completion workers whose first chunk raises
    MemoryError; its message is the fixture's value."""
    _completion_workers_that(monkeypatch, _raise)
    return WORKER_ERROR


@pytest.fixture()
def pools(monkeypatch):
    """The worker counts above 1 that forests were grown with while it is in use."""
    started = []
    fork_map = model._fork_map

    def recording(fn, count, workers):
        if min(workers, count) > 1:
            started.append(min(workers, count))
        return fork_map(fn, count, workers)

    monkeypatch.setattr(model, "_fork_map", recording)
    return started
