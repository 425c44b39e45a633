import multiprocessing
import os
import threading
import tracemalloc

import numpy as np
import pytest

from ab_linkpred import (
    CompletionConfig,
    CompletionTrace,
    FeatureConfig,
    Strategy,
    balanced_dataset,
    build_dataset,
    complete,
    complete_iterative,
    complete_noniterative,
    fit,
    predict_scores,
    split,
    train,
)

from ab_linkpred import predict
from ab_linkpred.centrality import STRATEGY_KINDS
from ab_linkpred.evaluate import cell_config
from ab_linkpred.model import _forest_walks

from graphgen import gnm_edges, graph_from_edges, two_cliques_edges
from oracles import reference_completion


def trained_on(g, cfg, seed=3, kind="forest"):
    data = balanced_dataset(g, cfg, 1.0)
    parts = split(data, 0.25, cfg.seed)
    return train(parts.Xtrain, parts.ytrain, kind, params={"tree_count": 25} if kind == "forest" else None, seed=seed)


@pytest.fixture(scope="module")
def clique_setup():
    g = graph_from_edges(two_cliques_edges(6))
    cfg = FeatureConfig(a=3, b=1, strategy=Strategy("degree"), seed=4)
    return g, cfg, trained_on(g, cfg)


def edge_set(g):
    return {(u, v) for u in range(1, g.node_count + 1) for v in g.neighbors(u) if v > u}


def non_edge_scores(g, model, cfg):
    pairs = [(u, v) for u, v in g.candidate_pairs() if not g.has_edge(u, v)]
    if not pairs:
        return {}
    data = build_dataset(g, cfg, pairs=pairs)
    return dict(zip(pairs, (float(s) for s in predict_scores(model, data.X))))


def test_config_validation():
    with pytest.raises(ValueError):
        CompletionConfig(epsilon=1.5, mode="iterative")
    with pytest.raises(ValueError):
        CompletionConfig(epsilon=0.5, mode="both")
    with pytest.raises(ValueError):
        CompletionConfig(epsilon=0.5, mode="iterative", max_steps=-1)
    with pytest.raises(ValueError, match="iterative mode only"):
        CompletionConfig(epsilon=0.0, mode="noniterative", max_steps=0)


def test_max_steps_must_be_an_integer_and_a_numpy_integer_is_kept_as_an_int():
    for bad in (True, 1.5, "2"):
        with pytest.raises(ValueError, match="max_steps must be an integer"):
            CompletionConfig(epsilon=0.5, mode="iterative", max_steps=bad)
    assert type(CompletionConfig(epsilon=0.5, mode="iterative", max_steps=np.int64(2)).max_steps) is int


def test_epsilon_must_be_a_number_in_the_unit_interval_and_a_numpy_float_is_kept_as_a_float():
    for bad in (True, "0.5", float("nan"), -0.1, None):
        with pytest.raises(ValueError, match="epsilon must be a number in"):
            CompletionConfig(epsilon=bad, mode="iterative")
    for good in (np.float64(0.5), np.float32(0.5), 1):
        epsilon = CompletionConfig(epsilon=good, mode="iterative").epsilon
        assert type(epsilon) is float and epsilon == good


def test_mode_mismatch_and_length_mismatch(clique_setup):
    g, cfg, model = clique_setup
    with pytest.raises(ValueError):
        complete_noniterative(g, model, CompletionConfig(0.5, "iterative"), cfg)
    with pytest.raises(ValueError):
        complete_iterative(g, model, CompletionConfig(0.5, "noniterative"), cfg)
    wrong = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), seed=4)
    with pytest.raises(ValueError):
        complete_noniterative(g, model, CompletionConfig(0.5, "noniterative"), wrong)


def test_high_epsilon_returns_input_unchanged(clique_setup):
    g, cfg, model = clique_setup
    top = max(non_edge_scores(g, model, cfg).values())
    eps = min(1.0, top + 1e-6)
    trace = complete_noniterative(g, model, CompletionConfig(eps, "noniterative"), cfg)
    assert trace.added_edges == []
    assert edge_set(trace.final_graph) == edge_set(g)
    assert len(trace.batches) == 1


def test_epsilon_zero_completes_the_graph(clique_setup):
    g, cfg, model = clique_setup
    trace = complete_noniterative(g, model, CompletionConfig(0.0, "noniterative"), cfg)
    n = g.node_count
    assert trace.final_graph.edge_count == n * (n - 1) // 2


def test_trained_cliques_do_not_bridge(clique_setup):
    g, cfg, model = clique_setup
    trace = complete_noniterative(g, model, CompletionConfig(0.9, "noniterative"), cfg)
    # every non-edge crosses the cliques, and the oracle agrees none qualify
    oracle = {pair for pair, s in non_edge_scores(g, model, cfg).items() if s >= 0.9}
    assert {(u, v) for u, v, _ in trace.batches[0]} == oracle
    assert oracle == set()


def test_max_steps_zero_is_identity(clique_setup):
    g, cfg, model = clique_setup
    trace = complete_iterative(g, model, CompletionConfig(0.0, "iterative", max_steps=0), cfg)
    assert trace.batches == []
    assert edge_set(trace.final_graph) == edge_set(g)


def test_iterative_one_step_equals_noniterative(clique_setup):
    g, cfg, model = clique_setup
    for eps in (0.0, 0.3, 0.7, 1.0):
        one = complete_iterative(g, model, CompletionConfig(eps, "iterative", max_steps=1), cfg)
        flat = complete_noniterative(g, model, CompletionConfig(eps, "noniterative"), cfg)
        assert edge_set(one.final_graph) == edge_set(flat.final_graph)
        assert sorted(one.added_edges) == sorted(flat.added_edges)


def test_epsilon_one_keeps_only_unit_scores(clique_setup):
    g, cfg, model = clique_setup
    trace = complete_noniterative(g, model, CompletionConfig(1.0, "noniterative"), cfg)
    assert all(s == 1.0 for _, _, s in trace.batches[0])


def punctured_cliques():
    edges = [e for e in two_cliques_edges(6) if e not in ((1, 2), (7, 8))]
    return graph_from_edges(edges)


def test_iterative_trace_matches_scratch_rescoring_oracle():
    full = graph_from_edges(two_cliques_edges(6))
    cfg = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), seed=9)
    model = trained_on(full, cfg, seed=9)
    start = punctured_cliques()
    scores0 = non_edge_scores(start, model, cfg)
    eps = max(scores0.values()) - 1e-9
    trace = complete_iterative(start, model, CompletionConfig(eps, "iterative", max_steps=10), cfg)
    assert len(trace.added_edges) >= 1

    # replay: rescore every intermediate state from scratch and compare
    state = start.copy()
    seen = edge_set(start)
    for batch in trace.batches:
        expected = {pair: s for pair, s in non_edge_scores(state, model, cfg).items() if s >= eps}
        assert {(u, v) for u, v, _ in batch} == set(expected)
        for u, v, s in batch:
            assert s == expected[(u, v)]
            key = (min(u, v), max(u, v))
            assert key not in seen  # monotone growth, batches disjoint
            state.add_edge(u, v)
            seen.add(key)
    assert edge_set(trace.final_graph) == seen
    # final state is a fixed point or the step cap was hit
    if len(trace.batches) < 10:
        leftovers = {pair for pair, s in non_edge_scores(state, model, cfg).items() if s >= eps}
        assert leftovers == set()


def test_supergraph_law_and_termination_on_random_graph():
    g = graph_from_edges(gnm_edges(30, 60, seed=12))
    cfg = FeatureConfig(a=2, b=1, strategy=Strategy("random", seed=12), seed=12)
    model = trained_on(g, cfg, seed=12)
    before = edge_set(g)
    pool = g.node_count * (g.node_count - 1) // 2 - g.edge_count
    trace = complete_iterative(g, model, CompletionConfig(0.55, "iterative"), cfg)
    assert before <= edge_set(trace.final_graph)
    assert len(trace.batches) <= pool
    assert all(batch for batch in trace.batches)  # recorded batches are nonempty
    for batch in trace.batches:
        assert all(s >= 0.55 for _, _, s in batch)


@pytest.mark.parametrize("k", [1, 12, 20, 23])
def test_non_edges_scoring_exactly_epsilon_are_added(k):
    """At epsilon = k / T a non-edge with exactly k of T votes clears the
    threshold; the forest's early exit must keep walking it to the end."""
    g = graph_from_edges(gnm_edges(30, 60, seed=12))
    cfg = FeatureConfig(a=2, b=1, strategy=Strategy("random", seed=12), seed=12)
    model = trained_on(g, cfg, seed=12)
    eps = k / len(model.payload["trees"])
    scores = non_edge_scores(g, model, cfg)
    assert eps in scores.values() and min(scores.values()) < eps
    trace = complete_noniterative(g, model, CompletionConfig(eps, "noniterative"), cfg)
    assert {(u, v): s for u, v, s in trace.batches[0]} == {pair: s for pair, s in scores.items() if s >= eps}


def test_model_featurize_config_used_when_feat_omitted(clique_setup):
    g, cfg, model = clique_setup
    from ab_linkpred.featurize import config_to_dict

    with pytest.raises(ValueError):
        complete_noniterative(g, model, CompletionConfig(0.9, "noniterative"))
    model.featurize_config = config_to_dict(cfg)
    trace = complete_noniterative(g, model, CompletionConfig(0.9, "noniterative"))
    assert trace.final_graph.edge_count == g.edge_count


@pytest.fixture(scope="module")
def cli_clique_model():
    """The model of `ab-linkpred train cliques.txt --a 2 --b 1 --seed 5`."""
    g = graph_from_edges(two_cliques_edges(6))
    return g, fit(g, cell_config(2, 1, "degree", 5))[0]


@pytest.mark.parametrize("epsilon,mode,cap,steps", [
    (0.0, "noniterative", None, [(36, 36)]),
    (1.0, "noniterative", None, [(36, 0)]),
    (0.0, "iterative", None, [(36, 36), (0, 0)]),  # the last pass finds no non-edge left
    (0.0, "iterative", 1, [(36, 36)]),  # the cap ends the run before a pass that adds nothing
    (1.0, "iterative", 3, [(36, 0)]),
    (0.05, "iterative", None, [(36, 4), (32, 32), (0, 0)]),
    (0.0, "iterative", 0, []),
])
def test_trace_steps_count_every_scoring_pass(cli_clique_model, epsilon, mode, cap, steps):
    g, model = cli_clique_model
    trace = complete(g, model, CompletionConfig(epsilon, mode, cap))
    assert [(step["non_edges"], step["added"]) for step in trace.steps] == steps
    assert all(set(step) == {"non_edges", "added", "seconds"} and step["seconds"] >= 0 for step in trace.steps)
    # Batches are the passes that add edges (every pass when noniterative).
    assert [len(batch) for batch in trace.batches] == [n for _, n in steps if n or mode == "noniterative"]


def test_a_trace_built_from_batches_and_graph_has_no_steps():
    g = graph_from_edges(two_cliques_edges(3))
    trace = CompletionTrace([[(4, 1, 1.0)]], g)
    assert trace.steps == [] and trace.added_edges == [(4, 1, 1.0)]


# ---------------------------------------------------------------------------
# Completion steps in row chunks, on forked workers


@pytest.fixture()
def completion_forks(monkeypatch):
    """The worker counts above 1 that completion steps were scored with while it is in use."""
    started = []
    fork_map = predict._fork_map

    def recording(fn, count, workers):
        if workers > 1:
            started.append(workers)
        return fork_map(fn, count, workers)

    monkeypatch.setattr(predict, "_fork_map", recording)
    return started


def forked_chunks(monkeypatch, cpus, chunk_rows=7):
    """cpus usable CPUs, steps forked whatever their size, and chunks of chunk_rows rows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(predict, "_FORK_MIN_ROW_TREES", 0)
    monkeypatch.setattr(predict, "_CHUNK_ROWS", chunk_rows)


def step_counts(trace):
    return [(step["non_edges"], step["added"]) for step in trace.steps]


RUNS = [
    CompletionConfig(0.5, "noniterative"),
    CompletionConfig(0.5, "iterative"),  # to the fixed point
    CompletionConfig(0.3, "iterative", max_steps=2),
]


def assert_chunks_equal_full_rescoring(monkeypatch, completion_forks, g, model, cfg, cpus):
    """Every run of RUNS, in this process and in 7-row chunks on cpus CPUs,
    equals reference_completion."""
    forks = len(completion_forks)
    in_process = [complete(g, model, run, cfg) for run in RUNS]  # one chunk, below the crossover
    assert len(completion_forks) == forks
    with monkeypatch.context() as patched:
        forked_chunks(patched, cpus)
        chunked = [complete(g, model, run, cfg) for run in RUNS]
    for run, one, many in zip(RUNS, in_process, chunked):
        batches, steps = reference_completion(g, model, run, cfg)
        assert one.batches == many.batches == batches
        assert step_counts(one) == step_counts(many) == steps
        assert sorted(edge_set(many.final_graph)) == sorted(edge_set(one.final_graph))
    assert len(chunked[1].steps) >= 2  # the fixed point takes more than one step


@pytest.mark.parametrize("ordering", STRATEGY_KINDS)
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_chunked_and_forked_completion_equals_full_rescoring(monkeypatch, completion_forks, cpus, ordering):
    g = graph_from_edges(gnm_edges(22, 36, seed=STRATEGY_KINDS.index(ordering) + 3))
    for mask in (False, True):
        cfg = FeatureConfig(a=2, b=1, strategy=Strategy(ordering, seed=5), mask_pair_edge=mask, seed=5)
        assert_chunks_equal_full_rescoring(monkeypatch, completion_forks, g, trained_on(g, cfg, seed=5), cfg, cpus)
    # Every step of the chunked runs forked, one worker per CPU.
    assert completion_forks == ([] if cpus == 1 else [cpus] * len(completion_forks))
    assert cpus == 1 or len(completion_forks) >= 2 * len(RUNS)


@pytest.mark.parametrize("kind", ["tree", "logistic"])
def test_chunked_and_forked_completion_of_a_tree_or_logistic_model_equals_full_rescoring(
        monkeypatch, completion_forks, kind):
    g = graph_from_edges(gnm_edges(22, 36, seed=4))
    for mask in (False, True):
        cfg = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), mask_pair_edge=mask, seed=5)
        model = trained_on(g, cfg, seed=5, kind=kind)
        assert_chunks_equal_full_rescoring(monkeypatch, completion_forks, g, model, cfg, 2)
    assert completion_forks == [2] * len(completion_forks) and len(completion_forks) >= 2 * len(RUNS)


def test_a_dead_completion_worker_raises_and_leaves_no_process(dying_completion_workers):
    g = graph_from_edges(gnm_edges(30, 60, seed=12))
    cfg = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), seed=12)
    model = trained_on(g, cfg, seed=12)
    with pytest.raises(ChildProcessError, match="worker process died"):
        complete(g, model, CompletionConfig(0.5, "iterative"), cfg)
    assert multiprocessing.active_children() == []


def test_a_completion_on_a_second_thread_stays_in_this_process(monkeypatch, completion_forks):
    g = graph_from_edges(gnm_edges(30, 60, seed=12))
    cfg = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), seed=12)
    model = trained_on(g, cfg, seed=12)
    run = CompletionConfig(0.5, "iterative")
    forked_chunks(monkeypatch, 2)
    out = []
    worker = threading.Thread(target=lambda: out.append(complete(g, model, run, cfg)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert completion_forks == []
    assert out[0].batches == complete(g, model, run, cfg).batches
    assert completion_forks  # the same run on the main thread forks


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_chunked_step_holds_less_than_one_whole_step_matrix(monkeypatch, cpus):
    g = graph_from_edges(gnm_edges(300, 900, seed=7))
    cfg = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), seed=7)
    model = trained_on(g, cfg, seed=7)
    walks = _forest_walks(model)
    forked_chunks(monkeypatch, cpus, chunk_rows=2048)
    whole = (g.node_count * (g.node_count - 1) // 2 - g.edge_count) * cfg.row_length * 4  # int32 rows
    tracemalloc.start()
    try:
        batch, scored = predict._step(g, model, walks, cfg, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scored * cfg.row_length * 4 == whole and len(batch) < 1000
    assert peak < whole / 4, f"a chunked step peaked at {peak} bytes, against {whole} for the whole step's rows"
    assert [batch] == reference_completion(g, model, CompletionConfig(0.9, "noniterative"), cfg)[0]
