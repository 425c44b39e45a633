import dataclasses
import io
import os
import sys
import threading
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ab_linkpred import (
    ConfusionCounts,
    FeatureConfig,
    Strategy,
    confusion,
    export_csv,
    metrics,
    render_heatmap,
    run_experiment,
    sweep,
    train,
)
from ab_linkpred import centrality, evaluate
from ab_linkpred.centrality import STRATEGY_KINDS
from ab_linkpred.evaluate import CSV_HEADER, SweepResult

from graphgen import gnm_edges, graph_from_edges


def test_confusion_basic_cases():
    c = confusion([1, 1, 0, 0], [1, 0, 1, 0])
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
    same = confusion([1, 0, 1], [1, 0, 1])
    assert same.fp == 0 and same.fn == 0
    allwrong = confusion([1, 1, 1], [0, 0, 0])
    assert allwrong.tp == 0 and allwrong.fn == 3
    assert c.total == 4


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([1, 0], [1])
    with pytest.raises(ValueError):
        confusion([1, 2], [1, 0])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        confusion([0.7, 1], [1, 1])
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        confusion([1, 1], [1.9, 0])


# Paper-style integer count fixtures chosen so tp/(tp+fp) and tp/(tp+fn)
# hit the quoted precision/recall exactly.
@pytest.mark.parametrize(
    "counts,precision,recall,f1",
    [
        (ConfusionCounts(3293, 407, 5607, 0), 0.89, 0.37, 0.52),
        (ConfusionCounts(85, 0, 15, 0), 1.00, 0.85, 0.92),
        (ConfusionCounts(6141, 759, 2759, 0), 0.89, 0.69, 0.78),
        (ConfusionCounts(3321, 779, 4779, 0), 0.81, 0.41, 0.54),
    ],
)
def test_metrics_re_derive_published_scores(counts, precision, recall, f1):
    r = metrics(counts)
    assert r.precision == pytest.approx(precision, abs=1e-9)
    assert r.recall == pytest.approx(recall, abs=1e-9)
    assert r.f1 == pytest.approx(f1, abs=0.005)


def test_metrics_perfect_and_degenerate():
    perfect = metrics(ConfusionCounts(10, 0, 0, 5))
    assert perfect.precision == perfect.recall == perfect.f1 == 1.0
    nothing = metrics(ConfusionCounts(0, 0, 0, 8))
    assert nothing.precision == nothing.recall == nothing.f1 == 0.0


def test_f1_between_min_and_max_of_p_and_r():
    rng = np.random.default_rng(3)
    for _ in range(200):
        tp, fp, fn = (int(x) for x in rng.integers(1, 500, size=3))
        r = metrics(ConfusionCounts(tp, fp, fn, 0))
        lo, hi = sorted((r.precision, r.recall))
        assert lo - 1e-12 <= r.f1 <= hi + 1e-12
        # swapping fp and fn swaps precision and recall but leaves F1 alone
        swapped = metrics(ConfusionCounts(tp, fn, fp, 0))
        assert swapped.precision == r.recall and swapped.recall == r.precision
        assert swapped.f1 == pytest.approx(r.f1, abs=1e-12)


def test_run_experiment_two_clique_oracle(two_k6):
    cfg = FeatureConfig(a=3, b=1, strategy=Strategy("degree"), seed=5)
    report = run_experiment(two_k6, cfg)
    assert report.f1 >= 0.9
    again = run_experiment(two_k6, cfg)
    assert report == again


def test_run_experiment_empty_graph_errors():
    from ab_linkpred import Graph

    g = Graph()
    for label in "12345":
        g.intern(label)
    cfg = FeatureConfig(a=1, b=0, strategy=Strategy("degree"), seed=1)
    with pytest.raises(ValueError):
        run_experiment(g, cfg)


@pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
def test_run_experiment_rejects_non_finite_balance_ratio(two_k6, ratio):
    cfg = FeatureConfig(a=1, b=0, strategy=Strategy("degree"), seed=1)
    with pytest.raises(ValueError, match="negative_ratio must be a finite number > 0"):
        run_experiment(two_k6, cfg, balance_ratio=ratio)


@pytest.mark.parametrize("balance_ratio", [1.0, None])
@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_run_experiment_looks_up_its_centrality_table_once(two_k6, monkeypatch, kind, balance_ratio):
    calls = []
    original = centrality.table_for

    def counted(g, strategy):
        calls.append(strategy.kind)
        return original(g, strategy)

    # Every module attribute that holds table_for, as the benchmark's tracer patches it.
    for name, module in list(sys.modules.items()):
        if name == "ab_linkpred" or name.startswith("ab_linkpred."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    run_experiment(two_k6, evaluate.cell_config(2, 1, kind, 3), classifier_params={"tree_count": 3},
                   balance_ratio=balance_ratio)
    assert calls == [kind]


@pytest.fixture()
def train_calls(monkeypatch):
    """The calls made to evaluate.train while it is in use."""
    calls = []
    real = evaluate.train

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "train", recording)
    return calls


@pytest.mark.parametrize("threshold", [float("nan"), 2.0, -1.0, True, "x", None])
def test_a_threshold_outside_the_unit_interval_fails_before_any_training(two_k6, train_calls, threshold):
    cfg = FeatureConfig(a=1, b=0, strategy=Strategy("degree"), seed=1)
    with pytest.raises(ValueError, match="threshold must be a number in"):
        run_experiment(two_k6, cfg, threshold=threshold)
    with pytest.raises(ValueError, match="threshold must be a number in"):
        sweep(two_k6, 1, 0, ["degree"], [1], threshold=threshold)
    assert train_calls == []


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5])
def test_score_rows_refuses_a_threshold_outside_the_unit_interval(threshold):
    clf = train([[0], [1], [2], [3]], [0, 1, 0, 1], kind="tree", seed=1)
    with pytest.raises(ValueError, match="threshold must be a number in"):
        evaluate.score_rows(clf, [[0], [1]], [0, 1], threshold)


@pytest.mark.parametrize("options", [{"classifer": "tree"}, {"table": None}, {"config": None}],
                         ids=["misspelled", "table", "config"])
def test_sweep_refuses_an_option_fit_does_not_take_before_any_training(two_k6, train_calls, options):
    with pytest.raises(TypeError, match="unexpected keyword arguments"):
        sweep(two_k6, 1, 0, ["degree"], [1], **options)
    assert train_calls == []


@pytest.mark.parametrize("options,message", [
    ({"classifier": "forrest"}, "unknown classifier kind 'forrest'"),
    ({"classifier_params": {"tree_count": 0}}, "tree_count must be >= 1"),
    ({"classifier": "logistic", "classifier_params": {"tree_count": 3}}, "unknown logistic hyperparameter"),
    ({"test_fraction": 1.5}, "test_fraction must be in"),
    ({"balance_ratio": 0.0}, "negative_ratio must be a finite number > 0"),
], ids=["classifier", "hyperparameter-value", "hyperparameter-name", "test_fraction", "balance_ratio"])
def test_sweep_refuses_an_option_value_every_cell_would_refuse_before_any_training(two_k6, train_calls, options,
                                                                                    message):
    with pytest.raises(ValueError, match=message):
        sweep(two_k6, 2, 2, ["degree", "random"], [1, 2], **options)
    assert train_calls == []


def test_sweep_and_run_experiment_forward_fit_options_to_every_cell(two_k6, train_calls):
    cfg = evaluate.cell_config(1, 0, "degree", 1)
    want = run_experiment(two_k6, cfg, threshold=np.float64(0.4), classifier="tree", test_fraction=0.3)
    result = sweep(two_k6, 1, 0, ["degree"], [1], threshold=0.4, classifier="tree", test_fraction=0.3)
    assert result.cells[0].report == want
    assert [call["kind"] for call in train_calls] == ["tree", "tree"]


@pytest.fixture(scope="module")
def small_sweep():
    g = graph_from_edges(gnm_edges(20, 45, seed=2))
    return sweep(g, 2, 1, ["degree", "random"], [1, 2], classifier_params={"tree_count": 15})


def test_sweep_cell_counts(small_sweep, two_k6):
    assert len(small_sweep.cells) == 2 * 2 * 2 * 2
    grid30 = sweep(two_k6, 5, 5, ["degree"], [1], classifier_params={"tree_count": 5})
    assert len(grid30.cells) == 30
    assert {(c.a, c.b) for c in grid30.cells} == {(a, b) for a in range(1, 6) for b in range(6)}
    assert all(c.error is None for c in grid30.cells)


def test_sweep_canonical_order_and_determinism(small_sweep):
    g = graph_from_edges(gnm_edges(20, 45, seed=2))
    again = sweep(g, 2, 1, ["random", "degree"], [2, 1], classifier_params={"tree_count": 15})
    key = lambda c: (c.a, c.b, c.strategy, c.seed)
    assert [key(c) for c in small_sweep.cells] == sorted(key(c) for c in small_sweep.cells)
    assert [key(c) for c in again.cells] == [key(c) for c in small_sweep.cells]
    for mine, theirs in zip(small_sweep.cells, again.cells):
        assert mine.report == theirs.report


def test_sweep_threads_match_serial(small_sweep):
    g = graph_from_edges(gnm_edges(20, 45, seed=2))
    threaded = sweep(g, 2, 1, ["degree", "random"], [1, 2], classifier_params={"tree_count": 15}, threads=4)
    for mine, theirs in zip(small_sweep.cells, threaded.cells):
        assert (mine.a, mine.b, mine.strategy, mine.seed) == (theirs.a, theirs.b, theirs.strategy, theirs.seed)
        assert mine.report == theirs.report


@pytest.mark.parametrize("threads", [1, 4])
def test_sweep_runs_its_cells_in_the_calling_thread_in_canonical_order(monkeypatch, threads):
    calls = []
    run = evaluate.run_experiment

    def recording(g, config, **kwargs):
        calls.append((threading.get_ident(), config.a, config.b, config.strategy.kind, config.seed))
        return run(g, config, **kwargs)

    monkeypatch.setattr(evaluate, "run_experiment", recording)
    g = graph_from_edges(gnm_edges(20, 45, seed=2))
    sweep(g, 2, 1, ["random", "degree"], [2, 1], classifier_params={"tree_count": 5}, threads=threads)
    assert [call[0] for call in calls] == [threading.get_ident()] * 16
    assert [call[1:] for call in calls] == list(product([1, 2], [0, 1], ["degree", "random"], [1, 2]))


def test_a_large_forest_in_a_sweep_grows_in_worker_processes(monkeypatch, pools):
    g = graph_from_edges(gnm_edges(61, 270, seed=4))  # 405 training rows x 100 trees
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = sweep(g, 1, 0, ["degree"], [1], threads=2).cells[0]
    assert pools == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forked = sweep(g, 1, 0, ["degree"], [1], threads=2).cells[0]
    assert pools == [2]
    assert serial.error is None and forked.report == serial.report


@pytest.mark.parametrize("a_max,b_max", [(2.0, 0), (True, 0), (1, 0.0), (1, False), ("1", 0)],
                         ids=["float_a_max", "bool_a_max", "float_b_max", "bool_b_max", "str_a_max"])
def test_sweep_grid_bounds_must_be_integers(a_max, b_max):
    g = graph_from_edges(gnm_edges(20, 40, seed=1))
    with pytest.raises(ValueError, match="_max must be an integer"):
        sweep(g, a_max, b_max, ["degree"], [1])


@pytest.mark.parametrize("a_max,b_max,name", [(10**400, 0, "a_max"), (sys.maxsize + 1, 0, "a_max"),
                                              (1, 10**400, "b_max"), (1, sys.maxsize, "b_max")])
def test_sweep_refuses_a_grid_past_the_index_range_before_any_training(two_k6, train_calls, a_max, b_max, name):
    with pytest.raises(ValueError, match=rf"^{name} must be at most \d+ to enumerate the grid"):
        sweep(two_k6, a_max, b_max, ["degree"], [1])
    assert train_calls == []


@pytest.mark.parametrize("a_max,b_max,strategies,seeds", [(10**6, 0, [], [1]), (1, 10**6, ["degree"], [])],
                         ids=["no_strategies", "no_seeds"])
def test_a_sweep_with_no_strategy_or_no_seed_gives_no_cells_without_walking_its_axes(two_k6, a_max, b_max,
                                                                                     strategies, seeds):
    tracemalloc.start()
    try:
        result = sweep(two_k6, a_max, b_max, strategies, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.cells == []
    assert peak < 2**20


@pytest.mark.parametrize("seeds", [[1, 1.5], [2, "x"]], ids=["float", "str"])
def test_sweep_refuses_a_seed_that_is_not_an_integer_before_any_training(two_k6, train_calls, seeds):
    with pytest.raises(ValueError, match="^seed must be an integer"):
        sweep(two_k6, 2, 1, ["degree"], seeds)
    assert train_calls == []


def test_sweep_takes_generators_of_strategies_and_seeds_as_it_takes_lists(two_k6, monkeypatch):
    monkeypatch.setattr(evaluate, "run_experiment",
                        lambda g, config, **kwargs: (config.a, config.b, config.strategy.kind, config.seed))
    cells = lambda result: [(c.a, c.b, c.strategy, c.seed, c.report, c.error) for c in result.cells]
    from_lists = sweep(two_k6, 2, 1, ["random", "degree"], [2, 1])
    from_generators = sweep(two_k6, 2, 1, (kind for kind in ["random", "degree"]), (seed for seed in [2, 1]))
    assert len(from_lists.cells) == 16
    assert cells(from_generators) == cells(from_lists)


def test_the_largest_grid_bounds_are_ones_product_can_size():
    assert len(range(1, evaluate._as_grid_max(sys.maxsize, "a_max", 1) + 1)) == sys.maxsize
    assert len(range(0, evaluate._as_grid_max(sys.maxsize - 1, "b_max", 0) + 1)) == sys.maxsize


def test_sweep_records_cell_failures_and_continues():
    # a single-edge graph has one positive row: splitting needs two per
    # class, so the cell fails but the sweep still yields its full grid
    g2 = graph_from_edges([(1, 2)])
    result = sweep(g2, 1, 0, ["degree"], [1])
    assert len(result.cells) == 1
    assert result.cells[0].error.startswith("ValueError: ")
    assert result.cells[0].report is None
    buf = io.StringIO()
    export_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2  # failed cells keep their CSV slot, fields empty
    assert lines[1].split(",")[4:11] == [""] * 7


def test_sweep_records_a_dead_forest_worker(dying_forest_workers):
    g = graph_from_edges(gnm_edges(61, 270, seed=4))
    result = sweep(g, 1, 0, ["degree"], [1])
    assert result.cells[0].report is None
    assert result.cells[0].error.startswith("ChildProcessError: a worker process died with exit code ")


def test_sweep_records_the_error_raised_in_a_forest_worker(raising_forest_workers):
    g = graph_from_edges(gnm_edges(61, 270, seed=4))
    result = sweep(g, 1, 0, ["degree"], [1])
    assert result.cells[0].report is None
    assert result.cells[0].error == f"MemoryError: {raising_forest_workers}"


def test_sweep_refuses_a_feature_subsample_below_1_at_the_call():
    g = graph_from_edges(gnm_edges(20, 45, seed=2))
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"^feature_subsample must be >= 1, got {bad}$"):
            sweep(g, 1, 0, ["degree"], [1], classifier_params={"feature_subsample": bad})


def test_export_csv_layout_and_re_derivation(small_sweep, tmp_path):
    out = tmp_path / "r.csv"
    export_csv(small_sweep, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(small_sweep.cells)
    for line, cell in zip(lines[1:], small_sweep.cells):
        fields = dict(zip(CSV_HEADER, line.split(",")))
        tp, fp, fn = int(fields["tp"]), int(fields["fp"]), int(fields["fn"])
        again = metrics(ConfusionCounts(tp, fp, fn, int(fields["tn"])))
        assert abs(float(fields["precision"]) - again.precision) < 1e-12
        assert abs(float(fields["recall"]) - again.recall) < 1e-12
        assert abs(float(fields["f1"]) - again.f1) < 1e-12
        assert float(fields["wall_ms"]) >= 0.0


def test_export_csv_empty_errors():
    with pytest.raises(ValueError):
        export_csv(SweepResult(cells=[]), io.StringIO())


def test_render_heatmap_one_rect_per_cell(two_k6, tmp_path):
    result = sweep(two_k6, 5, 5, ["degree"], [7], classifier_params={"tree_count": 5})
    svg = render_heatmap(result, "f1")
    assert svg.count("<rect") == 30
    out = tmp_path / "h.svg"
    render_heatmap(result, "f1", out)
    assert out.read_text() == svg
    with pytest.raises(ValueError):
        render_heatmap(SweepResult(cells=[]), "f1")
    with pytest.raises(ValueError):
        render_heatmap(result, "accuracy")


def test_render_heatmap_greys_a_cell_whose_runs_all_failed(small_sweep):
    first = small_sweep.cells[0]
    cells = [dataclasses.replace(c, report=None, error="ValueError: x")
             if (c.strategy, c.a, c.b) == (first.strategy, first.a, first.b) else c for c in small_sweep.cells]
    svg = render_heatmap(SweepResult(cells=cells), "f1")
    assert svg.count("<rect") == 8
    assert svg.count('fill="#dddddd"') == 1
    assert svg.count('text-anchor="middle" fill=') == 7  # no value label on the grey cell


def test_render_heatmap_panels_per_strategy(small_sweep):
    svg = render_heatmap(small_sweep, "f1")
    # 2 strategies x (a in 1..2) x (b in 0..1) = 8 rects
    assert svg.count("<rect") == 8
    assert "degree (f1)" in svg and "random (f1)" in svg
