"""Tests of the benchmark's own parts. Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "tests", ROOT / "bench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import ab_linkpred as lp  # noqa: E402
import ab_linkpred.featurize  # noqa: E402
from graphgen import community_edges, edge_text  # noqa: E402

import run  # noqa: E402
from fixture import fixture_text  # noqa: E402
from spans import Tracer, phase_totals  # noqa: E402
from workloads import reference_block  # noqa: E402


def test_fixture_is_byte_identical_to_the_test_suite_generator():
    assert fixture_text(3) == edge_text(community_edges(333, 2519, 9, seed=3))


def test_relabelled_fixture_keeps_the_structure():
    fixture = lp.load_edge_list(io.StringIO(fixture_text(3)))
    relabelled = lp.load_edge_list(io.StringIO(fixture_text(3, relabel_seed=1)))
    assert (relabelled.node_count, relabelled.edge_count) == (333, 2519)
    assert sorted(map(relabelled.degree, range(1, 334))) == sorted(map(fixture.degree, range(1, 334)))
    assert fixture_text(3, relabel_seed=1) != fixture_text(3, relabel_seed=2)


def test_reference_block_rule_matches_build_dataset():
    g = lp.load_edge_list(io.StringIO(fixture_text(3, relabel_seed=5)))
    config = lp.FeatureConfig(a=2, b=2, strategy=lp.Strategy("betweenness"))
    pairs = [(u, v) for u, v in g.candidate_pairs() if u % 7 == 0]
    data = lp.build_dataset(g, config, pairs=pairs)
    score = lp.table_for(g, config.strategy).values
    for row, (u, v) in zip(data.X.tolist(), pairs):
        assert row == reference_block(g.neighbors, score, u, 2, 2) + reference_block(g.neighbors, score, v, 2, 2) + [u, v]


def test_self_time_subtracts_the_union_of_overlapping_children():
    def span(i, name, start, end, parent):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "thread": 0,
                "phase": "op0", "counts": {}}

    spans = [
        span(0, "predict.complete_iterative", 0.0, 10.0, None),
        span(1, "featurize.build_dataset", 1.0, 5.0, 0),
        span(2, "featurize.build_dataset", 3.0, 8.0, 0),
    ]
    totals = phase_totals(spans, "op0")
    assert totals["predict.complete_iterative.self_s"] == 3.0
    assert totals["featurize.build_dataset.s"] == 9.0
    assert totals["featurize.build_dataset.calls"] == 2


def test_tracer_records_nested_calls_and_restores_the_library():
    original = ab_linkpred.featurize.build_dataset
    g = lp.load_edge_list(io.StringIO(fixture_text(1)))
    config = lp.FeatureConfig(a=1, b=0, strategy=lp.Strategy("degree"))
    tracer = Tracer()
    tracer.install()
    try:
        lp.balanced_dataset(g, config, 1.0)  # outside a phase: not recorded
        with tracer.phase("op0"):
            data = lp.balanced_dataset(g, config, 1.0)
    finally:
        tracer.uninstall()
    assert ab_linkpred.featurize.build_dataset is original
    names = {s["name"]: s for s in tracer.spans}
    assert len(tracer.spans) == 4  # balanced_dataset > build_dataset > table_for, neighbor_orders
    build = names["featurize.build_dataset"]
    assert tracer.spans[build["parent"]]["name"] == "featurize.balanced_dataset"
    assert build["counts"] == {"rows": len(data.y)}
    assert phase_totals(tracer.spans, "op0")["featurize.build_dataset.rows"] == 2 * 2519


def test_worker_thread_spans_nest_under_the_sweep():
    g = lp.load_edge_list(io.StringIO(fixture_text(3)))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.phase("op0"):
            lp.sweep(g, 1, 0, ["degree", "random"], [1], classifier_params={"tree_count": 2}, threads=2)
    finally:
        tracer.uninstall()
    by_name: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (sweep,) = by_name["evaluate.sweep"]
    assert [s["parent"] for s in by_name["evaluate.run_experiment"]] == [sweep["id"], sweep["id"]]
    assert sweep["counts"]["cells"] == 2 and sweep["counts"]["failed_cells"] == 0


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(run.EXACT_COUNTS) <= dict(run.PER_LAYER).keys()
