"""Benchmark for ab_linkpred: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload cell --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory. The run
repeats the timed operation, one at a time in this one process, while
another would still end within ``--seconds``, and sets the workload up
several times between them (the median is ``setup_s``). Every operation's
outputs are checked.

With ``--trace 0`` the last line is the JSON result with the end-to-end
metrics. Operations take 5-22 s, so a run holds only a few samples: no
percentile above the median has ten samples beyond it, and ``op_s`` is the
median alone. With ``--trace 1`` each untraced operation is followed by a
traced one, and the result holds the per-layer metrics: medians over the
traced set-ups plus medians over the traced operations. The spans are
written to ``.bench_out/`` in the repository root.

Exit codes: 0 when every check passed, 1 when a check failed (the result is
still printed), and 2 with no result when the library cannot be imported
from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# (name, unit) of the end-to-end metrics, in the order they are printed.
END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("pairs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("f1", "share"),
)

# (name, unit) of the per-layer metrics. Values are read from the span
# totals of spans.phase_totals under the same name (or the one _SPAN_KEYS
# gives), except the two derived at the end of run_traced.
PER_LAYER = (
    ("graph.load_edge_list.s", "s"),
    ("centrality.table_for.s", "s"),
    ("centrality.table_for.calls", "count"),
    ("centrality.neighbor_orders.s", "s"),
    ("centrality.neighbor_orders.calls", "count"),
    ("featurize.build_dataset.s", "s"),
    ("featurize.build_dataset.rows", "count"),
    ("featurize.build_dataset.calls", "count"),
    ("featurize.balanced_dataset.self_s", "s"),
    ("featurize.split.s", "s"),
    ("model.train.s", "s"),
    ("model.train.rows", "count"),
    ("model.train.tree_nodes", "count"),
    ("model.predict_scores.s", "s"),
    ("model.predict_scores.rows", "count"),
    ("model.save_model.s", "s"),
    ("model.save_model.bytes", "bytes"),
    ("model.load_model.s", "s"),
    ("evaluate.run_experiment.self_s", "s"),
    ("evaluate.sweep.s", "s"),
    ("evaluate.sweep.cells", "count"),
    ("evaluate.sweep.failed_cells", "count"),
    ("evaluate.sweep.wall_ms_sum_s", "s"),
    ("evaluate.export_csv.s", "s"),
    ("evaluate.render_heatmap.s", "s"),
    ("predict.complete_iterative.self_s", "s"),
    ("predict.steps", "count"),
    ("predict.added_edges", "count"),
    ("predict.rescored_rows", "count"),
    ("predict.added_per_rescored", "ratio"),
    ("trace.overhead_s", "s"),
)

# Per-layer metrics that are exact counts: they must repeat exactly across
# the set-ups and operations of a run, so later changes can cite them as counts.
EXACT_COUNTS = (
    "centrality.table_for.calls",
    "featurize.build_dataset.rows",
    "model.train.rows",
    "model.train.tree_nodes",
    "model.predict_scores.rows",
    "model.save_model.bytes",
    "predict.steps",
    "predict.added_edges",
    "predict.rescored_rows",
)

_SPAN_KEYS = {"predict.steps": "predict.complete_iterative.steps",
              "predict.added_edges": "predict.complete_iterative.added_edges"}


def _import_library():
    """Import ab_linkpred from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "ab_linkpred"
    if not (package / "__init__.py").is_file():
        print(f"bench: no library source at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(package.parent))
    import ab_linkpred

    if Path(ab_linkpred.__file__).resolve().parent != package.resolve():
        print(f"bench: imported ab_linkpred from {ab_linkpred.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


class Checks:
    """Counts attempted and failed operations and checks, and holds values
    that must repeat exactly for the same input: output digests and exact
    counts, kept in ``.bench_out/digests.json`` so they are compared across
    runs too."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._path = OUT / "digests.json"
        try:
            self._expected = json.loads(self._path.read_text())
        except (OSError, ValueError):
            self._expected = {}

    def record(self, key: str, outcome) -> None:
        """One operation's outcome; key names its input."""
        self.attempted += 1
        self.fail(outcome.failures + self._repeat(key, outcome.digest))

    def fail(self, failures: list[str]) -> None:
        if failures:
            self.failed += 1
            self.messages.extend(failures)

    def repeat(self, key: str, value) -> None:
        self.attempted += 1
        self.fail(self._repeat(key, value))

    def _repeat(self, key: str, value) -> list[str]:
        want = self._expected.setdefault(key, value)
        return [] if want == value else [f"{key}: {value!r} differs from {want!r} for the same input"]

    def save(self) -> None:
        if self.failed:
            return
        OUT.mkdir(exist_ok=True)
        tmp = self._path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._expected, indent=1, sort_keys=True))
        os.replace(tmp, self._path)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def run_plain(name: str, workload, seed: int, seconds: float, checks: Checks) -> dict:
    """Set-ups alternate with the first operations, so setup_s samples the
    same stretch of time as op_s; on a shared machine the speed of a
    millisecond set-up shifts by half within seconds."""
    setup_times = []

    def set_up():
        elapsed, state = _timed(workload.setup, seed)
        setup_times.append(elapsed)
        return state

    state = set_up()
    op_times, outcomes = [], []
    start = time.perf_counter()
    for s in workload.op_seeds(seed):
        elapsed, out = _timed(workload.op, state, s)
        op_times.append(elapsed)
        outcomes.append(workload.outcome(state, s, out))
        checks.record(f"{name}:{s}", outcomes[-1])
        spent = time.perf_counter() - start - sum(setup_times[1:])
        if spent + statistics.median(op_times) > seconds:
            break
        if len(setup_times) < workload.setup_reps:
            state = set_up()
    while len(setup_times) < workload.setup_reps:
        set_up()
    op_s = statistics.median(op_times)
    print(f"op_s is the median of {len(op_times)} operations", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": op_s,
        "pairs_per_s": statistics.median(o.pairs for o in outcomes) / op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - checks.failed / checks.attempted,
        "f1": statistics.median(o.f1 for o in outcomes),
    }


def run_traced(name: str, workload, seed: int, seconds: float, checks: Checks, spans_path: Path) -> dict:
    from spans import Tracer, phase_totals

    def exact(totals: dict) -> dict:
        return {m: totals.get(_SPAN_KEYS.get(m, m), 0.0) for m in EXACT_COUNTS}

    tracer = Tracer()
    tracer.install()
    try:
        for i in range(workload.setup_reps):
            with tracer.phase(f"setup{i}"):
                state = workload.setup(seed)
    finally:
        tracer.uninstall()
    setups = [phase_totals(tracer.spans, f"setup{i}") for i in range(workload.setup_reps)]
    for totals in setups:
        checks.repeat(f"{name}:{seed}:setup-counts", exact(totals))

    plain, traced, ops = [], [], []
    start = time.perf_counter()
    for s in workload.op_seeds(seed):
        elapsed, out = _timed(workload.op, state, s)
        plain.append(elapsed)
        checks.record(f"{name}:{s}", workload.outcome(state, s, out))
        phase = f"op{len(traced)}"
        tracer.install()
        try:
            with tracer.phase(phase):
                elapsed, out = _timed(workload.op, state, s)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        checks.record(f"{name}:{s}", workload.outcome(state, s, out))
        ops.append(phase_totals(tracer.spans, phase))
        checks.repeat(f"{name}:{s}:counts", exact(ops[-1]))
        if time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)

    def value(metric: str) -> float:
        key = _SPAN_KEYS.get(metric, metric)
        return statistics.median(t.get(key, 0.0) for t in setups) + statistics.median(t.get(key, 0.0) for t in ops)

    derived = ("predict.added_per_rescored", "trace.overhead_s")
    metrics = {metric: value(metric) for metric, _ in PER_LAYER if metric not in derived}
    rescored = metrics["predict.rescored_rows"]
    metrics["predict.added_per_rescored"] = metrics["predict.added_edges"] / rescored if rescored else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    checks = Checks()
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        values = run_traced(args.workload, workload, args.seed, args.seconds, checks, spans_path)
        units = dict(PER_LAYER)
    else:
        values = run_plain(args.workload, workload, args.seed, args.seconds, checks)
        units = dict(END_TO_END)
    checks.save()

    for message in checks.messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
