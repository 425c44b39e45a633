"""Command-line entry point: stats, centrality, sweep, train, eval, complete.

Exit codes: 0 success, 1 usage error, 2 data or model error. Diagnostics go
to stderr; machine-readable output (CSV, SVG, JSON, completion edges) goes
to files, or to stdout only where a subcommand defines it. Every output
file gets a ``<file>.manifest.json`` sidecar recording the resolved
parameters, seeds, input digest, tool version, and wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .centrality import MEASURES, STRATEGY_KINDS, Strategy, centrality_table
from .evaluate import (
    CSV_HEADER,
    SweepCell,
    confusion,
    csv_cell_row,
    export_csv,
    fit,
    format_report,
    metrics,
    render_heatmap,
    run_experiment,
    sweep,
)
from .featurize import FeatureConfig, config_from_dict, config_to_dict
from .graph import load_edge_list, stats
from .model import load_model, predict_scores, save_model
from .predict import CompletionConfig, complete

DEFAULT_SEED = 42


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"--seeds expects comma-separated integers, got {text!r}") from None
    if not seeds:
        raise UsageError("--seeds must name at least one seed")
    return seeds


def _parse_strategies(text: str) -> list[str]:
    kinds = [part.strip() for part in text.split(",") if part.strip()]
    if not kinds:
        raise UsageError("--strategy must name at least one strategy")
    for kind in kinds:
        if kind not in STRATEGY_KINDS:
            raise UsageError(f"unknown strategy {kind!r}, expected one of {STRATEGY_KINDS}")
    return kinds


def _resolve_threads(value: int | None) -> int:
    if value is None:
        raw = os.environ.get("AB_LINKPRED_THREADS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"AB_LINKPRED_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"--threads must be >= 1, got {value}")
    return value


def _make_strategy(kind: str, seed: int) -> Strategy:
    return Strategy(kind, seed=seed if kind == "random" else None)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: str, subcommand: str, params: dict, seeds: list[int], input_path: str, wall_s: float) -> None:
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "seeds": seeds,
        "input_digest": _sha256(input_path),
        "wall_time_s": round(wall_s, 3),
    }
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_stats(args) -> int:
    g = load_edge_list(args.graph)
    s = stats(g)
    if g.skipped_self_loops:
        print(f"skipped {g.skipped_self_loops} self-loop line(s)", file=sys.stderr)
    print(f"nodes={s.nodes} edges={s.edges} avg_degree={s.avg_degree:.2f}")
    return 0


def _cmd_centrality(args) -> int:
    g = load_edge_list(args.graph)
    table = centrality_table(g, args.measure)
    ranked = sorted(range(1, g.node_count + 1), key=lambda v: (-table.values[v], v))
    if args.top is not None:
        if args.top < 1:
            raise UsageError(f"--top must be >= 1, got {args.top}")
        ranked = ranked[: args.top]
    for v in ranked:
        print(f"{g.labels[v]} {table.values[v]:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    threads = _resolve_threads(args.threads)
    strategies = _parse_strategies(args.strategy)
    seeds = _parse_seeds(args.seeds)
    if args.balance is not None and args.balance <= 0:
        raise UsageError(f"--balance must be > 0, got {args.balance}")
    start = time.perf_counter()
    g = load_edge_list(args.graph)
    result = sweep(
        g,
        args.a_max,
        args.b_max,
        strategies,
        seeds,
        classifier=args.classifier,
        balance_ratio=None if args.no_balance else args.balance,
        test_fraction=args.test_fraction,
        threshold=args.threshold,
        mask_pair_edge=args.mask_pair_edge,
        threads=threads,
    )
    export_csv(result, args.out)
    wall = time.perf_counter() - start
    params = {
        "a_max": args.a_max,
        "b_max": args.b_max,
        "strategies": strategies,
        "balance": None if args.no_balance else args.balance,
        "test_fraction": args.test_fraction,
        "threshold": args.threshold,
        "classifier": args.classifier,
        "mask_pair_edge": args.mask_pair_edge,
        "threads": threads,
        "out": str(args.out),
        "heatmap": str(args.heatmap) if args.heatmap else None,
    }
    _write_manifest(args.out, "sweep", params, seeds, args.graph, wall)
    if args.heatmap:
        render_heatmap(result, "f1", args.heatmap)
        _write_manifest(args.heatmap, "sweep", params, seeds, args.graph, wall)
    failures = [c for c in result.cells if c.error is not None]
    for c in failures:
        print(f"cell a={c.a} b={c.b} {c.strategy} seed={c.seed} failed: {c.error}", file=sys.stderr)
    print(
        f"wrote {len(result.cells)} cells ({len(failures)} failed) to {args.out} in {wall:.1f}s",
        file=sys.stderr,
    )
    return 0


def _build_config(args) -> FeatureConfig:
    """The feature settings of train and eval, after checking their flags."""
    if args.strategy not in STRATEGY_KINDS:
        raise UsageError(f"unknown strategy {args.strategy!r}, expected one of {STRATEGY_KINDS}")
    if args.balance <= 0:
        raise UsageError(f"--balance must be > 0, got {args.balance}")
    return FeatureConfig(
        a=args.a,
        b=args.b,
        strategy=_make_strategy(args.strategy, args.seed),
        mask_pair_edge=args.mask_pair_edge,
        seed=args.seed,
    )


def _cmd_train(args) -> int:
    start = time.perf_counter()
    config = _build_config(args)
    g = load_edge_list(args.graph)
    clf, parts = fit(
        g,
        config,
        classifier=args.classifier,
        balance_ratio=None if args.no_balance else args.balance,
        test_fraction=args.test_fraction,
    )
    clf.featurize_config = config_to_dict(config)
    save_model(clf, args.out)
    wall = time.perf_counter() - start
    for name, X, y in (("train", parts.Xtrain, parts.ytrain), ("test", parts.Xtest, parts.ytest)):
        pred = (predict_scores(clf, X) >= args.threshold).astype(int)
        r = metrics(confusion(y, pred))
        print(f"{name}: precision={r.precision:.4f} recall={r.recall:.4f} f1={r.f1:.4f}", file=sys.stderr)
    params = {
        "a": args.a,
        "b": args.b,
        "strategy": args.strategy,
        "balance": None if args.no_balance else args.balance,
        "test_fraction": args.test_fraction,
        "threshold": args.threshold,
        "classifier": args.classifier,
        "mask_pair_edge": args.mask_pair_edge,
        "out": str(args.out),
    }
    _write_manifest(args.out, "train", params, [args.seed], args.graph, wall)
    print(f"saved model to {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    config = _build_config(args)
    g = load_edge_list(args.graph)
    runs = [("balanced", args.balance)]
    if not args.skip_unbalanced:
        runs.append(("unbalanced", None))
    csv_rows = []
    for name, ratio in runs:
        start = time.perf_counter()
        report = run_experiment(
            g,
            config,
            classifier=args.classifier,
            balance_ratio=ratio,
            test_fraction=args.test_fraction,
            threshold=args.threshold,
        )
        wall_ms = (time.perf_counter() - start) * 1000.0
        ratio_text = f"negative ratio {ratio}" if ratio is not None else "all candidate pairs"
        print(f"{name} test metrics ({ratio_text}):")
        print(format_report(report))
        print()
        if name == "balanced":
            csv_rows.append(csv_cell_row(SweepCell(args.a, args.b, args.strategy, args.seed, report, wall_ms)))
    if args.csv:
        print(",".join(CSV_HEADER))
        for row in csv_rows:
            print(",".join(row))
    return 0


def _cmd_complete(args) -> int:
    if args.max_steps is not None and args.max_steps < 0:
        raise UsageError(f"--max-steps must be >= 0, got {args.max_steps}")
    start = time.perf_counter()
    clf = load_model(args.model)
    if clf.featurize_config is None:
        raise ValueError("model document carries no featurize settings; retrain with this tool")
    config = config_from_dict(clf.featurize_config)
    g = load_edge_list(args.graph)
    cfg = CompletionConfig(epsilon=args.epsilon, mode=args.mode, max_steps=args.max_steps)
    trace = complete(g, clf, cfg, config)
    with open(args.out, "w", encoding="utf-8") as f:
        for step, batch in enumerate(trace.batches, 1):
            for u, v, score in batch:
                f.write(f"{step} {g.labels[u]} {g.labels[v]} {score:.6f}\n")
    wall = time.perf_counter() - start
    params = {
        "model": str(args.model),
        "epsilon": args.epsilon,
        "mode": args.mode,
        "max_steps": args.max_steps,
        "out": str(args.out),
        "featurize_config": clf.featurize_config,
    }
    _write_manifest(args.out, "complete", params, [config.seed], args.graph, wall)
    added = len(trace.added_edges)
    print(
        f"added {added} edge(s) over {len(trace.batches)} step(s); "
        f"graph now has {trace.final_graph.edge_count} edges",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_common_pipeline_flags(p: argparse.ArgumentParser, single_strategy: bool) -> None:
    if single_strategy:
        p.add_argument("--strategy", default="degree", help="neighbor ordering: " + ",".join(STRATEGY_KINDS))
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="pipeline seed (default 42)")
    p.add_argument("--balance", type=float, default=1.0, help="negatives kept per positive (default 1.0)")
    p.add_argument("--test-fraction", type=float, default=0.25, help="test share of rows (default 0.25)")
    p.add_argument("--threshold", type=float, default=0.5, help="positive-label score cutoff (default 0.5)")
    p.add_argument("--classifier", default="forest", choices=("forest", "tree", "logistic"))
    p.add_argument("--mask-pair-edge", action="store_true", help="hide the pair's own edge from its features")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ab-linkpred", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ab-linkpred {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("stats", help="print node/edge counts and average degree")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("centrality", help="print nodes ranked by a centrality measure")
    p.add_argument("graph")
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("--top", type=int, default=None, help="print only the k best nodes")
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("sweep", help="run the full (a, b) grid and write a CSV")
    p.add_argument("graph")
    p.add_argument("--a-max", type=int, default=5)
    p.add_argument("--b-max", type=int, default=5)
    p.add_argument("--strategy", default="degree,betweenness,random", help="comma-separated strategies")
    p.add_argument("--seeds", default=str(DEFAULT_SEED), help="comma-separated seeds (default 42)")
    _add_common_pipeline_flags(p, single_strategy=False)
    p.add_argument("--no-balance", action="store_true", help="keep every candidate pair")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--heatmap", default=None, help="also render an SVG F1 heatmap")
    p.add_argument("--threads", type=int, default=None, help="worker threads (default $AB_LINKPRED_THREADS or 1)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("train", help="train a model and save it as JSON")
    p.add_argument("graph")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_common_pipeline_flags(p, single_strategy=True)
    p.add_argument("--no-balance", action="store_true", help="train on every candidate pair")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="run one cell and print its metrics")
    p.add_argument("graph")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_common_pipeline_flags(p, single_strategy=True)
    p.add_argument("--skip-unbalanced", action="store_true", help="only report the balanced run")
    p.add_argument("--csv", action="store_true", help="also print the balanced run as a CSV row")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("complete", help="add high-scoring edges to a graph")
    p.add_argument("graph")
    p.add_argument("--model", required=True, help="model JSON written by train")
    p.add_argument("--epsilon", type=float, required=True, help="score threshold in [0, 1]")
    p.add_argument("--mode", default="noniterative", choices=("iterative", "noniterative"))
    p.add_argument("--max-steps", type=int, default=None, help="iterative step cap (default: run to fixpoint)")
    p.add_argument("--out", required=True, help="added-edges output path")
    p.set_defaults(func=_cmd_complete)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help / --version paths
        return 0 if err.code in (0, None) else int(err.code)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
