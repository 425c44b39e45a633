"""Command-line entry point: stats, centrality, sweep, train, eval, complete.

Exit codes: 0 success, 1 usage error, 2 data or model error, 130 stopped by
Ctrl-C (SIGINT), with one stderr line and no traceback. Any flag value
that is out of range or conflicts with another flag is a usage error, and so
is an output path that names an input, another output or a directory, or
whose directory is missing; flags and output paths are checked before any
file is read. Each input file is read once. Diagnostics go to stderr;
machine-readable output (CSV, SVG, JSON, completion edges) goes to files, or
to stdout only where a subcommand defines it. Every output file gets a
``<file>.manifest.json`` sidecar recording the resolved parameters, seeds,
the sha256 of the graph bytes the run parsed, tool version, and wall time;
a completion manifest also lists each step's scored non-edges and added
edges.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import os
import sys
import time

from . import __version__
from ._seeds import as_int, as_unit
from ._streams import open_stream
from .centrality import MEASURES, STRATEGY_KINDS, Strategy, _ranked, centrality_table
from .evaluate import (
    SweepCell,
    SweepResult,
    _as_grid_max,
    cell_config,
    export_csv,
    fit,
    format_report,
    render_heatmap,
    run_experiment,
    score_rows,
    sweep,
)
from .featurize import FeatureConfig, _as_ratio, _as_test_fraction
from .graph import Graph, load_edge_list, stats
from .model import DEFAULT_PARAMS, DEFAULT_THRESHOLD, load_model, save_model
from .predict import MODES, CompletionConfig, complete


class UsageError(Exception):
    """Bad flags or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _checked(cast, want: str, rule=lambda value: value, *, many: bool = False):
    """An argparse type= converter: cast the text (each item of a
    comma-separated list when many), which must read as want, and pass every
    value through rule, the library's own check of it, which returns the
    value or raises ValueError. A bad value is a usage error raised while
    parsing, before any file is read. argparse also converts a string
    default."""

    def convert(text: str):
        parts = [part.strip() for part in text.split(",") if part.strip()] if many else [text]
        try:
            values = [cast(part) for part in parts]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        try:
            values = [rule(value) for value in values]
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
        return values if many else values[0]

    return convert


_AT_LEAST_1 = _checked(int, "an integer", lambda n: as_int(n, "value", 1))
_AT_LEAST_0 = _checked(int, "an integer", lambda n: as_int(n, "value", 0))
_A_MAX = _checked(int, "an integer", lambda n: _as_grid_max(n, "a_max", 1))
_B_MAX = _checked(int, "an integer", lambda n: _as_grid_max(n, "b_max", 0))
_UNIT = _checked(float, "a number", lambda x: as_unit(x, "value"))
_FRACTION = _checked(float, "a number", _as_test_fraction)
_POSITIVE = _checked(float, "a number", _as_ratio)
# Any seed will do: Strategy only needs one to accept the random kind.
_STRATEGIES = _checked(str, "comma-separated strategies", lambda kind: Strategy(kind, seed=0).kind, many=True)
_SEEDS = _checked(int, "comma-separated integers", many=True)


def _load_graph(path: str) -> tuple[Graph, str]:
    """The graph in the file at path, and the sha256 of the bytes it was
    parsed from. The file is read once, so the digest is that of the graph
    the run used, even from a pipe, and it is taken before any output is
    written. The bytes decode as open(path, encoding="utf-8") decodes them."""
    with open_stream(path, "rb") as f:
        data = f.read()
    return load_edge_list(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")), hashlib.sha256(data).hexdigest()


def _check_outputs(inputs: list[str], outputs: list[str | None]) -> None:
    """Refuse, as a usage error raised before any file is read, an output or
    its manifest sidecar that names an input, another output or an existing
    directory, or whose directory is missing. Two paths name one file when
    they resolve to the same path or, where both exist, are the same file."""
    taken = list(inputs)
    for path in [str(out) + suffix for out in outputs if out for suffix in ("", ".manifest.json")]:
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise UsageError(f"cannot write {path}: its directory does not exist")
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path}: it is a directory")
        for other in taken:
            if os.path.realpath(path) == os.path.realpath(other) or (
                    os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)):
                raise UsageError(f"cannot write {path}: it would overwrite {other}")
        taken.append(path)


def _fit_options(args) -> dict:
    """evaluate.fit's keyword options from the flags that sweep, train and eval share."""
    return {
        "classifier": args.classifier,
        "balance_ratio": None if args.no_balance else args.balance,
        "test_fraction": args.test_fraction,
    }


def _pipeline_params(args) -> dict:
    """Manifest entries of the flags that sweep and train share."""
    return {
        "balance": _fit_options(args)["balance_ratio"],
        "test_fraction": args.test_fraction,
        "threshold": args.threshold,
        "classifier": args.classifier,
        "mask_pair_edge": args.mask_pair_edge,
        "out": str(args.out),
    }


def _write_manifest(
    out_path: str, subcommand: str, params: dict, seeds: list[int], input_digest: str, wall_s: float, extra: dict | None = None
) -> None:
    """Write out_path's manifest sidecar. input_digest is the sha256 of the
    graph bytes the run parsed (see _load_graph)."""
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "seeds": seeds,
        "input_digest": input_digest,
        "wall_time_s": round(wall_s, 3),
        **(extra or {}),
    }
    with open_stream(str(out_path) + ".manifest.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_stats(args) -> int:
    g, _ = _load_graph(args.graph)
    s = stats(g)
    if g.skipped_self_loops:
        print(f"skipped {g.skipped_self_loops} self-loop line(s)", file=sys.stderr)
    print(f"nodes={s.nodes} edges={s.edges} avg_degree={s.avg_degree:.2f}")
    return 0


def _cmd_centrality(args) -> int:
    g, _ = _load_graph(args.graph)
    table = centrality_table(g, args.measure)
    for v in _ranked(table, range(1, g.node_count + 1))[: args.top]:
        print(f"{g.labels[v]} {table.values[v]:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    _check_outputs([args.graph], [args.out, args.heatmap])
    start = time.perf_counter()
    g, digest = _load_graph(args.graph)
    result = sweep(
        g,
        args.a_max,
        args.b_max,
        args.strategy,
        args.seeds,
        threshold=args.threshold,
        mask_pair_edge=args.mask_pair_edge,
        threads=args.threads,
        **_fit_options(args),
    )
    export_csv(result, args.out)
    wall = time.perf_counter() - start
    params = {
        "a_max": args.a_max,
        "b_max": args.b_max,
        "strategies": args.strategy,
        "threads": args.threads,
        "heatmap": str(args.heatmap) if args.heatmap else None,
        **_pipeline_params(args),
    }
    _write_manifest(args.out, "sweep", params, args.seeds, digest, wall)
    if args.heatmap:
        render_heatmap(result, "f1", args.heatmap)
        _write_manifest(args.heatmap, "sweep", params, args.seeds, digest, wall)
    failures = [c for c in result.cells if c.error is not None]
    for c in failures:
        print(f"cell a={c.a} b={c.b} {c.strategy} seed={c.seed} failed: {c.error}", file=sys.stderr)
    print(
        f"wrote {len(result.cells)} cells ({len(failures)} failed) to {args.out} in {wall:.1f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_train(args) -> int:
    _check_outputs([args.graph], [args.out])
    start = time.perf_counter()
    g, digest = _load_graph(args.graph)
    clf, parts = fit(
        g,
        cell_config(args.a, args.b, args.strategy, args.seed, args.mask_pair_edge),
        **_fit_options(args),
    )
    save_model(clf, args.out)
    wall = time.perf_counter() - start
    for name, X, y in (("train", parts.Xtrain, parts.ytrain), ("test", parts.Xtest, parts.ytest)):
        r = score_rows(clf, X, y, args.threshold)
        print(f"{name}: precision={r.precision:.4f} recall={r.recall:.4f} f1={r.f1:.4f}", file=sys.stderr)
    params = {"a": args.a, "b": args.b, "strategy": args.strategy, **_pipeline_params(args)}
    _write_manifest(args.out, "train", params, [args.seed], digest, wall)
    print(f"saved model to {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    config = cell_config(args.a, args.b, args.strategy, args.seed, args.mask_pair_edge)
    g, _ = _load_graph(args.graph)
    options = _fit_options(args)
    runs = [("balanced", options.pop("balance_ratio"))]
    if not args.skip_unbalanced:
        runs.append(("unbalanced", None))
    cells = []
    for name, ratio in runs:
        start = time.perf_counter()
        report = run_experiment(g, config, threshold=args.threshold, balance_ratio=ratio, **options)
        wall_ms = (time.perf_counter() - start) * 1000.0
        ratio_text = f"negative ratio {ratio}" if ratio is not None else "all candidate pairs"
        print(f"{name} test metrics ({ratio_text}):")
        print(format_report(report))
        print()
        if name == "balanced":
            cells.append(SweepCell(args.a, args.b, args.strategy, args.seed, report, wall_ms))
    if args.csv:
        export_csv(SweepResult(cells), sys.stdout)
    return 0


def _cmd_complete(args) -> int:
    try:
        cfg = CompletionConfig(epsilon=args.epsilon, mode=args.mode, max_steps=args.max_steps)
    except ValueError as err:  # a flag conflict, such as --max-steps outside iterative mode
        raise UsageError(str(err)) from None
    _check_outputs([args.graph, args.model], [args.out])
    start = time.perf_counter()
    with open_stream(args.model, "rb") as stream:  # no reference to the model's bytes outlives the parse
        clf = load_model(stream)
    g, digest = _load_graph(args.graph)
    trace = complete(g, clf, cfg)
    with open_stream(args.out, "w", encoding="utf-8") as f:
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
    _write_manifest(args.out, "complete", params, [clf.featurize_config["seed"]], digest, wall,
                    {"steps": trace.steps})
    added = len(trace.added_edges)
    print(
        f"added {added} edge(s) over {len(trace.batches)} step(s); "
        f"graph now has {trace.final_graph.edge_count} edges",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


# fit owns the pipeline's defaults; the flags read theirs from it, and the
# seed and threshold defaults from FeatureConfig and model.DEFAULT_THRESHOLD.
_FIT_DEFAULTS = {name: param.default for name, param in inspect.signature(fit).parameters.items()}


def _add_common_pipeline_flags(p: argparse.ArgumentParser, single_strategy: bool) -> None:
    if single_strategy:
        p.add_argument("--a", type=_AT_LEAST_1, required=True)
        p.add_argument("--b", type=_AT_LEAST_0, required=True)
        p.add_argument("--strategy", default="degree", choices=STRATEGY_KINDS, help="neighbor ordering")
        p.add_argument("--seed", type=int, default=FeatureConfig.seed, help="pipeline seed (default %(default)s)")
    p.add_argument("--balance", type=_POSITIVE, default=_FIT_DEFAULTS["balance_ratio"],
                   help="negatives kept per positive (default %(default)s)")
    p.add_argument("--test-fraction", type=_FRACTION, default=_FIT_DEFAULTS["test_fraction"],
                   help="test share of rows (default %(default)s)")
    p.add_argument("--threshold", type=_UNIT, default=DEFAULT_THRESHOLD,
                   help="positive-label score cutoff (default %(default)s)")
    p.add_argument("--classifier", default=_FIT_DEFAULTS["classifier"], choices=tuple(DEFAULT_PARAMS))
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
    p.add_argument("--top", type=_AT_LEAST_1, default=None, help="print only the k best nodes")
    p.set_defaults(func=_cmd_centrality)

    p = sub.add_parser("sweep", help="run the full (a, b) grid and write a CSV")
    p.add_argument("graph")
    p.add_argument("--a-max", type=_A_MAX, default=5)
    p.add_argument("--b-max", type=_B_MAX, default=5)
    p.add_argument("--strategy", type=_STRATEGIES, default="degree,betweenness,random",
                   help="comma-separated strategies")
    p.add_argument("--seeds", type=_SEEDS, default=str(FeatureConfig.seed),
                   help="comma-separated seeds (default %(default)s)")
    _add_common_pipeline_flags(p, single_strategy=False)
    p.add_argument("--no-balance", action="store_true", help="keep every candidate pair")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--heatmap", default=None, help="also render an SVG F1 heatmap")
    p.add_argument("--threads", type=_AT_LEAST_1, default=1,
                   help="accepted for compatibility, to no effect; cap CPUs with the process's CPU affinity")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("train", help="train a model and save it as JSON")
    p.add_argument("graph")
    _add_common_pipeline_flags(p, single_strategy=True)
    p.add_argument("--no-balance", action="store_true", help="train on every candidate pair")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="run one cell and print its metrics")
    p.add_argument("graph")
    _add_common_pipeline_flags(p, single_strategy=True)
    p.add_argument("--skip-unbalanced", action="store_true", help="only report the balanced run")
    p.add_argument("--csv", action="store_true", help="also print the balanced run as a CSV row")
    p.set_defaults(func=_cmd_eval, no_balance=False)  # no flag: its second run is the unbalanced one

    p = sub.add_parser("complete", help="add high-scoring edges to a graph")
    p.add_argument("graph")
    p.add_argument("--model", required=True, help="model JSON written by train")
    p.add_argument("--epsilon", type=_UNIT, required=True, help="score threshold in [0, 1]")
    p.add_argument("--mode", default="noniterative", choices=MODES)
    p.add_argument("--max-steps", type=_AT_LEAST_0, default=None, help="iterative step cap (default: run to fixpoint)")
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
    except (ValueError, OSError, MemoryError) as err:  # numpy's MemoryError names the size it refused
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # 128 + SIGINT, as a shell reports a run that Ctrl-C stopped
        print("error: interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
