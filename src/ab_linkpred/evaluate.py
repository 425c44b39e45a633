"""Confusion counting, precision/recall/F1, experiment runner, grid sweeps.

A sweep cell is one full pipeline run: featurize, balance, stratified
split, train, score the test rows, count. Cells run one after another and
every random choice derives from the cell's seed, so a sweep is
reproducible whatever the number of CPUs its forests are grown on.
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass
from inspect import signature

import numpy as np

from ._seeds import as_int, as_unit, derive_seed
from ._streams import open_stream
from .centrality import CentralityTable, Strategy, table_for
from .featurize import (FeatureConfig, Split, _as_ratio, _as_test_fraction, balanced_dataset, build_dataset,
                        config_to_dict, split)
from .graph import Graph
from .model import DEFAULT_THRESHOLD, Classifier, _as_labels, _merged_params, predict_scores, train


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Standard binary confusion counts; inputs must be equal-length 0/1
    vectors (see model._as_labels), else ValueError."""
    t = _as_labels(y_true, np.size(y_true))
    p = _as_labels(y_pred, len(t))
    tp = int(((t == 1) & (p == 1)).sum())
    fp = int(((t == 0) & (p == 1)).sum())
    fn = int(((t == 1) & (p == 0)).sum())
    tn = int(((t == 0) & (p == 0)).sum())
    return ConfusionCounts(tp, fp, fn, tn)


def metrics(c: ConfusionCounts) -> MetricsReport:
    """Precision, recall, F1 from exact counts.

    Zero denominators (all-negative predictions or truths) yield 0 rather
    than an error so degenerate sweep cells still produce a record. F1 is
    computed as 2tp / (2tp + fp + fn), never from rounded precision/recall.
    """
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2.0 * c.tp / (2.0 * c.tp + c.fp + c.fn) if 2 * c.tp + c.fp + c.fn else 0.0
    return MetricsReport(precision, recall, f1, c)


def format_report(r: MetricsReport) -> str:
    """Aligned text block for terminal output."""
    c = r.counts
    lines = [
        f"tp         {c.tp:>10d}",
        f"fp         {c.fp:>10d}",
        f"fn         {c.fn:>10d}",
        f"tn         {c.tn:>10d}",
        f"precision  {r.precision:>10.6f}",
        f"recall     {r.recall:>10.6f}",
        f"f1         {r.f1:>10.6f}",
    ]
    return "\n".join(lines)


def cell_config(a: int, b: int, kind: str, seed: int, mask_pair_edge: bool = False) -> FeatureConfig:
    """The FeatureConfig of one (a, b, strategy, seed) cell. The seed drives
    every randomized stage, and the neighbor shuffle too when kind is random."""
    strategy = Strategy(kind, seed=seed if kind == "random" else None)
    return FeatureConfig(a=a, b=b, strategy=strategy, mask_pair_edge=mask_pair_edge, seed=seed)


def score_rows(clf: Classifier, X, y, threshold: float = DEFAULT_THRESHOLD) -> MetricsReport:
    """Label rows X positive where clf scores them >= threshold, and count
    those labels against the true labels y. threshold must be a number in
    [0, 1] (see as_unit), else ValueError."""
    threshold = as_unit(threshold, "threshold")
    y_pred = (predict_scores(clf, X) >= threshold).astype(np.int8)
    return metrics(confusion(y, y_pred))


def fit(
    g: Graph,
    config: FeatureConfig,
    *,
    classifier: str = "forest",
    classifier_params: dict | None = None,
    balance_ratio: float | None = 1.0,
    test_fraction: float = 0.25,
    table: CentralityTable | None = None,
) -> tuple[Classifier, Split]:
    """Featurize, balance, split and train; fully determined by config.seed.

    balance_ratio None skips balancing and keeps every candidate pair.
    Balancing happens before feature extraction (the kept-row choice only
    needs labels), which is output-identical to extracting everything first
    and then subsampling. The model carries config as its featurize_config.
    These are the pipeline's options; run_experiment and sweep pass theirs on.
    """
    if balance_ratio is None:
        data = build_dataset(g, config, table=table)
    else:
        data = balanced_dataset(g, config, balance_ratio, config.seed, table=table)
    parts = split(data, test_fraction, config.seed)
    clf = train(
        parts.Xtrain,
        parts.ytrain,
        kind=classifier,
        params=classifier_params,
        seed=derive_seed(config.seed, "train"),
    )
    clf.featurize_config = config_to_dict(config)
    return clf, parts


def run_experiment(g: Graph, config: FeatureConfig, *, threshold: float = DEFAULT_THRESHOLD,
                   **fit_options) -> MetricsReport:
    """One full pipeline run: fit with fit_options (fit's keyword options),
    then score and count the test rows. threshold is checked before training."""
    threshold = as_unit(threshold, "threshold")
    clf, parts = fit(g, config, **fit_options)
    return score_rows(clf, parts.Xtest, parts.ytest, threshold)


@dataclass
class SweepCell:
    """Result of one (a, b, strategy, seed) cell, or its failure."""

    a: int
    b: int
    strategy: str
    seed: int
    report: MetricsReport | None
    wall_ms: float
    error: str | None = None


@dataclass
class SweepResult:
    cells: list[SweepCell]


def _as_grid_max(value, name: str, low: int) -> int:
    """a_max (low 1) or b_max (low 0) checked: an integer >= low (see
    as_int) whose grid axis range(low, value + 1) has at most sys.maxsize
    values: a longer axis could never be walked to its end, since no list,
    SweepResult.cells included, holds more than sys.maxsize cells."""
    value = as_int(value, name, low)
    if value - low >= sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize + low - 1} to enumerate the grid, got {value}")
    return value


def sweep(
    g: Graph,
    a_max: int,
    b_max: int,
    strategies,
    seeds,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    mask_pair_edge: bool = False,
    threads: int = 1,
    **fit_options,
) -> SweepResult:
    """Run every cell of the grid a in 1..a_max, b in 0..b_max, one after
    another in the calling thread, in canonical (a, b, strategy, seed) order.

    strategies and seeds may be any iterables; each is taken once. Every
    cell runs run_experiment with fit_options, fit's keyword options except
    table. Those, threshold, each seed and each strategy are checked before
    the first cell: an unknown option is a TypeError, and a bad threshold,
    seed or strategy, or an option value every cell would refuse (by the
    rules of train, balanced_dataset and split) a ValueError, at the call,
    as is an a_max or b_max past the index range. The grid is walked
    lazily, so its size costs nothing until its cells run, and an empty
    strategy or seed list gives no cells at once. A cell that fails records
    "ExceptionType: message" as its error, in place, and the sweep
    continues. Centrality tables are computed once per measure and shared.
    threads is accepted for compatibility, to no effect.
    """
    threshold = as_unit(threshold, "threshold")
    unknown = fit_options.keys() - (signature(fit).parameters.keys() - {"g", "config", "table"})
    if unknown:
        raise TypeError(f"sweep() got unexpected keyword arguments {sorted(unknown)}")
    options = signature(fit).bind(g, None, **fit_options)
    options.apply_defaults()
    _merged_params(options.arguments["classifier"], options.arguments["classifier_params"])
    if options.arguments["balance_ratio"] is not None:
        _as_ratio(options.arguments["balance_ratio"])
    _as_test_fraction(options.arguments["test_fraction"])
    a_max, b_max = _as_grid_max(a_max, "a_max", 1), _as_grid_max(b_max, "b_max", 0)
    seeds = sorted(as_int(seed, "seed") for seed in seeds)
    strategies = list(strategies)
    # Any seed will do: Strategy only needs one to accept the random kind.
    tables = {kind: table_for(g, Strategy(kind, seed=0)) for kind in set(strategies)}
    strategies.sort()

    cells = []
    grid = ((a, b, kind, seed) for a in range(1, a_max + 1) for b in range(b_max + 1)
            for kind in strategies for seed in seeds)
    for a, b, kind, seed in grid if strategies and seeds else ():
        start = time.perf_counter()
        try:
            config = cell_config(a, b, kind, seed, mask_pair_edge)
            report = run_experiment(g, config, threshold=threshold, table=tables[kind], **fit_options)
            error = None
        except Exception as err:  # cell isolation: any stage failure is recorded
            report = None
            error = f"{type(err).__name__}: {err}"
        wall_ms = (time.perf_counter() - start) * 1000.0
        cells.append(SweepCell(a, b, kind, seed, report, wall_ms, error))
    return SweepResult(cells=cells)


CSV_HEADER = ["a", "b", "strategy", "seed", "precision", "recall", "f1", "tp", "fp", "fn", "tn", "wall_ms"]


def export_csv(result: SweepResult, sink) -> None:
    """Fixed-column CSV, one row per cell; failed cells keep their slot with
    empty metric fields so the grid stays complete."""
    if not result.cells:
        raise ValueError("cannot export an empty sweep result")
    with open_stream(sink, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for cell in result.cells:
            r = cell.report
            if r is None:
                body = [""] * 7
            else:
                c = r.counts
                body = [repr(r.precision), repr(r.recall), repr(r.f1), c.tp, c.fp, c.fn, c.tn]
            writer.writerow([cell.a, cell.b, cell.strategy, cell.seed, *body, f"{cell.wall_ms:.3f}"])


def _ramp(t: float) -> str:
    """Sequential light-to-dark blue ramp over [0, 1]."""
    t = min(1.0, max(0.0, t))
    lo = (247, 251, 255)
    hi = (8, 48, 107)
    r, g, b = (round(lo[i] + t * (hi[i] - lo[i])) for i in range(3))
    return f"rgb({r},{g},{b})"


def render_heatmap(result: SweepResult, metric: str = "f1", sink=None) -> str:
    """SVG grid of the chosen metric: rows are a ascending top to bottom,
    columns are b ascending left to right, one panel per strategy.

    Cell values are means over seeds; each cell is one rectangle annotated
    with the value to 2 decimals on a color ramp fixed to [0, 1]. Returns
    the SVG text and writes it when a sink is given.
    """
    if not result.cells:
        raise ValueError("cannot render an empty sweep result")
    if metric not in ("precision", "recall", "f1"):
        raise ValueError(f"metric must be precision, recall, or f1, got {metric!r}")
    a_values = sorted({c.a for c in result.cells})
    b_values = sorted({c.b for c in result.cells})
    strategies = sorted({c.strategy for c in result.cells})

    sums: dict[tuple[str, int, int], list[float]] = {}
    for cell in result.cells:
        if cell.report is not None:
            sums.setdefault((cell.strategy, cell.a, cell.b), []).append(getattr(cell.report, metric))

    cell_w, cell_h = 64, 40
    left, top, gap = 58, 52, 30
    panel_w = left + len(b_values) * cell_w + 12
    panel_h = top + len(a_values) * cell_h + 12
    width = len(strategies) * panel_w + (len(strategies) - 1) * gap
    height = panel_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">'
    ]
    for p, strategy in enumerate(strategies):
        ox = p * (panel_w + gap)
        parts.append(f'<text x="{ox + left}" y="16" font-size="14">{strategy} ({metric})</text>')
        for j, b in enumerate(b_values):
            parts.append(
                f'<text x="{ox + left + j * cell_w + cell_w // 2}" y="{top - 8}" text-anchor="middle">b={b}</text>'
            )
        for i, a in enumerate(a_values):
            parts.append(
                f'<text x="{ox + left - 8}" y="{top + i * cell_h + cell_h // 2 + 4}" text-anchor="end">a={a}</text>'
            )
            for j, b in enumerate(b_values):
                x = ox + left + j * cell_w
                y = top + i * cell_h
                got = sums.get((strategy, a, b))
                if got:
                    val = sum(got) / len(got)
                    fill = _ramp(val)
                    text_fill = "#ffffff" if val > 0.55 else "#1a1a1a"
                    label = f"{val:.2f}"
                else:
                    fill = "#dddddd"
                    text_fill = "#1a1a1a"
                    label = ""
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                    f'fill="{fill}" stroke="#ffffff"/>'
                )
                if label:
                    parts.append(
                        f'<text x="{x + cell_w // 2}" y="{y + cell_h // 2 + 4}" '
                        f'text-anchor="middle" fill="{text_fill}">{label}</text>'
                    )
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if sink is not None:
        with open_stream(sink, "w", encoding="utf-8") as stream:
            stream.write(svg)
    return svg
