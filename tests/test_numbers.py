"""Every numeric option goes through the one rule of its kind: as_int for
counts and seeds, as_real for real numbers (as_unit for thresholds). A bool,
a string, NaN and an infinity are refused with a ValueError that names the
option, and so is an integer beyond the float range where a real number is
wanted; a numpy number is kept as a Python int or float."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ab_linkpred import CompletionConfig, FeatureConfig, Strategy, balanced_dataset, split, sweep, train
from ab_linkpred import evaluate
from ab_linkpred.model import _merged_params, predict_label, predict_scores

from graphgen import graph_from_edges, two_cliques_edges

CONFIG = FeatureConfig(a=1, b=0, strategy=Strategy("degree"))
ACCEPTED = "accepted"  # a probe whose call keeps no value to show


def _accepted(result) -> str:
    return ACCEPTED


def _sweep_pools(ctx, a_max, b_max):
    """The pools sweep builds its (a, b, strategy, seed) grid from, with no cell run."""
    pools = []
    ctx.monkeypatch.setattr(evaluate, "product", lambda *args: pools.extend(args) or [])
    sweep(ctx.g, a_max, b_max, ["degree"], [1])
    return pools


def _forest(key):
    return lambda ctx, v: _merged_params("forest", {key: v})[key]


def _logistic(key):
    return lambda ctx, v: _merged_params("logistic", {key: v})[key]


# (option, probe returning the kept value); the option's last word is the
# name its error message starts with.
INTEGER_OPTIONS = [
    ("a", lambda ctx, v: FeatureConfig(a=v, b=0, strategy=Strategy("degree")).a),
    ("b", lambda ctx, v: FeatureConfig(a=1, b=v, strategy=Strategy("degree")).b),
    ("seed", lambda ctx, v: FeatureConfig(a=1, b=0, strategy=Strategy("degree"), seed=v).seed),
    ("a_max", lambda ctx, v: _sweep_pools(ctx, v, 0)[0][-1]),
    ("b_max", lambda ctx, v: _sweep_pools(ctx, 1, v)[1][-1]),
    ("max_steps", lambda ctx, v: CompletionConfig(epsilon=0.5, mode="iterative", max_steps=v).max_steps),
    ("tree_count", _forest("tree_count")),
    ("min_leaf", _forest("min_leaf")),
    ("max_depth", _forest("max_depth")),
    ("feature_subsample", _forest("feature_subsample")),
    ("epochs", _logistic("epochs")),
]
REAL_OPTIONS = [
    ("learning_rate", _logistic("learning_rate")),
    ("l2", _logistic("l2")),
    ("test_fraction", lambda ctx, v: split(ctx.data, v, 1).test_fraction),
    ("balance negative_ratio", lambda ctx, v: _accepted(balanced_dataset(ctx.g, CONFIG, v))),
    ("score_rows threshold", lambda ctx, v: _accepted(evaluate.score_rows(ctx.clf, ctx.data.X, ctx.data.y, v))),
    ("epsilon", lambda ctx, v: CompletionConfig(epsilon=v, mode="noniterative").epsilon),
    ("floor", lambda ctx, v: _accepted(predict_scores(ctx.clf, ctx.data.X, floor=v))),
    ("predict_label threshold", lambda ctx, v: _accepted(predict_label(ctx.clf, ctx.data.X[0], v))),
]


def _cases(options, values):
    return [pytest.param(option, probe, value, kept, id=f"{option}-{value_id}")
            for option, probe in options for value_id, value, kept in values]


# (value id, value, the value kept); None is a ValueError naming the option.
REFUSED = [("bool", True, None), ("str", "1", None), ("nan", math.nan, None), ("inf", math.inf, None)]
CASES = (_cases(INTEGER_OPTIONS, REFUSED + [("10**400", 10**400, 10**400), ("numpy", np.int64(2), 2)])
         + _cases(REAL_OPTIONS, REFUSED + [("10**400", 10**400, None), ("numpy", np.float64(0.5), 0.5)]))


@pytest.fixture(scope="module")
def parts():
    g = graph_from_edges(two_cliques_edges(4))
    data = balanced_dataset(g, CONFIG, 1.0)
    return g, data, train(data.X, data.y, kind="tree")


@pytest.fixture()
def ctx(parts, monkeypatch):
    g, data, clf = parts
    return SimpleNamespace(g=g, data=data, clf=clf, monkeypatch=monkeypatch)


@pytest.mark.parametrize("option,probe,value,kept", CASES)
def test_a_numeric_option_is_refused_by_name_or_kept_as_a_python_number(ctx, option, probe, value, kept):
    if kept is None:
        with pytest.raises(ValueError, match=rf"^{option.split()[-1]} must be "):
            probe(ctx, value)
        return
    result = probe(ctx, value)
    assert result == ACCEPTED or (type(result) is type(kept) and result == kept)
