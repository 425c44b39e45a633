"""Every writer accepts a path or an open stream: both give the same bytes,
and a stream the caller passed in stays open. Readers close what they open."""

import ast
import builtins
import io
from pathlib import Path

import pytest

import ab_linkpred
from ab_linkpred import (
    EdgeListParseError,
    FeatureConfig,
    Strategy,
    build_dataset,
    export_csv,
    export_dataset_csv,
    load_edge_list,
    load_model,
    render_heatmap,
    save_model,
    sweep,
    train,
    write_edge_list,
)

from graphgen import graph_from_edges, two_cliques_edges


@pytest.fixture(scope="module")
def parts():
    g = graph_from_edges(two_cliques_edges(4))
    data = build_dataset(g, FeatureConfig(a=2, b=1, strategy=Strategy("degree")))
    result = sweep(g, 1, 0, ["degree"], [1], classifier_params={"tree_count": 2})
    clf = train(data.X, data.y, params={"tree_count": 2}, seed=1)
    return g, data, result, clf


WRITERS = {
    "export_csv": (lambda p, sink: export_csv(p[2], sink), io.StringIO),
    "export_dataset_csv": (lambda p, sink: export_dataset_csv(p[1], p[0], sink), io.StringIO),
    "write_edge_list": (lambda p, sink: write_edge_list(p[0], sink), io.StringIO),
    "render_heatmap": (lambda p, sink: render_heatmap(p[2], "f1", sink), io.StringIO),
    "save_model": (lambda p, sink: save_model(p[3], sink), io.BytesIO),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_path_and_stream_get_the_same_bytes_and_the_stream_stays_open(parts, tmp_path, name):
    write, make_stream = WRITERS[name]
    path = tmp_path / "out"
    write(parts, path)
    stream = make_stream()
    write(parts, stream)
    assert not stream.closed
    got = stream.getvalue()
    assert path.read_bytes() == (got.encode("utf-8") if isinstance(got, str) else got)
    assert got


def test_load_edge_list_closes_its_file_on_a_parse_error(tmp_path, monkeypatch):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n1 2 3\n")
    opened = []
    real_open = builtins.open

    def recording_open(*args, **kwargs):
        f = real_open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(builtins, "open", recording_open)
    with pytest.raises(EdgeListParseError):
        load_edge_list(path)
    monkeypatch.undo()
    assert len(opened) == 1 and opened[0].closed


def test_load_edge_list_leaves_a_passed_stream_open():
    stream = io.StringIO("1 2\n2 3\n")
    assert load_edge_list(stream).edge_count == 2
    assert not stream.closed


def test_load_model_reads_a_path_a_stream_or_a_document_alike(parts, tmp_path):
    data = save_model(parts[3])
    path = tmp_path / "model.json"
    path.write_bytes(data)
    binary, text = io.BytesIO(data), io.StringIO(data.decode())
    for source in (path, str(path), binary, text, data, bytearray(data), data.decode()):
        assert save_model(load_model(source)) == data
    assert not binary.closed and not text.closed


def test_load_model_reads_a_path_that_starts_with_a_brace(parts, tmp_path, monkeypatch):
    data = save_model(parts[3])
    (tmp_path / "{m}.json").write_bytes(data)
    monkeypatch.chdir(tmp_path)
    for source in ("{m}.json", str(tmp_path / "{m}.json"), Path("{m}.json")):
        assert save_model(load_model(source)) == data


def test_no_module_but_streams_calls_the_builtin_open():
    """_streams.open_stream is the one place a path is opened: no other src
    module calls the builtin open or a Path's read and write shortcuts."""
    src = Path(ab_linkpred.__file__).parent
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py")) if path.name != "_streams.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "open"
                and isinstance(node.func.value, ast.Name) and node.func.value.id in ("builtins", "io"))
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("read_bytes", "read_text", "write_bytes", "write_text")))
    ]
    assert callers == []


def test_only_model_scores_decides_the_int16_walk():
    """model._scores is the one place rows are narrowed to int16: no other
    function calls _narrows_to_int16, and no src module but model.py names
    int16."""
    src = Path(ab_linkpred.__file__).parent
    callers, namers = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:  # each call is named by the top-level definition it sits in
            callers += [f"{path.name}:{getattr(top, 'name', '<module>')}" for node in ast.walk(top)
                        if isinstance(node, ast.Call)
                        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "_narrows_to_int16"]
        if path.name != "model.py":
            namers += [f"{path.name}:{getattr(node, 'lineno', 0)}" for node in ast.walk(tree)
                       if "int16" in (getattr(node, "id", None) or getattr(node, "attr", None) or "")
                       or isinstance(node, ast.Constant) and isinstance(node.value, str) and "int16" in node.value]
    assert callers == ["model.py:_scores"]
    assert namers == []


def test_no_module_builds_a_dense_n_by_n_array_of_pairs():
    """featurize's sorted edge index is the one way pairs are enumerated and
    labelled: no src module calls np.tril_indices or Graph.adjacency."""
    src = Path(ab_linkpred.__file__).parent
    callers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in ("tril_indices", "adjacency")
    ]
    assert callers == []


def test_only_workers_forks_and_predict_reads_non_edge_rows_from_featurize():
    """_workers.py is the one src module that imports multiprocessing,
    signal or threading or asks for the usable CPUs, and predict.py takes
    its rows from featurize through _non_edge_rows, no other private name."""
    src = Path(ab_linkpred.__file__).parent
    process_modules = {"multiprocessing", "signal", "threading"}
    forkers, private = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else []
                if path.name == "predict.py" and node.module in ("featurize", None):
                    private += [alias.name for alias in node.names
                                if alias.name.startswith("_") or alias.name == "featurize"]
            else:
                modules = []
            if {module.split(".")[0] for module in modules} & process_modules or "sched_getaffinity" in (
                    getattr(node, "attr", None), getattr(node, "id", None)):
                forkers.append(path.name)
    assert sorted(set(forkers)) == ["_workers.py"]
    assert private == ["_non_edge_rows"]
