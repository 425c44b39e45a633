"""Every writer accepts a path or an open stream: both give the same bytes,
and a stream the caller passed in stays open. Readers close what they open."""

import builtins
import io

import pytest

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
    for source in (path, str(path), binary, text, data, data.decode()):
        assert save_model(load_model(source)) == data
    assert not binary.closed and not text.closed
