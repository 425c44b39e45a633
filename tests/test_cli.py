import argparse
import copy
import hashlib
import inspect
import json
import os
import subprocess
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ab_linkpred

from ab_linkpred import FeatureConfig, Strategy, balanced_dataset, load_model, save_model, split, train
from ab_linkpred import cli
from ab_linkpred._seeds import as_int, as_unit
from ab_linkpred.cli import _build_parser, main
from ab_linkpred.evaluate import _as_grid_max, export_csv, fit, run_experiment
from ab_linkpred.featurize import _as_ratio, _as_test_fraction, config_to_dict

from graphgen import community_edges, edge_text, gnm_edges, two_cliques_edges


@pytest.fixture()
def clique_file(tmp_path):
    path = tmp_path / "cliques.txt"
    path.write_text(edge_text(two_cliques_edges(6)))
    return path


@pytest.fixture()
def gnm_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(edge_text(gnm_edges(61, 270, seed=4)))
    return path


def run_python(*args, input=None):
    """`python ARGS` in a fresh interpreter that can import ab_linkpred, fed
    input on stdin, killed after 60 s."""
    src = os.path.dirname(os.path.dirname(ab_linkpred.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, args)],
                          input=input, capture_output=True, text=True, env=env, timeout=60)


def run_module(*args, module="ab_linkpred", input=None):
    """`python -m MODULE ARGS`, as run_python runs it."""
    return run_python("-m", module, *args, input=input)


def strip_wall_ms(csv_text):
    lines = csv_text.splitlines()
    assert lines[0].endswith(",wall_ms")
    return [line.rsplit(",", 1)[0] for line in lines]


@pytest.mark.parametrize("command", [["sweep", "--out", "s.csv"], ["train", "--a", "1", "--b", "0", "--out", "m.json"],
                                     ["eval", "--a", "1", "--b", "0"]], ids=["sweep", "train", "eval"])
def test_pipeline_flag_defaults_are_fits(command):
    args = _build_parser().parse_args([command[0], "g.txt", *command[1:]])
    defaults = {name: param.default for name, param in inspect.signature(fit).parameters.items()}
    assert (args.balance, args.test_fraction, args.classifier) == (
        defaults["balance_ratio"], defaults["test_fraction"], defaults["classifier"])
    assert args.threshold == inspect.signature(run_experiment).parameters["threshold"].default
    assert (args.seeds if command[0] == "sweep" else [args.seed]) == [FeatureConfig.seed]


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["stats", "x.txt", "--bogus"]) == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    assert main(["stats", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_stats_output_format(gnm_file, capsys):
    assert main(["stats", str(gnm_file)]) == 0
    assert capsys.readouterr().out == "nodes=61 edges=270 avg_degree=8.85\n"


@pytest.mark.parametrize("module", ["ab_linkpred", "ab_linkpred.cli"])
def test_python_dash_m_runs_the_cli(gnm_file, module):
    done = run_module("stats", gnm_file, module=module)
    assert done.returncode == 0
    assert done.stdout == "nodes=61 edges=270 avg_degree=8.85\n"


@pytest.mark.parametrize("corruption", ["feature_out_of_range", "child_points_to_itself"])
def test_complete_rejects_unsafe_tree_with_exit_2(clique_file, tmp_path, corruption):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "1", "--b", "0", "--seed", "5", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    tree = doc["payload"]["trees"][0]
    node = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
    if corruption == "feature_out_of_range":
        tree["feature"][node] = 99  # rows have 4 columns
    else:
        tree["left"][node] = tree["right"][node] = node  # walks would spin here forever
    model.write_text(json.dumps(doc))
    done = run_module("complete", clique_file, "--model", model, "--epsilon", "0.5",
                      "--mode", "iterative", "--out", tmp_path / "added.txt")
    assert done.returncode == 2
    assert "malformed model payload" in done.stderr
    assert "Traceback" not in done.stderr


def test_complete_rejects_a_deeply_nested_model_with_exit_2(clique_file, tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", "0.5",
                 "--out", str(tmp_path / "added.txt")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model document is not valid JSON")


def test_complete_rejects_non_integer_feature_settings_with_exit_2(clique_file, tmp_path):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "2", "--b", "1", "--seed", "5", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["featurize_config"].update(a=2.0, b=1.0)
    model.write_text(json.dumps(doc))
    done = run_module("complete", clique_file, "--model", model, "--epsilon", "0.5",
                      "--mode", "iterative", "--out", tmp_path / "added.txt")
    assert done.returncode == 2
    assert "must be an integer" in done.stderr
    assert "Traceback" not in done.stderr


def test_complete_rejects_a_fractional_model_seed_with_exit_2(clique_file, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "2", "--b", "1", "--seed", "5", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["seed"] = 1.5  # once read as 1, so a re-save changed the bytes
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", "0.5",
                 "--out", str(tmp_path / "added.txt")]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer, got 1.5\n"
    assert not (tmp_path / "added.txt").exists()


def test_complete_rejects_a_fractional_split_column_with_exit_2(clique_file, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "2", "--b", "1", "--seed", "5", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["payload"]["trees"][0]["feature"][0] = 0.4
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", "0.5",
                 "--out", str(tmp_path / "added.txt")]) == 2
    assert capsys.readouterr().err == "error: malformed model document: feature must be an array of JSON integers\n"
    assert not (tmp_path / "added.txt").exists()


def test_complete_rejects_a_tree_model_with_two_trees_with_exit_2(clique_file, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "2", "--b", "1", "--seed", "5", "--classifier", "tree",
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["payload"]["trees"] *= 2
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", "0.5",
                 "--out", str(tmp_path / "added.txt")]) == 2
    assert capsys.readouterr().err == "error: malformed model payload: a tree model holds exactly one tree, got 2\n"
    assert not (tmp_path / "added.txt").exists()


# a=100000 b=1000 rows hold 2 * (10**5 + 10**13) + 2 values. The first array
# of that width, one block per node of the 61-node graph, needs 2.2 PiB, far
# beyond any address space, so numpy refuses it before allocating anything.
HUGE_A, HUGE_B = 100_000, 1000


def _assert_one_memory_error_line(err: str) -> None:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "PiB" in lines[0]


def test_train_with_an_unallocatable_feature_size_exits_2(gnm_file, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["train", str(gnm_file), "--a", str(HUGE_A), "--b", str(HUGE_B), "--out", str(model)]) == 2
    _assert_one_memory_error_line(capsys.readouterr().err)
    assert not model.exists()


def test_complete_with_an_unallocatable_feature_size_exits_2(gnm_file, tmp_path, capsys):
    config = {"a": HUGE_A, "b": HUGE_B, "strategy_kind": "degree", "strategy_seed": None,
              "mask_pair_edge": False, "seed": 1}
    leaf = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [0.5]}
    doc = {"version": 1, "kind": "forest", "hyperparameters": {}, "seed": 1, "featurize_config": config,
           "feature_length": 2 * (HUGE_A + HUGE_A * HUGE_A * HUGE_B) + 2, "payload": {"trees": [leaf]}}
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    assert main(["complete", str(gnm_file), "--model", str(model), "--epsilon", "0.5",
                 "--out", str(tmp_path / "added.txt")]) == 2
    _assert_one_memory_error_line(capsys.readouterr().err)


def test_centrality_output_sorted_descending(clique_file, capsys):
    assert main(["centrality", str(clique_file), "--measure", "degree", "--top", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    scores = [float(line.split()[1]) for line in lines]
    assert scores == sorted(scores, reverse=True)
    assert lines[0].split()[0] == "1"  # tie on degree resolves to first label


@pytest.mark.parametrize("measure", ["degree", "betweenness", "closeness"])
def test_centrality_of_comment_only_file_prints_nothing(tmp_path, capsys, measure):
    path = tmp_path / "comments.txt"
    path.write_text("# no edges\n#\n")
    assert main(["centrality", str(path), "--measure", measure]) == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ""


def test_sweep_writes_expected_rows_and_manifest(clique_file, tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        ["sweep", str(clique_file), "--a-max", "5", "--b-max", "5", "--strategy", "degree",
         "--seeds", "7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 31
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "sweep"
    assert manifest["seeds"] == [7]
    assert manifest["parameters"]["a_max"] == 5
    assert len(manifest["input_digest"]) == 64


@pytest.mark.parametrize("command", [["sweep", "--a-max", "1", "--b-max", "0", "--strategy", "degree"],
                                     ["train", "--a", "1", "--b", "0"]], ids=["sweep", "train"])
def test_the_manifest_digests_the_input_before_the_output_overwrites_it(clique_file, command):
    """No output may overwrite the input: the run is refused before it reads
    the graph, so no manifest ever digests a graph the run replaced."""
    graph = clique_file.read_bytes()
    assert main([command[0], str(clique_file), *command[1:], "--out", str(clique_file)]) == 1
    assert clique_file.read_bytes() == graph
    assert not clique_file.with_name(clique_file.name + ".manifest.json").exists()


def test_a_graph_piped_to_train_is_digested_from_the_bytes_it_parsed(clique_file, tmp_path):
    model = tmp_path / "m.json"
    run = run_module("train", "/dev/stdin", "--a", "1", "--b", "0", "--out", model, input=clique_file.read_text())
    assert run.returncode == 0, run.stderr
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["input_digest"] == hashlib.sha256(clique_file.read_bytes()).hexdigest()


def test_complete_reads_a_model_path_that_starts_with_a_brace(clique_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["train", str(clique_file), "--a", "1", "--b", "0", "--out", "{m}.json"]) == 0
    assert main(["complete", str(clique_file), "--model", "{m}.json", "--epsilon", "0.5", "--out", "added.txt"]) == 0
    assert (tmp_path / "added.txt.manifest.json").exists()


# Runs the CLI on sys.argv[1:] and prints its exit code and how many times
# it opened the file named by sys.argv[2], the graph, as counted by an audit hook.
COUNT_GRAPH_OPENS = """
import sys
from ab_linkpred.cli import main
opens = []
sys.addaudithook(lambda event, args: event == "open" and str(args[0]) == sys.argv[2] and opens.append(args))
print(main(sys.argv[1:]), len(opens))
"""


@pytest.mark.parametrize("command", [
    ["train", "--a", "1", "--b", "0", "--out", "m2.json"],
    ["sweep", "--a-max", "1", "--b-max", "0", "--strategy", "degree", "--out", "s.csv", "--heatmap", "s.svg"],
    ["complete", "--model", "m.json", "--epsilon", "0.5", "--out", "added.txt"],
], ids=["train", "sweep", "complete"])
def test_a_run_opens_its_graph_file_once(clique_file, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main(["train", str(clique_file), "--a", "1", "--b", "0", "--out", "m.json"]) == 0
    run = run_python("-c", COUNT_GRAPH_OPENS, command[0], clique_file, *command[1:])
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "1"]


# The refused runs other than --out naming the graph, which the manifest test above covers.
REFUSED_OUTPUTS = {
    "train_out_hard_link_to_graph": ["train", "GRAPH", "--a", "1", "--b", "0", "--out", "LINK"],
    "sweep_heatmap_out": ["sweep", "GRAPH", "--a-max", "1", "--b-max", "0", "--out", "s.csv", "--heatmap", "s.csv"],
    "sweep_out_in_missing_directory": ["sweep", "GRAPH", "--a-max", "1", "--b-max", "0", "--out", "nodir/s.csv"],
    "sweep_heatmap_manifest": ["sweep", "GRAPH", "--a-max", "1", "--b-max", "0", "--out", "s.csv",
                               "--heatmap", "s.csv.manifest.json"],
    "complete_out_model": ["complete", "GRAPH", "--model", "m.json", "--epsilon", "0.5", "--out", "m.json"],
    "train_out_directory": ["train", "GRAPH", "--a", "1", "--b", "0", "--out", "d"],
    "train_manifest_directory": ["train", "GRAPH", "--a", "1", "--b", "0", "--out", "m2.json"],
    "sweep_heatmap_directory": ["sweep", "GRAPH", "--a-max", "1", "--b-max", "0", "--out", "s.csv", "--heatmap", "d"],
}


def tree_bytes(root):
    """Every path under root, with its bytes if it is a file."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("argv", list(REFUSED_OUTPUTS.values()), ids=list(REFUSED_OUTPUTS))
def test_an_output_that_would_destroy_an_input_or_another_output_exits_1_before_reading(
        clique_file, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["train", str(clique_file), "--a", "1", "--b", "0", "--out", "m.json"]) == 0
    os.link(clique_file, tmp_path / "link.txt")
    (tmp_path / "d").mkdir()
    (tmp_path / "m2.json.manifest.json").mkdir()
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    read = []
    monkeypatch.setattr(cli, "_load_graph", lambda *args: read.append(args))
    monkeypatch.setattr(cli, "load_model", lambda *args: read.append(args))
    paths = {"GRAPH": str(clique_file), "LINK": str(tmp_path / "link.txt")}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write "), err
    assert read == []
    assert tree_bytes(tmp_path) == before


def test_sweep_determinism_and_thread_equivalence(clique_file, tmp_path):
    args = ["sweep", str(clique_file), "--a-max", "2", "--b-max", "1", "--strategy",
            "degree,random", "--seeds", "1,2"]
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + ["--out", str(outs[1])]) == 0
    assert main(args + ["--out", str(outs[2]), "--threads", "4"]) == 0
    first = strip_wall_ms(outs[0].read_text())
    assert strip_wall_ms(outs[1].read_text()) == first
    assert strip_wall_ms(outs[2].read_text()) == first


def test_sweep_names_the_error_type_of_a_failed_cell(gnm_file, tmp_path, capsys, dying_forest_workers):
    out = tmp_path / "r.csv"
    assert main(["sweep", str(gnm_file), "--a-max", "1", "--b-max", "0", "--strategy", "degree",
                 "--seeds", "1", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("cell a=1 b=0 degree seed=1 failed: ChildProcessError: a forest worker process died")
    assert "(1 failed)" in err[1]
    assert len(out.read_text().splitlines()) == 2


def test_eval_csv_row_is_the_sweep_csv_row_of_the_same_cell(clique_file, tmp_path, capsys, monkeypatch):
    """eval --csv writes its row with export_csv, the writer of sweep's CSV."""
    written = []
    monkeypatch.setattr("ab_linkpred.cli.export_csv",
                        lambda result, sink: written.append(result) or export_csv(result, sink))
    assert main(["eval", str(clique_file), "--a", "2", "--b", "1", "--seed", "5", "--skip-unbalanced", "--csv"]) == 0
    assert [(c.a, c.b, c.strategy, c.seed) for c in written[0].cells] == [(2, 1, "degree", 5)]
    header, row = capsys.readouterr().out.splitlines()[-2:]
    out = tmp_path / "r.csv"
    assert main(["sweep", str(clique_file), "--a-max", "2", "--b-max", "1", "--strategy", "degree",
                 "--seeds", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert header == lines[0]
    swept = [line for line in lines[1:] if line.startswith("2,1,degree,5,")]
    assert [line.rsplit(",", 1)[0] for line in swept] == [row.rsplit(",", 1)[0]]


def test_sweep_heatmap_output(clique_file, tmp_path):
    out = tmp_path / "r.csv"
    svg = tmp_path / "f1.svg"
    assert main(["sweep", str(clique_file), "--a-max", "2", "--b-max", "2", "--strategy",
                 "degree", "--seeds", "1", "--out", str(out), "--heatmap", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<rect") == 6
    assert os.path.exists(str(svg) + ".manifest.json")


def test_sweep_rejects_bad_flags(clique_file, tmp_path, capsys):
    out = tmp_path / "r.csv"
    base = ["sweep", str(clique_file), "--out", str(out)]
    assert main(base + ["--strategy", "pagerank"]) == 1
    assert main(base + ["--seeds", "x"]) == 1
    assert main(base + ["--balance", "0"]) == 1
    assert main(base + ["--threads", "0"]) == 1


@pytest.fixture(scope="module")
def bad_flag_inputs(tmp_path_factory):
    """A graph and a model trained on it, in a directory of their own."""
    root = tmp_path_factory.mktemp("inputs")
    graph, model = root / "cliques.txt", root / "m.json"
    graph.write_text(edge_text(two_cliques_edges(4)))
    assert main(["train", str(graph), "--a", "1", "--b", "0", "--seed", "5", "--out", str(model)]) == 0
    return graph, model


BAD_FLAG_BASES = {
    "train": ["--a", "1", "--b", "0", "--out", "OUT"],
    "eval": ["--a", "1", "--b", "0"],
    "sweep": ["--a-max", "1", "--b-max", "0", "--strategy", "degree", "--seeds", "1", "--out", "OUT"],
    "complete": ["--model", "MODEL", "--epsilon", "0.5", "--mode", "iterative", "--out", "OUT"],
    "centrality": ["--measure", "degree"],
}
BAD_FLAGS = [
    *[(command, flags) for command in ("train", "eval") for flags in (
        ["--a", "0"], ["--b", "-1"], ["--test-fraction", "0"], ["--test-fraction", "1.5"],
        ["--threshold", "2"], ["--balance", "0"], ["--strategy", "pagerank"])],
    ("train", ["--balance", "inf"]),
    ("sweep", ["--a-max", "0"]),
    ("sweep", ["--b-max", "-1"]),
    ("sweep", ["--test-fraction", "0"]),
    ("sweep", ["--threads", "0"]),
    ("complete", ["--epsilon", "1.5"]),
    ("complete", ["--max-steps", "-1"]),
    ("complete", ["--mode", "noniterative", "--epsilon", "0.0", "--max-steps", "0"]),
    ("centrality", ["--top", "0"]),
]


@pytest.mark.parametrize("command,flags", BAD_FLAGS, ids=[f"{c}:{'_'.join(f)}" for c, f in BAD_FLAGS])
def test_bad_flag_value_exits_1_before_reading_or_writing(bad_flag_inputs, tmp_path, capsys, command, flags):
    graph, model = bad_flag_inputs
    for graph_path, model_path in ((graph, model), (tmp_path / "missing.txt", tmp_path / "missing.json")):
        paths = {"OUT": str(tmp_path / "out"), "MODEL": str(model_path)}
        argv = [command, str(graph_path)] + [paths.get(arg, arg) for arg in BAD_FLAG_BASES[command]] + flags
        assert main(argv) == 1, argv
        assert "Traceback" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_sweep_with_an_a_max_past_the_index_range_exits_1_with_one_error_line(clique_file, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", str(clique_file), "--a-max", "1" + "0" * 400, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: argument --a-max: a_max must be at most ")
    assert not out.exists()


# Each flag converter and the library rule it must apply, after its cast.
CONVERTER_RULES = {
    "_AT_LEAST_1": (int, lambda n: as_int(n, "n", 1)),
    "_AT_LEAST_0": (int, lambda n: as_int(n, "n", 0)),
    "_A_MAX": (int, lambda n: _as_grid_max(n, "a_max", 1)),
    "_B_MAX": (int, lambda n: _as_grid_max(n, "b_max", 0)),
    "_UNIT": (float, lambda x: as_unit(x, "x")),
    "_FRACTION": (float, _as_test_fraction),
    "_POSITIVE": (float, _as_ratio),
}


@pytest.mark.parametrize("text", ["0", "1", "0.5", "-1", "nan", "inf", "1e400", "-0.0"])
@pytest.mark.parametrize("name", sorted(CONVERTER_RULES))
def test_a_flag_converter_accepts_a_text_exactly_when_its_library_rule_accepts_the_value(name, text):
    cast, rule = CONVERTER_RULES[name]
    convert = getattr(cli, name)
    try:
        want = rule(cast(text))
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError):
            convert(text)
        return
    assert repr(convert(text)) == repr(want)  # the same type, and -0.0 kept


def test_train_exits_2_when_a_forest_worker_dies(gnm_file, tmp_path, capsys, dying_forest_workers):
    model = tmp_path / "m.json"
    assert main(["train", str(gnm_file), "--a", "2", "--b", "1", "--out", str(model)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a forest worker process died")
    assert not model.exists()
    assert not os.path.exists(str(model) + ".manifest.json")


def test_train_eval_complete_round_trip(clique_file, tmp_path, capsys):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "2", "--b", "1", "--seed", "5",
                 "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["version"] == 1
    assert doc["featurize_config"]["a"] == 2
    assert os.path.exists(str(model) + ".manifest.json")
    capsys.readouterr()

    assert main(["eval", str(clique_file), "--a", "2", "--b", "1", "--seed", "5",
                 "--skip-unbalanced", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "balanced test metrics" in out
    assert "precision" in out
    assert "a,b,strategy,seed" in out

    added = tmp_path / "added.txt"
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", "0.0",
                 "--mode", "noniterative", "--out", str(added)]) == 0
    lines = added.read_text().splitlines()
    assert len(lines) == 36  # the 6x6 bipartite non-edges all clear epsilon 0
    step, u, v, score = lines[0].split()
    assert step == "1"
    float(score)
    assert len(score.split(".")[1]) == 6


@pytest.mark.parametrize("epsilon,mode,cap,steps", [
    ("0.0", "noniterative", None, [(36, 36)]),
    ("1.0", "noniterative", None, [(36, 0)]),
    ("0.0", "iterative", None, [(36, 36), (0, 0)]),  # the last pass finds no non-edge left
    ("0.0", "iterative", "1", [(36, 36)]),  # the cap ends the run before a pass that adds nothing
    ("1.0", "iterative", "3", [(36, 0)]),
    ("0.05", "iterative", None, [(36, 4), (32, 32), (0, 0)]),
])
def test_complete_manifest_lists_step_counts(clique_file, tmp_path, capsys, epsilon, mode, cap, steps):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "2", "--b", "1", "--seed", "5", "--out", str(model)]) == 0
    added = tmp_path / "added.txt"
    capsys.readouterr()
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", epsilon, "--mode", mode,
                 *(["--max-steps", cap] if cap else []), "--out", str(added)]) == 0
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "added.txt.manifest.json").read_text())
    assert [(step["non_edges"], step["added"]) for step in manifest["steps"]] == steps
    # The output file and the stderr line record only the steps that add edges (all of them when noniterative).
    recorded = [n for _, n in steps if n or mode == "noniterative"]
    per_step = [line.split()[0] for line in added.read_text().splitlines()]
    assert [per_step.count(str(k)) for k in range(1, len(recorded) + 1)] == recorded
    assert err == f"added {sum(recorded)} edge(s) over {len(recorded)} step(s); graph now has {30 + sum(recorded)} edges\n"


def test_eval_reports_unbalanced_by_default(clique_file, capsys):
    assert main(["eval", str(clique_file), "--a", "1", "--b", "0", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "balanced test metrics" in out
    assert "unbalanced test metrics" in out


def test_a_huge_finite_balance_keeps_every_negative(clique_file, tmp_path, capsys):
    base = ["--a", "2", "--b", "1", "--seed", "3"]
    for ratio in ("1e308", "1e9"):
        assert main(["train", str(clique_file), *base, "--balance", ratio, "--out", str(tmp_path / ratio)]) == 0
    assert (tmp_path / "1e308").read_bytes() == (tmp_path / "1e9").read_bytes()
    capsys.readouterr()
    outputs = []
    for ratio in ("1e308", "1e9"):
        assert main(["eval", str(clique_file), *base, "--balance", ratio]) == 0
        outputs.append(capsys.readouterr())
    assert "Traceback" not in outputs[0].err
    assert outputs[0].out.replace("1e+308", "1000000000.0") == outputs[1].out


def test_complete_epsilon_above_everything_adds_nothing(clique_file, tmp_path):
    model = tmp_path / "m.json"
    assert main(["train", str(clique_file), "--a", "2", "--b", "1", "--seed", "5",
                 "--out", str(model)]) == 0
    added = tmp_path / "added.txt"
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", "1.0",
                 "--mode", "iterative", "--max-steps", "3", "--out", str(added)]) == 0
    assert added.read_text() == ""


def test_complete_rejects_model_without_config(clique_file, tmp_path):
    from ab_linkpred import save_model, train as train_model

    model = tmp_path / "bare.json"
    clf = train_model([[1, 1], [2, 2]] * 5, [0, 1] * 5, kind="logistic")
    save_model(clf, model)
    added = tmp_path / "added.txt"
    assert main(["complete", str(clique_file), "--model", str(model), "--epsilon", "0.5",
                 "--mode", "noniterative", "--out", str(added)]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0


@pytest.fixture(scope="module")
def golden_documents(tmp_path_factory):
    """A 40-node graph file, the forest, tree and logistic model documents of
    the golden digests with their feature settings, and a working folder."""
    edges = community_edges(40, 120, communities=3, seed=2)
    folder = tmp_path_factory.mktemp("fuzz")
    graph = folder / "g.txt"
    graph.write_text(edge_text(edges))
    config = FeatureConfig(a=2, b=1, strategy=Strategy("degree"), seed=7)
    parts = split(balanced_dataset(ab_linkpred.load_edge_list(graph), config, 1.0), 0.25, 7)
    docs = []
    for kind, params in (("forest", {"tree_count": 4}), ("tree", None), ("logistic", {"epochs": 50})):
        clf = train(parts.Xtrain, parts.ytrain, kind=kind, params=params, seed=3)
        clf.featurize_config = config_to_dict(config)
        docs.append(json.loads(save_model(clf)))
    return graph, docs, folder


_BAD_VALUES = st.sampled_from(["x", [], {}, None, True, 1.5, -1, 0, 2**70, -2**70,
                               float("nan"), float("inf"), -float("inf")])


def _mutate(doc, data):
    """Replace or delete one value of a JSON document, found by a random
    walk down from the root that stops at each level with chance 1/4."""
    holder, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (holder is None or data.draw(st.integers(0, 3)) > 0):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        holder, node = node, node[key]
    if data.draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = data.draw(_BAD_VALUES)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_model_documents_complete_with_exit_0_1_or_2(golden_documents, data):
    graph, docs, folder = golden_documents
    doc = copy.deepcopy(data.draw(st.sampled_from(docs)))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data)
    model = folder / "m.json"
    model.write_text(json.dumps(doc))
    code = main(["complete", str(graph), "--model", str(model), "--epsilon", "0.5", "--mode", "iterative",
                 "--max-steps", "2", "--out", str(folder / "added.txt")])
    assert code in (0, 1, 2)
    event(f"exit {code}")
    if code == 0:
        saved = save_model(load_model(model.read_bytes()))
        assert save_model(load_model(saved)) == saved
