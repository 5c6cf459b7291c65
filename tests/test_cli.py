"""Command-line pipeline: exit codes, file handoff, determinism."""

from __future__ import annotations

import ast
import dataclasses
import gc
import importlib
import inspect
import json
import os
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from stancegraph import cli
from stancegraph.cli import _load_dataset, main
from stancegraph.config import (
    RunConfig,
    parse_config_file,
    resolve,
    stage_seed,
)
from stancegraph.errors import ConfigError
from stancegraph.evaluate import (
    annotation_curve,
    load_annotations,
    run_protocol,
    with_usage,
)
from stancegraph.ingest import CSRArrays, load_counts, save_counts
from stancegraph.graphs import load_matrix_coo, load_user_graph
from stancegraph.model import init_embeddings, load_checkpoint

from conftest import json_counts_payload, write_graph_container

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv) -> int:
    return main([str(a) for a in argv])


def fresh_python(args, cwd, *paths) -> subprocess.CompletedProcess:
    """Run the interpreter in a new process with `paths`, then the package,
    on its path."""
    path = os.pathsep.join([*map(str, paths), str(SRC)] + ([os.environ["PYTHONPATH"]]
                                                           if os.environ.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


def synth_and_build(tmp_path, seed="0"):
    raw = tmp_path / "raw"
    data = tmp_path / "data"
    assert run(["synth", "--out", raw, "--seed", seed,
                "--n-users", "40", "--n-hashtags", "20",
                "--n-neutral", "4", "--interactions-per-user", "10",
                "--annotated-per-camp", "5"]) == 0
    assert run(["build", "--counts", raw / "counts.json", "--out", data,
                "--seed", seed]) == 0
    return raw, data


def synth_build_eval(tmp_path):
    """synth_and_build, then a one-epoch eval into tmp_path / "eval"."""
    raw, data = synth_and_build(tmp_path)
    eval_dir = tmp_path / "eval"
    assert run(["eval", "--data", data, "--annotations", raw / "annotations.tsv",
                "--out", eval_dir, "--max-epochs", "1", "--folds", "2",
                "--holdout-fraction", "0.1", "--dim", "4"]) == 0
    return raw, data, eval_dir


# process entry --------------------------------------------------------------

def test_cli_import_leaves_scipy_special_out(tmp_path):
    code = ("import sys, stancegraph.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    proc = fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The modules perfbench/tracer.py wraps, which `import stancegraph.cli` must load.
TRACED_MODULES = ["config", "ingest", "graphs", "model", "train", "metrics", "evaluate"]


def test_cli_import_loads_the_traced_modules_but_not_scipy_sparse(tmp_path):
    code = ("import json, sys, stancegraph.cli; print(json.dumps(["
            "[m[len('stancegraph.'):] for m in sys.modules if m.startswith('stancegraph.')], "
            "'scipy.sparse' in sys.modules]))")
    proc = fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded, scipy_loaded = json.loads(proc.stdout)
    assert set(TRACED_MODULES) <= set(loaded)
    assert scipy_loaded is False


# A sitecustomize module, which an interpreter imports at start-up when it
# is on the path: it records whether scipy.sparse was loaded when gc.freeze
# ran, and prints that and the scipy modules loaded at exit.
SCIPY_PROBE = """import atexit, gc, json, sys
freeze, at_freeze = gc.freeze, []
def recording_freeze():
    at_freeze.append("scipy.sparse" in sys.modules)
    freeze()
gc.freeze = recording_freeze
atexit.register(lambda: print(json.dumps(
    [at_freeze, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")])))
"""


@pytest.mark.parametrize("command, sparse", [
    ("ingest", False), ("synth", False), ("curve", False), ("build", False),
    ("train", True), ("eval", True),
])
def test_only_graph_commands_load_scipy_and_before_the_freeze(tmp_path, command, sparse):
    raw, data, eval_dir = synth_build_eval(tmp_path)
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text(json.dumps({"tweet_id": "t1", "user_id": "u1", "kind": "original",
                                  "timestamp": "2022-09-04T12:00:00Z", "text": "#a #b"}) + "\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "ingest": ["--tweets", tweets, "--out", out / "counts.json"],
        "synth": ["--out", out, "--n-users", "20", "--n-hashtags", "10", "--n-neutral", "2",
                  "--interactions-per-user", "4", "--annotated-per-camp", "2"],
        "curve": ["--data", data, "--eval-dir", eval_dir, "--annotations",
                  raw / "annotations.tsv", "--out", out / "curve.csv", "--x-max", "2"],
        "build": ["--counts", raw / "counts.json", "--out", out],
        "train": ["--data", data, "--out", out, "--max-epochs", "1", "--dim", "4"],
        "eval": ["--data", data, "--annotations", raw / "annotations.tsv", "--out", out,
                 "--max-epochs", "1", "--folds", "2", "--holdout-fraction", "0.1",
                 "--dim", "4"],
    }[command]
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(SCIPY_PROBE, encoding="utf-8")
    proc = fresh_python(["-m", "stancegraph.cli", command, *map(str, argv)], tmp_path, probe)
    assert proc.returncode == 0, proc.stderr
    at_freeze, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert at_freeze == [sparse]
    assert "scipy.sparse" in scipy_modules if sparse else scipy_modules == []


def test_module_entry_runs_synth(tmp_path):
    proc = fresh_python(["-m", "stancegraph.cli", "synth", "--out", str(tmp_path / "raw"),
                         "--n-users", "20", "--n-hashtags", "10", "--n-neutral", "2",
                         "--interactions-per-user", "4", "--annotated-per-camp", "2"],
                        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("synth: 20 users, 10 hashtags")
    assert (tmp_path / "raw" / "counts.json").is_file()


def test_main_freezes_the_heap_once(tmp_path):
    argv = ["synth", "--out", tmp_path / "raw", "--n-users", "20", "--n-hashtags", "10",
            "--n-neutral", "2", "--interactions-per-user", "4", "--annotated-per-camp", "2"]
    assert run(argv) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert run(argv) == 0
    assert gc.get_freeze_count() == frozen


def test_module_entry_bad_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_knob=1\n", encoding="utf-8")
    proc = fresh_python(["-m", "stancegraph.cli", "synth", "--out", str(tmp_path / "raw"),
                         "--config", str(cfg)], tmp_path)
    assert proc.returncode == 2
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error ")]
    assert len(errors) == 1 and errors[0].startswith("error kind=ConfigError exit=2: ")
    assert "Traceback" not in proc.stderr


# package layout -------------------------------------------------------------

def test_every_package_definition_is_used_by_the_pipeline():
    """Every top-level function and class and every public method in the
    package is named somewhere in its own modules (the empty __init__.py
    aside) or in perfbench, which names its traced targets as strings.
    References that only tests call belong in tests/reference.py."""
    root = SRC.parent
    package = [p for p in sorted((SRC / "stancegraph").glob("*.py")) if p.name != "__init__.py"]
    used: set[str] = set()
    defined: dict[str, str] = {}
    for path in package + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                used.add(node.value)
        if path not in package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
    assert sorted(q for q, name in defined.items() if name not in used) == []


# exit codes -----------------------------------------------------------------

def test_help_exits_zero(capsys):
    for argv in (["--help"], ["train", "--help"], ["eval", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
    assert "stancegraph" in capsys.readouterr().out


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_knob=1\n", encoding="utf-8")
    code = run(["synth", "--out", tmp_path / "out", "--config", cfg])
    assert code == 2
    assert "kind=ConfigError" in capsys.readouterr().err


def test_missing_input_file_exits_4(tmp_path, capsys):
    code = run(["ingest", "--tweets", tmp_path / "absent.jsonl",
                "--out", tmp_path / "counts.json"])
    assert code == 4
    assert "exit=4" in capsys.readouterr().err


def test_malformed_record_exits_3(tmp_path, capsys):
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text('{"tweet_id": "t1"\n', encoding="utf-8")
    code = run(["ingest", "--tweets", tweets, "--out", tmp_path / "counts.json"])
    assert code == 3
    assert "kind=RecordError" in capsys.readouterr().err


def test_empty_annotation_file_exits_2(tmp_path, capsys):
    _, data = synth_and_build(tmp_path)
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    code = run(["eval", "--data", data, "--annotations", empty,
                "--out", tmp_path / "eval"])
    assert code == 2
    assert "kind=ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "curve"])
def test_degenerate_annotation_hashtag_exits_3(tmp_path, capsys, command):
    raw, data = synth_and_build(tmp_path)
    eval_dir = tmp_path / "eval"
    bad = tmp_path / "bad.tsv"
    bad.write_text("#\tPOS\nht00001\tNEG\n", encoding="utf-8")
    if command == "eval":
        args = ["eval", "--data", data, "--annotations", bad, "--out", eval_dir]
    else:
        assert run(["eval", "--data", data, "--annotations", raw / "annotations.tsv",
                    "--out", eval_dir, "--max-epochs", "1", "--folds", "2",
                    "--holdout-fraction", "0.1", "--dim", "4"]) == 0
        args = ["curve", "--data", data, "--eval-dir", eval_dir, "--annotations", bad,
                "--out", tmp_path / "curve.csv"]
    capsys.readouterr()
    code = run(args)
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert code == 3
    assert len(errors) == 1 and errors[0].startswith(
        f"error kind=RecordError exit=3: {bad}: line 1: ")
    assert "Traceback" not in err


def test_bounds_error_exits_2(tmp_path, capsys):
    _, data = synth_and_build(tmp_path)
    eval_dir = tmp_path / "eval"
    assert run(["eval", "--data", data, "--annotations", tmp_path / "raw" / "annotations.tsv",
                "--out", eval_dir, "--max-epochs", "2", "--folds", "2",
                "--holdout-fraction", "0.1"]) == 0
    code = run(["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", tmp_path / "raw" / "annotations.tsv",
                "--out", tmp_path / "curve.csv", "--x-max", "99"])
    assert code == 2
    assert "kind=BoundsError" in capsys.readouterr().err


def test_curve_without_x_exits_2(tmp_path, capsys):
    raw, data, eval_dir = synth_build_eval(tmp_path)
    capsys.readouterr()
    code = run(["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", raw / "annotations.tsv",
                "--out", tmp_path / "curve.csv", "--x-max", "0"])
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error ")]
    assert errors == ["error kind=ConfigError exit=2: x_max must be at least 1"]
    assert not (tmp_path / "curve.csv").exists()


def test_negative_pathsim_top_k_exits_2(tmp_path, capsys):
    raw, _ = synth_and_build(tmp_path)
    capsys.readouterr()
    out = tmp_path / "capped"
    code = run(["build", "--counts", raw / "counts.json", "--out", out,
                "--pathsim-top-k", "-3"])
    assert code == 2
    assert ("error kind=ConfigError exit=2: pathsim_top_k must be nonnegative (0 disables the cap)"
            in capsys.readouterr().err)
    assert not out.exists()


def truncate_counts(data):
    path = data / "counts.json"
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])


def repeated_user(data):
    path = data / "counts.json"
    counts = load_counts(path)
    save_counts(dataclasses.replace(counts, users=counts.users[:1] * 2 + counts.users[2:]), path)


def old_text_bipartite(data):
    coo = load_matrix_coo(data / "bipartite.coo").tocoo()
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n"]
    lines += [f"{r} {c} {v:.17g}\n" for r, c, v in zip(coo.row, coo.col, coo.data)]
    (data / "bipartite.coo").write_text("".join(lines), encoding="utf-8")


def rewrite_bipartite(data, column=None, value=None):
    path = data / "bipartite.coo"
    mat = load_matrix_coo(path)
    indices, values = mat.indices.copy(), mat.data.copy()
    if column is not None:
        indices[-1] = column(mat.shape[1])
    if value is not None:
        values[0] = value
    write_graph_container(path, mat.shape, mat.indptr, indices, values)


def truncate_bipartite(data):
    path = data / "bipartite.coo"
    path.write_bytes(path.read_bytes()[:-8])


@pytest.mark.parametrize("damage", [
    truncate_counts,
    repeated_user,
    old_text_bipartite,
    lambda data: rewrite_bipartite(data, column=lambda m: m),
    lambda data: rewrite_bipartite(data, value=float("nan")),
    truncate_bipartite,
], ids=["truncated-counts", "repeated-user", "old-text-bipartite", "column-out-of-range",
        "nan-weight", "truncated-bipartite"])
def test_malformed_dataset_file_exits_3(tmp_path, capsys, damage):
    _, data = synth_and_build(tmp_path)
    damage(data)
    capsys.readouterr()
    code = run(["train", "--data", data, "--out", tmp_path / "model", "--max-epochs", "1"])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert code == 3
    assert len(errors) == 1 and errors[0].startswith("error kind=RecordError exit=3: ")
    assert "Traceback" not in err


def version_1_bipartite(data):
    """bipartite.coo as a version-1 graph file held it: int64 indices."""
    path = data / "bipartite.coo"
    mat = load_matrix_coo(path)
    blob = b"SGCSR\x00" + struct.pack("<IQQQ", 1, *mat.shape, mat.nnz)
    for arr, dtype in ((mat.indptr, "<i8"), (mat.indices, "<i8"), (mat.data, "<f8")):
        blob += np.asarray(arr, dtype).tobytes()
    path.write_bytes(blob)


def wide_bipartite(data):
    path = data / "bipartite.coo"
    mat = load_matrix_coo(path)
    write_graph_container(path, (mat.shape[0], 2**31), mat.indptr, mat.indices, mat.data)


def json_counts(data, index_dtype="<i4"):
    """counts.json as a JSON document of base64 columns, with index columns
    in `index_dtype`: "<i4" until it became a binary container, "<i8"
    before that."""
    path = data / "counts.json"
    payload = json_counts_payload(load_counts(path), index_dtype)
    path.write_text(json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("command, damage, message", [
    ("train", version_1_bipartite, r"bipartite\.coo: unsupported graph file version 1"),
    ("train", wide_bipartite, r"bipartite\.coo: shape 40 x 2147483648 out of range"),
    ("train", lambda data: json_counts(data, "<i8"),
     r"counts\.json: not a counts file \(bad magic\)"),
    ("build", lambda data: json_counts(data, "<i8"),
     r"counts\.json: not a counts file \(bad magic\)"),
    ("train", json_counts, r"counts\.json: not a counts file \(bad magic\)"),
    ("build", json_counts, r"counts\.json: not a counts file \(bad magic\)"),
], ids=["version-1-graph", "columns-beyond-int32", "int64-counts", "int64-counts-build",
        "json-counts", "json-counts-build"])
def test_dataset_in_an_earlier_layout_exits_3_naming_the_refusal(tmp_path, capsys, command,
                                                                 damage, message):
    _, data = synth_and_build(tmp_path)
    damage(data)
    capsys.readouterr()
    argv = (["build", "--counts", data / "counts.json", "--out", tmp_path / "again"]
            if command == "build" else
            ["train", "--data", data, "--out", tmp_path / "model", "--max-epochs", "1"])
    assert run(argv) == 3
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert len(errors) == 1 and "Traceback" not in err
    assert re.fullmatch(f"error kind=RecordError exit=3: .*{message}", errors[0]), errors


def upper_triangle(path):
    mat = load_matrix_coo(path)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    keep = rows < mat.indices
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=mat.shape[0]))])
    write_graph_container(path, mat.shape, indptr, mat.indices[keep], mat.data[keep])


def with_loop(path):
    mat = load_matrix_coo(path).tolil()
    mat[0, 0] = 1.0
    mat = mat.tocsr()
    write_graph_container(path, mat.shape, mat.indptr, mat.indices, mat.data)


def one_column_wider(path):
    mat = load_matrix_coo(path)
    write_graph_container(path, (mat.shape[0], mat.shape[1] + 1), mat.indptr, mat.indices,
                          mat.data)


@pytest.mark.parametrize("graph, flag", [("social", "--use-social"),
                                         ("pathsim", "--use-pathsim")])
@pytest.mark.parametrize("damage, message", [
    (upper_triangle, "user graph is not symmetric"),
    (with_loop, "user graph has diagonal entries"),
    (one_column_wider, "user graph is not square"),
], ids=["upper-triangle", "diagonal", "not-square"])
def test_train_on_a_user_graph_that_is_not_symmetric_or_has_a_loop_exits_3(
        tmp_path, capsys, graph, flag, damage, message):
    _, data = synth_and_build(tmp_path)
    path = data / f"{graph}.coo"
    damage(path)
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", tmp_path / "model", "--max-epochs", "1",
                flag]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error ")]
    assert errors == [f"error kind=RecordError exit=3: {path}: {message}"]


def first_value_changed(path, change):
    mat = load_matrix_coo(path)
    data = mat.data.copy()
    data[0] = change(data[0])
    write_graph_container(path, mat.shape, mat.indptr, mat.indices, data)
    return path


def first_count_changed(path, change):
    counts = load_counts(path)
    T = counts.T_tweet
    data = T.data.copy()
    data[0] = change(data[0])
    save_counts(dataclasses.replace(counts, T_tweet=CSRArrays(T.indptr, T.indices, data, T.shape)),
                path)
    return f"{path} T_tweet"


@pytest.mark.parametrize("change", [lambda x: -x, lambda x: 0.0], ids=["negative", "zero"])
@pytest.mark.parametrize("file, damage", [
    ("counts.json", first_count_changed),
    ("bipartite.coo", first_value_changed),
    ("social.coo", first_value_changed),
    ("pathsim.coo", first_value_changed),
], ids=["counts", "bipartite", "social", "pathsim"])
def test_a_value_not_positive_in_a_dataset_file_exits_3_naming_it(tmp_path, capsys, file,
                                                                   damage, change):
    # A stored zero is refused as a negative value is, so every matrix the
    # pipeline reads is canonical with positive values.
    _, data = synth_and_build(tmp_path)
    source = damage(data / file, change)
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", tmp_path / "model", "--max-epochs", "1",
                "--use-social", "--use-pathsim"]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error ")]
    assert errors == [f"error kind=RecordError exit=3: {source}: value not positive"]


def asymmetric_follow(counts):
    # User 0 follows user 1 mutually, but user 1 does not follow user 0.
    n = len(counts.users)
    one_way = CSRArrays(np.array([0] + [1] * n, dtype=np.int32), np.array([1], dtype=np.int32),
                        np.array([1.0]), (n, n))
    return dataclasses.replace(counts, mutual_follow=one_way)


def overflowing_counts(counts):
    T = counts.T_tweet
    huge = CSRArrays(T.indptr, T.indices, np.full(T.nnz, 1e308), T.shape)
    return dataclasses.replace(counts, T_tweet=huge, T_retweet=huge)


@pytest.mark.parametrize("damage, message", [
    (asymmetric_follow, "mutual_follow is not symmetric"),
    (overflowing_counts, "T_tweet + T_retweet + T_reply overflows"),
], ids=["asymmetric-follow", "overflow"])
def test_build_on_inconsistent_counts_exits_3_naming_the_file(tmp_path, capsys, damage, message):
    raw, _ = synth_and_build(tmp_path)
    path = raw / "counts.json"
    save_counts(damage(load_counts(path)), path)
    capsys.readouterr()
    assert run(["build", "--counts", path, "--out", tmp_path / "again"]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error ")]
    assert errors == [f"error kind=RecordError exit=3: {path}: {message}"]


@pytest.mark.parametrize("graph, flag", [("social", "--use-social"),
                                         ("pathsim", "--use-pathsim")])
def test_user_graph_of_another_size_exits_5_naming_its_file(tmp_path, capsys, graph, flag):
    _, data = synth_and_build(tmp_path)
    path = data / f"{graph}.coo"
    mat = load_matrix_coo(path)
    n = mat.shape[0]
    # One more user, with no edges.
    write_graph_container(path, (n + 1, n + 1), np.append(mat.indptr, mat.indptr[-1]),
                          mat.indices, mat.data)
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", tmp_path / "model", "--max-epochs", "1",
                flag]) == 5
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error ")] == [
        f"error kind=ShapeError exit=5: {graph}.coo does not match counts.json"]
    assert "Traceback" not in err


def test_no_loaded_user_graph_outlives_the_dataset_load(tmp_path, monkeypatch):
    _, data = synth_and_build(tmp_path)
    loaded, alive_at_load = [], []

    def load(path, kind):
        alive_at_load.append([ref() is not None for ref in loaded])
        graph = load_user_graph(path, kind=kind)
        loaded.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(cli, "load_user_graph", load)
    cfg = resolve(None, {"use_social": True, "use_pathsim": True, "n_layers": 2})
    _, _, channels = _load_dataset(data, cfg, None)
    # The social graph is gone before the PathSim graph is loaded, and
    # neither outlives the load.
    assert alive_at_load == [[], [False]]
    assert [ref() for ref in loaded] == [None, None]
    assert isinstance(channels.users, np.ndarray)
    assert channels.n_user_channels == 2


def test_eval_refuses_a_bad_annotation_file_before_loading_a_user_graph(tmp_path, capsys,
                                                                      monkeypatch):
    # The user operator is built while the dataset loads, so the annotation
    # file is read first: refusing it costs no graph load and no build.
    _, data = synth_and_build(tmp_path)
    bad = tmp_path / "bad.tsv"
    bad.write_text("ht00001\tPOS\nht00002\tBOGUS\n", encoding="utf-8")
    loaded = []
    monkeypatch.setattr(cli, "load_user_graph",
                        lambda path, kind: loaded.append(kind) or load_user_graph(path, kind))
    capsys.readouterr()
    assert run(["eval", "--data", data, "--annotations", bad, "--out", tmp_path / "eval",
                "--use-social", "--use-pathsim"]) == 3
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error ")] == [
        f"error kind=RecordError exit=3: {bad}: line 2: unknown stance class 'BOGUS'"]
    assert loaded == []


def cut_propagated(keep):
    def damage(eval_dir):
        path = eval_dir / "propagated.bin"
        path.write_bytes(path.read_bytes()[:keep])
    return damage


def bare_checkpoint(header):
    """A propagated.bin that is magic and header only: no rows, no ids."""
    def damage(eval_dir):
        (eval_dir / "propagated.bin").write_bytes(b"SGEMB\x00" + header)
    return damage


def hidden_weight(text):
    def damage(eval_dir):
        path = eval_dir / "hidden.tsv"
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(first.rsplit("\t", 1)[0] + "\t" + text + "\n" + rest, encoding="utf-8")
    return damage


@pytest.mark.parametrize("damage", [
    cut_propagated(10),
    cut_propagated(-8),
    # 2**62 users, 0 hashtags, dim 0: the body is empty whatever the user count
    bare_checkpoint(struct.pack("<IQQQqQ", 2, 2**62, 0, 0, 0, 0)),
    bare_checkpoint(struct.pack("<IQQQq", 1, 2**62, 0, 0, 0)),  # the version-1 layout
    hidden_weight("abc"),
    hidden_weight("-0.5"),
    hidden_weight("inf"),
], ids=["cut-in-header", "cut-in-body", "dim-0", "version-1", "weight-not-a-number",
        "weight-negative", "weight-infinite"])
def test_curve_on_truncated_embeddings_exits_3(tmp_path, capsys, damage):
    raw, data, eval_dir = synth_build_eval(tmp_path)
    damage(eval_dir)
    capsys.readouterr()
    code = run(["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", raw / "annotations.tsv", "--out", tmp_path / "curve.csv"])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert code == 3
    assert len(errors) == 1 and errors[0].startswith("error kind=RecordError exit=3: ")
    assert "Traceback" not in err


def test_curve_names_the_repeated_hidden_line(tmp_path, capsys):
    raw, data, eval_dir = synth_build_eval(tmp_path)
    # The first line's user and hashtag again, with another weight.
    path = eval_dir / "hidden.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [lines[0].rsplit("\t", 1)[0] + "\t0.0"]) + "\n",
                    encoding="utf-8")
    capsys.readouterr()
    assert run(["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", raw / "annotations.tsv", "--out", tmp_path / "curve.csv"]) == 3
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error ")]
    assert len(errors) == 1
    assert errors[0].startswith(
        f"error kind=RecordError exit=3: {path}: line {len(lines) + 1}: repeated hidden edge")


def not_utf8(path, lines):
    """Write `lines` to `path`, line 2 ending in a byte that is not UTF-8."""
    data = [line.encode("utf-8") for line in lines]
    data[1] += b"\xff"
    path.write_bytes(b"\n".join(data) + b"\n")


INGEST_LINES = {
    "tweets": [json.dumps({"tweet_id": f"t{i}", "user_id": f"u{i}", "kind": "original",
                           "timestamp": "2022-09-04T12:00:00+00:00", "text": "#uno"})
               for i in (1, 2, 3)],
    # u1 and u3 follow each other only through line 2.
    "follows": ["u1\tu3", "u3\tu1", "u2\tu1"],
    "outlets": ["o1", "o2", "o3"],
}


def ingest_with_bad(tmp_path, bad):
    """ingest's argv on INGEST_LINES' files, the one named `bad` not UTF-8."""
    argv = ["ingest", "--out", tmp_path / "counts.json"]
    for name, lines in INGEST_LINES.items():
        path = tmp_path / name
        if name == bad:
            not_utf8(path, lines)
        else:
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv += [f"--{name}", path]
    return argv


def not_utf8_input(reader, tmp_path):
    """The argv of a command whose `reader` input has a line 2 that is not
    UTF-8, and that file's path."""
    if reader in INGEST_LINES:
        return ingest_with_bad(tmp_path, reader), tmp_path / reader
    if reader == "config":
        path = tmp_path / "run.cfg"
        not_utf8(path, ["seed=1", "dim=4", "n_users=40"])
        return ["synth", "--out", tmp_path / "raw", "--config", path], path
    if reader == "hidden.tsv":
        raw, data, eval_dir = synth_build_eval(tmp_path)
        path = eval_dir / "hidden.tsv"
        not_utf8(path, path.read_text(encoding="utf-8").splitlines())
        return ["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", raw / "annotations.tsv", "--out", tmp_path / "curve.csv"], path
    raw, data = synth_and_build(tmp_path)
    if reader == "annotations":
        path = tmp_path / "annotations.tsv"
        not_utf8(path, (raw / "annotations.tsv").read_text(encoding="utf-8").splitlines())
        return ["eval", "--data", data, "--annotations", path, "--out", tmp_path / "eval"], path
    path = tmp_path / "vectors.txt"
    write_vectors(path, ["ht00001", "ht00002", "ht00003"], 4)
    not_utf8(path, path.read_text(encoding="utf-8").splitlines())
    return ["train", "--data", data, "--out", tmp_path / "model", "--max-epochs", "1",
            "--dim", "4", "--pretrained", path], path


@pytest.mark.parametrize("reader", ["tweets", "follows", "outlets", "annotations", "pretrained",
                                    "hidden.tsv", "config"])
def test_text_input_that_is_not_utf8_exits_with_one_error_line(tmp_path, capsys, reader):
    argv, path = not_utf8_input(reader, tmp_path)
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    kind, want = ("ConfigError", 2) if reader == "config" else ("RecordError", 3)
    assert code == want
    assert [line for line in err.splitlines() if line.startswith("error ")] == [
        f"error kind={kind} exit={want}: {path}: line 2 is not UTF-8 text"]
    assert "Traceback" not in err


@pytest.mark.parametrize("bad, users, mutual_follows", [
    ("tweets", ["u1", "u3"], 2), ("follows", ["u1", "u2", "u3"], 0),
    ("outlets", ["u1", "u2", "u3"], 2)], ids=["tweets", "follows", "outlets"])
def test_ingest_without_strict_parsing_skips_a_line_that_is_not_utf8(tmp_path, caplog, bad,
                                                                     users, mutual_follows):
    argv = ingest_with_bad(tmp_path, bad)
    assert run(argv + ["--no-strict-parse"]) == 0
    counts = load_counts(tmp_path / "counts.json")
    assert counts.users == users and counts.mutual_follow.nnz == mutual_follows
    assert f"skipping {tmp_path / bad}: line 2 is not UTF-8 text" in caplog.text


def test_train_on_unbuilt_dataset_exits_4(tmp_path, capsys):
    # synth writes counts.json but no graph files; train does not derive them
    raw, _ = synth_and_build(tmp_path)
    capsys.readouterr()
    code = run(["train", "--data", raw, "--out", tmp_path / "model", "--max-epochs", "1"])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert code == 4
    assert len(errors) == 1 and "bipartite.coo" in errors[0]
    assert not (tmp_path / "model").exists()


def write_vectors(path, tags, dim, bad_line=None):
    """A pretrained vector file: row j of the tags gets j + 0.25 * k in
    component k, then an optional malformed line."""
    lines = [" ".join([tag] + [repr(j + 0.25 * k) for k in range(dim)])
             for j, tag in enumerate(tags)]
    if bad_line is not None:
        lines.append(bad_line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {tag: [j + 0.25 * k for k in range(dim)] for j, tag in enumerate(tags)}


@pytest.mark.parametrize("bad_line", [
    "ht00003 0.5 0.5 0.5", "ht00003 0.5 0.5 0.5 0.5 0.5", "ht00003 0.5 nan 0.5 0.5",
    "ht00003 0.5 0.5 inf 0.5", "ht00003 0.5 0.5 0.5 zero", "## 0.5 0.5 0.5 0.5",
    "#HT00002 0.5 0.5 0.5 0.5",
], ids=["too-few", "too-many", "nan", "inf", "not-a-number", "empty-hashtag",
        "repeated-hashtag"])
def test_malformed_pretrained_vectors_exit_3(tmp_path, capsys, bad_line):
    _, data = synth_and_build(tmp_path)
    vectors = tmp_path / "vectors.txt"
    write_vectors(vectors, ["ht00001", "ht00002"], 4, bad_line)
    capsys.readouterr()
    code = run(["train", "--data", data, "--out", tmp_path / "model", "--max-epochs", "1",
                "--dim", "4", "--pretrained", vectors])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error ")]
    assert code == 3
    assert len(errors) == 1 and errors[0].startswith(
        f"error kind=RecordError exit=3: {vectors}: line 3: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["annotations", "pretrained", "hidden"])
def test_a_malformed_text_line_exits_3_naming_its_file(tmp_path, capsys, case):
    # Before, the message named the line but not the file.
    if case == "hidden":
        raw, data, eval_dir = synth_build_eval(tmp_path)
        bad = eval_dir / "hidden.tsv"
        user, tag, _ = bad.read_text(encoding="utf-8").splitlines()[0].split("\t")
        bad.write_text(f"{user}\t{tag}\tabc\n", encoding="utf-8")
        argv = ["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", raw / "annotations.tsv", "--out", tmp_path / "curve.csv"]
        message = "line 1: hidden edge weight 'abc' is not finite and >= 0"
    else:
        raw, data = synth_and_build(tmp_path)
        argv = ["eval", "--data", data, "--out", tmp_path / "eval"]
        if case == "annotations":
            bad = tmp_path / "A.tsv"
            bad.write_text("ht00001\tPOS\nht00002\tNEG\n#\tPOS\n", encoding="utf-8")
            argv += ["--annotations", bad]
        else:
            bad = tmp_path / "V.txt"
            write_vectors(bad, ["ht00001", "ht00002"], 16, " ".join(["#"] + ["0.5"] * 16))
            argv += ["--annotations", raw / "annotations.tsv", "--pretrained", bad]
        message = "line 3: hashtag '#' normalizes to empty"
    capsys.readouterr()
    assert run(argv) == 3
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error ")] == [
        f"error kind=RecordError exit=3: {bad}: {message}"]


def test_train_zero_epochs_pins_pretrained_rows(tmp_path):
    _, data = synth_and_build(tmp_path)
    vectors = tmp_path / "vectors.txt"
    want = write_vectors(vectors, ["ht00007", "ht00002", "ht00019"], 4)
    out = tmp_path / "model"
    assert run(["train", "--data", data, "--out", out, "--max-epochs", "0", "--seed", "0",
                "--dim", "4", "--pretrained", vectors]) == 0
    state, _, tags = load_checkpoint(out / "checkpoint.bin")
    for tag, vec in want.items():
        assert np.array_equal(state.hashtags[tags.index(tag)], vec)
    init = init_embeddings(40, 20, RunConfig(dim=4), stage_seed(0, "train"), None)
    pinned = [tags.index(tag) for tag in want]
    assert np.array_equal(np.delete(state.hashtags, pinned, axis=0),
                          np.delete(init.hashtags, pinned, axis=0))
    assert np.array_equal(state.users, init.users)


@pytest.mark.parametrize("variant", ["wlgcn", "mf", "lightgcn", "null"])
def test_eval_variant_with_pretrained_vectors(tmp_path, variant):
    raw, data = synth_and_build(tmp_path)
    vectors = tmp_path / "vectors.txt"
    write_vectors(vectors, ["ht00001", "ht00005"], 4)
    assert run(["eval", "--data", data, "--annotations", raw / "annotations.tsv",
                "--out", tmp_path / "eval", "--max-epochs", "2", "--folds", "2",
                "--holdout-fraction", "0.1", "--dim", "4", "--variant", variant,
                "--pretrained", vectors]) == 0


def test_eval_pretrained_vectors_match_normalized_hashtags(tmp_path):
    # '#HT00002' names the corpus hashtag 'ht00002', as it would in a tweet
    raw, data = synth_and_build(tmp_path)
    vectors = tmp_path / "vectors.txt"
    want = write_vectors(vectors, ["#HT00002", "ht00007"], 4)
    out = tmp_path / "eval"
    assert run(["eval", "--data", data, "--annotations", raw / "annotations.tsv",
                "--out", out, "--max-epochs", "0", "--folds", "2",
                "--holdout-fraction", "0.1", "--dim", "4", "--pretrained", vectors]) == 0
    state, _, tags = load_checkpoint(out / "checkpoint.bin")
    assert np.array_equal(state.hashtags[tags.index("ht00002")], want["#HT00002"])
    assert np.array_equal(state.hashtags[tags.index("ht00007")], want["ht00007"])


def test_baseline_eval_skips_channel_inputs(tmp_path, caplog):
    raw, data = synth_and_build(tmp_path)
    (data / "social.coo").unlink()
    argv = ["eval", "--data", data, "--annotations", raw / "annotations.tsv",
            "--max-epochs", "1", "--folds", "2", "--holdout-fraction", "0.1", "--use-social"]
    with caplog.at_level("WARNING"):
        assert run(argv + ["--out", tmp_path / "mf", "--variant", "mf"]) == 0
    assert [r.getMessage() for r in caplog.records if "side channels" in r.getMessage()] == [
        "variant mf uses no side channels; ignoring social.coo"]
    assert run(argv + ["--out", tmp_path / "boosted", "--variant", "boosted"]) == 2
    assert run(argv + ["--out", tmp_path / "wlgcn", "--variant", "wlgcn"]) == 4


# config resolution ----------------------------------------------------------

@pytest.mark.parametrize("key", ["use_pretrained", "eval_every", "refresh_every",
                                 "include_layer0"])
def test_removed_config_key_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=1\n", encoding="utf-8")
    code = run(["synth", "--out", tmp_path / "out", "--config", cfg])
    assert code == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_each_config_key_is_declared_once():
    # A class body that annotates a name twice gives one field, with the
    # later default, and no error: only the source shows the repeat.
    module = SRC / "stancegraph" / "config.py"
    classes = [node for node in ast.parse(module.read_text(encoding="utf-8")).body
               if isinstance(node, ast.ClassDef)]
    assert [node.name for node in classes] == ["RunConfig"]
    declared = [stmt.target.id for stmt in classes[0].body if isinstance(stmt, ast.AnnAssign)]
    assert len(declared) == len(set(declared)) == 37
    assert declared == [f.name for f in dataclasses.fields(RunConfig)]


# The resolved config of a run with no flag, as every command prints it, in
# RunConfig's field order.
DEFAULT_CONFIG_LINES = [
    "max_outlets_followed=10",
    "max_avg_daily_tweets=3.0",
    "location_allowlist=",
    "dim=16",
    "n_layers=3",
    "learning_rate=0.001",
    "lambda_reg=0.0001",
    "batch_size=1024",
    "max_epochs=1000",
    "patience=50",
    "n_users=200",
    "n_hashtags=100",
    "n_neutral=10",
    "p_in=0.8",
    "p_out=0.1",
    "interactions_per_user=20",
    "homophily=5.0",
    "social_base_rate=0.02",
    "annotated_per_camp=15",
    "retweet_rate=0.5",
    "social_c_follow=1.0",
    "social_c_mention=1.0",
    "social_c_reply=1.0",
    "pathsim_left=retweet",
    "pathsim_right=tweet",
    "pathsim_min_weight=0.01",
    "pathsim_top_k=0",
    "holdout_fraction=0.05",
    "folds=5",
    "binary_stance=False",
    "seed=0",
    "strict_parse=True",
    "use_social=False",
    "use_pathsim=False",
    "val_fraction=0.2",
    "variant=wlgcn",
    "x_max=5",
]


def test_default_config_lines_and_help_keep_the_field_order(tmp_path, capsys):
    assert run(["build", "--counts", tmp_path / "counts.json", "--out", tmp_path / "data"]) == 4
    assert [line.removeprefix("[config] ") for line in capsys.readouterr().out.splitlines()
            if line.startswith("[config] ")] == DEFAULT_CONFIG_LINES
    with pytest.raises(SystemExit):
        run(["build", "--help"])
    options = [line.split()[0].rstrip(",") for line in capsys.readouterr().out.splitlines()
               if line.startswith("  -")]
    keys = [line.split("=", 1)[0] for line in DEFAULT_CONFIG_LINES]
    assert options == ["-h", "--counts", "--out", "--config",
                       *("--" + key.replace("_", "-") for key in keys)]


def test_a_wrong_type_is_refused_before_any_range():
    # Every key's type is checked first, then the ranges in field order.
    with pytest.raises(ConfigError, match="^learning_rate: expected a finite number, got nan$"):
        RunConfig(dim=0, learning_rate=float("nan"))
    with pytest.raises(ConfigError, match="^dim must be at least 1$"):
        RunConfig(dim=0, folds=1)


# Names the package gives a config key's value in a signature, besides the
# key's own name.
KEY_ALIASES = {
    "strict": "strict_parse",
    "follow": "social_c_follow",
    "mention": "social_c_mention",
    "reply": "social_c_reply",
    "left": "pathsim_left",
    "right": "pathsim_right",
    "min_weight": "pathsim_min_weight",
    "top_k": "pathsim_top_k",
    "fraction": "holdout_fraction",
}


def package_signatures():
    """(qualified name, callable) for every function and class of the
    package and every method those classes define, except config.py's
    RunConfig, which is where the defaults belong."""
    for path in sorted((SRC / "stancegraph").glob("*.py")):
        module = importlib.import_module(f"stancegraph.{path.stem}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                if path.stem == "config" and dataclasses.is_dataclass(obj):
                    continue
                yield f"{path.stem}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{path.stem}.{name}.{attr}", member
            elif inspect.isfunction(obj):
                yield f"{path.stem}.{name}", obj


def repeated_config_defaults() -> list[str]:
    """Each parameter of the package that declares a default for a config
    key's value: named as the key or one of KEY_ALIASES, or defaulting to a
    dataclass with such a field."""
    carried = {f.name for f in dataclasses.fields(RunConfig)} | set(KEY_ALIASES)
    found = []
    for qualname, obj in package_signatures():
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an exception class, whose signature is a builtin's
            continue
        for param in params:
            default = param.default
            if default is inspect.Parameter.empty:
                continue
            fields = ({f.name for f in dataclasses.fields(default)}
                      if dataclasses.is_dataclass(default) else set())
            if param.name in carried or fields & carried:
                found.append(f"{qualname}({param.name})")
    return found


def test_no_signature_repeats_a_config_default():
    assert repeated_config_defaults() == []


def test_repeated_default_check_finds_a_copy(monkeypatch):
    from stancegraph import evaluate, graphs

    def copied(graph, min_weight=0.01, top_k=0):
        return graph

    @dataclasses.dataclass(frozen=True)
    class Weights:
        follow: float = 1.0

    def weighted(counts, weights=Weights()):
        return counts

    for module, func in ((graphs, copied), (evaluate, weighted)):
        func.__module__ = module.__name__
        monkeypatch.setattr(module, func.__name__, func, raising=False)
    assert repeated_config_defaults() == [
        "evaluate.weighted(weights)", "graphs.copied(min_weight)", "graphs.copied(top_k)"]


def test_every_command_runs_the_stage_checks(tmp_path, capsys):
    # build reads no synthetic key, yet resolving its config checks them
    out = tmp_path / "data"
    code = run(["build", "--counts", tmp_path / "counts.json", "--out", out, "--n-users", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error ")] == [
        "error kind=ConfigError exit=2: need at least two users"]
    assert "Traceback" not in err
    assert not out.exists()


# One refused value per checked build and protocol key, with its message.
REFUSED_VALUES = [
    ("--pathsim-left", "bogus", "unknown meta-path relation 'bogus'"),
    ("--social-c-follow", "-1", "social coefficients must be nonnegative"),
    ("--pathsim-min-weight", "-1", "pathsim_min_weight must be nonnegative"),
    ("--pathsim-top-k", "-1", "pathsim_top_k must be nonnegative (0 disables the cap)"),
    ("--folds", "1", "need at least 2 folds"),
    ("--holdout-fraction", "0", "holdout fraction must be in (0, 1]"),
    ("--val-fraction", "0.6", "val_fraction must be in (0, 0.5]"),
]


def stage_argv(command, tmp_path, out):
    """build, train or eval on inputs that do not exist: a command that
    resolved its config without refusing it would exit 4, not 2."""
    if command == "build":
        return ["build", "--counts", tmp_path / "counts.json", "--out", out]
    if command == "train":
        return ["train", "--data", tmp_path / "data", "--out", out]
    return ["eval", "--data", tmp_path / "data", "--annotations", tmp_path / "ann.tsv",
            "--out", out]


def every_command_argv(tmp_path, out) -> list[list]:
    """Each command on inputs that do not exist, writing to `out`."""
    return [stage_argv("build", tmp_path, out), stage_argv("train", tmp_path, out),
            stage_argv("eval", tmp_path, out),
            ["ingest", "--tweets", tmp_path / "tweets.jsonl", "--out", out],
            ["curve", "--data", tmp_path / "data", "--eval-dir", tmp_path / "eval",
             "--annotations", tmp_path / "ann.tsv", "--out", out],
            ["synth", "--out", out]]


@pytest.mark.parametrize("command", ["build", "train", "eval"])
@pytest.mark.parametrize("flag, value, message", REFUSED_VALUES,
                         ids=[f"{flag[2:]}={value}" for flag, value, _ in REFUSED_VALUES])
def test_every_command_refuses_bad_graph_and_protocol_keys(tmp_path, capsys, command, flag,
                                                           value, message):
    out = tmp_path / "out"
    assert run(stage_argv(command, tmp_path, out) + [flag, value]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error ")] == [
        f"error kind=ConfigError exit=2: {message}"]
    assert not out.exists()


FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_refuses_a_non_finite_value(tmp_path, capsys, key, value):
    # A range check such as `x < 0` passes nan; on inputs that do not
    # exist, a command that took the value would exit 4, not 2.
    out = tmp_path / "out"
    flag = "--" + key.replace("_", "-")
    assert run(stage_argv("build", tmp_path, out) + [f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error ")] == [
        f"error kind=ConfigError exit=2: {key}: expected a finite number, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_refuses_a_non_finite_value_from_python(key, value):
    # Python callers hit the check that files and flags hit: before, only
    # the string path refused these.
    message = f"^{key}: expected a finite number, got {value}$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{key: value})
    with pytest.raises(ConfigError, match=message):
        resolve(overrides={key: value})


# Values of the wrong type for each key type, with the name the message
# gives the expected type. A bool is no int, a NumPy integer is no int and
# no float, and np.bool_ is no bool.
WRONG_TYPES = {
    "int": ("an integer", [2.5, True, np.int64(3), None, "3"]),
    "float": ("a number", [False, np.int64(1), None, "0.5", [0.5]]),
    "bool": ("a boolean", [1, 0, np.True_, None, "no"]),
    "str": ("a string", [1, None, True, b"wlgcn", ["tweet"]]),
}
KEY_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
WRONG_TYPED = [(key, value) for key, kind in KEY_TYPES.items() for value in WRONG_TYPES[kind][1]]


@pytest.mark.parametrize("key, value", WRONG_TYPED,
                         ids=[f"{key}={value!r}" for key, value in WRONG_TYPED])
def test_every_key_refuses_a_value_of_the_wrong_type_from_python(key, value):
    # Before, only the string path checked types: RunConfig(dim=2.5) was
    # accepted, and use_social="no" turned the social channel on.
    expected = WRONG_TYPES[KEY_TYPES[key]][0]
    message = f"^{re.escape(f'{key}: expected {expected}, got {value!r}')}$"
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{key: value})
    if not isinstance(value, str):  # a string takes the file and flag path
        with pytest.raises(ConfigError, match=message):
            resolve(overrides={key: value})


def test_float_keys_take_ints_and_numpy_floats_and_no_numpy_integers():
    cfg = RunConfig(homophily=np.float64(2.5), p_in=1, p_out=0, dim=8)
    assert cfg.homophily == 2.5 and (cfg.p_in, cfg.p_out) == (1, 0)
    assert resolve(overrides={"learning_rate": np.float64(0.01)}).learning_rate == 0.01
    with pytest.raises(ConfigError, match="^homophily: expected a finite number, got nan$"):
        RunConfig(homophily=np.float64("nan"))
    int64 = re.escape(repr(np.int64(8)))
    with pytest.raises(ConfigError, match=f"^dim: expected an integer, got {int64}$"):
        RunConfig(dim=np.int64(8))
    with pytest.raises(ConfigError, match="^use_social: expected a boolean, got"):
        RunConfig(use_social=np.True_)
    with pytest.raises(ConfigError, match="^homophily: expected a finite number, got 1000"):
        RunConfig(homophily=10**400)


@pytest.mark.parametrize("command", range(6),
                         ids=["build", "train", "eval", "ingest", "curve", "synth"])
def test_a_negative_seed_exits_2_on_every_command(tmp_path, command):
    # Before, every command died in np.random.SeedSequence with a traceback
    # and exit 1.
    out = tmp_path / "out"
    argv = every_command_argv(tmp_path, out)[command]
    proc = fresh_python(["-m", "stancegraph.cli", *map(str, argv), "--seed=-1"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("error ")] == [
        "error kind=ConfigError exit=2: seed must be nonnegative"]
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", range(6),
                         ids=["build", "train", "eval", "ingest", "curve", "synth"])
def test_x_max_below_1_exits_2_on_every_command(tmp_path, capsys, command):
    # Before, only curve refused it, in annotation_curve, and train ran.
    out = tmp_path / "out"
    assert run(every_command_argv(tmp_path, out)[command] + ["--x-max", "0"]) == 2
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error ")] == [
        "error kind=ConfigError exit=2: x_max must be at least 1"]
    assert not out.exists()


def test_config_file_refuses_a_non_finite_value(tmp_path):
    assert {"learning_rate", "homophily", "pathsim_min_weight"} <= set(FLOAT_KEYS)
    for text in ("homophily=nan", "pathsim_min_weight = inf", "learning_rate=-Infinity",
                 "p_in=1e400"):
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected a finite number"):
            resolve(path)


def test_eval_refuses_an_unknown_variant(tmp_path, capsys):
    # Every command refuses it, not only eval, which reads it: on inputs
    # that do not exist, a command that took the name would exit 4, or 0.
    out = tmp_path / "out"
    for argv in every_command_argv(tmp_path, out):
        assert run(argv + ["--variant", "bogus"]) == 2, argv[0]
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error ")] == [
            "error kind=ConfigError exit=2: unknown model variant 'bogus'"], argv[0]
        assert not out.exists()


def test_build_with_every_social_coefficient_zero_exits_5(tmp_path, capsys):
    raw, _ = synth_and_build(tmp_path)
    capsys.readouterr()
    out = tmp_path / "no-social"
    assert run(["build", "--counts", raw / "counts.json", "--out", out, "--social-c-follow", "0",
                "--social-c-mention", "0", "--social-c-reply", "0"]) == 5
    assert ("error kind=EmptyChannel exit=5: all social coefficients are zero"
            in capsys.readouterr().err)
    assert not out.exists()


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # The bullet list that follows the "Keys, by group" line.
    listing = readme.split("Keys, by group", 1)[1].split("\n\n")[1]
    keys = re.findall(r"`(\w+)`", listing)
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))

def test_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("# comment\nseed=7\ndim=32\nuse_social=true\n", encoding="utf-8")
    values = parse_config_file(cfg_path)
    assert values == {"seed": 7, "dim": 32, "use_social": True}
    cfg = resolve(cfg_path)
    assert cfg.seed == 7 and cfg.dim == 32 and cfg.use_social is True


def test_flags_override_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed=7\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["synth", "--out", out, "--config", cfg_path, "--seed", "9",
                "--n-users", "10", "--n-hashtags", "8", "--n-neutral", "2",
                "--interactions-per-user", "4", "--annotated-per-camp", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "[config] seed=9" in stdout


def test_bad_config_value_rejected(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("dim=notanumber\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        resolve(cfg_path)


def test_stage_seeds_differ_by_stage():
    seeds = {stage_seed(0, s) for s in ("ingest", "build", "train", "eval", "curve", "synth")}
    assert len(seeds) == 6


# pipeline -------------------------------------------------------------------

def test_synth_writes_dataset(tmp_path):
    raw, _ = synth_and_build(tmp_path)
    counts = load_counts(raw / "counts.json")
    assert len(counts.users) == 40
    assert len(counts.hashtags) == 20
    assert (raw / "annotations.tsv").exists()
    assert (raw / "planted.tsv").exists()


def test_build_writes_graph_files(tmp_path):
    _, data = synth_and_build(tmp_path)
    assert sorted(p.name for p in data.iterdir()) == [
        "bipartite.coo", "counts.json", "pathsim.coo", "social.coo"]


def test_ingest_command_roundtrip(tmp_path):
    tweets = tmp_path / "tweets.jsonl"
    rows = [
        {"tweet_id": f"t{i}", "user_id": f"u{i % 3}",
         "timestamp": "2022-09-04T12:00:00+00:00",
         "text": f"hola #tag{i % 4}", "kind": "original",
         "ref_user_id": None, "mentions": []}
        for i in range(9)
    ]
    tweets.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "counts.json"
    assert run(["ingest", "--tweets", tweets, "--out", out]) == 0
    counts = load_counts(out)
    assert counts.T.data.sum() == 9


def test_ingest_refuses_hashtags_that_are_not_a_list(tmp_path, capsys):
    tweets = tmp_path / "tweets.jsonl"
    rows = [{"tweet_id": "t1", "user_id": "u1", "timestamp": "2022-09-04T12:00:00+00:00",
             "text": "#uno", "kind": "original"},
            {"tweet_id": "t2", "user_id": "u2", "timestamp": "2022-09-04T12:00:00+00:00",
             "text": "#dos", "kind": "original", "hashtags": 5}]
    tweets.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "counts.json"
    assert run(["ingest", "--tweets", tweets, "--out", out]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error ")] == [
        "error kind=RecordError exit=3: line 2: hashtags must be a list of strings"]
    assert "Traceback" not in err and not out.exists()
    # Without strict parsing the record is skipped with a warning.
    assert run(["ingest", "--tweets", tweets, "--out", out, "--no-strict-parse"]) == 0
    assert load_counts(out).users == ["u1"]


def test_ingest_refuses_a_null_tweet_id(tmp_path, capsys):
    # Before, str() made both ids "None", and one record was dropped as a
    # duplicate of the other.
    tweets = tmp_path / "tweets.jsonl"
    rows = [{"tweet_id": tid, "user_id": uid, "timestamp": "2022-09-04T12:00:00+00:00",
             "text": "#uno", "kind": "original"} for tid, uid in (("t1", "u1"), (None, "u2"),
                                                                  (None, "u3"))]
    tweets.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    out = tmp_path / "counts.json"
    assert run(["ingest", "--tweets", tweets, "--out", out]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error ")] == [
        "error kind=RecordError exit=3: line 2: tweet_id must be a string or an integer"]
    assert "Traceback" not in err and not out.exists()
    assert run(["ingest", "--tweets", tweets, "--out", out, "--no-strict-parse"]) == 0
    assert load_counts(out).users == ["u1"]


def test_build_refuses_a_counts_file_with_number_lists(tmp_path, capsys):
    # counts.json as written before its arrays became base64 columns
    raw, _ = synth_and_build(tmp_path)
    counts = load_counts(raw / "counts.json")
    payload = {"users": counts.users, "hashtags": counts.hashtags}
    for name in ("T_tweet", "T_retweet", "T_reply", "mention", "reply", "mutual_follow"):
        mat = getattr(counts, name)
        payload[name] = {"indptr": mat.indptr.tolist(), "indices": mat.indices.tolist(),
                         "data": mat.data.tolist()}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    out = tmp_path / "rebuilt"
    capsys.readouterr()
    assert run(["build", "--counts", old, "--out", out]) == 3
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error ")]
    assert len(lines) == 1 and lines[0].startswith("error kind=RecordError exit=3: ")
    assert lines[0].endswith("old.json: not a counts file (bad magic)")
    assert "Traceback" not in err and not out.exists()


def test_train_zero_epochs_checkpoint_is_initialization(tmp_path):
    _, data = synth_and_build(tmp_path)
    out = tmp_path / "model"
    assert run(["train", "--data", data, "--out", out,
                "--max-epochs", "0", "--seed", "0", "--dim", "8"]) == 0
    state, users, tags = load_checkpoint(out / "checkpoint.bin")
    assert len(users) == 40 and len(tags) == 20
    init = init_embeddings(40, 20, RunConfig(dim=8), stage_seed(0, "train"), None)
    assert np.array_equal(state.users, init.users)
    assert np.array_equal(state.hashtags, init.hashtags)
    history = (out / "history.csv").read_text(encoding="utf-8").strip().splitlines()
    assert history == ["epoch,loss,recall@20,ndcg@20"]


def test_train_writes_history(tmp_path, capsys):
    _, data = synth_and_build(tmp_path)
    out = tmp_path / "model"
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", out,
                "--max-epochs", "3", "--seed", "1", "--dim", "8"]) == 0
    lines = (out / "history.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,loss,recall@20,ndcg@20"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    # The wall time is logged, not written to a file.
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert re.fullmatch(r"train: 3 epochs in \d+\.\d\d s, best recall@20 \d\.\d{4} -> .*",
                        last), last


def test_eval_writes_val_pairs_in_index_order(tmp_path):
    # The fold keeps the graph's row-major edge order, so eval writes it
    # as it is: strictly increasing in (user index, hashtag index).
    raw, data, eval_dir = synth_build_eval(tmp_path)
    counts = load_counts(data / "counts.json")
    uidx = {u: i for i, u in enumerate(counts.users)}
    hidx = {h: j for j, h in enumerate(counts.hashtags)}
    lines = (eval_dir / "val.tsv").read_text(encoding="utf-8").splitlines()
    keys = [(uidx[u], hidx[h]) for u, h in (line.split("\t") for line in lines)]
    assert len(keys) > 1 and all(a < b for a, b in zip(keys, keys[1:]))


def test_eval_and_curve_pipeline(tmp_path):
    raw, data = synth_and_build(tmp_path)
    eval_dir = tmp_path / "eval"
    assert run(["eval", "--data", data, "--annotations", raw / "annotations.tsv",
                "--out", eval_dir, "--max-epochs", "3", "--folds", "2",
                "--holdout-fraction", "0.1", "--seed", "0", "--dim", "8"]) == 0
    for name in ("report.txt", "folds.csv", "checkpoint.bin", "propagated.bin", "hidden.tsv",
                 "val.tsv"):
        assert (eval_dir / name).exists(), name
    report = (eval_dir / "report.txt").read_text(encoding="utf-8")
    assert "recall@20=" in report and "rmse=" in report

    curve_path = tmp_path / "curve.csv"
    assert run(["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", raw / "annotations.tsv",
                "--out", curve_path, "--x-max", "3", "--seed", "0", "--dim", "8"]) == 0
    lines = curve_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "x,accuracy"
    assert len(lines) == 4


@pytest.mark.parametrize("variant, channel_flags", [
    ("wlgcn", []),
    ("mf", []),
    ("lightgcn", []),
    ("null", []),
    ("wlgcn", ["--use-social", "--use-pathsim"]),
])
def test_curve_reads_the_model_eval_evaluated(tmp_path, variant, channel_flags):
    # curve gets no model or channel flags: it must not need eval's to match
    raw, data = synth_and_build(tmp_path, seed="3")
    annotations_path = raw / "annotations.tsv"
    eval_dir, curve_path = tmp_path / "eval", tmp_path / "curve.csv"
    assert run(["eval", "--data", data, "--annotations", annotations_path,
                "--out", eval_dir, "--seed", "3", "--dim", "8", "--max-epochs", "5",
                "--folds", "2", "--holdout-fraction", "0.3", "--variant", variant,
                *channel_flags]) == 0
    assert run(["curve", "--data", data, "--eval-dir", eval_dir,
                "--annotations", annotations_path, "--out", curve_path,
                "--seed", "3", "--x-max", "5"]) == 0

    cfg = resolve(None, {"seed": 3, "dim": 8, "max_epochs": 5, "folds": 2,
                         "holdout_fraction": 0.3, "variant": variant,
                         "use_social": bool(channel_flags), "use_pathsim": bool(channel_flags)})
    counts, graph, channels = _load_dataset(data, cfg, None)
    annotations = with_usage(load_annotations(annotations_path), counts)
    res = run_protocol(graph, channels, annotations, counts, cfg, stage_seed(3, "eval"))
    want = annotation_curve(res.propagated.users, res.propagated.hashtags, counts.hashtags,
                            res.split.hidden, annotations, range(1, 6))
    assert curve_path.read_text(encoding="utf-8") == "x,accuracy\n" + "".join(
        f"{x},{acc:.6f}\n" for x, acc in want)
    saved, _, _ = load_checkpoint(eval_dir / "propagated.bin")
    assert np.array_equal(saved.users, res.propagated.users)
    assert np.array_equal(saved.hashtags, res.propagated.hashtags)


def test_eval_variant_flag_runs_baselines(tmp_path):
    raw, data = synth_and_build(tmp_path)
    for variant in ("mf", "lightgcn", "null"):
        out_dir = tmp_path / f"eval_{variant}"
        assert run(["eval", "--data", data, "--annotations", raw / "annotations.tsv",
                    "--out", out_dir, "--max-epochs", "2", "--folds", "2",
                    "--holdout-fraction", "0.1", "--variant", variant]) == 0
        assert (out_dir / "report.txt").exists()


def test_pipeline_reports_are_deterministic(tmp_path):
    raw, data = synth_and_build(tmp_path)
    outputs = []
    for run_dir in ("eval_a", "eval_b"):
        out_dir = tmp_path / run_dir
        assert run(["eval", "--data", data, "--annotations", raw / "annotations.tsv",
                    "--out", out_dir, "--max-epochs", "3", "--folds", "2",
                    "--holdout-fraction", "0.1", "--seed", "5", "--dim", "8"]) == 0
        outputs.append({
            name: (out_dir / name).read_bytes()
            for name in ("report.txt", "folds.csv", "checkpoint.bin", "hidden.tsv", "val.tsv")
        })
    assert outputs[0] == outputs[1]
