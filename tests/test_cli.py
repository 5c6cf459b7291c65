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
from pathlib import Path

import numpy as np
import pytest

from stancegraph.cli import _load_dataset, _write_pairs, main
from stancegraph.config import (
    CorpusFilterConfig,
    EvalConfig,
    GraphConfig,
    ModelConfig,
    RunConfig,
    SynthConfig,
    TrainConfig,
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
from stancegraph.ingest import load_counts
from stancegraph.graphs import load_matrix_coo
from stancegraph.model import init_embeddings, load_checkpoint

from conftest import write_graph_container

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
    ("ingest", False), ("synth", False), ("curve", False),
    ("build", True), ("train", True), ("eval", True),
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
    assert len(errors) == 1 and errors[0].startswith("error kind=RecordError exit=3: line 1: ")
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
    assert "error kind=BoundsError exit=2: no x given" in capsys.readouterr().err
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
    old_text_bipartite,
    lambda data: rewrite_bipartite(data, column=lambda m: m),
    lambda data: rewrite_bipartite(data, value=float("nan")),
    truncate_bipartite,
], ids=["truncated-counts", "old-text-bipartite", "column-out-of-range", "nan-weight",
        "truncated-bipartite"])
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
        f"error kind=RecordError exit=3: line {len(lines) + 1}: repeated hidden edge")


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
    assert len(errors) == 1 and errors[0].startswith("error kind=RecordError exit=3: line 3: ")
    assert "Traceback" not in err


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
    init = init_embeddings(40, 20, ModelConfig(dim=4), stage_seed(0, "train"))
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


def test_run_config_declares_no_stage_key_again():
    # A stage field declared again in RunConfig would silently override
    # the stage config's default; a key in two stage configs would be two
    # declarations of one default.
    stages = (ModelConfig, TrainConfig, SynthConfig, CorpusFilterConfig, GraphConfig, EvalConfig)
    own = set(inspect.get_annotations(RunConfig))
    declared = [set(inspect.get_annotations(stage)) for stage in stages] + [own]
    for stage, keys in zip(stages, declared):
        assert keys == {f.name for f in dataclasses.fields(stage)}, stage.__name__
        assert keys <= {f.name for f in dataclasses.fields(RunConfig)}, stage.__name__
    assert sum(map(len, declared)) == len(set().union(*declared)) == 37
    assert len(own) == 7 and len(dataclasses.fields(RunConfig)) == 37


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
    package and every method those classes define, except the config
    dataclasses of config.py, which are where the defaults belong."""
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


def test_eval_refuses_an_unknown_variant(tmp_path, capsys):
    # Every command refuses it, not only eval, which reads it: on inputs
    # that do not exist, a command that took the name would exit 4, or 0.
    out = tmp_path / "out"
    for argv in (stage_argv("build", tmp_path, out), stage_argv("train", tmp_path, out),
                 stage_argv("eval", tmp_path, out),
                 ["ingest", "--tweets", tmp_path / "tweets.jsonl", "--out", out],
                 ["curve", "--data", tmp_path / "data", "--eval-dir", tmp_path / "eval",
                  "--annotations", tmp_path / "ann.tsv", "--out", out],
                 ["synth", "--out", out]):
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


def test_train_zero_epochs_checkpoint_is_initialization(tmp_path):
    _, data = synth_and_build(tmp_path)
    out = tmp_path / "model"
    assert run(["train", "--data", data, "--out", out,
                "--max-epochs", "0", "--seed", "0", "--dim", "8"]) == 0
    state, users, tags = load_checkpoint(out / "checkpoint.bin")
    assert len(users) == 40 and len(tags) == 20
    init = init_embeddings(40, 20, ModelConfig(dim=8), stage_seed(0, "train"))
    assert np.array_equal(state.users, init.users)
    assert np.array_equal(state.hashtags, init.hashtags)
    history = (out / "history.csv").read_text(encoding="utf-8").strip().splitlines()
    assert history == ["epoch,loss,recall@20,ndcg@20,elapsed_ms"]


def test_train_writes_history(tmp_path):
    _, data = synth_and_build(tmp_path)
    out = tmp_path / "model"
    assert run(["train", "--data", data, "--out", out,
                "--max-epochs", "3", "--seed", "1", "--dim", "8"]) == 0
    lines = (out / "history.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "epoch,loss,recall@20,ndcg@20,elapsed_ms"
    assert len(lines) == 4


def test_val_pairs_are_written_in_sorted_tuple_order(tmp_path):
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 12, size=(300, 2))  # unsorted, with repeats
    users, hashtags = [f"u{i}" for i in range(12)], [f"h{j}" for j in range(12)]
    _write_pairs(pairs, users, hashtags, tmp_path / "val.tsv")
    want = "".join(f"{users[u]}\t{hashtags[j]}\n" for u, j in sorted(map(tuple, pairs.tolist())))
    assert (tmp_path / "val.tsv").read_text(encoding="utf-8") == want


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
    counts, graph, channels = _load_dataset(data, cfg)
    annotations = with_usage(load_annotations(annotations_path), counts)
    res = run_protocol(graph, channels, annotations, counts.hashtags, cfg, stage_seed(3, "eval"),
                       null_interactions=int(counts.T.data.sum()))
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
