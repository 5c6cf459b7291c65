"""tools/mscale.py: the per-stage summary over alternating runs, and one run."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

HASHES = {"counts.json": "aa", "pathsim.coo": "bb"}


def load(name: str, path: Path):
    """The module at `path`, registered as `name` (its dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT = Path(__file__).resolve().parents[1]
mscale = load("mscale", ROOT / "tools" / "mscale.py")


def record(tree: str, run: int, stage: str, wall_s: float, peak_rss_mb: float, rc: int = 0,
           outputs: dict | None = None) -> dict:
    return {"tree": tree, "run": run, "stage": stage, "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb, "rc": rc,
            "outputs": dict(HASHES) if outputs is None else outputs}


def three_pairs(stage: str = "build", change_rss=(270.0, 280.0, 275.0)) -> list[dict]:
    out = []
    for run, (p_rss, c_rss) in enumerate(zip((330.0, 320.0, 340.0), change_rss)):
        out.append(record("parent", run, stage, 0.70 + run / 100, p_rss))
        out.append(record("change", run, stage, 0.50 + run / 100, c_rss))
    return out


def test_summary_gives_medians_quartiles_and_deltas():
    got = mscale.summary(three_pairs())["build"]
    assert got["failed"] == 0
    assert got["parent"]["runs"] == got["change"]["runs"] == 3
    assert got["parent"]["peak_rss_mb"] == {"median": 330.0, "q1": 325.0, "q3": 335.0}
    assert got["change"]["peak_rss_mb"]["median"] == 275.0
    assert got["change"]["wall_s"] == {"median": 0.51, "q1": 0.505, "q3": 0.515}
    assert got["peak_rss_mb_delta_pct"] == round(100 * (275 / 330 - 1), 1)
    assert got["wall_s_delta_pct"] == round(100 * (0.51 / 0.71 - 1), 1)
    assert got["outputs_identical"] is True


def test_summary_keeps_stages_apart_in_pipeline_order():
    got = mscale.summary(three_pairs("synth", (100.0, 101.0, 99.0)) + three_pairs("build"))
    assert list(got) == ["synth", "build"]
    assert got["synth"]["change"]["peak_rss_mb"]["median"] == 100.0
    assert got["build"]["change"]["peak_rss_mb"]["median"] == 275.0


def test_different_bytes_or_a_failed_run_are_not_identical():
    records = three_pairs()
    records[3] = dict(records[3], outputs={"counts.json": "aa", "pathsim.coo": "cc"})
    assert mscale.summary(records)["build"]["outputs_identical"] is False

    records = three_pairs()
    records[1] = record("change", 0, "build", 9.0, 999.0, rc=1, outputs={})
    got = mscale.summary(records)["build"]
    assert got["failed"] == 1
    assert got["change"]["runs"] == 2
    assert got["change"]["peak_rss_mb"]["median"] == 277.5  # the failed run is left out
    assert got["outputs_identical"] is False


def test_history_elapsed_ms_alone_leaves_outputs_identical(tmp_path):
    header = "epoch,loss,recall@20,ndcg@20,elapsed_ms\n"
    digests = {}
    for tree, (first, second) in (("parent", ("12.5", "30.1")), ("change", ("9.0", "18.7"))):
        path = tmp_path / tree / "history.csv"
        path.parent.mkdir()
        path.write_text(header + f"1,0.69,0.1,0.05,{first}\n2,0.6,0.2,0.1,{second}\n",
                        encoding="utf-8")
        digests[tree] = mscale.file_digest(path)
    records = [record(tree, 0, "train", 1.0, 100.0, outputs={"history.csv": digest})
               for tree, digest in digests.items()]
    assert mscale.summary(records)["train"]["outputs_identical"] is True

    # Any other column still counts.
    path.write_text(header + "1,0.70,0.1,0.05,9.0\n2,0.6,0.2,0.1,18.7\n", encoding="utf-8")
    assert mscale.file_digest(path) != digests["parent"]
    # Other files are hashed whole.
    other = tmp_path / "report.txt"
    other.write_bytes(b"elapsed_ms=1\n")
    assert mscale.file_digest(other) == mscale.hashlib.sha256(b"elapsed_ms=1\n").hexdigest()


def test_one_tree_has_no_delta():
    got = mscale.summary([r for r in three_pairs() if r["tree"] == "change"])["build"]
    assert set(got) == {"failed", "change"}
    assert got["change"]["runs"] == 3


def test_one_small_run_records_every_stage(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert mscale.main(["--runs", "1", "--n-users", "40", "--n-hashtags", "60",
                        "--interactions-per-user", "5", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["claimed"] is False
    stages = ["ingest", "synth", "build", "train", "train-channels", "eval-channels", "curve"]
    assert [(r["tree"], r["stage"], r["rc"]) for r in result["records"]] == [
        ("change", stage, 0) for stage in stages]
    ingest, synth, build, train, train_channels, eval_channels, curve = result["records"]
    assert set(ingest["outputs"]) == {"counts.json"}
    assert ingest["outputs"]["counts.json"] != synth["outputs"]["counts.json"]
    assert result["size"]["corpus_tweets"] == 25 * 40 and result["size"]["corpus_seed"] == 7
    assert set(synth["outputs"]) == {"annotations.tsv", "counts.json", "planted.tsv"}
    assert set(build["outputs"]) == {"bipartite.coo", "counts.json", "pathsim.coo", "social.coo"}
    # build copies the counts file it read.
    assert synth["outputs"]["counts.json"] == build["outputs"]["counts.json"]
    assert set(train["outputs"]) == set(train_channels["outputs"]) == {
        "checkpoint.bin", "history.csv"}
    # The channels change what is trained.
    assert train["outputs"]["checkpoint.bin"] != train_channels["outputs"]["checkpoint.bin"]
    assert "report.txt" in eval_channels["outputs"]
    assert set(curve["outputs"]) == {"curve.csv"}
    assert all(r["peak_rss_mb"] > 0 and r["wall_s"] > 0 for r in result["records"])
    assert "run 0 change curve" in capsys.readouterr().out


def test_ingest_corpus_is_perfbench_corpus_from_seed_7(tmp_path):
    corpus = load("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    mscale.generate_corpus(tmp_path / "tool", 40, 60)
    corpus.generate(corpus.CorpusSpec(n_users=40, n_hashtags=60, n_tweets=1000), 7,
                    tmp_path / "want")
    names = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert sorted(p.name for p in (tmp_path / "tool").iterdir()) == names
    for name in names:
        assert (tmp_path / "tool" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
