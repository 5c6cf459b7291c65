"""tools/mscale.py: the per-stage summary over alternating runs, and one run."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

OUTPUTS = {"counts.json": {"bytes": 100, "sha256": "aa"},
           "pathsim.coo": {"bytes": 300, "sha256": "bb"}}


def load(name: str, path: Path):
    """The module at `path`, registered as `name` (its dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ROOT = Path(__file__).resolve().parents[1]
mscale = load("mscale", ROOT / "tools" / "mscale.py")


def record(tree: str, run: int, stage: str, wall_s: float, peak_rss_mb: float, rc: int = 0,
           outputs: dict | None = None, scaled_s: float | None = None) -> dict:
    outputs = dict(OUTPUTS) if outputs is None else outputs
    return {"tree": tree, "run": run, "stage": stage, "wall_s": wall_s,
            "scaled_s": wall_s if scaled_s is None else scaled_s,
            "peak_rss_mb": peak_rss_mb,
            "output_bytes": sum(out["bytes"] for out in outputs.values()), "rc": rc,
            "outputs": outputs}


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


class StubClock:
    """A host clock whose factor is fixed; it records the spans asked for."""

    def __init__(self, factor: float):
        self._factor = factor
        self.spans = []

    def factor(self, start: float, end: float) -> float:
        self.spans.append((start, end))
        return self._factor


def test_stage_wall_time_is_scaled_by_the_host_clock_over_the_stage(tmp_path):
    clock = StubClock(0.5)
    got = mscale.run_stage(ROOT, ["--help"], tmp_path, "out", clock)
    assert got["rc"] == 0 and got["outputs"] == {}
    ((start, end),) = clock.spans
    assert got["wall_s"] == round(end - start, 4) > 0
    assert got["scaled_s"] == round((end - start) * 0.5, 4)


def test_summary_spreads_and_compares_the_scaled_times():
    # A slow host state during the change's runs doubles their raw times;
    # the scaled times show no change.
    records = []
    for run in range(3):
        records.append(record("parent", run, "build", 1.0 + run / 10, 300.0))
        records.append(record("change", run, "build", 2.0 + run / 5, 300.0,
                              scaled_s=1.0 + run / 10))
    got = mscale.summary(records)["build"]
    assert got["change"]["wall_s"]["median"] == 2.2
    assert got["change"]["scaled_s"] == {"median": 1.1, "q1": 1.05, "q3": 1.15}
    assert got["wall_s_delta_pct"] == 100.0
    assert got["scaled_s_delta_pct"] == 0.0


def test_summary_keeps_stages_apart_in_pipeline_order():
    got = mscale.summary(three_pairs("synth", (100.0, 101.0, 99.0)) + three_pairs("build"))
    assert list(got) == ["synth", "build"]
    assert got["synth"]["change"]["peak_rss_mb"]["median"] == 100.0
    assert got["build"]["change"]["peak_rss_mb"]["median"] == 275.0


def test_different_bytes_or_a_failed_run_are_not_identical():
    records = three_pairs()
    records[3] = dict(records[3], outputs=dict(OUTPUTS, **{"pathsim.coo": {"bytes": 300,
                                                                           "sha256": "cc"}}))
    assert mscale.summary(records)["build"]["outputs_identical"] is False

    records = three_pairs()
    records[1] = record("change", 0, "build", 9.0, 999.0, rc=1, outputs={})
    got = mscale.summary(records)["build"]
    assert got["failed"] == 1
    assert got["change"]["runs"] == 2
    assert got["change"]["peak_rss_mb"]["median"] == 277.5  # the failed run is left out
    assert got["outputs_identical"] is False


def test_summary_gives_each_trees_total_output_bytes():
    # A format change shows as a change in the bytes written, with the
    # hashes different and the totals compared like the other metrics.
    records = three_pairs()
    smaller = {"counts.json": {"bytes": 75, "sha256": "dd"},
               "pathsim.coo": {"bytes": 225, "sha256": "ee"}}
    for r in records:
        if r["tree"] == "change":
            r.update(outputs=smaller, output_bytes=300)
    got = mscale.summary(records)["build"]
    assert got["parent"]["output_bytes"] == {"median": 400, "q1": 400, "q3": 400}
    assert got["change"]["output_bytes"] == {"median": 300, "q1": 300, "q3": 300}
    assert got["output_bytes_delta_pct"] == -25.0
    assert got["outputs_identical"] is False


def test_one_tree_has_no_delta():
    got = mscale.summary([r for r in three_pairs() if r["tree"] == "change"])["build"]
    assert set(got) == {"failed", "change"}
    assert got["change"]["runs"] == 3


def test_one_small_run_records_every_stage(tmp_path, capsys, monkeypatch):
    # The stages inherit the allocator setting, and the result records it.
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    out = tmp_path / "m.json"
    assert mscale.main(["--runs", "1", "--n-users", "40", "--n-hashtags", "60",
                        "--interactions-per-user", "5", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["claimed"] is False
    assert result["malloc_mmap_threshold"] == "131072"
    stages = ["ingest", "synth", "build", "build-top-k", "train", "train-channels",
              "eval-channels", "curve"]
    assert [(r["tree"], r["stage"], r["rc"]) for r in result["records"]] == [
        ("change", stage, 0) for stage in stages]
    ingest, synth, build, build_top_k, train, train_channels, eval_channels, curve = (
        result["records"])
    for r in result["records"]:
        assert all(out["bytes"] > 0 and len(out["sha256"]) == 64
                   for out in r["outputs"].values()), r["stage"]
        assert r["output_bytes"] == sum(out["bytes"] for out in r["outputs"].values())
    # A graph file is its 34-byte header, then int32 indptr and indices and
    # float64 data; the bipartite graph holds every (user, hashtag) pair once.
    assert (build["outputs"]["bipartite.coo"]["bytes"] - 34 - 4 * 41) % 12 == 0
    assert result["summary"]["build"]["change"]["output_bytes"]["median"] == build["output_bytes"]
    assert set(ingest["outputs"]) == {"counts.json"}
    assert ingest["outputs"]["counts.json"] != synth["outputs"]["counts.json"]
    assert result["size"]["corpus_tweets"] == 25 * 40 and result["size"]["corpus_seed"] == 7
    assert set(synth["outputs"]) == {"annotations.tsv", "counts.json", "planted.tsv"}
    assert set(build["outputs"]) == {"bipartite.coo", "counts.json", "pathsim.coo", "social.coo"}
    # build copies the counts file it read.
    assert synth["outputs"]["counts.json"] == build["outputs"]["counts.json"]
    # With 40 users no one has more than 39 PathSim neighbours, so the cap of
    # 50 keeps every one: the capped build writes the same files.
    assert mscale.STAGES["build-top-k"][0](tmp_path, [])[-2:] == ["--pathsim-top-k", "50"]
    assert build_top_k["outputs"] == build["outputs"]
    assert set(train["outputs"]) == set(train_channels["outputs"]) == {
        "checkpoint.bin", "history.csv"}
    # The channels change what is trained.
    assert train["outputs"]["checkpoint.bin"] != train_channels["outputs"]["checkpoint.bin"]
    assert "report.txt" in eval_channels["outputs"]
    assert set(curve["outputs"]) == {"curve.csv"}
    assert all(r["peak_rss_mb"] > 0 and r["wall_s"] > 0 and r["scaled_s"] > 0
               for r in result["records"])
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
