"""tools/fold_bench.py: pair wins, ties, the IQR gap and the claim verdict."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fold_bench.py"
_spec = importlib.util.spec_from_file_location("fold_bench", TOOL)
fold_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fold_bench)

END_TO_END = {m["name"]: m for m in json.loads(fold_bench.BENCHMARK.read_text())["end_to_end"]}
LOWER = {"better": "lower", "bound": 0.2}
HIGHER = {"better": "higher", "bound": 0.2}
PARENT_TOTALS = [3.00, 3.01, 3.02, 3.03, 3.04, 3.05, 3.06, 3.07, 3.08, 3.09]  # IQR 0.045


def record(tree: str, **values) -> dict:
    metrics = {name: {"value": 1.0, "unit": "s"} for name in END_TO_END}
    metrics.update({name: {"value": v, "unit": "s"} for name, v in values.items()})
    return {"correct": True, "metrics": metrics, "provenance": {"tree": tree}}


def pairs_of(name: str, parent: list[float], change: list[float]) -> list[tuple[dict, dict]]:
    return [(record("parent", **{name: p}), record("change", **{name: c}))
            for p, c in zip(parent, change)]


def fold(tmp_path, parent: list[float], change: list[float], claim="total_s") -> dict:
    """Write one record per seed on each side, run main() and return its output."""
    for side, values in (("parent", parent), ("change", change)):
        directory = tmp_path / side
        directory.mkdir()
        for seed, value in enumerate(values, start=101):
            (directory / f"variants-table-seed{seed}-trace0.json").write_text(
                json.dumps(record(side, **{claim: value})), encoding="utf-8")
    meta, out = tmp_path / "meta.json", tmp_path / "BENCH.json"
    meta.write_text(json.dumps({"change": "test"}), encoding="utf-8")
    assert fold_bench.main(["--parent", str(tmp_path / "parent"),
                            "--change", str(tmp_path / "change"),
                            "--claim", f"variants-table:{claim}",
                            "--meta", str(meta), "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_nine_wins_and_gap_above_parent_iqr_meet_the_claim(tmp_path):
    change = [p - 0.5 for p in PARENT_TOTALS[:9]] + [PARENT_TOTALS[9] + 0.1]
    result = fold(tmp_path, PARENT_TOTALS, change)
    assert result["claim"]["change_wins"] == 9 and result["claim"]["pairs"] == 10
    assert result["claim"]["parent_iqr"] == pytest.approx(0.045)
    assert result["claim"]["met"] is True
    assert result["change"] == "test"
    assert result["workloads"]["variants-table"]["seeds"] == list(range(101, 111))
    assert result["provenance"] == {"parent": {"tree": "parent"}, "change": {"tree": "change"}}


def test_eight_wins_fail_the_claim(tmp_path):
    change = [p - 0.5 for p in PARENT_TOTALS[:8]] + [p + 0.1 for p in PARENT_TOTALS[8:]]
    result = fold(tmp_path, PARENT_TOTALS, change)
    assert result["claim"]["change_wins"] == 8
    assert result["claim"]["met"] is False


def test_gap_inside_parent_iqr_fails_the_claim(tmp_path):
    parent = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5]
    result = fold(tmp_path, parent, [p - 0.01 for p in parent])
    assert result["claim"]["change_wins"] == 10
    assert result["workloads"]["variants-table"]["summary"]["total_s"][
        "gap_exceeds_parent_iqr"] is False
    assert result["claim"]["met"] is False


def test_ties_count_for_neither_side():
    change = PARENT_TOTALS[:3] + [p - 0.5 for p in PARENT_TOTALS[3:]]
    got = fold_bench.summary(pairs_of("total_s", PARENT_TOTALS, change), "total_s", LOWER)
    assert (got["change_wins"], got["ties"], got["pairs"]) == (7, 3, 10)
    flipped = fold_bench.summary(pairs_of("total_s", change, PARENT_TOTALS), "total_s", LOWER)
    assert (flipped["change_wins"], flipped["ties"]) == (0, 3)


def test_higher_is_better_counts_wins_the_other_way(tmp_path):
    parent = [0.40 + 0.001 * k for k in range(10)]
    change = [p + 0.05 for p in parent]
    pairs = pairs_of("recall_at_20", parent, change)
    assert fold_bench.summary(pairs, "recall_at_20", HIGHER)["change_wins"] == 10
    assert fold_bench.summary(pairs, "recall_at_20", LOWER)["change_wins"] == 0
    result = fold(tmp_path, parent, change, claim="recall_at_20")
    assert END_TO_END["recall_at_20"]["better"] == "higher"
    assert result["claim"]["change_wins"] == 10 and result["claim"]["met"] is True
