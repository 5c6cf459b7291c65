"""Fold perfbench run records into one committed BENCH_<n>.json.

Usage:
  python3 tools/fold_bench.py --parent DIR --change DIR --claim WORKLOAD:METRIC \
      --meta META.json --out BENCH_<n>.json

DIR is a `.perfbench/results` directory, one per source tree. A record
`<workload>-seed<N>-trace0.json` in both directories makes one pair. For
every workload and end-to-end metric the output gives each side's median
and quartiles, the change's pair wins, and whether the median gap exceeds
the parent's interquartile range; a claim is met when the change wins at
least 9/10 of the pairs and that gap holds. Traced records
(`-trace1.json`) present on both sides are listed per metric. META.json
holds the fields that no record carries (the change, the method, one-off
measurements) and is copied into the output as it is.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def records(directory: Path) -> dict[tuple[str, int, int], dict]:
    out = {}
    for path in directory.glob("*.json"):
        match = RECORD.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            out[key] = json.loads(path.read_text(encoding="utf-8"))
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "iqr": round(q3 - q1, 6)}


def summary(pairs: list[tuple[dict, dict]], name: str, end_to_end: dict) -> dict:
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    sign = 1 if end_to_end["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    return {
        "parent": before, "change": after,
        "delta_pct": round(100 * (after["median"] / before["median"] - 1), 2)
        if before["median"] else 0.0,
        "change_wins": wins, "ties": ties, "pairs": len(pairs), "bound": end_to_end["bound"],
        "gap_exceeds_parent_iqr": abs(after["median"] - before["median"]) > before["iqr"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--claim", required=True, help="WORKLOAD:METRIC")
    parser.add_argument("--meta", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent, change = records(args.parent), records(args.change)
    end_to_end = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    result = json.loads(args.meta.read_text(encoding="utf-8"))

    workloads = {}
    for workload in sorted({w for w, _, t in parent if t == 0}):
        seeds = sorted(s for w, s, t in parent if (w, t) == (workload, 0)
                       and (w, s, t) in change)
        pairs = [(parent[workload, s, 0], change[workload, s, 0]) for s in seeds]
        if pairs:
            workloads[workload] = {
                "seeds": seeds,
                "all_runs_correct": all(p["correct"] and c["correct"] for p, c in pairs),
                "summary": {name: summary(pairs, name, spec) for name, spec in end_to_end.items()},
            }
    workload, metric = args.claim.split(":")
    claimed = workloads[workload]["summary"][metric]
    result["claim"] = {
        "workload": workload, "metric": metric,
        "parent_median": claimed["parent"]["median"], "parent_iqr": claimed["parent"]["iqr"],
        "change_median": claimed["change"]["median"], "change_wins": claimed["change_wins"],
        "pairs": claimed["pairs"],
        "met": claimed["change_wins"] >= 0.9 * claimed["pairs"]
        and claimed["gap_exceeds_parent_iqr"],
    }
    result["workloads"] = workloads
    result["traced"] = {
        f"{w}-seed{s}": {name: {"parent": parent[w, s, 1]["metrics"][name]["value"],
                                "change": c["metrics"][name]["value"],
                                "unit": c["metrics"][name]["unit"]}
                         for name in sorted(c["metrics"]) if name in parent[w, s, 1]["metrics"]}
        for (w, s, t), c in sorted(change.items()) if t == 1 and (w, s, 1) in parent
    }
    first = (workload, workloads[workload]["seeds"][0], 0)
    result["provenance"] = {"parent": parent[first]["provenance"],
                            "change": change[first]["provenance"]}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result["claim"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
