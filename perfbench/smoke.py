"""Smoke test for the benchmark itself.

Usage: python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json at the tiny size, untraced and
traced, and checks that each result line is correct and carries exactly
the metrics BENCHMARK.json names for that mode, each with its unit and a
finite value. Then checks that the benchmark refuses to run, without
printing a result, when the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(wanted) | set(got)):
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif name not in wanted:
            problems.append(f"{where}: metric {name} is not named in BENCHMARK.json")
        else:
            value, unit = got[name].get("value"), got[name].get("unit")
            if unit != wanted[name]:
                problems.append(f"{where}: {name} has unit {unit!r}, want {wanted[name]!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                problems.append(f"{where}: {name} has value {value!r}")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "corpus-bipartite",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without sources the benchmark did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, workload["name"], trace)
    problems += check_refuses_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
