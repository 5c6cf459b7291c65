"""Record wall time and peak RSS of CLI stages at M scale, for this tree and
optionally a parent tree.

The stages are ingest of a perfbench/corpus.py corpus, synth, build, build
with each user's PathSim neighbours capped at the 50 strongest
(--pathsim-top-k 50), a 1-epoch train without and with the social and
PathSim channels, a 2-fold, 1-epoch eval with both channels, and curve on
that eval's output. Every stage after ingest reads synth's dataset, and
those after build-top-k read the uncapped build's. The corpus has
--n-users users, --n-hashtags hashtags and 25 tweets per user, from seed
7: at the default size, CorpusSpec(n_users=4000, n_hashtags=1000,
n_tweets=100000).

Usage:
  python3 tools/mscale.py [--parent DIR] [--runs 3] [--n-users 4000] \
      [--n-hashtags 1000] [--interactions-per-user 30] [--out M.json]

A run of a tree runs every stage of STAGES in pipeline order, one stage
process each (`python -m stancegraph.cli` with the tree's `src` on
PYTHONPATH), in a fresh directory that is removed after the run. A
file that was written a moment ago can take 70-140 ms to reopen while
the kernel writes it back, so no run reuses another's files: each run
generates its own corpus, before its first stage and untimed, in a
child process (see below for why not in this one). With
--parent, this tree ("change") and the parent alternate run by run, and
so does which of them goes first. Each stage records its wall time, that
time scaled to the reference host speed by perfbench/run.py's HostClock
(the factor the benchmark applies to its stage times, from a probe loop
timed in a thread of this process), its peak RSS (`ru_maxrss` from
`wait4`), and the byte size and the sha256 of every file it wrote, whole,
with the total size. perfbench/run.py's sha256 reads a file 1 MiB at a
time, because on Linux a child's `ru_maxrss` is at least the peak RSS its
parent had reached when it started the child (the kernel keeps that mark
across vfork and exec): reading a 65 MB graph whole would raise every
later stage's reading to this tool's own peak.

This is not a benchmark harness: the committed workloads are
perfbench/run.py's. It records the sizes those workloads do not reach,
and its summary is marked not claimed. The summary gives, per stage and
tree, the median and quartiles of the raw and the scaled wall time, of
peak RSS and of the total bytes written, the change's delta against the
parent, and whether both trees wrote the same bytes. The result also
records the MALLOC_MMAP_THRESHOLD_ that the stages inherited, or null for
glibc's dynamic default: under that default a stage's peak can move by
~20 MB with no code change.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _perfbench_run():
    """perfbench/run.py, whose HostClock compensates stage times for the
    host's speed and whose sha256 hashes the outputs; it imports
    perfbench/corpus.py by its bare name."""
    sys.path.append(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_RUN = _perfbench_run()
HostClock, sha256 = _RUN.HostClock, _RUN.sha256
SEED = 1
# The ingest stage's corpus: its seed, and tweets per user.
CORPUS_SEED = 7
TWEETS_PER_USER = 25


def generate_corpus(out: Path, n_users: int, n_hashtags: int) -> None:
    """perfbench/corpus.py's corpus for the ingest stage, generated in a
    child process: generating 100k tweets takes a process to ~63 MB, which
    would become the floor of every later stage's ru_maxrss here."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from corpus import CorpusSpec, generate; "
            "generate(CorpusSpec(n_users=int(sys.argv[3]), n_hashtags=int(sys.argv[4]), "
            "n_tweets=int(sys.argv[5])), int(sys.argv[6]), sys.argv[2])")
    args = (ROOT / "perfbench", out, n_users, n_hashtags, TWEETS_PER_USER * n_users, CORPUS_SEED)
    subprocess.run([sys.executable, "-c", code, *map(str, args)], check=True)


def _ingest(run: Path, size: list[str]) -> list[str]:
    corpus = run / "corpus"
    return ["ingest", "--tweets", str(corpus / "tweets.jsonl"),
            "--follows", str(corpus / "follows.tsv"), "--outlets", str(corpus / "outlets.txt"),
            "--out", str(run / "ingest" / "counts.json")]


def _synth(run: Path, size: list[str]) -> list[str]:
    return ["synth", "--out", str(run / "synth"), "--seed", str(SEED), *size]


def _build(run: Path, size: list[str]) -> list[str]:
    return ["build", "--counts", str(run / "synth" / "counts.json"), "--out", str(run / "data")]


# The PathSim neighbour cap whose cost build-top-k records.
PATHSIM_TOP_K = 50


def _build_top_k(run: Path, size: list[str]) -> list[str]:
    return ["build", "--counts", str(run / "synth" / "counts.json"),
            "--out", str(run / "data-top-k"), "--pathsim-top-k", str(PATHSIM_TOP_K)]


ONE_EPOCH = ["--seed", str(SEED), "--max-epochs", "1"]
CHANNELS = ["--use-social", "--use-pathsim"]


def _train(run: Path, size: list[str]) -> list[str]:
    return ["train", "--data", str(run / "data"), "--out", str(run / "model"), *ONE_EPOCH]


def _train_channels(run: Path, size: list[str]) -> list[str]:
    return ["train", "--data", str(run / "data"), "--out", str(run / "model-channels"),
            *ONE_EPOCH, *CHANNELS]


def _eval_channels(run: Path, size: list[str]) -> list[str]:
    return ["eval", "--data", str(run / "data"), "--out", str(run / "eval-channels"),
            "--annotations", str(run / "synth" / "annotations.tsv"), "--folds", "2",
            *ONE_EPOCH, *CHANNELS]


def _curve(run: Path, size: list[str]) -> list[str]:
    return ["curve", "--data", str(run / "data"), "--eval-dir", str(run / "eval-channels"),
            "--annotations", str(run / "synth" / "annotations.tsv"),
            "--out", str(run / "curve" / "curve.csv")]


# Stage name -> (argv for a run directory and the size flags, directory of
# its outputs), in pipeline order. Training stages run one epoch, so that
# the one-off work before it, such as building the user-channel
# polynomial, shows next to an epoch's cost.
STAGES = {
    "ingest": (_ingest, "ingest"),
    "synth": (_synth, "synth"),
    "build": (_build, "data"),
    "build-top-k": (_build_top_k, "data-top-k"),
    "train": (_train, "model"),
    "train-channels": (_train_channels, "model-channels"),
    "eval-channels": (_eval_channels, "eval-channels"),
    "curve": (_curve, "curve"),
}


def run_stage(tree: Path, argv: list[str], run: Path, out_dir: str, clock) -> dict:
    """One stage process: wall time, the wall time scaled by the host clock's
    factor over it, peak RSS, and the size and hash of each of its outputs."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    log = run / "stage.log"
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "stancegraph.cli", *argv],
                                stdout=out, stderr=subprocess.STDOUT, cwd=run, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    wall = t1 - t0
    rc = os.waitstatus_to_exitcode(status)
    if rc != 0:
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace"))
    outputs = {path.name: {"bytes": path.stat().st_size, "sha256": sha256(path)}
               for path in (sorted((run / out_dir).glob("*")) if rc == 0 else ())}
    # ru_maxrss is in KiB on Linux.
    return {"wall_s": round(wall, 4), "scaled_s": round(wall * clock.factor(t0, t1), 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "output_bytes": sum(out["bytes"] for out in outputs.values()), "rc": rc,
            "outputs": outputs}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


METRICS = ("wall_s", "scaled_s", "peak_rss_mb", "output_bytes")


def summary(records: list[dict]) -> dict:
    """Per stage and tree, the spread of each of METRICS over the runs
    that exited 0; with both trees, the change's median delta in
    percent and whether every run of both trees wrote the same bytes."""
    out = {}
    for stage in dict.fromkeys(r["stage"] for r in records):
        mine = [r for r in records if r["stage"] == stage]
        entry = {"failed": sum(r["rc"] != 0 for r in mine)}
        for tree in dict.fromkeys(r["tree"] for r in mine):
            ok = [r for r in mine if r["tree"] == tree and r["rc"] == 0]
            if ok:
                entry[tree] = {"runs": len(ok),
                               **{metric: spread([r[metric] for r in ok]) for metric in METRICS}}
        if "parent" in entry and "change" in entry:
            for metric in METRICS:
                before = entry["parent"][metric]["median"]
                after = entry["change"][metric]["median"]
                entry[f"{metric}_delta_pct"] = round(100 * (after / before - 1), 1)
            entry["outputs_identical"] = (
                entry["failed"] == 0
                and len({json.dumps(r["outputs"], sort_keys=True) for r in mine}) == 1)
        out[stage] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="source tree to compare against")
    parser.add_argument("--runs", type=int, default=3, help="runs per tree")
    parser.add_argument("--n-users", type=int, default=4000)
    parser.add_argument("--n-hashtags", type=int, default=1000)
    parser.add_argument("--interactions-per-user", type=int, default=30)
    parser.add_argument("--out", type=Path, help="write the records and summary here as JSON")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), **trees}
    size = ["--n-users", str(args.n_users), "--n-hashtags", str(args.n_hashtags),
            "--interactions-per-user", str(args.interactions_per_user)]

    records = []
    with tempfile.TemporaryDirectory(prefix="mscale-") as work, HostClock() as clock:
        for k in range(args.runs):
            order = list(trees) if k % 2 == 0 else list(reversed(trees))
            for tree in order:
                run = Path(work) / f"run{k}-{tree}"
                run.mkdir()
                generate_corpus(run / "corpus", args.n_users, args.n_hashtags)
                for stage, (make_argv, out_dir) in STAGES.items():
                    result = run_stage(trees[tree], make_argv(run, size), run, out_dir, clock)
                    records.append({"tree": tree, "run": k, "stage": stage, **result})
                    print(f"run {k} {tree} {stage}: {result['wall_s']:.3f} s "
                          f"({result['scaled_s']:.3f} s scaled), "
                          f"{result['peak_rss_mb']:.1f} MB peak RSS, "
                          f"{result['output_bytes']} bytes written, exit {result['rc']}",
                          flush=True)
                    if result["rc"] != 0:
                        break
                shutil.rmtree(run)

    result = {
        "claimed": False,
        "method": f"tools/mscale.py, {args.runs} run(s) per tree, trees alternating",
        "size": {"n_users": args.n_users, "n_hashtags": args.n_hashtags,
                 "interactions_per_user": args.interactions_per_user,
                 "corpus_tweets": TWEETS_PER_USER * args.n_users, "corpus_seed": CORPUS_SEED},
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "summary": summary(records),
        "records": records,
    }
    print(json.dumps(result["summary"], indent=1))
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 1 if any(r["rc"] != 0 for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
