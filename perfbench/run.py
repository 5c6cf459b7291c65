"""Pipeline benchmark for the stancegraph CLI.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs the real CLI stages, one stage process at a time (a
closed loop with one client), on inputs generated from --seed before any
timed stage. The pipeline is repeated MIN_REPS times, and then for as
long as another repetition fits in --seconds; every timing is a median
over repetitions.

Stage times are compensated for the host's speed. A shared 2-vCPU Xeon
VM (2.1 GHz) was measured to run, for seconds to minutes at a time, in a
fast or a slow state: HostClock's loop takes 1.4 or 2.4 ms, stage times
differ by about 1.35x, and plain medians spread 15-25 % between runs.
HostClock times that loop in a background thread, by thread CPU time,
while each stage runs; the stage's wall time is scaled by
sqrt(HOST_REF_S / loop time), the square root fitting how much less than
the pure interpreter loop these partly memory-bound stages slow down.
Raw wall times are kept in the run record.

Outputs are checked: exit codes, report ranges, row counts,
byte-identical checkpoints and reports across repetitions, and a stance
accuracy floor. The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end stage timings and quality
numbers. With --trace 1, untraced and traced repetitions alternate; the
traced ones run each stage under tracer.py, and the metrics are per-layer
self times, call counts and counters, the tracing overhead, the workload's
input properties and the propagation kernel micro-measure (probe.py).
A full record of each run, with provenance, is written under .perfbench/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import CorpusSpec, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_REPS = 3
# A traced run alternates untraced and traced repetitions and needs two of
# each for the per-call percentiles.
MIN_REPS_TRACED = 4
STAGE_TIMEOUT_S = 150.0
# HostClock's loop time in the fast state of a 2.1 GHz Xeon 2-vCPU VM.
HOST_REF_S = 0.0014
ACCURACY_FLOOR = 0.7
X_MAX = 5
LAYERS = ("cli", "config", "ingest", "graphs", "model", "train", "metrics", "evaluate")


@dataclass(frozen=True)
class Workload:
    """One benchmark input set and the stage sequence it runs."""

    corpus: CorpusSpec | None  # None: the `synth` stage makes the dataset
    flags: tuple[str, ...]  # config flags passed to every stage
    max_epochs: int
    variants: tuple[str, ...] = ("wlgcn",)


# Training flags shared by every workload: patience exceeds the epoch count,
# so every run trains exactly max_epochs epochs and a numerics change cannot
# change the amount of work.
TRAIN_FLAGS = ("--patience", "1000", "--learning-rate", "0.05", "--folds", "2",
               "--holdout-fraction", "0.3", "--x-max", str(X_MAX))

SYNTH_FLAGS = ("--n-users", "500", "--n-hashtags", "300", "--n-neutral", "30",
               "--interactions-per-user", "30")

WORKLOADS = {
    "full": {
        "corpus-bipartite": Workload(
            corpus=CorpusSpec(n_users=700, n_hashtags=500, n_tweets=16000),
            flags=TRAIN_FLAGS, max_epochs=6),
        "synth-channels": Workload(
            corpus=None, flags=TRAIN_FLAGS + SYNTH_FLAGS + ("--use-social", "--use-pathsim"),
            max_epochs=5),
        "variants-table": Workload(
            corpus=CorpusSpec(n_users=400, n_hashtags=350, n_tweets=9000),
            flags=TRAIN_FLAGS, max_epochs=6, variants=("wlgcn", "mf", "lightgcn", "null")),
    },
    # Used by smoke.py only: every stage and gate, at a size that runs in seconds.
    "tiny": {
        "corpus-bipartite": Workload(
            corpus=CorpusSpec(n_users=200, n_hashtags=80, n_tweets=8000),
            flags=TRAIN_FLAGS, max_epochs=6),
        "synth-channels": Workload(
            corpus=None,
            flags=TRAIN_FLAGS + ("--n-users", "120", "--n-hashtags", "80", "--n-neutral", "10",
                                 "--interactions-per-user", "20", "--use-social",
                                 "--use-pathsim"),
            max_epochs=3),
        "variants-table": Workload(
            corpus=CorpusSpec(n_users=200, n_hashtags=80, n_tweets=8000),
            flags=TRAIN_FLAGS, max_epochs=6, variants=("wlgcn", "mf", "lightgcn", "null")),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "eval_s": "s", "total_s": "s", "peak_rss_mb": "MB",
    "recall_at_20": "ratio", "ndcg_at_20": "ratio", "stance_accuracy": "ratio",
}


@dataclass(frozen=True)
class Stage:
    phase: str  # setup, train or eval
    label: str
    argv: tuple[str, ...]


@dataclass
class StageResult:
    label: str
    phase: str
    wall_s: float
    rss_mb: float
    rc: int
    seconds: float  # wall_s compensated to the reference host speed


class HostClock:
    """Times a fixed interpreter loop every PERIOD_S in a background thread.

    The loop is timed by thread CPU time, so it measures how fast the host
    executes, not whether this thread had a CPU: a program that uses both
    CPUs does not make itself look faster by slowing the probe."""

    PERIOD_S = 0.05

    def __init__(self):
        self._words = [f"Tag{i}" for i in range(1500)]
        self._samples: list[tuple[float, float, float]] = []  # start, end, cpu seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.is_set():
            start, cpu = time.perf_counter(), time.thread_time()
            counts: dict[str, int] = {}
            for _ in range(8):
                for word in self._words:
                    key = word.lower()
                    counts[key] = counts.get(key, 0) + 1
            cpu = time.thread_time() - cpu
            self._samples.append((start, time.perf_counter(), cpu))
            self._stop.wait(self.PERIOD_S)

    def factor(self, start: float, end: float) -> float:
        """Scale that brings a wall time measured in [start, end] to the
        reference host speed."""
        inside = [cpu for s, e, cpu in self._samples if s >= start and e <= end]
        nearest = inside or [cpu for _, _, cpu in self._samples[-5:]]
        return math.sqrt(HOST_REF_S / statistics.median(nearest)) if nearest else 1.0


@dataclass
class Rep:
    traced: bool
    stages: list[StageResult] = field(default_factory=list)

    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)


def median_s(reps: list[Rep], phase: str | None = None) -> float:
    """Median over repetitions of the compensated time of one phase, or of
    the whole repetition."""
    return statistics.median(
        sum(s.seconds for s in r.stages if phase in (None, s.phase)) for r in reps)


def plan(w: Workload, raw: Path, rep: Path, seed: int) -> list[Stage]:
    common = ("--seed", str(seed), "--max-epochs", str(w.max_epochs)) + w.flags
    stages = []
    if w.corpus is not None:
        counts = rep / "counts.json"
        annotations = raw / "annotations.tsv"
        stages.append(Stage("setup", "ingest", (
            "ingest", "--tweets", str(raw / "tweets.jsonl"), "--follows", str(raw / "follows.tsv"),
            "--outlets", str(raw / "outlets.txt"), "--out", str(counts)) + common))
    else:
        counts = rep / "synth" / "counts.json"
        annotations = rep / "synth" / "annotations.tsv"
        stages.append(Stage("setup", "synth", ("synth", "--out", str(rep / "synth")) + common))
    data = str(rep / "data")
    stages.append(Stage("setup", "build", ("build", "--counts", str(counts), "--out", data)
                        + common))
    stages.append(Stage("train", "train", ("train", "--data", data, "--out", str(rep / "model"))
                        + common))
    for variant in w.variants:
        stages.append(Stage("eval", f"eval-{variant}", (
            "eval", "--data", data, "--annotations", str(annotations),
            "--out", str(rep / f"eval-{variant}"), "--variant", variant) + common))
    stages.append(Stage("eval", "curve", (
        "curve", "--data", data, "--eval-dir", str(rep / "eval-wlgcn"),
        "--annotations", str(annotations), "--out", str(rep / "curve.csv")) + common))
    return stages


def stage_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_stage(stage: Stage, rep_dir: Path, spans: Path | None, env: dict,
              clock: HostClock) -> StageResult:
    """Run one stage process to completion; time it and read its peak RSS."""
    log = rep_dir / "logs" / f"{stage.label}.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    if spans is None:
        cmd = [sys.executable, "-m", "stancegraph.cli", *stage.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), repr(time.time()), "--",
               *stage.argv]
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
        print(f"stage {stage.label} exited {proc.returncode}: " + " | ".join(tail),
              file=sys.stderr)
    # ru_maxrss is in KiB on Linux.
    return StageResult(stage.label, stage.phase, t1 - t0, usage.ru_maxrss / 1024.0,
                       proc.returncode, (t1 - t0) * clock.factor(t0, t1))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_report(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        out[key] = float(value)
    return out


def check_rep(w: Workload, rep_dir: Path, problems: list[str]) -> dict:
    """Apply the output gates to one repetition; return its quality numbers
    and the hashes that must repeat across repetitions."""
    hashes = {}
    with open(rep_dir / "model" / "history.csv", encoding="utf-8") as fh:
        epochs = sum(1 for _ in csv.reader(fh)) - 1
    if epochs != w.max_epochs:
        problems.append(f"history.csv has {epochs} epochs, want {w.max_epochs}")
    hashes["model/checkpoint.bin"] = sha256(rep_dir / "model" / "checkpoint.bin")
    quality = {}
    for variant in w.variants:
        ev = rep_dir / f"eval-{variant}"
        report = read_report(ev / "report.txt")
        rates = ["recall@20", "ndcg@20", "accuracy", "rmse"]
        if report.get("n_cold", 0) > 0:
            rates.append("accuracy_cold")
        for key in rates:
            value = report.get(key, math.nan)
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{ev.name}/report.txt {key}={value} is not in [0, 1]")
        for name in ("report.txt", "checkpoint.bin"):
            hashes[f"{ev.name}/{name}"] = sha256(ev / name)
        if variant == "wlgcn":
            quality = {"recall_at_20": report["recall@20"], "ndcg_at_20": report["ndcg@20"],
                       "stance_accuracy": report["accuracy"]}
            if report["accuracy"] < ACCURACY_FLOOR:
                problems.append(f"stance accuracy {report['accuracy']} is below the planted-camp "
                                f"floor {ACCURACY_FLOOR}")
    with open(rep_dir / "curve.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != X_MAX or not all(0.0 <= float(acc) <= 1.0 for _, acc in rows):
        problems.append(f"curve.csv has {len(rows)} valid rows, want {X_MAX}")
    hashes["curve.csv"] = sha256(rep_dir / "curve.csv")
    return {"quality": quality, "hashes": hashes}


def aggregate_spans(span_files: list[Path]) -> dict:
    """Per span name: calls, self time, per-call durations and counters.
    Self time is the span's duration minus its direct children's."""
    by_name: dict[str, dict] = {}
    startups = []
    for path in span_files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        startups.append(payload["startup_s"])
        spans = payload["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for k, (name, start, end, parent, counters) in enumerate(spans):
            entry = by_name.setdefault(name, {"calls": 0, "self_ns": 0, "durs": [],
                                              "counters": {}})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[k]
            entry["durs"].append((end - start) / 1e6)
            for key, value in counters.items():
                entry["counters"][key] = entry["counters"].get(key, 0) + value
    return {"names": by_name, "startups": startups}


def layer_metrics(agg: dict, traced_reps: int) -> dict:
    """Per-layer metrics, normalized to one pipeline repetition."""
    names = agg["names"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def entry(name):
        return names.get(name, {"calls": 0, "self_ns": 0, "durs": [], "counters": {}})

    def per_rep(value):
        return value / traced_reps

    def function(name, percentiles=(), counters=(), calls=True):
        e = entry(name)
        if calls:
            put(f"{name}.calls", per_rep(e["calls"]), "count")
        put(f"{name}.self_s", per_rep(e["self_ns"]) / 1e9, "s")
        for q in percentiles:
            # The full-size workloads give each listed percentile at least ten
            # samples beyond it; the tiny smoke size may not.
            durs = e["durs"]
            value = (statistics.quantiles(durs, n=100, method="inclusive")[q - 1]
                     if len(durs) > 1 else sum(durs))
            put(f"{name}.p{q}_ms", value, "ms")
        for key in counters:
            put(f"{name}.{key}", per_rep(e["counters"].get(key, 0)), "count")

    put("cli.startup_s", statistics.median(agg["startups"]), "s")
    put("cli.stage_processes", per_rep(len(agg["startups"])), "count")
    for layer in LAYERS:
        self_ns = sum(e["self_ns"] for n, e in names.items() if n.split(".")[0] == layer)
        put(f"{layer}.self_s", per_rep(self_ns) / 1e9, "s")
    put("config.resolve.calls", per_rep(entry("config.resolve")["calls"]), "count")

    function("ingest.parse_corpus", counters=("records",))
    function("ingest.apply_filters", counters=("users_dropped",))
    function("ingest.extract_interactions")
    function("ingest.save_counts", counters=("bytes",))
    function("ingest.load_counts")
    for graph in ("bipartite", "social", "pathsim"):
        function(f"graphs.save_matrix_coo.{graph}", counters=("bytes",), calls=False)
        function(f"graphs.load_matrix_coo.{graph}")
    for name in ("compute_pathsim", "sparsify", "build_social_graph", "build_adjacency",
                 "normalize_user_graph"):
        function(f"graphs.{name}")
    for name in ("synth_generate", "holdout_split", "graph_without_edges", "null_model",
                 "run_protocol", "annotation_curve"):
        function(f"evaluate.{name}")
    function("model.forward", percentiles=(50, 90))
    function("model.layer_averaged_propagate", percentiles=(50, 90))
    for name in ("build_operators", "save_checkpoint", "load_checkpoint"):
        function(f"model.{name}")
    put("train.train.calls", per_rep(entry("train.train")["calls"]), "count")
    put("train.train.epochs", per_rep(entry("train.train")["counters"].get("epochs", 0)), "count")
    function("train.sample_epoch", percentiles=(50,), counters=("triples",))
    function("train.bpr_loss", percentiles=(50,))
    function("train.grad_e0", percentiles=(50, 90))
    function("train.adam_step", percentiles=(50, 90))
    function("metrics.ranking_metrics", percentiles=(50,), counters=("users",))
    return out


def provenance() -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    try:
        info["git_revision"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown: not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        info["git_revision"] = "unknown: git unavailable"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = h.hexdigest()
    probe = (
        "import ctypes, glob, json, os, numpy, scipy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "threads = None\n"
        "for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), '..', "
        "'numpy.libs', '*openblas*')):\n"
        "    for sym in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
        "        fn = getattr(ctypes.CDLL(lib), sym, None)\n"
        "        if fn is not None and threads is None:\n"
        "            fn.restype = ctypes.c_int; threads = fn()\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, "
        "'blas': blas.get('name'), 'blas_version': blas.get('version'), "
        "'blas_threads': threads}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60)
    info.update(json.loads(out.stdout) if out.returncode == 0 else {"numpy": "unavailable"})
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(WORKLOADS), default="full")
    args = parser.parse_args()
    workloads = WORKLOADS[args.size]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    if not (ROOT / "src" / "stancegraph" / "cli.py").is_file():
        print(f"no stancegraph sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    w = workloads[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    # SIGTERM unwinds like an exception, so the running stage is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with HostClock() as clock:
            return run(w, args, tag, work, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(w: Workload, args, tag: str, work: Path, clock: HostClock) -> int:
    raw = work / "raw"
    raw.mkdir(parents=True)
    raw_users = -1
    if w.corpus is not None:
        raw_users = generate(w.corpus, args.seed, raw)["users"]
    env = stage_env()
    info = provenance()
    print("provenance " + json.dumps(info, sort_keys=True))

    reps: list[Rep] = []
    checks: list[dict] = []
    problems: list[str] = []
    span_files: list[Path] = []
    attempted = failed = 0
    min_reps = MIN_REPS_TRACED if args.trace else MIN_REPS
    started = time.perf_counter()
    while len(reps) < min_reps or (
            time.perf_counter() - started + max(r.wall_s() for r in reps) <= args.seconds):
        # In a traced run, repetitions alternate untraced, traced, untraced...
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_dir = work / f"rep{len(reps)}"
        rep = Rep(traced=traced)
        for stage in plan(w, raw, rep_dir, args.seed):
            spans = rep_dir / "spans" / f"{stage.label}.json" if traced else None
            if spans is not None:
                spans.parent.mkdir(parents=True, exist_ok=True)
                span_files.append(spans)
            result = run_stage(stage, rep_dir, spans, env, clock)
            attempted += 1
            rep.stages.append(result)
            if result.rc != 0:
                failed += 1
                break
        reps.append(rep)
        if failed:
            break
        try:
            checks.append(check_rep(w, rep_dir, problems))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"rep {len(reps) - 1}: unreadable stage output: {exc}")
            break
        print(f"rep {len(reps) - 1}{' traced' if traced else ''}: " + ", ".join(
            f"{s.label} {s.wall_s:.3f}s (compensated {s.seconds:.3f}s) {s.rss_mb:.0f}MB"
            for s in rep.stages), flush=True)
        if not args.trace:
            shutil.rmtree(rep_dir)  # a traced run keeps its spans and, for the probe, data

    for key in sorted({k for c in checks for k in c["hashes"]}):
        if len({c["hashes"].get(key) for c in checks}) != 1:
            problems.append(f"{key} differs across repetitions with the same seed")
    untraced = [r for r in reps if not r.traced]
    metrics: dict[str, dict] = {}
    if not failed and untraced:
        quality = checks[0]["quality"]
        values = {
            "setup_s": median_s(untraced, "setup"),
            "train_s": median_s(untraced, "train"),
            "eval_s": median_s(untraced, "eval"),
            "total_s": median_s(untraced),
            "peak_rss_mb": statistics.median(max(s.rss_mb for s in r.stages) for r in untraced),
            **quality,
        }
        end_to_end = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        if args.trace:
            traced_reps = [r for r in reps if r.traced]
            metrics = layer_metrics(aggregate_spans(span_files), len(traced_reps))
            traced_total = median_s(traced_reps)
            metrics["trace.traced_total_s"] = {"value": traced_total, "unit": "s"}
            metrics["trace.untraced_total_s"] = {"value": values["total_s"], "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_total - values["total_s"], "unit": "s"}
            try:
                metrics.update(run_probe(work / f"rep{len(reps) - 1}", raw_users, work, env))
            except (subprocess.SubprocessError, OSError, ValueError) as exc:
                problems.append(f"probe.py failed: {exc}")
        else:
            metrics = end_to_end
        print("end-to-end " + json.dumps(end_to_end, sort_keys=True))

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not failed and not problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "provenance": info,
        "repetitions": [
            {"traced": r.traced, "stages": [vars(s) for s in r.stages]} for r in reps],
        "problems": problems, "correct": correct, "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def run_probe(rep_dir: Path, raw_users: int, work: Path, env: dict) -> dict:
    out = work / "probe.json"
    subprocess.run([sys.executable, str(HERE / "probe.py"), str(rep_dir / "data"),
                    str(raw_users), str(out)], cwd=ROOT, env=env, check=True, timeout=120)
    return json.loads(out.read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
