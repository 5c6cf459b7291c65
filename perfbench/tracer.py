"""Traced stage launcher: runs one `stancegraph` CLI stage with spans.

Usage: python3 tracer.py SPANS_JSON SPAWN_EPOCH_S -- CLI_ARGS...

The package is imported, then each public function listed in TARGETS is
replaced by a timing wrapper in every `stancegraph` module namespace that
holds it, so calls made through `from .x import f` are caught too. Spans
(name, start, end, parent, counters) stay in memory and are written to
SPANS_JSON when the stage ends. Only layer-boundary functions are wrapped,
never per-item helpers, to keep the tracing overhead small.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TARGETS = {
    "config": ("resolve", "stage_seed", "stage_rng"),
    "ingest": ("parse_corpus", "apply_filters", "extract_interactions", "save_counts",
               "load_counts"),
    "graphs": ("build_interaction_graph", "build_social_graph", "compute_pathsim", "sparsify",
               "build_adjacency", "normalize_user_graph", "binarize", "save_matrix_coo",
               "load_matrix_coo"),
    "model": ("build_operators", "init_embeddings", "forward", "layer_averaged_propagate",
              "save_checkpoint", "load_checkpoint"),
    "train": ("train", "sample_epoch", "bpr_loss", "grad_e0", "adam_step", "save_history"),
    "metrics": ("ranking_metrics",),
    "evaluate": ("synth_generate", "with_usage", "holdout_split", "kfold_split",
                 "graph_without_edges", "null_model", "run_protocol", "annotation_curve",
                 "write_report"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _users(corpus) -> int:
    return len({t.user_id for t in corpus.tweets})


# Span-name suffix per call: graph files are timed per file.
LABELS = {
    "graphs.save_matrix_coo": lambda a, k: Path(_arg(a, k, 1, "path")).stem,
    "graphs.load_matrix_coo": lambda a, k: Path(_arg(a, k, 0, "path")).stem,
}

# Counters read from a call's arguments and result, after its span closed.
COUNTERS = {
    "ingest.parse_corpus": lambda a, k, r: {"records": len(r.tweets)},
    "ingest.apply_filters": lambda a, k, r: {
        "users_dropped": _users(_arg(a, k, 0, "corpus")) - _users(r)},
    "ingest.save_counts": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "graphs.save_matrix_coo": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "train.sample_epoch": lambda a, k, r: {"triples": len(r)},
    "train.train": lambda a, k, r: {"epochs": len(r[1])},
    "metrics.ranking_metrics": lambda a, k, r: {"users": r[2]},
}


class SpanRecorder:
    """Keeps spans as [name, start_ns, end_ns, parent_index, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, qualname: str, fn):
        label = LABELS.get(qualname)
        count = COUNTERS.get(qualname)

        def wrapper(*args, **kwargs):
            name = qualname if label is None else f"{qualname}.{label(args, kwargs)}"
            index = len(self.spans)
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                self.spans[index][4] = count(args, kwargs, result)
            return result

        return wrapper


def install(recorder: SpanRecorder) -> None:
    """Swap every target for its wrapper wherever a stancegraph module
    imported it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "stancegraph" or n.startswith("stancegraph.")) and m is not None]
    for mod_name, names in TARGETS.items():
        source = sys.modules[f"stancegraph.{mod_name}"]
        for name in names:
            original = getattr(source, name)
            wrapper = recorder.wrap(f"{mod_name}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, spawn_epoch = argv[0], float(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON SPAWN_EPOCH_S -- CLI_ARGS...")
    sys.path.insert(0, str(ROOT / "src"))
    import stancegraph.cli as cli

    startup_s = time.time() - spawn_epoch
    recorder = SpanRecorder()
    install(recorder)
    rc = 1
    try:
        rc = recorder.span("cli.main", cli.main, argv[3:])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": startup_s, "rc": rc, "spans": recorder.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
