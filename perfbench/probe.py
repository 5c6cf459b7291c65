"""Workload properties and the propagation kernel micro-measure.

Usage: python3 probe.py DATA_DIR RAW_USERS OUT_JSON

Reads a built dataset directory through the package's public loaders and
writes one JSON object of metrics: the input properties a performance claim
may depend on (sizes, graph nnz, PathSim density, hashtag skew, user-degree
quantiles) and the median time of one `graphs.propagate_once` product per
operator. The operator's nnz, flops and bytes are computed from array
sizes, not measured. RAW_USERS is the number of users in the raw corpus,
or -1 when the dataset did not come from `ingest`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from stancegraph.config import RunConfig  # noqa: E402
from stancegraph.graphs import (  # noqa: E402
    build_adjacency,
    load_bipartite,
    load_user_graph,
    normalize_user_graph,
    propagate_once,
)
from stancegraph.ingest import load_counts  # noqa: E402

KERNEL_BUDGET_S = 0.3
KERNEL_MIN_CALLS = 21
KERNEL_MAX_CALLS = 400


def _metric(value, unit):
    return {"value": value, "unit": unit}


def properties(data: Path, raw_users: int) -> tuple[dict, tuple]:
    counts = load_counts(data / "counts.json")
    graph = load_bipartite(data / "bipartite.coo")
    social = load_user_graph(data / "social.coo", kind="social")
    pathsim = load_user_graph(data / "pathsim.coo", kind="pathsim")
    n, m = graph.n_users, graph.n_hashtags
    tag_degree = np.sort(np.diff(graph.R.tocsc().indptr))[::-1]
    top = tag_degree[: max(1, math.ceil(0.01 * m))]
    user_degree = np.diff(graph.R.indptr)
    p50, p90, p99 = np.quantile(user_degree, [0.5, 0.9, 0.99])
    out = {
        "workload.users": _metric(len(counts.users), "count"),
        "workload.hashtags": _metric(len(counts.hashtags), "count"),
        "workload.users_dropped": _metric(
            raw_users - len(counts.users) if raw_users >= 0 else 0, "count"),
        "workload.bipartite_nnz": _metric(int(graph.R.nnz), "count"),
        "workload.social_nnz": _metric(int(social.W.nnz), "count"),
        "graphs.pathsim.nnz": _metric(int(pathsim.W.nnz), "count"),
        "workload.pathsim_density": _metric(pathsim.W.nnz / max(n * (n - 1), 1), "ratio"),
        "workload.top1pct_hashtag_edge_share": _metric(
            float(top.sum() / max(graph.R.nnz, 1)), "ratio"),
        "workload.user_degree_p50": _metric(float(p50), "count"),
        "workload.user_degree_p90": _metric(float(p90), "count"),
        "workload.user_degree_p99": _metric(float(p99), "count"),
    }
    return out, (graph, social, pathsim)


def kernel(operators: dict, dim: int, rng: np.random.Generator) -> dict:
    out = {}
    for name, adj in operators.items():
        H = rng.standard_normal((adj.size, dim))
        for _ in range(3):
            propagate_once(adj, H)
        times = []
        start = time.perf_counter()
        while len(times) < KERNEL_MIN_CALLS or (
            time.perf_counter() - start < KERNEL_BUDGET_S and len(times) < KERNEL_MAX_CALLS
        ):
            t0 = time.perf_counter()
            propagate_once(adj, H)
            times.append(time.perf_counter() - t0)
        mat = adj.matrix
        rows = mat.shape[0]
        moved = (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                 + 2 * rows * dim * H.itemsize)
        prefix = f"graphs.propagate_once.{name}"
        out[f"{prefix}.p50_ms"] = _metric(float(np.median(times)) * 1e3, "ms")
        out[f"{prefix}.nnz"] = _metric(int(mat.nnz), "count")
        out[f"{prefix}.flops"] = _metric(2 * int(mat.nnz) * dim, "flop-computed")
        out[f"{prefix}.bytes"] = _metric(int(moved), "B-computed")
    return out


def main(argv: list[str]) -> int:
    data, raw_users, out_path = Path(argv[0]), int(argv[1]), argv[2]
    metrics, (graph, social, pathsim) = properties(data, raw_users)
    operators = {
        "bipartite": build_adjacency(graph),
        "social": normalize_user_graph(social),
        "pathsim": normalize_user_graph(pathsim),
    }
    metrics.update(kernel(operators, RunConfig().dim, np.random.default_rng(0)))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
