"""Top-level acceptance checks, one numbered criterion per test.

Each test prints a single "ACCEPT <n> ...: PASS/FAIL" line on the real
stdout (bypassing capture) so a plain verbose run shows the verdicts.
"""

from __future__ import annotations

import importlib.util
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stancegraph.cli import main
from stancegraph.config import RunConfig
from stancegraph.errors import ConfigError
from stancegraph.evaluate import (
    EVAL_K,
    annotation_curve,
    bundled_annotations,
    graph_without_edges,
    run_protocol,
    synth_generate,
)
from stancegraph.graphs import (
    BipartiteGraph,
    binarize,
    build_adjacency,
    build_interaction_graph,
    compute_pathsim,
)
from stancegraph.metrics import ranking_metrics
from stancegraph.evaluate import stance_metrics
from stancegraph.model import (
    build_operators,
    forward,
    init_embeddings,
    layer_averaged_propagate,
)
from stancegraph.train import grad_e0, pair_scores, sample_epoch

from conftest import (NO_CHANNELS, channel_set, counts_from, dense, random_bipartite,
                      random_user_graph)
from reference import evaluate_loss, ndcg_at_k, recall_at_k, score_all


def verdict(capfd, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    with capfd.disabled():
        print(f"ACCEPT {label}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)


# 1: analytic gradients ---------------------------------------------------

def central_difference_grad(e0, triples, ops, cfg, lam, h=1e-6):
    grad = np.zeros_like(e0)
    for idx in np.ndindex(e0.shape):
        plus = e0.copy()
        plus[idx] += h
        minus = e0.copy()
        minus[idx] -= h
        grad[idx] = (
            evaluate_loss(plus, triples, ops, cfg, lam)
            - evaluate_loss(minus, triples, ops, cfg, lam)
        ) / (2.0 * h)
    return grad


def test_accept_1_gradients_match_finite_differences(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    checked = 0
    worst = 0.0
    for use_social in (False, True):
        for use_pathsim in (False, True):
            for _ in range(6):
                n = int(rng.integers(2, 7))
                m = int(rng.integers(2, 7))
                d = int(rng.integers(1, 4))
                K = int(rng.integers(0, 4))
                g = random_bipartite(rng, n, m)
                channels = channel_set(
                    K, social=random_user_graph(rng, n) if use_social else None,
                    pathsim=random_user_graph(rng, n, kind="pathsim") if use_pathsim else None,
                )
                cfg = RunConfig(dim=d, n_layers=K)
                ops = build_operators(g, channels)
                try:
                    triples = sample_epoch(g, rng)
                except ConfigError:
                    continue  # every user saturated; nothing to sample
                e0 = 0.5 * rng.standard_normal((n + m, d))
                lam = float(rng.choice([0.0, 0.01, 0.1]))
                out = forward(e0, ops, cfg)
                analytic = grad_e0(triples, pair_scores(triples, out), ops,
                                   replace(cfg, lambda_reg=lam), e0)
                numeric = central_difference_grad(e0, triples, ops, cfg, lam)
                gap = np.abs(analytic - numeric)
                allowed = np.maximum(1e-5 * np.abs(numeric), 1e-8)
                worst = max(worst, float((gap / allowed).max()))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 20 and worst <= 1.0 and elapsed < 10.0
    verdict(capfd, "1 gradient matches central differences",
            ok, f"{checked} instances, worst margin {worst:.3f}, {elapsed:.1f}s")
    assert checked >= 20
    assert worst <= 1.0, f"gradient mismatch beyond tolerance (margin {worst:.3f})"
    assert elapsed < 10.0


# 2: propagation oracle ----------------------------------------------------

def test_accept_2_propagation_matches_dense_oracle(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    worst_sym = 0.0
    worst_prop = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        K = int(rng.integers(0, 5))
        d = int(rng.integers(1, 4))
        adj = build_adjacency(random_bipartite(rng, n, m, density=0.6))
        A = adj.matrix.toarray()
        worst_sym = max(worst_sym, float(np.abs(A - A.T).max()))
        X = rng.standard_normal((n + m, d))
        dense = X.copy()
        H = X.copy()
        for _ in range(K):
            H = A @ H
            dense = dense + H
        dense /= K + 1
        got = layer_averaged_propagate(adj, X, K)
        worst_prop = max(worst_prop, float(np.abs(got - dense).max()))
    elapsed = time.perf_counter() - start
    ok = worst_sym <= 1e-12 and worst_prop <= 1e-10 and elapsed < 5.0
    verdict(capfd, "2 sparse propagation matches dense oracle",
            ok, f"sym {worst_sym:.1e}, prop {worst_prop:.1e}, {elapsed:.1f}s")
    assert worst_sym <= 1e-12
    assert worst_prop <= 1e-10
    assert elapsed < 5.0


# 3: meta-path similarity oracle -------------------------------------------

def enumerated_pathsim(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Count unit path instances one by one, then apply the similarity."""
    n, m = L.shape
    cross = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            count = 0
            for h in range(m):
                for _ in range(int(L[i, h])):
                    for _ in range(int(R[j, h])):
                        count += 1
            cross[i, j] = float(count)
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            denom = cross[i, i] + cross[j, j]
            if denom > 0:
                S[i, j] = 2.0 * cross[i, j] / denom
    sym = (S + S.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return sym


def test_accept_3_pathsim_matches_instance_enumeration(capfd):
    rng = np.random.default_rng(33)
    specs = [
        RunConfig(pathsim_left="retweet", pathsim_right="tweet"),
        RunConfig(pathsim_left="tweet", pathsim_right="tweet"),
        RunConfig(pathsim_left="retweet", pathsim_right="retweet"),
        RunConfig(pathsim_left="tweet", pathsim_right="retweet"),
        RunConfig(pathsim_left="reply", pathsim_right="reply"),
        RunConfig(pathsim_left="reply", pathsim_right="tweet"),
    ]
    cases = 0
    worst = 0.0
    for spec in specs:
        for _ in range(18):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 7))
            def draw():
                return (rng.random((n, m)) < 0.5) * rng.integers(0, 4, size=(n, m))
            counts = counts_from(T_tweet=draw(), T_retweet=draw(), T_reply=draw())
            got = dense(compute_pathsim(counts, spec).W)
            want = enumerated_pathsim(
                dense(counts.relation(spec.pathsim_left)),
                dense(counts.relation(spec.pathsim_right)),
            )
            worst = max(worst, float(np.abs(got - want).max()))
            cases += 1
    ok = cases >= 100 and worst <= 1e-12
    verdict(capfd, "3 meta-path similarity matches brute-force enumeration",
            ok, f"{cases} cases, worst gap {worst:.1e}")
    assert cases >= 100
    assert worst <= 1e-12


# 4: baseline reductions ----------------------------------------------------

def test_accept_4a_zero_layer_scores_are_raw_inner_products(capfd):
    rng = np.random.default_rng(44)
    ok = True
    for trial in range(5):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        g = random_bipartite(rng, n, m)
        cfg = RunConfig(dim=int(rng.integers(1, 5)), n_layers=0)
        state = init_embeddings(n, m, cfg, seed=trial, pretrained=None)
        out = forward(state.stacked(), build_operators(g, NO_CHANNELS), cfg)
        ok = ok and np.array_equal(out.final_users, state.users)
        ok = ok and np.array_equal(out.final_hashtags, state.hashtags)
        for u in range(n):
            got = score_all(out.final_users, out.final_hashtags, u)
            raw = state.hashtags @ state.users[u]
            ok = ok and np.array_equal(got, raw)
    verdict(capfd, "4a zero-layer model reduces to raw inner products", ok)
    assert ok


def unweighted_reference(edges, n_users, n_tags, X, K):
    """Independent plain-python propagation over a 0/1 bipartite graph.

    Mirrors the textbook recipe directly: unit adjacency, symmetric
    inverse-sqrt-degree scaling, row-by-row accumulation in ascending
    column order, uniform layer averaging.
    """
    size = n_users + n_tags
    neighbors = [[] for _ in range(size)]
    deg = [0.0] * size
    for u, t in edges:
        neighbors[u].append(n_users + t)
        neighbors[n_users + t].append(u)
        deg[u] += 1.0
        deg[n_users + t] += 1.0
    dinv = [d ** -0.5 if d > 0 else 0.0 for d in deg]
    adj = [
        [(c, (dinv[r] * dinv[c]) * 1.0) for c in sorted(cols)]
        for r, cols in enumerate(neighbors)
    ]
    d = len(X[0])

    def matvec(H):
        out = [[0.0] * d for _ in range(size)]
        for r in range(size):
            for c, v in adj[r]:
                for k in range(d):
                    out[r][k] += v * H[c][k]
        return out

    acc = [row[:] for row in X]
    H = [row[:] for row in X]
    for _ in range(K):
        H = matvec(H)
        for r in range(size):
            for k in range(d):
                acc[r][k] += H[r][k]
    return [[a / (K + 1) for a in row] for row in acc]


def test_accept_4b_binarized_pipeline_matches_unweighted_reference(capfd):
    # Hand-built four-node examples: edge lists plus integer usage counts
    # whose values must stop mattering once weights are binarized.
    examples = [
        ("matching", [(0, 0), (1, 1)], 2, 2, [3.0, 1.0], 3),
        ("chain", [(0, 0), (0, 1), (1, 1)], 2, 2, [2.0, 1.0, 5.0], 2),
        ("complete", [(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2, [1.0, 4.0, 2.0, 2.0], 3),
        ("star", [(0, 0), (0, 1), (0, 2)], 1, 3, [7.0, 1.0, 2.0], 2),
    ]
    X = [[1.0, -0.5], [0.25, 2.0], [-1.5, 0.75], [0.5, -2.0]]
    ok = True
    details = []
    for name, edges, n, m, weights, K in examples:
        T = np.zeros((n, m))
        for (u, t), w in zip(edges, weights):
            T[u, t] = w
        graph = binarize(build_interaction_graph(counts_from(T)))
        adj = build_adjacency(graph)
        got = layer_averaged_propagate(adj, np.array(X, dtype=np.float64), K)
        want = np.array(unweighted_reference(edges, n, m, X, K))
        same = np.array_equal(got, want)
        ok = ok and same
        details.append(f"{name}={'exact' if same else 'DIFFERS'}")
    verdict(capfd, "4b binarized pipeline matches plain-python reference",
            ok, ", ".join(details))
    assert ok


# 5 and 6: synthetic recovery ------------------------------------------------

N_SEEDS = 5


@pytest.fixture(scope="module")
def synth_runs():
    """Train on five seeded synthetic corpora, real model and null baseline."""
    start = time.perf_counter()
    runs = []
    for s in range(N_SEEDS):
        rng = np.random.default_rng(np.random.SeedSequence(s, spawn_key=(5,)))
        data = synth_generate(RunConfig(), rng)
        graph = build_interaction_graph(data.counts)
        common = dict(holdout_fraction=0.05, folds=2)
        real = run_protocol(graph, NO_CHANNELS, data.annotations, data.counts,
                            RunConfig(variant="wlgcn", **common), s)
        null = run_protocol(graph, NO_CHANNELS, data.annotations, data.counts,
                            RunConfig(variant="null", **common), s)
        runs.append({"data": data, "real": real, "null": null})
    return runs, time.perf_counter() - start


def test_accept_5a_holdout_stance_accuracy(capfd, synth_runs):
    runs, _ = synth_runs
    accs = [r["real"].report.accuracy for r in runs]
    mean_acc = float(np.mean(accs))
    ok = mean_acc >= 0.90
    verdict(capfd, "5a holdout stance accuracy >= 0.90",
            ok, f"mean {mean_acc:.4f} over {N_SEEDS} seeds")
    assert ok, f"mean holdout accuracy {mean_acc:.4f} is below 0.90"


ORACLE_TIE_DRAWS = 10


def generator_oracle_recall(data, res, cfg: RunConfig, seed: int) -> float:
    """Fold-0 recall@20 of the generator's own best ranking.

    Scores hashtag j for user u by p(j | planted camp of u), the probability
    synth_generate draws it with (POS camp tags first, then NEG, then
    neutral; uniform within each pool). Within a camp nothing more is
    learnable, so no model should beat this beyond noise. Ranked like
    run_protocol ranks fold 0. Ties break by a seeded 1e-9 jitter, not by
    index: the lowest indices of each camp are its annotated tags, which
    are never relevant for holdout users. Averaged over ORACLE_TIE_DRAWS
    tie-breaks, so the bound does not hinge on one draw.
    """
    camp_tags = cfg.n_hashtags - cfg.n_neutral
    n_pos = (camp_tags + 1) // 2
    pools = {
        "POS": np.arange(0, n_pos),
        "NEG": np.arange(n_pos, camp_tags),
        "NEUTRAL": np.arange(camp_tags, cfg.n_hashtags),
    }
    p_neutral = 1.0 - cfg.p_in - cfg.p_out
    rows = {}
    for own, other in (("POS", "NEG"), ("NEG", "POS")):
        row = np.zeros(cfg.n_hashtags)
        for pool, p in ((own, cfg.p_in), (other, cfg.p_out), ("NEUTRAL", p_neutral)):
            row[pools[pool]] = p / len(pools[pool])
        rows[own] = row
    scores = np.array([rows[camp] for camp in data.planted])

    fold_graph = graph_without_edges(res.split.train_graph, res.fold0_val)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    recalls = []
    for _ in range(ORACLE_TIE_DRAWS):
        jittered = scores + 1e-9 * rng.random(scores.shape)
        # One-hot users make row u of `jittered` user u's ranking scores.
        recall, _, _ = ranking_metrics(np.eye(len(scores)), jittered.T,
                                       fold_graph.R, res.fold0_val, k=EVAL_K)
        recalls.append(recall)
    return float(np.mean(recalls))


# Share of the oracle's recall margin over null that the trained model must
# close; on the fixture wlgcn closes 1.02 and mf (no propagation) 0.76.
MIN_GAP_CLOSED = 0.9


def test_accept_5b_recall_margin_over_null(capfd, synth_runs):
    runs, _ = synth_runs
    real = float(np.mean([r["real"].report.folds[0].recall for r in runs]))
    null = float(np.mean([r["null"].report.folds[0].recall for r in runs]))
    oracle = float(np.mean([
        generator_oracle_recall(r["data"], r["real"], RunConfig(), s)
        for s, r in enumerate(runs)
    ]))
    closed = (real - null) / (oracle - null)
    ok = real - null >= MIN_GAP_CLOSED * (oracle - null)
    detail = (f"fold 0: real {real:.4f}, null {null:.4f}, oracle {oracle:.4f}; "
              f"real {real / null:.2f}x null, oracle {oracle / null:.2f}x null; "
              f"gap closed {closed:.2f}")
    verdict(capfd, f"5b recall margin over null >= {MIN_GAP_CLOSED} of the "
            "generator oracle's", ok, detail)
    assert ok, (
        f"the trained model closes only {closed:.2f} of the recall gap between "
        f"the null baseline and the generator oracle (need {MIN_GAP_CLOSED}); {detail}"
    )


def test_accept_5c_training_loss_decreases(capfd, synth_runs):
    runs, _ = synth_runs
    losses = []
    for r in runs:
        history = r["real"].fold0_history
        assert len(history) >= 10
        losses.append([row.loss for row in history[:10]])
    mean_loss = np.mean(losses, axis=0)
    ok = bool(np.all(np.diff(mean_loss) < 0))
    verdict(capfd, "5c mean training loss strictly decreases over 10 epochs",
            ok, f"first {mean_loss[0]:.6f}, last {mean_loss[-1]:.6f}")
    assert ok


def test_accept_5_runtime_under_two_minutes(capfd, synth_runs):
    _, elapsed = synth_runs
    ok = elapsed < 120.0
    verdict(capfd, "5 synthetic recovery runtime < 120s", ok, f"{elapsed:.1f}s")
    assert ok


def test_accept_6_accuracy_grows_with_annotation_effort(capfd, synth_runs):
    runs, _ = synth_runs
    cfg = RunConfig()
    curves = []
    for r in runs:
        data, res = r["data"], r["real"]
        fold_graph = graph_without_edges(res.split.train_graph, res.fold0_val)
        out = forward(res.state.stacked(), build_operators(fold_graph, NO_CHANNELS), cfg)
        x_full = min(len(data.annotations.by_class["POS"]),
                     len(data.annotations.by_class["NEG"]))
        curve = annotation_curve(out.final_users, out.final_hashtags,
                                 data.counts.hashtags, res.split.hidden,
                                 data.annotations, [1, 5, x_full])
        curves.append([acc for _, acc in curve])
    mean = np.mean(curves, axis=0)
    ok = bool(mean[0] <= mean[1] <= mean[2])
    verdict(capfd, "6 accuracy monotone in annotated hashtags per camp",
            ok, f"x=1: {mean[0]:.4f}, x=5: {mean[1]:.4f}, x=full: {mean[2]:.4f}")
    assert ok


# 7: bundled annotation fixtures ---------------------------------------------

def test_accept_7_bundled_annotation_class_sizes(capfd):
    entry = bundled_annotations("entry")
    exit_ = bundled_annotations("exit")
    sizes = lambda a: {c: len(a.by_class.get(c, ())) for c in ("POS", "NEG", "NEUTRAL")}  # noqa: E731
    got_entry, got_exit = sizes(entry), sizes(exit_)
    ok = (got_entry == {"POS": 14, "NEG": 21, "NEUTRAL": 5}
          and got_exit == {"POS": 26, "NEG": 25, "NEUTRAL": 4})
    verdict(capfd, "7 bundled annotation class sizes",
            ok, f"entry {got_entry}, exit {got_exit}")
    assert ok


# 8: metric hand examples ------------------------------------------------------

def test_accept_8_metric_hand_examples(capfd):
    checks = []
    checks.append(recall_at_k([0, 1, 2, 3], {0, 3, 9}) == 2.0 / 3.0)
    checks.append(recall_at_k([4, 5], {1, 2}) == 0.0)
    # hits at ranks 1 and 3 of two relevant items
    got_ndcg = ndcg_at_k([5, 7, 6, 8], {5, 6})
    want_ndcg = (1.0 + 1.0 / math.log2(4.0)) / (1.0 + 1.0 / math.log2(3.0))
    checks.append(abs(got_ndcg - want_ndcg) <= 1e-12)
    checks.append(abs(got_ndcg - 0.9197) <= 1e-4)
    acc, rmse = stance_metrics(["POS", "NEUTRAL"], ["POS", "POS"])
    checks.append(acc == 0.5 and rmse == math.sqrt(0.125))
    acc2, rmse2 = stance_metrics(["POS", "NEG", "NEG", "NEUTRAL"],
                                 ["POS", "NEG", "POS", "NEG"])
    checks.append(acc2 == 0.5 and rmse2 == math.sqrt(0.3125))
    ok = all(checks)
    verdict(capfd, "8 metric hand examples", ok,
            f"{sum(checks)}/{len(checks)} checks, ndcg {got_ndcg:.6f}")
    assert ok


# 9: end-to-end determinism ----------------------------------------------------

def perfbench_corpus():
    """perfbench/corpus.py, the benchmark's raw corpus generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every file each command of run_pipeline writes, by its path under the run.
PIPELINE_FILES = [
    "ingest/counts.json",
    "raw/counts.json", "raw/annotations.tsv", "raw/planted.tsv",
    "data/counts.json", "data/bipartite.coo", "data/social.coo", "data/pathsim.coo",
    "model/checkpoint.bin", "model/history.csv",
    "eval/report.txt", "eval/folds.csv", "eval/checkpoint.bin", "eval/propagated.bin",
    "eval/hidden.tsv", "eval/val.tsv",
    "curve/curve.csv",
]


def run_pipeline(corpus, base):
    """Every command, from the raw corpus and from synth; the bytes of
    every file the run wrote, by path."""
    raw, data, model, ev = base / "raw", base / "data", base / "model", base / "eval"
    argv_sets = [
        ["ingest", "--tweets", corpus / "tweets.jsonl", "--follows", corpus / "follows.tsv",
         "--outlets", corpus / "outlets.txt", "--out", base / "ingest" / "counts.json",
         "--seed", "3"],
        ["synth", "--out", raw, "--seed", "3", "--n-users", "40", "--n-hashtags", "20",
         "--n-neutral", "4", "--interactions-per-user", "10", "--annotated-per-camp", "5"],
        ["build", "--counts", raw / "counts.json", "--out", data, "--seed", "3"],
        ["train", "--data", data, "--out", model, "--seed", "3", "--dim", "8",
         "--max-epochs", "40"],
        ["eval", "--data", data, "--annotations", raw / "annotations.tsv",
         "--out", ev, "--seed", "3", "--dim", "8", "--max-epochs", "40",
         "--folds", "2", "--holdout-fraction", "0.1"],
        ["curve", "--data", data, "--eval-dir", ev, "--annotations", raw / "annotations.tsv",
         "--out", base / "curve" / "curve.csv", "--seed", "3"],
    ]
    for argv in argv_sets:
        assert main([str(a) for a in argv]) == 0
    return {p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def test_accept_9_pipeline_is_byte_deterministic(capfd, tmp_path):
    corpus = tmp_path / "corpus"
    gen = perfbench_corpus()
    gen.generate(gen.CorpusSpec(n_users=60, n_hashtags=40, n_tweets=600), 3, corpus)
    first = run_pipeline(corpus, tmp_path / "a")
    second = run_pipeline(corpus, tmp_path / "b")
    assert sorted(first) == sorted(second) == sorted(PIPELINE_FILES)
    same = {k for k in first if first[k] == second[k]}
    ok = same == set(first)
    verdict(capfd, "9 pipeline outputs byte-identical across runs",
            ok, f"{len(same)}/{len(first)} files identical")
    assert ok, f"files differ: {sorted(set(first) - same)}"
