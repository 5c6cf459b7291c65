"""Pairwise ranking training loop.

One positive triple is sampled per observed edge per epoch, negatives by
rejection sampling. The loss is pairwise logistic (BPR) with L2 on the
initial embeddings; because the model is linear in those embeddings, the
gradient is the propagation operator applied to the per-triple cotangents.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import ConfigError, NumericsError
from .graphs import BipartiteGraph, _is_member
from .ingest import _flat_keys
from .metrics import EVAL_K, ranking_metrics
from .model import (
    ChannelOperators,
    ChannelSet,
    EmbeddingState,
    PropagationOutput,
    build_operators,
    forward,
    init_embeddings,
    layer_averaged_propagate,
)

LOGGER = logging.getLogger(__name__)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @staticmethod
    def for_shape(shape) -> "AdamState":
        return AdamState(m=np.zeros(shape), v=np.zeros(shape))


def adam_step(adam: AdamState, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update, applied to params in place."""
    if not np.isfinite(grad).all():
        raise NumericsError("non-finite gradient")
    adam.t += 1
    adam.m = adam.beta1 * adam.m + (1.0 - adam.beta1) * grad
    adam.v = adam.beta2 * adam.v + (1.0 - adam.beta2) * grad * grad
    m_hat = adam.m / (1.0 - adam.beta1 ** adam.t)
    v_hat = adam.v / (1.0 - adam.beta2 ** adam.t)
    params -= lr * m_hat / (np.sqrt(v_hat) + adam.eps)


def sample_epoch(graph: BipartiteGraph, rng: np.random.Generator) -> np.ndarray:
    """One (user, positive, negative) triple per edge, shuffled.

    Negatives are drawn uniformly and redrawn while they collide with the
    user's observed hashtags. Users connected to every hashtag cannot be
    sampled and are skipped.
    """
    pairs = graph.edges()
    if pairs.shape[0] == 0:
        raise ConfigError("graph has no edges to sample from")
    m = graph.n_hashtags
    if m < 2:
        raise ConfigError("negative sampling needs at least two hashtags")
    degree = np.diff(graph.R.indptr)
    saturated = degree >= m
    if saturated.any():
        LOGGER.warning(
            "%d users interact with every hashtag; skipping their triples",
            int(saturated.sum()),
        )
        pairs = pairs[~saturated[pairs[:, 0]]]
        if pairs.shape[0] == 0:
            raise ConfigError("no sampleable edges remain")
    pairs = pairs[rng.permutation(pairs.shape[0])]
    users = pairs[:, 0]
    positives = pairs[:, 1]
    keys = _flat_keys(graph.R)
    negatives = rng.integers(0, m, size=len(users), dtype=np.int64)
    bad = _is_member(keys, users * m + negatives)
    while bad.any():
        redraw = rng.integers(0, m, size=int(bad.sum()), dtype=np.int64)
        negatives[bad] = redraw
        still = _is_member(keys, users[bad] * m + redraw)
        next_bad = np.zeros_like(bad)
        next_bad[bad] = still
        bad = next_bad
    return np.column_stack([users, positives, negatives])


@dataclass
class PairScores:
    """One batch's gathered final user rows, positive-minus-negative
    hashtag rows and score gaps; the loss and its gradient share them."""

    users: np.ndarray  # (b, d)
    diff: np.ndarray  # (b, d)
    gaps: np.ndarray  # (b,)


def pair_scores(triples: np.ndarray, out: PropagationOutput) -> PairScores:
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    eu = out.final_users[u]
    diff = out.final_hashtags[i] - out.final_hashtags[j]
    return PairScores(eu, diff, np.einsum("nd,nd->n", eu, diff))


def bpr_loss(
    triples: np.ndarray,
    out: PropagationOutput,
    e0_stacked: np.ndarray,
    lambda_reg: float,
    scores: PairScores | None = None,
) -> float:
    """Sum of -log sigmoid(positive - negative) plus L2 on E0.

    `scores`, when given, must be pair_scores(triples, out).
    """
    reg = lambda_reg * float(np.sum(e0_stacked * e0_stacked))
    if triples.shape[0] == 0:
        return reg
    if scores is None:
        scores = pair_scores(triples, out)
    return float(np.logaddexp(0.0, -scores.gaps).sum() + reg)


def _scatter_rows(index: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Rows of `values` summed by `index` into an (n_rows, d) array.

    One flat bincount, which adds each bin's terms in input order, so the
    result equals np.add.at on zeros bit for bit.
    """
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def sigmoid_of_negated(gaps: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(g)) for each g in a 1-D array, with libm's exp.

    This is how scipy.special.expit(-g) computes it, so the two agree bit
    for bit; np.exp does not (its SIMD loops differ from libm in the last
    bit on some inputs), and importing scipy.special costs every stage
    process ~20 ms. Where exp(g) overflows, libm gives inf and the result
    is 0.
    """
    values = gaps.tolist()
    try:
        e = np.fromiter(map(math.exp, values), np.float64, len(values))
    except OverflowError:  # math.exp raises where libm returns inf
        e = np.fromiter(map(_exp_or_inf, values), np.float64, len(values))
    return 1.0 / (1.0 + e)


def grad_e0(
    triples: np.ndarray,
    out: PropagationOutput,
    ops: ChannelOperators,
    cfg: RunConfig,
    e0_stacked: np.ndarray,
    scores: PairScores | None = None,
) -> np.ndarray:
    """Exact loss gradient with respect to the initial embeddings, with the
    L2 weight cfg.lambda_reg.

    The final embeddings are a fixed linear operator applied to E0, so the
    pull-back applies its adjoint to the cotangent matrix. The bipartite
    operator is symmetric and is its own adjoint; the user operator is
    pulled back through its transpose, the exact adjoint of the product
    forward computed. `scores`, when given, must be
    pair_scores(triples, out).
    """
    n = ops.n_users
    n_items = e0_stacked.shape[0] - n
    g_users = np.zeros((n, e0_stacked.shape[1]))
    g_items = np.zeros((n_items, e0_stacked.shape[1]))
    if triples.shape[0] > 0:
        u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
        if scores is None:
            scores = pair_scores(triples, out)
        eu, diff = scores.users, scores.diff
        s = sigmoid_of_negated(scores.gaps)[:, None]
        g_users = _scatter_rows(u, -s * diff, n)
        # One scatter for both item sides keeps np.add.at's order: every i
        # term, then every j term.
        g_items = _scatter_rows(np.concatenate([i, j]), np.concatenate([-s * eu, s * eu]),
                                n_items)
    g_users /= ops.n_channels
    grad = layer_averaged_propagate(
        ops.bipartite, np.concatenate([g_users, g_items], axis=0), cfg.n_layers
    )
    if ops.users is not None:
        grad[:n] += ops.users.T @ g_users
    grad += 2.0 * cfg.lambda_reg * e0_stacked
    return grad


@dataclass
class HistoryRow:
    epoch: int
    loss: float
    recall: float
    ndcg: float


def save_history(rows: list[HistoryRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", f"recall@{EVAL_K}", f"ndcg@{EVAL_K}"])
        for row in rows:
            writer.writerow([row.epoch, f"{row.loss:.10g}", f"{row.recall:.6f}",
                             f"{row.ndcg:.6f}"])


def train(
    graph: BipartiteGraph,
    channels: ChannelSet | None,
    cfg: RunConfig,
    val_edges: np.ndarray,
    seed: int,
) -> tuple[EmbeddingState, list[HistoryRow], PropagationOutput]:
    """Fit embeddings on the graph, early-stopping on validation recall.

    val_edges is an array of (user, hashtag) pairs hidden from the graph.
    Returns the best checkpoint by validation recall@EVAL_K, the per-epoch
    history, and the forward output of that checkpoint.
    """
    val_edges = np.asarray(val_edges, dtype=np.int64).reshape(-1, 2)
    ops = build_operators(graph, channels)
    n, m = graph.n_users, graph.n_hashtags
    pretrained = channels.pretrained if channels is not None else None
    state = init_embeddings(n, m, cfg, seed, pretrained)
    params = state.stacked()
    adam = AdamState.for_shape(params.shape)
    rng = np.random.default_rng(seed)

    best_params = params.copy()
    best_out = None
    best_recall = -np.inf
    best_epoch = 0
    evals_since_best = 0
    history: list[HistoryRow] = []
    out = None  # forward(params), while no step has changed params since

    for epoch in range(1, cfg.max_epochs + 1):
        triples = sample_epoch(graph, rng)
        bpr_sum = 0.0
        for start in range(0, triples.shape[0], cfg.batch_size):
            batch = triples[start:start + cfg.batch_size]
            if out is None:
                out = forward(params, ops, cfg)
            scores = pair_scores(batch, out)
            bpr_sum += bpr_loss(batch, out, params, 0.0, scores)
            grad = grad_e0(batch, out, ops, cfg, params, scores)
            adam_step(adam, params, grad, cfg.learning_rate)
            out = None
        reg = cfg.lambda_reg * float(np.sum(params * params))
        epoch_loss = bpr_sum / triples.shape[0] + reg

        out = forward(params, ops, cfg)
        recall, ndcg, _ = ranking_metrics(out.final_users, out.final_hashtags, graph.R, val_edges)
        if recall > best_recall:
            best_recall = recall
            best_params = params.copy()
            best_out = out
            best_epoch = epoch
            evals_since_best = 0
        else:
            evals_since_best += 1
        history.append(HistoryRow(epoch, epoch_loss, recall, ndcg))
        LOGGER.debug(
            "epoch %d loss %.6f recall %.4f ndcg %.4f", epoch, epoch_loss, recall, ndcg
        )
        if evals_since_best >= cfg.patience:
            LOGGER.info(
                "early stop at epoch %d; best recall %.4f from epoch %d",
                epoch, best_recall, best_epoch,
            )
            break

    if best_out is None:  # no epoch improved on the initialization
        best_out = forward(best_params, ops, cfg)
    return EmbeddingState.from_stacked(best_params, n, seed), history, best_out
