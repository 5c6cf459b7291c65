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


# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def for_shape(shape) -> "AdamState":
        return AdamState(m=np.zeros(shape), v=np.zeros(shape))


def adam_step(adam: AdamState, params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """One bias-corrected Adam update, applied to params in place."""
    if not np.isfinite(grad).all():
        raise NumericsError("non-finite gradient")
    adam.t += 1
    adam.m = ADAM_BETA1 * adam.m + (1.0 - ADAM_BETA1) * grad
    adam.v = ADAM_BETA2 * adam.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = adam.m / (1.0 - ADAM_BETA1 ** adam.t)
    v_hat = adam.v / (1.0 - ADAM_BETA2 ** adam.t)
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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


def bpr_loss(scores: PairScores) -> float:
    """Sum of -log sigmoid(positive - negative) over one batch's pairs."""
    return float(np.logaddexp(0.0, -scores.gaps).sum())


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
    scores: PairScores,
    ops: ChannelOperators,
    cfg: RunConfig,
    e0_stacked: np.ndarray,
) -> np.ndarray:
    """Exact gradient of the batch's BPR loss plus cfg.lambda_reg times
    the squared L2 norm of E0, with respect to E0; `scores` is the
    batch's pair_scores.

    The final embeddings are a fixed linear operator applied to E0, so the
    pull-back applies its adjoint to the cotangent matrix. The bipartite
    operator is symmetric and is its own adjoint; the user operator is
    pulled back through its transpose, the exact adjoint of the product
    forward computed.
    """
    n = ops.n_users
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    eu, diff = scores.users, scores.diff
    s = sigmoid_of_negated(scores.gaps)[:, None]
    g_users = _scatter_rows(u, -s * diff, n) / ops.n_channels
    # One scatter for both item sides keeps np.add.at's order: every i
    # term, then every j term.
    g_items = _scatter_rows(np.concatenate([i, j]), np.concatenate([-s * eu, s * eu]),
                            e0_stacked.shape[0] - n)
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
            bpr_sum += bpr_loss(scores)
            grad = grad_e0(batch, scores, ops, cfg, params)
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

    if best_out is None:  # max_epochs 0: no epoch ran
        best_out = forward(best_params, ops, cfg)
    return EmbeddingState.from_stacked(best_params, n, seed), history, best_out
