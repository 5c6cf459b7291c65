"""Per-user and per-layer references that the tests hold the package's
array code to. The pipeline never calls them."""

from __future__ import annotations

import logging
import math

import numpy as np
import scipy.sparse as sp

from stancegraph.errors import ConfigError, EmptyEvaluation, ShapeError
from stancegraph.evaluate import CLASS_ORDER, StanceAnnotation
from stancegraph.config import RunConfig
from stancegraph.graphs import (
    BipartiteGraph,
    NormalizedAdjacency,
    UserGraph,
    _is_member,
    to_scipy,
)
from stancegraph.ingest import CSRArrays, InteractionCounts
from stancegraph.model import forward
from stancegraph.train import bpr_loss

LOGGER = logging.getLogger(__name__)


def neighbors(graph: BipartiteGraph, u: int) -> np.ndarray:
    """The hashtag columns of user u's edges, ascending."""
    return graph.R.indices[graph.R.indptr[u]:graph.R.indptr[u + 1]]


def assert_row_stochastic(graph: BipartiteGraph) -> None:
    """AssertionError unless every row of the graph that holds an edge sums
    to 1 within 1e-9; raised, not asserted, so that it holds under -O."""
    sums = np.asarray(to_scipy(graph.R).sum(axis=1)).ravel()
    active = sums > 0
    if active.any() and np.abs(sums[active] - 1.0).max() > 1e-9:
        raise AssertionError("rows with edges must sum to 1")


def propagate(adj: NormalizedAdjacency, E0: np.ndarray, n_layers: int) -> list[np.ndarray]:
    """All layer outputs H^0 .. H^K of repeated operator application."""
    if E0.shape[0] != adj.size:
        raise ShapeError(f"embedding rows {E0.shape[0]} do not match operator size {adj.size}")
    layers = [E0]
    H = E0
    for _ in range(n_layers):
        H = adj.matrix @ H
        layers.append(H)
    return layers


def affinity(user_vec: np.ndarray, hashtag_vec: np.ndarray) -> float:
    return float(np.dot(user_vec, hashtag_vec))


def score_all(final_users: np.ndarray, final_hashtags: np.ndarray, u: int) -> np.ndarray:
    """Affinity of user u to every hashtag."""
    return final_hashtags @ final_users[u]


def evaluate_loss(e0_stacked: np.ndarray, triples: np.ndarray, ops, cfg: RunConfig,
                  lambda_reg: float) -> float:
    """Full forward pass plus loss; the function finite differences probe."""
    out = forward(e0_stacked, ops, cfg)
    return bpr_loss(triples, out, e0_stacked, lambda_reg)


def recall_at_k(top_items, relevant) -> float:
    """Fraction of the relevant items that appear in the recommended list."""
    if not relevant:
        raise ConfigError("recall needs a nonempty relevant set")
    hits = sum(1 for item in top_items if item in relevant)
    return hits / len(relevant)


def ndcg_at_k(top_items, relevant) -> float:
    """Binary-relevance NDCG; the ideal list front-loads all relevant items."""
    if not relevant:
        raise ConfigError("ndcg needs a nonempty relevant set")
    dcg = 0.0
    for pos, item in enumerate(top_items, 1):
        if item in relevant:
            dcg += 1.0 / np.log2(pos + 1)
    ideal = min(len(top_items), len(relevant))
    if len(top_items) == 0:
        return 0.0
    idcg = sum(1.0 / np.log2(pos + 1) for pos in range(1, ideal + 1))
    return dcg / idcg if idcg > 0 else 0.0


def top_k_items(scores: np.ndarray, exclude, k: int) -> np.ndarray:
    """Indices of the k highest scores outside the excluded set.

    Ties break toward the smaller index so rankings are deterministic.
    """
    masked = scores.astype(np.float64, copy=True)
    if len(exclude):
        masked[np.asarray(list(exclude), dtype=np.int64)] = -np.inf
    order = np.argsort(-masked, kind="stable")
    order = order[np.isfinite(masked[order])]
    return order[:k]


def classify_stance(affinities: dict[str, float], annotations: StanceAnnotation) -> str:
    """Argmax over class-mean affinities.

    Classes with no hashtag in the affinity map are excluded with a
    warning; ties go to the last maximal class in CLASS_ORDER.
    """
    best_cls = None
    best_mean = -math.inf
    for cls in CLASS_ORDER:
        tags = [t for t in annotations.by_class.get(cls, ()) if t in affinities]
        if not tags:
            if annotations.by_class.get(cls):
                LOGGER.warning("class %s has no scored hashtags; excluded", cls)
            continue
        mean = sum(affinities[t] for t in tags) / len(tags)
        if mean >= best_mean:
            best_cls, best_mean = cls, mean
    if best_cls is None:
        raise EmptyEvaluation("no class has a scored hashtag")
    return best_cls


def ground_truth_stance(hidden_weights: dict[str, float], annotations: StanceAnnotation) -> str:
    """Stance implied by hidden edge weights: argmax of per-class mean
    weight, dividing by the full class size (absent hashtags count 0)."""
    best_cls = None
    best_mean = -math.inf
    for cls in CLASS_ORDER:
        tags = annotations.by_class.get(cls, ())
        if not tags:
            continue
        mean = sum(hidden_weights.get(t, 0.0) for t in tags) / len(tags)
        if mean >= best_mean:
            best_cls, best_mean = cls, mean
    if best_cls is None:
        raise EmptyEvaluation("annotation set has no classes")
    return best_cls


def csr_from_counts(counter: dict[tuple[int, int], float], shape) -> CSRArrays:
    """CSR arrays from a {(row, col): count} dict, keys in sorted order."""
    keys = sorted(counter)
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    data = np.array([counter[k] for k in keys], dtype=np.float64)
    M = sp.csr_matrix((data, (rows, cols)), shape=shape)
    return CSRArrays(M.indptr, M.indices, M.data, M.shape)


# The scipy COO pipeline that graphs.build_social_graph, pathsim_scores,
# compute_pathsim and sparsify replaced: each step converts to COO or copies,
# and builds a new CSR matrix.

def symmetrized(W: sp.spmatrix) -> sp.csr_matrix:
    """(W + W.T) / 2 without the diagonal."""
    W = (W + W.T) * 0.5
    W = sp.csr_matrix(W)
    W.setdiag(0.0)
    W.eliminate_zeros()
    return W


def build_social_graph(counts: InteractionCounts, cfg: RunConfig) -> UserGraph:
    mention, reply = to_scipy(counts.mention), to_scipy(counts.reply)
    W = (
        cfg.social_c_follow * to_scipy(counts.mutual_follow)
        + cfg.social_c_mention * (mention + mention.T)
        + cfg.social_c_reply * (reply + reply.T)
    )
    return UserGraph(W=symmetrized(W), kind="social")


def pathsim_scores(M1: sp.csr_matrix, M2: sp.csr_matrix) -> sp.csr_matrix:
    """(S + S.T) / 2 without the diagonal, S the scores of C = M1 @ M2.T."""
    if M1.shape != M2.shape:
        raise ShapeError(f"relation shapes differ: {M1.shape} vs {M2.shape}")
    product = M1 @ M2.T
    diag = product.diagonal()
    C = product.tocoo()
    den = diag[C.row] + diag[C.col]
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.where(den > 0, 2.0 * C.data / np.where(den > 0, den, 1.0), 0.0)
    out = sp.csr_matrix((data, (C.row, C.col)), shape=C.shape)
    out.eliminate_zeros()
    return symmetrized(out)


def compute_pathsim(counts: InteractionCounts, cfg: RunConfig) -> UserGraph:
    S = pathsim_scores(to_scipy(counts.relation(cfg.pathsim_left)),
                       to_scipy(counts.relation(cfg.pathsim_right)))
    return UserGraph(W=S, kind=f"pathsim:{cfg.pathsim_left}-{cfg.pathsim_right}")


def symmetric_normalize(A) -> NormalizedAdjacency:
    """D^-1/2 A D^-1/2 of the canonical CSR matrix A as graphs computed it
    before: an intp row index per entry, the diagonal refused, the degrees
    summed in storage order and each value dinv[r] * dinv[c] * a."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    if (rows == A.indices).any():
        raise ShapeError("graph has diagonal entries")
    deg = np.bincount(rows, weights=A.data, minlength=A.shape[0])
    with np.errstate(divide="ignore"):
        dinv = np.power(deg, -0.5)
    dinv[np.isinf(dinv)] = 0.0
    data = dinv[rows] * dinv[A.indices] * A.data
    return NormalizedAdjacency(sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape))


def sparsify(graph: UserGraph, min_weight: float, top_k: int) -> UserGraph:
    W = graph.W.tocoo()
    keep = W.data >= min_weight
    W = sp.csr_matrix((W.data[keep], (W.row[keep], W.col[keep])), shape=W.shape)
    if top_k:
        W.sum_duplicates()
        n = W.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(W.indptr))
        cols = W.indices.astype(np.int64)
        order = np.lexsort((cols, -W.data, rows))
        rank = np.empty(W.nnz, dtype=np.int64)
        rank[order] = np.arange(W.nnz) - W.indptr[rows[order]]
        keys = rows * n + cols
        top = rank < top_k
        keep = top | _is_member(keys[top], cols * n + rows)
        W = sp.csr_matrix((W.data[keep], (rows[keep], cols[keep])), shape=W.shape)
    return UserGraph(W=W, kind=graph.kind)
