"""Ranking metrics over embedding scores."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graphs import _is_member, _row_positions, _row_ranks
from .ingest import CSRArrays

# The cutoff of every ranking metric the pipeline reports or stops on.
EVAL_K = 20

# Cap on the entries of one block's user-by-hashtag score matrix.
BLOCK_ENTRIES = 1 << 15


def ranking_metrics(
    final_users: np.ndarray,
    final_hashtags: np.ndarray,
    exclude,
    val_pairs: np.ndarray,
    k: int = EVAL_K,
) -> tuple[float, float, int]:
    """Mean recall@k and NDCG@k over the users that have validation pairs.

    Row u of the CSR matrix `exclude` lists the hashtags removed from u's
    candidate pool (their training positives); users whose pool is empty
    are skipped. val_pairs is an int64 (E, 2) array of (user, hashtag)
    rows; duplicates count once. Users are ranked in blocks with the rules
    of `top_k_items` in tests/reference.py, and the sums run in the order
    of its `recall_at_k`/`ndcg_at_k`, so on equal scores the result equals
    a per-user loop over those three functions bit for bit.
    """
    if k < 1:
        raise ConfigError("k must be positive")
    m = final_hashtags.shape[0]
    keys = np.unique(val_pairs[:, 0] * m + val_pairs[:, 1])
    users, n_relevant = np.unique(keys // m, return_counts=True)
    keep = np.diff(exclude.indptr)[users] < m
    users, n_relevant = users[keep], n_relevant[keep]
    if len(users) == 0:
        return 0.0, 0.0, 0
    # The same scalar expressions as the reference ndcg_at_k.
    discount = np.array([1.0 / np.log2(pos + 1) for pos in range(1, k + 1)])
    ideal_dcg = np.cumsum(discount)

    recalls = []
    ndcgs = []
    block_rows = max(1, BLOCK_ENTRIES // m)
    for lo in range(0, len(users), block_rows):
        block = users[lo:lo + block_rows]
        b = len(block)
        scores = (final_users[block] @ final_hashtags.T).astype(np.float64, copy=False)
        n_excluded, at = _row_positions(exclude.indptr, block)
        scores[np.repeat(np.arange(b), n_excluded), exclude.indices[at]] = -np.inf
        scores[~np.isfinite(scores)] = -np.inf

        # Every candidate at or above the k-th best score, ranked within its
        # user's row by score, ties in ascending hashtag index (nonzero lists
        # columns in order); the first k stay.
        candidate = scores > -np.inf
        if k < m:
            kth = np.partition(scores, m - k, axis=1)[:, m - k]
            candidate &= scores >= kth[:, None]
        rows, cols = np.nonzero(candidate)
        n_candidates = np.count_nonzero(candidate, axis=1)
        indptr = np.zeros(b + 1, dtype=np.int64)
        np.cumsum(n_candidates, out=indptr[1:])
        pos = _row_ranks(CSRArrays(indptr, cols, scores[rows, cols], (b, m)))
        top = pos < k
        rows, cols, pos = rows[top], cols[top], pos[top]
        n_top = np.minimum(n_candidates, k)

        queries = block[rows] * m + cols
        hit = _is_member(keys, queries)
        gains = np.zeros((b, k))
        gains[rows[hit], pos[hit]] = discount[pos[hit]]
        dcg = np.cumsum(gains, axis=1)[:, -1]
        hits = np.bincount(rows[hit], minlength=b)

        relevant = n_relevant[lo:lo + block_rows]
        ideal = np.minimum(n_top, relevant)
        recalls.append(hits / relevant)
        ndcgs.append(np.where(n_top > 0, dcg / ideal_dcg[np.maximum(ideal, 1) - 1], 0.0))
    return (
        float(np.mean(np.concatenate(recalls))),
        float(np.mean(np.concatenate(ndcgs))),
        len(users),
    )
