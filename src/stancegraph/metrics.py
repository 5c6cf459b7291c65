"""Ranking metrics over embedding scores."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graphs import _row_positions

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
    rows; duplicates count once. A user's top k are the k best finite
    scores of the pool, ties toward the smaller hashtag index, as
    `top_k_items` in tests/reference.py ranks them. Only the validation
    pairs are ranked, in blocks of users: a pair's rank is the number of
    its row's scores above its own plus the equal ones at smaller hashtag
    indices, and only a pair at or above its row's k-th score can rank
    below k. The sums run in the order of the reference `recall_at_k` and
    `ndcg_at_k`, so on equal scores the result equals a per-user loop over
    those three functions bit for bit.
    """
    if k < 1:
        raise ConfigError("k must be positive")
    m = final_hashtags.shape[0]
    keys = np.sort(val_pairs[:, 0] * m + val_pairs[:, 1])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    starts = np.flatnonzero(np.diff(keys // m, prepend=-1))
    users = keys[starts] // m
    n_relevant = np.diff(starts, append=len(keys))
    keep = np.diff(exclude.indptr)[users] < m
    keys = keys[np.repeat(keep, n_relevant)]
    users, n_relevant = users[keep], n_relevant[keep]
    if len(users) == 0:
        return 0.0, 0.0, 0
    # The same scalar expressions as the reference ndcg_at_k.
    discount = np.array([1.0 / np.log2(pos + 1) for pos in range(1, k + 1)])
    ideal_dcg = np.cumsum(discount)
    first_key = np.concatenate(([0], np.cumsum(n_relevant)))
    columns = np.arange(m)
    top = min(k, m)

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

        # Each row's `top` best scores, in no order but the first: slot 0
        # holds the k-th best (the row's least when k >= m). Every score
        # above it sits in the slots, but an equal one may sit outside.
        slots = np.partition(scores, m - top, axis=1)[:, m - top:]
        relevant = n_relevant[lo:lo + block_rows]
        rows = np.repeat(np.arange(b), relevant)
        cols = keys[first_key[lo]:first_key[lo + b]] % m
        own = scores[rows, cols]
        kth = slots[rows, 0]
        near = np.flatnonzero((own >= kth) & (own > -np.inf))
        rows, cols, own, kth = rows[near], cols[near], own[near], kth[near]
        row_slots = slots[rows]
        pos = np.count_nonzero(row_slots > own[:, None], axis=1)
        # A pair whose score another slot shares, or that equals the k-th,
        # also counts the equal scores at smaller columns of its whole row,
        # a block's worth of rows at a time.
        tied = np.flatnonzero((own == kth)
                              | (np.count_nonzero(row_slots == own[:, None], axis=1) > 1))
        for c in range(0, len(tied), block_rows):
            t = tied[c:c + block_rows]
            before = (scores[rows[t]] == own[t, None]) & (columns < cols[t, None])
            pos[t] += np.count_nonzero(before, axis=1)
        hit = pos < k
        rows, pos = rows[hit], pos[hit]

        gains = np.zeros((b, k))
        gains[rows, pos] = discount[pos]
        dcg = np.cumsum(gains, axis=1)[:, -1]
        hits = np.bincount(rows, minlength=b)
        n_top = np.count_nonzero(slots > -np.inf, axis=1)
        ideal = np.minimum(n_top, relevant)
        recalls.append(hits / relevant)
        ndcgs.append(np.where(n_top > 0, dcg / ideal_dcg[np.maximum(ideal, 1) - 1], 0.0))
    return (
        float(np.mean(np.concatenate(recalls))),
        float(np.mean(np.concatenate(ndcgs))),
        len(users),
    )
