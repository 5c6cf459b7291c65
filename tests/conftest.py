"""Shared builders for synthetic test fixtures."""

from __future__ import annotations

import struct

import numpy as np
import scipy.sparse as sp

from stancegraph.graphs import BipartiteGraph, UserGraph
from stancegraph.ingest import InteractionCounts


def counts_from(
    T_tweet: np.ndarray,
    T_retweet: np.ndarray | None = None,
    T_reply: np.ndarray | None = None,
    mention: np.ndarray | None = None,
    reply: np.ndarray | None = None,
    mutual: np.ndarray | None = None,
) -> InteractionCounts:
    """InteractionCounts from dense arrays, with generated id lists."""
    T_tweet = np.asarray(T_tweet, dtype=np.float64)
    n, m = T_tweet.shape
    zero_nm = np.zeros((n, m))
    zero_nn = np.zeros((n, n))
    T_retweet = zero_nm if T_retweet is None else np.asarray(T_retweet, dtype=np.float64)
    T_reply = zero_nm if T_reply is None else np.asarray(T_reply, dtype=np.float64)
    return InteractionCounts(
        users=[f"u{i:03d}" for i in range(n)],
        hashtags=[f"h{j:03d}" for j in range(m)],
        T=sp.csr_matrix(T_tweet + T_retweet + T_reply),
        T_tweet=sp.csr_matrix(T_tweet),
        T_retweet=sp.csr_matrix(T_retweet),
        T_reply=sp.csr_matrix(T_reply),
        mention=sp.csr_matrix(zero_nn if mention is None else mention),
        reply=sp.csr_matrix(zero_nn if reply is None else reply),
        mutual_follow=sp.csr_matrix(zero_nn if mutual is None else mutual),
    )


def random_bipartite(rng: np.random.Generator, n: int, m: int, density: float = 0.5) -> BipartiteGraph:
    """Row-normalized random graph; every user gets at least one edge."""
    counts = (rng.random((n, m)) < density) * rng.integers(1, 5, size=(n, m))
    for i in range(n):
        if counts[i].sum() == 0:
            counts[i, rng.integers(0, m)] = 1
    counts = counts.astype(np.float64)
    R = counts / counts.sum(axis=1, keepdims=True)
    return BipartiteGraph(R=sp.csr_matrix(R))


def random_user_graph(rng: np.random.Generator, n: int, density: float = 0.4, kind: str = "social") -> UserGraph:
    W = np.triu((rng.random((n, n)) < density) * rng.random((n, n)), k=1)
    W = W + W.T
    return UserGraph(W=sp.csr_matrix(W), kind=kind)


def write_graph_container(path, shape, indptr, indices, data) -> None:
    """A graph file written straight from the documented layout, with no
    canonicalizing or checking, so tests can build malformed ones."""
    n, m = shape
    with open(path, "wb") as fh:
        fh.write(b"SGCSR\x00" + struct.pack("<IQQQ", 1, n, m, len(indices)))
        fh.write(np.asarray(indptr, dtype="<i8").tobytes())
        fh.write(np.asarray(indices, dtype="<i8").tobytes())
        fh.write(np.asarray(data, dtype="<f8").tobytes())
