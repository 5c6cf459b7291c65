"""Shared builders for synthetic test fixtures."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from stancegraph.graphs import GRAPH, BipartiteGraph, UserGraph, to_scipy
from stancegraph.ingest import CSR_DTYPES, CSRArrays, InteractionCounts


# CSR_DTYPES as the native-order dtypes of arrays in memory, and the largest
# index or entry count their int32 indices hold.
NATIVE_CSR_DTYPES = tuple(np.dtype(d).newbyteorder("=") for d in CSR_DTYPES)
INDEX_MAX = 2**31 - 1


def csr_dtypes(mat) -> tuple:
    """The dtypes of a CSR matrix's indptr, indices and data."""
    return mat.indptr.dtype, mat.indices.dtype, mat.data.dtype


def count_matrix(M) -> CSRArrays:
    """The canonical CSR arrays of a dense array or scipy matrix, as scipy
    builds them."""
    M = sp.csr_matrix(M, dtype=np.float64)
    M.sum_duplicates()
    return CSRArrays(M.indptr, M.indices, M.data, M.shape)


def dense(mat: CSRArrays) -> np.ndarray:
    return to_scipy(mat).toarray()


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
    return InteractionCounts(
        users=[f"u{i:03d}" for i in range(n)],
        hashtags=[f"h{j:03d}" for j in range(m)],
        T_tweet=count_matrix(T_tweet),
        T_retweet=count_matrix(zero_nm if T_retweet is None else T_retweet),
        T_reply=count_matrix(zero_nm if T_reply is None else T_reply),
        mention=count_matrix(zero_nn if mention is None else mention),
        reply=count_matrix(zero_nn if reply is None else reply),
        mutual_follow=count_matrix(zero_nn if mutual is None else mutual),
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
    """A graph file written straight from the documented layout (the magic,
    the header "<IQQQ" and the arrays in CSR_DTYPES), with no
    canonicalizing or checking, so tests can build malformed ones."""
    n, m = shape
    with open(path, "wb") as fh:
        fh.write(b"SGCSR\x00" + GRAPH.header.pack(GRAPH.version, n, m, len(indices)))
        for values, dtype in zip((indptr, indices, data), CSR_DTYPES):
            fh.write(np.asarray(values, dtype=dtype).tobytes())
