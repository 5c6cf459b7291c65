"""Shared builders for synthetic test fixtures."""

from __future__ import annotations

import base64
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from stancegraph.errors import RecordError, ShapeError
from stancegraph.graphs import GRAPH, BipartiteGraph, UserGraph, normalize_user_graph, to_scipy
from stancegraph.ingest import COUNT_MATRICES, CSR_DTYPES, CSRArrays, InteractionCounts
from stancegraph.model import ChannelSet, user_channels


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


def channel_set(n_layers: int, social: UserGraph | None = None,
                pathsim: UserGraph | None = None, pretrained=None) -> ChannelSet:
    """The ChannelSet that cli._load_dataset builds from the given user
    graphs: the user operator of their normalized forms, social first,
    for n_layers."""
    return user_channels([normalize_user_graph(g) for g in (social, pathsim) if g is not None],
                         n_layers, pretrained)


def write_graph_container(path, shape, indptr, indices, data) -> None:
    """A graph file written straight from the documented layout (the magic,
    the header "<IQQQ" and the arrays in CSR_DTYPES), with no
    canonicalizing or checking, so tests can build malformed ones."""
    n, m = shape
    with open(path, "wb") as fh:
        fh.write(b"SGCSR\x00" + GRAPH.header.pack(GRAPH.version, n, m, len(indices)))
        for values, dtype in zip((indptr, indices, data), CSR_DTYPES):
            fh.write(np.asarray(values, dtype=dtype).tobytes())


def json_ids(users, hashtags) -> bytes:
    """The id block of a checkpoint or counts file: the compact UTF-8 JSON
    [users, hashtags]."""
    return json.dumps([users, hashtags], ensure_ascii=False, separators=(",", ":")).encode()


def counts_container(shape, mats, ids: bytes, nnz=None) -> bytes:
    """The bytes of a counts file built straight from the documented layout
    (the magic, the header "<I9Q": version 1, users, hashtags, id bytes and
    each matrix's nnz, then the six matrices' indptr, indices and data in
    CSR_DTYPES and the id block), with no canonicalizing or checking, so
    tests can build malformed ones. `mats` holds each matrix's three arrays
    in COUNT_MATRICES order; an array given as bytes is written as it is.
    `nnz` replaces the header's entry counts, which default to the lengths
    of the `indices` arrays."""
    if nnz is None:
        nnz = [len(indices) for _, indices, _ in mats]
    blob = b"SGCNT\x00" + struct.pack("<I9Q", 1, *shape, len(ids), *nnz)
    for mat in mats:
        for values, dtype in zip(mat, CSR_DTYPES):
            blob += values if isinstance(values, bytes) else np.asarray(values, dtype).tobytes()
    return blob + ids


def count_arrays(counts: InteractionCounts) -> list[list[np.ndarray]]:
    """Copies of each count matrix's indptr, indices and data, in
    COUNT_MATRICES order: counts_container's `mats`."""
    return [[a.copy() for a in (mat.indptr, mat.indices, mat.data)]
            for mat in (getattr(counts, name) for name in COUNT_MATRICES)]


def json_counts_payload(counts: InteractionCounts, index_dtype: str = "<i4") -> dict:
    """counts.json as a JSON document of base64 columns, the layout earlier
    versions wrote: the id lists, then each matrix as {"indptr", "indices",
    "data"}, each the base64 of the array's little-endian bytes, the index
    arrays in `index_dtype`."""
    payload = {"users": counts.users, "hashtags": counts.hashtags}
    for name, mat in zip(COUNT_MATRICES, count_arrays(counts)):
        payload[name] = {key: base64.b64encode(np.asarray(arr, dtype).tobytes()).decode("ascii")
                         for key, arr, dtype in zip(("indptr", "indices", "data"), mat,
                                                    (index_dtype, index_dtype, "<f8"))}
    return payload


def corrupted(blob: bytes, data) -> bytes:
    """`blob` cut short or with one byte replaced, as hypothesis draws."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    value = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
    return blob[:pos] + bytes([value]) + blob[pos + 1:]


def load_corrupted(write_valid, load, save, data):
    """What `load` makes of the file that write_valid(path) writes, cut
    short or with one byte replaced as hypothesis draws: None when it is
    refused with a RecordError or ShapeError. A file it accepts must be
    written back byte for byte by save(path, loaded). Every write goes to
    a new file: truncating an existing one can be slow."""
    with tempfile.TemporaryDirectory() as tmp:
        valid, path, again = (Path(tmp) / name for name in ("valid", "corrupt", "again"))
        write_valid(valid)
        blob = corrupted(valid.read_bytes(), data)
        path.write_bytes(blob)
        try:
            loaded = load(path)
        except (RecordError, ShapeError):
            return None
        save(again, loaded)
        assert again.read_bytes() == blob
        return loaded
