"""Graph construction and normalization.

Builds the weighted user-hashtag bipartite graph, the social user graph,
and meta-path similarity user graphs, and normalizes each into the
symmetric propagation operator used by the embedding model.

A graph holds a canonical float64 CSR matrix of one of two kinds. The
graphs that `build` constructs, and those the evaluation derives from a
loaded graph, hold NumPy CSR arrays (ingest.CSRArrays), and everything
`build` calls works on the arrays alone, so `build` runs without scipy.
The graphs that the loaders return hold scipy CSR matrices, as do the
propagation operators: scipy.sparse is imported by the functions that
need it (to_scipy, build_adjacency, the normalization), so a process that
trains on no graph (ingest, synth, build, curve) never pays for the
import; cli.main imports it up front for train and eval.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig
from .errors import EmptyChannel, EmptyCorpus, RecordError, ShapeError
from .ingest import (
    CSR_DTYPES,
    Container,
    CSRArrays,
    InteractionCounts,
    _flat_keys,
    _row_indices,
    _sum,
    _transposed,
    check_index_range,
    checked_csr,
    is_symmetric,
    read_container,
    write_container,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

LOGGER = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-9

# Cap on the products, and on the dense cells, of one row block of the
# PathSim products C = M1 @ M2.T and M2 @ M1.T (pathsim_scores).
PATHSIM_BLOCK = 1 << 17


# Header: version, rows, cols, nnz. Arrays: indptr, indices, data, in
# CSR_DTYPES, as counts.json stores its matrices.
GRAPH = Container("graph file", b"SGCSR\x00", struct.Struct("<IQQQ"), 2,
                  lambda n, m, nnz: list(zip(CSR_DTYPES, (n + 1, nnz, nnz))))


@dataclass
class BipartiteGraph:
    """Weighted user-hashtag graph. R rows are usage distributions: row i
    holds user i's interaction counts divided by the user's total.

    R is a canonical float64 CSR matrix: NumPy CSR arrays, as `build` and
    the evaluation make them, or a scipy matrix, as the loaders make them.
    The graph owns the matrix it is given and keeps it as it is."""

    R: CSRArrays | sp.csr_matrix

    def __post_init__(self):
        n, m = self.R.shape
        if n < 1 or m < 1:
            raise EmptyCorpus("bipartite graph needs at least one user and one hashtag")
        if self.R.nnz and self.R.data.min() < 0:
            raise ShapeError("negative interaction weight")

    @property
    def n_users(self) -> int:
        return self.R.shape[0]

    @property
    def n_hashtags(self) -> int:
        return self.R.shape[1]

    def edges(self) -> np.ndarray:
        """All (user, hashtag) pairs with positive weight, row-major order."""
        return np.column_stack([_row_indices(self.R, np.int64), self.R.indices.astype(np.int64)])

    def validate_row_stochastic(self) -> None:
        sums = _row_sums(self.R)
        active = sums > 0
        if active.any() and np.abs(sums[active] - 1.0).max() > ROW_SUM_TOL:
            raise ShapeError("rows with edges must sum to 1")


@dataclass
class UserGraph:
    """Symmetric nonnegative user-user graph with zero diagonal.

    Like BipartiteGraph, it holds the canonical float64 CSR matrix of
    either kind that it is given."""

    W: CSRArrays | sp.csr_matrix
    kind: str = "user"

    def __post_init__(self):
        n, m = self.W.shape
        if n != m:
            raise ShapeError(f"user graph must be square, got {self.W.shape}")
        if self.W.nnz and self.W.data.min() < 0:
            raise ShapeError("negative edge weight in user graph")

    @property
    def n_users(self) -> int:
        return self.W.shape[0]


@dataclass
class NormalizedAdjacency:
    """Symmetrically normalized operator D^-1/2 A D^-1/2."""

    matrix: sp.csr_matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def to_scipy(mat) -> sp.csr_matrix:
    """The scipy CSR matrix over the arrays of mat (CSRArrays or a scipy
    CSR matrix), not a copy of them."""
    import scipy.sparse as sp

    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def _row_sums(M) -> np.ndarray:
    """The sum of each row of the CSR matrix M, added as scipy's
    M.sum(axis=1) adds it: one np.add.reduceat over the stored values of
    the nonempty rows."""
    sums = np.zeros(M.shape[0])
    nonempty = np.flatnonzero(np.diff(M.indptr))
    if len(nonempty):
        sums[nonempty] = np.add.reduceat(M.data, M.indptr[nonempty])
    return sums


def row_normalize(M, rows: np.ndarray | None = None) -> CSRArrays:
    """The canonical CSR matrix M (CSRArrays or scipy) with its rows scaled
    to sum to 1; empty rows stay zero.

    With `rows`, only those rows are rescaled and every other row keeps its
    weights bit for bit. A value that scales to 0 is dropped. Each value
    is the product of its row's scale and its weight, as scipy's
    diags(scale) @ M computes it, so the two agree bit for bit.
    """
    rowsum = _row_sums(M)
    scale = np.divide(1.0, rowsum, out=np.zeros_like(rowsum), where=rowsum > 0)
    if rows is not None:
        untouched = np.ones(M.shape[0], dtype=bool)
        untouched[rows] = False
        scale[untouched] = 1.0
    data = np.repeat(scale, np.diff(M.indptr)) * M.data
    return _kept(CSRArrays(M.indptr, M.indices, data, M.shape), data != 0)


def build_interaction_graph(counts: InteractionCounts) -> BipartiteGraph:
    """Row-normalize the usage counts T into edge weights."""
    graph = BipartiteGraph(R=row_normalize(counts.T))
    graph.validate_row_stochastic()
    return graph


def binarize(graph: BipartiteGraph) -> BipartiteGraph:
    """Replace every positive weight with 1 (unweighted-graph reduction)."""
    R = graph.R
    return BipartiteGraph(R=CSRArrays(R.indptr, R.indices, np.ones_like(R.data), R.shape))


def _symmetric_normalize(A) -> NormalizedAdjacency:
    """D^-1/2 A D^-1/2 of the canonical CSR matrix A, in A's sparsity
    pattern. A holds no diagonal entry: load_user_graph refuses one,
    build_social_graph drops it, PathSim makes none and the bipartite block
    matrix has none. The degrees are summed in storage order, and the
    factor dinv[r] * dinv[c] is computed identically for (r, c) and (c, r),
    so a symmetric A gives an exactly symmetric result."""
    import scipy.sparse as sp

    deg = np.bincount(_row_indices(A), weights=A.data, minlength=A.shape[0])
    with np.errstate(divide="ignore"):
        dinv = np.power(deg, -0.5)
    dinv[np.isinf(dinv)] = 0.0
    data = np.repeat(dinv, np.diff(A.indptr))
    data *= dinv[A.indices]
    data *= A.data
    return NormalizedAdjacency(sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape))


def build_adjacency(graph: BipartiteGraph) -> NormalizedAdjacency:
    """Block adjacency over users then hashtags, symmetrically normalized.

    Isolated nodes keep zero rows: a zero degree maps to a zero scale
    factor instead of a division error.
    """
    import scipy.sparse as sp

    R = to_scipy(graph.R)
    return _symmetric_normalize(sp.bmat([[None, R], [R.T, None]], format="csr"))


def normalize_user_graph(graph: UserGraph) -> NormalizedAdjacency:
    return _symmetric_normalize(graph.W)


def _scaled(c: float, M: CSRArrays) -> CSRArrays:
    return CSRArrays(M.indptr, M.indices, c * M.data, M.shape)


def build_social_graph(counts: InteractionCounts, cfg: RunConfig) -> UserGraph:
    """Combine mutual-follow, mention, and reply relations, weighted by the
    social_c_* keys, into one symmetric user graph."""
    if cfg.social_c_follow == cfg.social_c_mention == cfg.social_c_reply == 0.0:
        raise EmptyChannel("all social coefficients are zero")
    mention, reply = counts.mention, counts.reply
    W = _sum([
        _scaled(cfg.social_c_follow, counts.mutual_follow),
        _scaled(cfg.social_c_mention, _sum([mention, _transposed(mention)])),
        _scaled(cfg.social_c_reply, _sum([reply, _transposed(reply)])),
    ])
    # W is symmetric bit for bit, as each term is and the sum adds the terms
    # of (i, j) and (j, i) in one order, so only the diagonal of self-mentions
    # and self-replies is dropped.
    return UserGraph(W=_kept(W, _row_indices(W) != W.indices), kind="social")


def pathsim_scores(M1, M2) -> CSRArrays:
    """Meta-path similarity in its symmetric form: (S + S.T) / 2 without
    the diagonal, where s(i, j) = 2*C[i, j] / (C[i, i] + C[j, j]) with
    C = M1 @ M2.T, and pairs whose diagonal mass is zero get similarity 0.

    M1 and M2 are canonical CSR matrices (CSRArrays or scipy) of
    nonnegative counts. C and D = M2 @ M1.T, whose row i holds C's column
    i, are built a row block at a time as dense arrays (_product_rows),
    and each block gives its rows of the result in CSR order
    (_symmetric_rows), so S, its transpose and their sum are never held.
    D is C itself when M1 is M2. Every value is computed as scipy computes
    it from the product, so the two agree bit for bit.
    """
    if M1.shape != M2.shape:
        raise ShapeError(f"relation shapes differ: {M1.shape} vs {M2.shape}")
    n, m = M1.shape
    # C[i, i]: the products of M1's and M2's shared entries, summed per row.
    keys1, keys2 = _flat_keys(M1), _flat_keys(M2)
    shared, at1, at2 = np.intersect1d(keys1, keys2, assume_unique=True, return_indices=True)
    diag = _summed_at(shared // m, M1.data[at1] * M2.data[at2], n)
    M2T = _transposed(M2)
    M1T = None if M2 is M1 else _transposed(M1)
    # Products up to each row boundary, over the blocks of C and of D.
    bounds = _products_before_rows(M1, M2T)
    if M1T is not None:
        bounds += _products_before_rows(M2, M1T)
    max_rows = max(1, PATHSIM_BLOCK // max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, data = [np.empty(0, np.int32)], [np.empty(0)]
    lo = 0
    while lo < n:
        fits = np.searchsorted(bounds, bounds[lo] + PATHSIM_BLOCK, side="right") - 1
        hi = max(lo + 1, min(fits, lo + max_rows))
        C = _product_rows(M1, M2T, lo, hi)
        D = None if M1T is None else _product_rows(M2, M1T, lo, hi)
        indptr[lo + 1:hi + 1], cols, scores = _symmetric_rows(C, D, diag, lo)
        indices.append(cols.astype(np.int32))
        data.append(scores)
        lo = hi
    np.cumsum(indptr, out=indptr)
    check_index_range((n, n), int(indptr[-1]))
    # One list of chunks is freed before the other is joined.
    indices = np.concatenate(indices)
    data = np.concatenate(data)
    return CSRArrays(indptr.astype(np.int32), indices, data, (n, n))


def _symmetric_rows(C: np.ndarray, D: np.ndarray | None, diag: np.ndarray, lo: int):
    """Rows lo:lo + len(C) of (S + S.T) / 2 without the diagonal, from the
    same rows of C and of D (None when D is C, and then the rows are
    S's): the entries per row, and the columns and values in CSR order.

    s(i, j) is computed only where C[i, j] or D[i, j] is nonzero and i or
    j has diagonal mass; every other pair scores 0. It is 2*C[i, j] /
    (C[i, i] + C[j, j]), and (S + S.T) / 2 is (s(i, j) + s(j, i)) * 0.5,
    as scipy computes them; a value that underflows to 0 is dropped."""
    b, n = C.shape
    has_mass = diag > 0
    stored = C != 0
    if D is not None:
        stored |= D != 0
    stored &= has_mass[lo:lo + b, None] | has_mass
    stored[np.arange(b), np.arange(lo, lo + b)] = False
    per_row = np.count_nonzero(stored, axis=1)
    cells = np.flatnonzero(stored)
    cols = cells - np.repeat(np.arange(b) * n, per_row)
    den = np.repeat(diag[lo:lo + b], per_row) + diag[cols]
    scores = C.ravel()[cells]
    scores *= 2.0
    scores /= den
    if D is not None:
        transpose_scores = D.ravel()[cells]
        transpose_scores *= 2.0
        transpose_scores /= den
        scores += transpose_scores
        scores *= 0.5
    kept = scores != 0
    if not kept.all():
        per_row = np.bincount(np.repeat(np.arange(b), per_row)[kept], minlength=b)
        cols, scores = cols[kept], scores[kept]
    return per_row, cols, scores


def _products_before_rows(A, BT) -> np.ndarray:
    """For each row boundary i, the number of products A[r, k] * B[j, k]
    that rows 0:i of A @ BT.T are summed from."""
    per_entry = np.diff(BT.indptr)[A.indices]
    return np.concatenate([[0], np.cumsum(per_entry)])[A.indptr]


def _product_rows(A, BT, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of A @ BT.T as a dense array, where BT is the CSR matrix
    of B's transpose: one np.bincount over the products A[i, k] * B[j, k]
    of the block's entries. They are listed by row i, then by hashtag k
    ascending, so each value is summed from 0.0 in ascending k, as scipy's
    CSR product sums it."""
    n = BT.shape[1]
    start, stop = A.indptr[lo], A.indptr[hi]
    # The entries of BT's row k, for each entry (i, k) of the block in turn.
    count, at = _row_positions(BT.indptr, A.indices[start:stop])
    row_start = np.repeat(np.arange(hi - lo) * n, np.diff(A.indptr[lo:hi + 1]))
    cells = np.repeat(row_start, count)
    cells += BT.indices[at]
    products = np.repeat(A.data[start:stop], count)
    products *= BT.data[at]
    return _summed_at(cells, products, (hi - lo) * n).reshape(hi - lo, n)


def _summed_at(cells: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """A float64 array of `size` zeros with each value added at its cell,
    in order: np.bincount, which gives int64 zeros for no values."""
    return np.bincount(cells, weights=values, minlength=size).astype(np.float64, copy=False)


def compute_pathsim(counts: InteractionCounts, cfg: RunConfig) -> UserGraph:
    """PathSim user graph for the user -> hashtag -> user meta-path whose
    relations pathsim_left and pathsim_right name."""
    left, right = cfg.pathsim_left, cfg.pathsim_right
    S = pathsim_scores(counts.relation(left), counts.relation(right))
    return UserGraph(W=S, kind=f"pathsim:{left}-{right}")


def sparsify(graph: UserGraph, min_weight: float, top_k: int) -> UserGraph:
    """Drop edges below min_weight, then, unless top_k is 0, keep only each
    node's top_k strongest edges. An edge survives the top_k pass if either
    endpoint keeps it, so the result stays symmetric."""
    W = _kept(graph.W, graph.W.data >= min_weight)
    if top_k:
        # Each row's strongest edges; ties break toward the smaller neighbor.
        keep = _row_ranks(W) < top_k
        # Each stored mirror (j, i) of a kept edge (i, j) is kept too, found
        # among the keys of all edges, which are row-major, hence sorted.
        mirrors = W.indices[keep].astype(np.int64)
        mirrors *= W.shape[0]
        mirrors += _row_indices(W)[keep]
        keys = _flat_keys(W)
        keep[np.searchsorted(keys, mirrors[_is_member(keys, mirrors)])] = True
        W = _kept(W, keep)
    return UserGraph(W=W, kind=graph.kind)


def _row_ranks(M) -> np.ndarray:
    """The rank of each stored entry of the CSR matrix M within its row, in
    storage order: 0 for the row's largest value, with equal values ranked
    in storage order, so that in a canonical row the smaller column ranks
    first. One stable sort (np.lexsort) on the row, then the negated
    value; the rows are already in order, so the entry sorted to a
    position lies in the same row as the one stored there."""
    rows = _row_indices(M, M.indices.dtype)
    order = np.lexsort((-M.data, rows))
    position = np.arange(M.nnz)
    position -= M.indptr[rows]
    rank = np.empty_like(position)
    rank[order] = position
    return rank


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the CSR matrix with row pointers indptr, the entry count of each
    of `rows` (a row may repeat), and the array positions of their entries,
    row after row in the order given."""
    first = indptr[rows].astype(np.int64)
    count = indptr[rows + 1] - first
    # Each entry's position is its row's first, plus its rank in the row.
    at = np.repeat(first - (np.cumsum(count) - count), count)
    at += np.arange(len(at))
    return count, at


def _kept(W, keep: np.ndarray) -> CSRArrays:
    """The entries of the canonical CSR matrix W (CSRArrays or scipy) where
    `keep` is true: W's own arrays if it is true everywhere. Each row's new
    extent comes from the running count of kept entries."""
    if keep.all():
        return CSRArrays(W.indptr, W.indices, W.data, W.shape)
    kept_before = np.zeros(W.nnz + 1, dtype=W.indptr.dtype)
    np.cumsum(keep, out=kept_before[1:])
    return CSRArrays(kept_before[W.indptr], W.indices[keep], W.data[keep], W.shape)


def _is_member(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which queries occur in sorted_keys, by binary search."""
    if len(sorted_keys) == 0:
        return np.zeros(len(queries), dtype=bool)
    pos = np.searchsorted(sorted_keys, queries)
    pos = np.minimum(pos, len(sorted_keys) - 1)
    return sorted_keys[pos] == queries


def propagate_once(adj: NormalizedAdjacency, H: np.ndarray) -> np.ndarray:
    if H.shape[0] != adj.size:
        raise ShapeError(f"operator size {adj.size} does not match input rows {H.shape[0]}")
    return adj.matrix @ H


def save_matrix_coo(mat, path) -> None:
    """Write the canonical CSR matrix `mat` (CSRArrays or scipy) as a GRAPH
    container (the `.coo` file names predate it). Its arrays are written
    as they are, so equal matrices give equal bytes and save -> load ->
    save is exact."""
    check_index_range(mat.shape, mat.nnz)
    write_container(path, GRAPH, (*mat.shape, mat.nnz), [mat.indptr, mat.indices, mat.data])


def load_matrix_coo(path) -> sp.csr_matrix:
    """Read save_matrix_coo's file. Besides read_container's refusals, a
    row or column count beyond the int32 indices and arrays that
    checked_csr refuses raise RecordError."""
    (n, m, _), (indptr, indices, data) = read_container(path, GRAPH)
    if max(n, m) > np.iinfo(np.int32).max:
        raise RecordError(f"{path}: shape {n} x {m} out of range")
    return to_scipy(checked_csr(indptr, indices, data, (n, m), path))


def load_bipartite(path) -> BipartiteGraph:
    return BipartiteGraph(R=load_matrix_coo(path))


def load_user_graph(path, kind: str = "user") -> UserGraph:
    """The user graph in `path`. Besides the matrix loader's refusals, a
    graph that is not square, not symmetric or that has a diagonal entry
    raises RecordError: the user operator's transpose is taken to be
    itself."""
    W = load_matrix_coo(path)
    if W.shape[0] != W.shape[1]:
        raise RecordError(f"{path}: user graph is not square")
    if not is_symmetric(W):
        raise RecordError(f"{path}: user graph is not symmetric")
    if (_row_indices(W) == W.indices).any():
        raise RecordError(f"{path}: user graph has diagonal entries")
    return UserGraph(W=W, kind=kind)
