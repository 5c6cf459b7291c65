"""Graph construction and normalization.

Builds the weighted user-hashtag bipartite graph, the social user graph,
and meta-path similarity user graphs, and normalizes each into the
symmetric propagation operator used by the embedding model.

This is the one module that needs scipy.sparse. Each function that calls
it imports it, so a process that builds no graph (ingest, synth, curve)
never pays for the import; cli.main imports it up front for the commands
that do.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import GraphConfig
from .errors import EmptyChannel, EmptyCorpus, RecordError, ShapeError
from .ingest import CSRArrays, InteractionCounts, checked_csr

if TYPE_CHECKING:
    import scipy.sparse as sp

LOGGER = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-9

# Array entries per write in write_container.
WRITE_SLICE = 1 << 20


@dataclass(frozen=True)
class Container:
    """One kind of binary file: magic bytes, a little-endian struct header
    whose first field is the format version, then the arrays that `layout`
    sizes from the other header fields, each as little-endian bytes."""

    name: str
    magic: bytes
    header: struct.Struct
    version: int
    layout: Callable[..., list[tuple[str, int]]]  # header fields -> [(dtype, count)]


# Header: version, rows, cols, nnz. Arrays: indptr, indices, data.
GRAPH = Container("graph file", b"SGCSR\x00", struct.Struct("<IQQQ"), 1,
                  lambda n, m, nnz: [("<i8", n + 1), ("<i8", nnz), ("<f8", nnz)])
# Header: version, users, hashtags, dim, seed, id bytes. Arrays: user rows,
# hashtag rows, then the ids as a UTF-8 JSON block [users, hashtags].
CHECKPOINT = Container("checkpoint", b"SGEMB\x00", struct.Struct("<IQQQqQ"), 2,
                       lambda n, m, d, seed, id_bytes: [("<f8", n * d), ("<f8", m * d),
                                                        ("u1", id_bytes)])


def write_container(path, kind: Container, fields: tuple, arrays) -> None:
    """Write `kind`'s magic, its header with `fields` after the version, and
    `arrays` in the dtypes of its layout.

    Each array goes out WRITE_SLICE entries at a time, straight from its
    buffer: an array already in its layout dtype is never copied, and one
    that must be converted (int32 indices to "<i8") is converted one slice
    at a time. A zero-length array writes nothing."""
    with open(path, "wb") as fh:
        fh.write(kind.magic + kind.header.pack(kind.version, *fields))
        for (dtype, _), arr in zip(kind.layout(*fields), arrays):
            flat = np.ravel(arr)
            for start in range(0, flat.size, WRITE_SLICE):
                fh.write(np.ascontiguousarray(flat[start:start + WRITE_SLICE], dtype=dtype))


def read_container(path, kind: Container) -> tuple[tuple, list[np.ndarray]]:
    """The header fields after the version, and the arrays, of a file that
    write_container wrote. A wrong magic or version, a file cut inside its
    header and a size other than the one the header implies raise
    RecordError. The size is computed in Python ints and compared with the
    file's, so no header value can overflow it or cause an allocation
    before it matches. Each array is then read from the file straight into
    its own native-order array; nothing else holds the file's bytes."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = len(kind.magic) + kind.header.size
        head = fh.read(offset)
        if head[: len(kind.magic)] != kind.magic:
            raise RecordError(f"{path}: not a {kind.name} (bad magic)")
        if len(head) < offset:
            raise RecordError(f"{path}: truncated {kind.name} header")
        version, *fields = kind.header.unpack_from(head, len(kind.magic))
        if version != kind.version:
            raise RecordError(f"{path}: unsupported {kind.name} version {version}")
        layout = [(np.dtype(dtype), count) for dtype, count in kind.layout(*fields)]
        need = offset + sum(dtype.itemsize * count for dtype, count in layout)
        if size != need:
            raise RecordError(f"{path}: size {size} does not match header ({need})")
        arrays = []
        for dtype, count in layout:
            arr = np.empty(count, dtype)
            if fh.readinto(arr) != arr.nbytes:
                raise RecordError(f"{path}: file shrank while it was read")
            if not dtype.isnative:
                arr = arr.byteswap(inplace=True).view(dtype.newbyteorder("="))
            arrays.append(arr)
    return tuple(fields), arrays


@dataclass
class BipartiteGraph:
    """Weighted user-hashtag graph. R rows are usage distributions: row i
    holds user i's interaction counts divided by the user's total.

    The graph owns the matrix it is given: a float64 CSR matrix is kept as
    it is, not copied, and is put in canonical form (sorted column indices,
    duplicates summed) in place. Any other matrix is converted first."""

    R: sp.csr_matrix

    def __post_init__(self):
        self.R = self.R.tocsr().astype(np.float64, copy=False)
        self.R.sum_duplicates()
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
        coo = self.R.tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)

    def validate_row_stochastic(self) -> None:
        sums = np.asarray(self.R.sum(axis=1)).ravel()
        active = sums > 0
        if active.any() and np.abs(sums[active] - 1.0).max() > ROW_SUM_TOL:
            raise ShapeError("rows with edges must sum to 1")


@dataclass
class UserGraph:
    """Symmetric nonnegative user-user graph with zero diagonal.

    Like BipartiteGraph, it owns the matrix it is given: a float64 CSR
    matrix is kept, not copied, and made canonical in place."""

    W: sp.csr_matrix
    kind: str = "user"

    def __post_init__(self):
        self.W = self.W.tocsr().astype(np.float64, copy=False)
        self.W.sum_duplicates()
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


def to_scipy(mat: CSRArrays) -> sp.csr_matrix:
    """The scipy CSR matrix over mat's own arrays, not a copy of them."""
    import scipy.sparse as sp

    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def row_normalize(M: sp.spmatrix, rows: np.ndarray | None = None) -> sp.csr_matrix:
    """Scale rows to sum to 1; empty rows stay zero.

    With `rows`, only those rows are rescaled and every other row keeps its
    weights bit for bit.
    """
    import scipy.sparse as sp

    M = M.tocsr().astype(np.float64)
    rowsum = np.asarray(M.sum(axis=1)).ravel()
    scale = np.divide(1.0, rowsum, out=np.zeros_like(rowsum), where=rowsum > 0)
    if rows is not None:
        untouched = np.ones(M.shape[0], dtype=bool)
        untouched[rows] = False
        scale[untouched] = 1.0
    out = sp.csr_matrix(sp.diags(scale) @ M)
    out.sort_indices()
    return out


def build_interaction_graph(counts: InteractionCounts) -> BipartiteGraph:
    """Row-normalize the usage counts T into edge weights."""
    graph = BipartiteGraph(R=row_normalize(to_scipy(counts.T)))
    graph.validate_row_stochastic()
    return graph


def binarize(graph: BipartiteGraph) -> BipartiteGraph:
    """Replace every positive weight with 1 (unweighted-graph reduction)."""
    R = graph.R.copy()
    R.data = np.ones_like(R.data)
    return BipartiteGraph(R=R)


def _symmetric_normalize(A: sp.coo_matrix) -> sp.csr_matrix:
    import scipy.sparse as sp

    deg = np.asarray(A.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = np.power(deg, -0.5)
    dinv[np.isinf(dinv)] = 0.0
    # Scaling COO entries keeps the result exactly symmetric: the factor
    # dinv[r]*dinv[c] is computed identically for (r,c) and (c,r).
    data = dinv[A.row] * dinv[A.col] * A.data
    out = sp.csr_matrix((data, (A.row, A.col)), shape=A.shape)
    out.sort_indices()
    return out


def build_adjacency(graph: BipartiteGraph) -> NormalizedAdjacency:
    """Block adjacency over users then hashtags, symmetrically normalized.

    Isolated nodes keep zero rows: a zero degree maps to a zero scale
    factor instead of a division error.
    """
    import scipy.sparse as sp

    A = sp.bmat([[None, graph.R], [graph.R.T, None]], format="coo")
    return NormalizedAdjacency(matrix=_symmetric_normalize(A))


def normalize_user_graph(graph: UserGraph) -> NormalizedAdjacency:
    W = graph.W.tocoo()
    if (W.row == W.col).any():
        raise ShapeError("user graph has diagonal entries")
    return NormalizedAdjacency(matrix=_symmetric_normalize(W))


def build_social_graph(counts: InteractionCounts, cfg: GraphConfig) -> UserGraph:
    """Combine mutual-follow, mention, and reply relations, weighted by the
    social_c_* keys, into one symmetric user graph."""
    if cfg.social_c_follow == cfg.social_c_mention == cfg.social_c_reply == 0.0:
        raise EmptyChannel("all social coefficients are zero")
    mention, reply = to_scipy(counts.mention), to_scipy(counts.reply)
    W = (
        cfg.social_c_follow * to_scipy(counts.mutual_follow)
        + cfg.social_c_mention * (mention + mention.T)
        + cfg.social_c_reply * (reply + reply.T)
    )
    return UserGraph(W=_symmetrized(W), kind="social")


def _symmetrized(W: sp.csr_matrix) -> sp.csr_matrix:
    """(W + W.T) * 0.5 without its diagonal, halved in place: the sum is the
    only new matrix."""
    W = W + W.T
    W.data *= 0.5
    on_diagonal = np.repeat(np.arange(W.shape[0], dtype=W.indices.dtype),
                            np.diff(W.indptr)) == W.indices
    W.data[on_diagonal] = 0.0
    W.eliminate_zeros()
    return W


def pathsim_scores(M1: sp.csr_matrix, M2: sp.csr_matrix) -> sp.csr_matrix:
    """Meta-path similarity before symmetrization.

    s(i, j) = 2*C[i, j] / (C[i, i] + C[j, j]) with C = M1 @ M2.T; pairs
    whose diagonal mass is zero get similarity 0. The product's own data
    array is rescaled, so C is the only matrix built.
    """
    if M1.shape != M2.shape:
        raise ShapeError(f"relation shapes differ: {M1.shape} vs {M2.shape}")
    C = M1 @ M2.T
    diag = C.diagonal()
    den = np.repeat(diag, np.diff(C.indptr))  # C[i, i] for each entry of row i
    den += diag[C.indices]
    C.data *= 2.0
    np.divide(C.data, den, out=C.data, where=den > 0)
    C.data[den <= 0] = 0.0
    C.eliminate_zeros()
    C.sort_indices()
    return C


def compute_pathsim(counts: InteractionCounts, cfg: GraphConfig) -> UserGraph:
    """PathSim user graph for the user -> hashtag -> user meta-path whose
    relations pathsim_left and pathsim_right name."""
    left, right = cfg.pathsim_left, cfg.pathsim_right
    S = pathsim_scores(to_scipy(counts.relation(left)), to_scipy(counts.relation(right)))
    return UserGraph(W=_symmetrized(S), kind=f"pathsim:{left}-{right}")


def sparsify(graph: UserGraph, min_weight: float, top_k: int) -> UserGraph:
    """Drop edges below min_weight, then, unless top_k is 0, keep only each
    node's top_k strongest edges. An edge survives the top_k pass if either
    endpoint keeps it, so the result stays symmetric."""
    W = _kept(graph.W, graph.W.data >= min_weight)
    if top_k:
        n = W.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(W.indptr))
        cols = W.indices.astype(np.int64)
        # Rank each edge within its row, strongest first; ties break toward
        # the smaller neighbor index.
        order = np.lexsort((cols, -W.data, rows))
        rank = np.empty(W.nnz, dtype=np.int64)
        rank[order] = np.arange(W.nnz) - W.indptr[rows[order]]
        keys = rows * n + cols  # row-major, hence sorted
        top = rank < top_k
        W = _kept(W, top | _is_member(keys[top], cols * n + rows))
    return UserGraph(W=W, kind=graph.kind)


def _kept(W: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """The entries of the canonical CSR matrix W where `keep` is true. Each
    row's new extent comes from the running count of kept entries."""
    import scipy.sparse as sp

    kept_before = np.zeros(W.nnz + 1, dtype=W.indptr.dtype)
    np.cumsum(keep, out=kept_before[1:])
    return sp.csr_matrix((W.data[keep], W.indices[keep], kept_before[W.indptr]), shape=W.shape)


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


def save_matrix_coo(mat: sp.spmatrix, path) -> None:
    """Write `mat` as a GRAPH container (the `.coo` file names predate it).

    Duplicates are summed and column indices sorted before writing, so
    equal matrices give equal bytes and save -> load -> save is exact. A
    float64 CSR matrix already in that form is written from its own arrays;
    any other is converted or copied first, never changed in place.
    """
    import scipy.sparse as sp

    csr = sp.csr_matrix(mat, dtype=np.float64)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    write_container(path, GRAPH, (*csr.shape, csr.nnz), [csr.indptr, csr.indices, csr.data])


def load_matrix_coo(path) -> sp.csr_matrix:
    """Read save_matrix_coo's file. Besides read_container's refusals,
    arrays that are not a canonical CSR matrix with finite values raise
    RecordError."""
    (n, m, _), (indptr, indices, data) = read_container(path, GRAPH)
    if m > np.iinfo(np.int64).max:
        raise RecordError(f"{path}: column count {m} out of range")
    return to_scipy(checked_csr(indptr, indices, data, (n, m), path))


def _load_weights(path) -> sp.csr_matrix:
    mat = load_matrix_coo(path)
    if mat.nnz and mat.data.min() < 0:
        raise RecordError(f"{path}: negative edge weight")
    return mat


def save_bipartite(graph: BipartiteGraph, path) -> None:
    save_matrix_coo(graph.R, path)


def load_bipartite(path) -> BipartiteGraph:
    return BipartiteGraph(R=_load_weights(path))


def save_user_graph(graph: UserGraph, path) -> None:
    save_matrix_coo(graph.W, path)


def load_user_graph(path, kind: str = "user") -> UserGraph:
    return UserGraph(W=_load_weights(path), kind=kind)
