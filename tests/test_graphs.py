"""Graph construction oracles: normalization, PathSim, social channel."""

from __future__ import annotations

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stancegraph import graphs
from stancegraph.config import RunConfig
from stancegraph.errors import ConfigError, EmptyChannel, RecordError, ShapeError
from stancegraph.graphs import (
    GRAPH,
    BipartiteGraph,
    UserGraph,
    binarize,
    build_adjacency,
    build_interaction_graph,
    build_social_graph,
    compute_pathsim,
    load_bipartite,
    load_matrix_coo,
    load_user_graph,
    normalize_user_graph,
    pathsim_scores,
    propagate_once,
    save_matrix_coo,
    sparsify,
    to_scipy,
)
from stancegraph.ingest import (COUNTS, CSRArrays, load_counts, read_container, save_counts,
                               write_container)
from stancegraph.model import CHECKPOINT, EmbeddingState, load_checkpoint, save_checkpoint

from conftest import (INDEX_MAX, NATIVE_CSR_DTYPES, counts_from, csr_dtypes, dense,
                      load_corrupted, random_bipartite, random_user_graph,
                      write_graph_container)
import reference
from reference import assert_row_stochastic, neighbors


def dense_sym_normalize(A: np.ndarray) -> np.ndarray:
    """Independent D^-1/2 A D^-1/2 with the zero-degree convention."""
    deg = A.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return dinv[:, None] * A * dinv[None, :]


def brute_force_pathsim(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    """Count meta-path instances one by one, then apply the PathSim ratio.

    An instance from user i to user j is a concrete (left-edge, right-edge)
    pair through a shared hashtag, so integer counts multiply out by
    explicit enumeration rather than a matrix product.
    """
    n, m = M1.shape
    C = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            total = 0
            for h in range(m):
                for _ in range(int(M1[i, h])):
                    for _ in range(int(M2[j, h])):
                        total += 1
            C[i, j] = total
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            denom = C[i, i] + C[j, j]
            s[i, j] = 2.0 * C[i, j] / denom if denom > 0 else 0.0
    out = (s + s.T) / 2.0
    np.fill_diagonal(out, 0.0)
    return out


# interaction graph ----------------------------------------------------------

def test_interaction_weights_are_row_shares():
    counts = counts_from([[2, 1, 1], [0, 7, 0]])
    g = build_interaction_graph(counts)
    assert np.allclose(dense(g.R)[0], [0.5, 0.25, 0.25])
    assert np.allclose(dense(g.R)[1], [0.0, 1.0, 0.0])
    assert_row_stochastic(g)


def test_interaction_graph_keeps_isolated_users():
    counts = counts_from([[0, 0], [3, 1]])
    g = build_interaction_graph(counts)
    assert g.n_users == 2
    assert g.R.indptr[1] == 0
    assert neighbors(g, 0).size == 0


# adjacency normalization ----------------------------------------------------

def test_adjacency_single_edge():
    g = BipartiteGraph(R=sp.csr_matrix(np.array([[1.0]])))
    A = build_adjacency(g).matrix.toarray()
    assert np.array_equal(A, [[0.0, 1.0], [1.0, 0.0]])


def test_adjacency_shared_hashtag():
    # two users, one hashtag each with weight 1: user degree 1, hashtag degree 2
    g = BipartiteGraph(R=sp.csr_matrix(np.array([[1.0], [1.0]])))
    A = build_adjacency(g).matrix.toarray()
    assert A[0, 2] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    assert A[1, 2] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    assert A[0, 1] == 0.0


def test_adjacency_isolated_user_row_is_zero():
    g = BipartiteGraph(R=sp.csr_matrix(np.array([[0.0, 0.0], [0.5, 0.5]])))
    A = build_adjacency(g).matrix.toarray()
    assert not A[0].any()
    assert not A[:, 0].any()


def test_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        g = random_bipartite(rng, n, m)
        R = g.R.toarray()
        A = np.block([[np.zeros((n, n)), R], [R.T, np.zeros((m, m))]])
        got = build_adjacency(g).matrix.toarray()
        assert np.abs(got - dense_sym_normalize(A)).max() <= 1e-12


def test_adjacency_exactly_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_bipartite(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        A = build_adjacency(g).matrix
        assert abs(A - A.T).max() <= 1e-12


# social graph ---------------------------------------------------------------

def social(follow, mention, reply) -> RunConfig:
    return RunConfig(social_c_follow=follow, social_c_mention=mention, social_c_reply=reply)


def metapath(left, right) -> RunConfig:
    return RunConfig(pathsim_left=left, pathsim_right=right)


def test_social_mutual_follow_pair():
    mutual = np.zeros((3, 3))
    mutual[0, 1] = mutual[1, 0] = 1
    counts = counts_from(np.ones((3, 1)), mutual=mutual)
    W = dense(build_social_graph(counts, social(1, 0, 0)).W)
    assert W[0, 1] == 1.0 and W[1, 0] == 1.0
    assert W.sum() == 2.0


def test_social_mentions_symmetrize_to_full_count():
    # p mentions q three times: (M + M^T) puts 3 on both sides
    mention = np.zeros((2, 2))
    mention[0, 1] = 3
    counts = counts_from(np.ones((2, 1)), mention=mention)
    W = dense(build_social_graph(counts, social(0, 1, 0)).W)
    assert W[0, 1] == 3.0 and W[1, 0] == 3.0


def test_social_self_reply_dropped():
    reply = np.zeros((2, 2))
    reply[0, 0] = 5
    counts = counts_from(np.ones((2, 1)), reply=reply)
    W = dense(build_social_graph(counts, social(0, 0, 1)).W)
    assert W.sum() == 0.0


def test_social_all_zero_coefficients_rejected():
    counts = counts_from(np.ones((2, 1)))
    with pytest.raises(EmptyChannel):
        build_social_graph(counts, social(0, 0, 0))


def test_social_negative_coefficient_rejected():
    with pytest.raises(ConfigError, match="social coefficients must be nonnegative"):
        social(-1, 0, 0)


def test_social_graph_is_symmetric_zero_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        counts = counts_from(
            np.ones((n, 2)),
            mention=rng.integers(0, 3, size=(n, n)),
            reply=rng.integers(0, 3, size=(n, n)),
            mutual=np.zeros((n, n)),
        )
        W = dense(build_social_graph(counts, RunConfig()).W)
        assert np.abs(W - W.T).max() <= 1e-12
        assert np.diag(W).sum() == 0.0


# pathsim --------------------------------------------------------------------

def test_pathsim_equal_diagonal_gives_one():
    C_like = np.array([[2.0, 2.0], [2.0, 2.0]])
    s = pathsim_scores(sp.csr_matrix(C_like), sp.csr_matrix(C_like))
    # C = M M^T has equal diagonal here, so the cross score saturates
    C = C_like @ C_like.T
    assert C[0, 0] == C[1, 1]
    assert dense(s)[0, 1] == pytest.approx(2 * C[0, 1] / (C[0, 0] + C[1, 1]))


def test_pathsim_three_user_example():
    M = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    counts = counts_from(M)
    W = dense(compute_pathsim(counts, metapath("tweet", "tweet")).W)
    assert W[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert W[0, 2] == 0.0
    assert W[1, 2] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_pathsim_zero_diagonal_pair_scores_zero():
    # users 0 and 1 have no left-relation activity at all
    M1 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    M2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    s = dense(pathsim_scores(sp.csr_matrix(M1), sp.csr_matrix(M2)))
    assert s[0, 1] == 0.0


def test_pathsim_matches_instance_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(120):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        M1 = rng.integers(0, 3, size=(n, m)).astype(np.float64)
        M2 = rng.integers(0, 3, size=(n, m)).astype(np.float64)
        counts = counts_from(M1, T_retweet=M2)
        got = dense(compute_pathsim(counts, metapath("tweet", "retweet")).W)
        want = brute_force_pathsim(M1, M2)
        assert np.abs(got - want).max() <= 1e-12


def test_pathsim_output_range_and_symmetry():
    # the [0, 1] range is a theorem only when both relations coincide; an
    # asymmetric pair can push the ratio past 1, so test range on the
    # symmetric case and structure on the general one
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 6))
        M = rng.integers(0, 4, size=(n, m))
        counts = counts_from(M, T_retweet=rng.integers(0, 4, size=(n, m)))
        W_sym = dense(compute_pathsim(counts, metapath("tweet", "tweet")).W)
        assert np.array_equal(W_sym, W_sym.T)
        assert W_sym.min() >= 0.0 and W_sym.max() <= 1.0 + 1e-12
        assert np.diag(W_sym).sum() == 0.0
        W_mixed = dense(compute_pathsim(counts, RunConfig()).W)
        assert np.array_equal(W_mixed, W_mixed.T)
        assert W_mixed.min() >= 0.0
        assert np.diag(W_mixed).sum() == 0.0


def test_metapath_spec_rejects_unknown_relation():
    with pytest.raises(ConfigError):
        metapath("quote", "tweet")


# sparsify -------------------------------------------------------------------

def star_graph() -> UserGraph:
    W = np.zeros((4, 4))
    for leaf, w in ((1, 0.9), (2, 0.5), (3, 0.1)):
        W[0, leaf] = W[leaf, 0] = w
    return UserGraph(W=sp.csr_matrix(W))


def test_sparsify_zero_threshold_is_identity():
    g = star_graph()
    out = sparsify(g, min_weight=0.0, top_k=0)
    assert np.array_equal(dense(out.W), dense(g.W))


def test_sparsify_threshold_above_max_empties():
    out = sparsify(star_graph(), min_weight=0.95, top_k=0)
    assert out.W.nnz == 0


def test_sparsify_drops_edges_below_threshold():
    out = dense(sparsify(star_graph(), min_weight=0.3, top_k=0).W)
    assert out[0, 1] == 0.9 and out[0, 2] == 0.5 and out[0, 3] == 0.0


def test_sparsify_top_k_unions_both_endpoints():
    # hub keeps its strongest edge; every leaf keeps its only edge, so the
    # union preserves all three despite top_k=1
    out = dense(sparsify(star_graph(), min_weight=0.0, top_k=1).W)
    assert out[0, 1] == 0.9 and out[0, 2] == 0.5 and out[0, 3] == 0.1


def test_sparsify_result_is_symmetric():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_user_graph(rng, int(rng.integers(2, 8)))
        out = dense(sparsify(g, min_weight=0.2, top_k=2).W)
        assert np.abs(out - out.T).max() <= 1e-12


def sparsify_top_k_reference(W: sp.csr_matrix, top_k: int) -> sp.csr_matrix:
    """Per-row loop: each row keeps its top_k columns in a set, then an
    edge survives when either endpoint kept it."""
    W = W.tocsr()
    W.sort_indices()
    kept = set()
    for i in range(W.shape[0]):
        cols = W.indices[W.indptr[i]:W.indptr[i + 1]]
        vals = W.data[W.indptr[i]:W.indptr[i + 1]]
        for j in cols[np.lexsort((cols, -vals))[:top_k]]:
            kept.add((i, int(j)))
    coo = W.tocoo()
    mask = np.array([(int(r), int(c)) in kept or (int(c), int(r)) in kept
                     for r, c in zip(coo.row, coo.col)], dtype=bool)
    return sp.csr_matrix((coo.data[mask], (coo.row[mask], coo.col[mask])), shape=W.shape)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparsify_top_k_equals_per_row_reference(data):
    n = data.draw(st.integers(1, 8), label="n")
    # Few distinct weights, so ties inside a row are common.
    W = data.draw(hnp.arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    np.fill_diagonal(W, 0.0)
    if data.draw(st.booleans(), label="symmetric"):
        W = np.triu(W) + np.triu(W).T
    min_weight = data.draw(st.sampled_from([0.0, 0.3, 0.6]), label="min_weight")
    top_k = data.draw(st.integers(1, n + 1), label="top_k")
    got = sparsify(UserGraph(W=sp.csr_matrix(W)), min_weight=min_weight, top_k=top_k).W
    thresholded = sparsify(UserGraph(W=sp.csr_matrix(W)), min_weight=min_weight, top_k=0).W
    want = sparsify_top_k_reference(to_scipy(thresholded), top_k)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# the per-row primitives -----------------------------------------------------

@st.composite
def csr_rows(draw):
    """CSR arrays of up to 7 rows, empty ones included, in int32 or int64
    indices, with values from a set of four, so most rows hold ties."""
    dtype = draw(st.sampled_from([np.int32, np.int64]), label="dtype")
    values = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    rows = draw(st.lists(st.lists(values, max_size=6), min_size=1, max_size=7), label="rows")
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(dtype)
    data = np.array([v for row in rows for v in row], dtype=np.float64)
    width = max(map(len, rows), default=0)
    indices = np.concatenate([np.arange(len(row)) for row in rows] + [[]]).astype(dtype)
    return CSRArrays(indptr, indices, data, (len(rows), width)), rows


@settings(max_examples=200, deadline=None)
@given(csr_rows())
def test_row_ranks_equal_per_row_sort(case):
    M, rows = case
    want = []
    for row in rows:
        # Largest first; equal values in storage order.
        order = sorted(range(len(row)), key=lambda p: (-row[p], p))
        rank = [0] * len(row)
        for r, p in enumerate(order):
            rank[p] = r
        want += rank
    assert graphs._row_ranks(M).tolist() == want


@settings(max_examples=200, deadline=None)
@given(csr_rows(), st.data())
def test_row_positions_equal_per_row_ranges(case, data):
    M, rows = case
    # Rows may repeat, as the hashtags of a PathSim block do.
    picked = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=10), label="picked")
    picked = np.array(picked, dtype=data.draw(st.sampled_from([np.int32, np.int64])))
    count, at = graphs._row_positions(M.indptr, picked)
    assert count.tolist() == [len(rows[r]) for r in picked]
    assert at.tolist() == [p for r in picked for p in range(M.indptr[r], M.indptr[r + 1])]


# user graph normalization ---------------------------------------------------

def test_normalize_single_edge_is_unit():
    for w in (0.3, 1.0, 4.7):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = w
        A = normalize_user_graph(UserGraph(W=sp.csr_matrix(W))).matrix.toarray()
        assert A[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert A[1, 0] == pytest.approx(1.0, abs=1e-15)


def test_normalize_triangle_gives_halves():
    W = np.ones((3, 3)) - np.eye(3)
    A = normalize_user_graph(UserGraph(W=sp.csr_matrix(W))).matrix.toarray()
    off = A[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5, atol=1e-15)


def test_normalize_empty_graph_is_zero_operator():
    A = normalize_user_graph(UserGraph(W=sp.csr_matrix((3, 3)))).matrix
    assert A.nnz == 0


@st.composite
def weights_with_isolated_nodes(draw, shape):
    """A dense nonnegative array of `shape` whose nonzero values are drawn
    floats, with whole rows and columns left empty."""
    values = st.floats(1e-3, 1e3) | st.sampled_from([0.0, 0.0, 1.0])
    W = draw(hnp.arrays(np.float64, shape, elements=values))
    W[draw(hnp.arrays(bool, shape[0]))] = 0.0
    W[:, draw(hnp.arrays(bool, shape[1]))] = 0.0
    return W


def assert_same_operator(got, want) -> None:
    assert got.matrix.indices.dtype == np.int32
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.matrix, name), getattr(want.matrix, name)), name


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 9))
def test_normalize_user_graph_gives_the_reference_bits(data, n):
    W = np.triu(data.draw(weights_with_isolated_nodes((n, n))), k=1)
    W = sp.csr_matrix(W + W.T)
    assert W.indices.dtype == np.int32
    assert_same_operator(normalize_user_graph(UserGraph(W=W)), reference.symmetric_normalize(W))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 7), m=st.integers(1, 7))
def test_build_adjacency_gives_the_reference_bits(data, n, m):
    R = sp.csr_matrix(data.draw(weights_with_isolated_nodes((n, m))))
    assert R.indices.dtype == np.int32
    block = sp.bmat([[None, R], [R.T, None]], format="csr")
    assert_same_operator(build_adjacency(BipartiteGraph(R=R)),
                         reference.symmetric_normalize(block))


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = random_user_graph(rng, int(rng.integers(2, 9)))
        got = normalize_user_graph(g).matrix.toarray()
        assert np.abs(got - dense_sym_normalize(g.W.toarray())).max() <= 1e-12


# propagation kernel ---------------------------------------------------------

def test_propagate_once_swaps_rows():
    g = BipartiteGraph(R=sp.csr_matrix(np.array([[1.0]])))
    adj = build_adjacency(g)
    H = np.array([[2.0], [5.0]])
    assert np.array_equal(propagate_once(adj, H), [[5.0], [2.0]])


def test_propagate_once_zero_operator():
    adj = normalize_user_graph(UserGraph(W=sp.csr_matrix((3, 3))))
    H = np.arange(6.0).reshape(3, 2)
    assert not propagate_once(adj, H).any()


def test_propagate_once_matches_dense_product():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_user_graph(rng, 5)
        adj = normalize_user_graph(g)
        H = rng.standard_normal((5, 3))
        want = adj.matrix.toarray() @ H
        assert np.abs(propagate_once(adj, H) - want).max() <= 1e-12


def test_propagate_once_is_linear():
    rng = np.random.default_rng(43)
    g = random_bipartite(rng, 4, 3)
    adj = build_adjacency(g)
    X = rng.standard_normal((7, 2))
    Y = rng.standard_normal((7, 2))
    lhs = propagate_once(adj, 2.0 * X + 3.0 * Y)
    rhs = 2.0 * propagate_once(adj, X) + 3.0 * propagate_once(adj, Y)
    assert np.abs(lhs - rhs).max() <= 1e-10


# binarize and serialization -------------------------------------------------

def test_binarize_levels_weights():
    # observed edges become weight 1 with no row renormalization
    counts = counts_from([[3, 1, 0], [0, 0, 2]])
    g = binarize(build_interaction_graph(counts))
    assert np.array_equal(dense(g.R), [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_binarize_idempotent():
    rng = np.random.default_rng(47)
    g = random_bipartite(rng, 5, 4)
    once = binarize(g)
    twice = binarize(once)
    assert np.array_equal(dense(once.R), dense(twice.R))


# the in-place pipeline against the COO reference ----------------------------

def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    """Equal shape, indptr and indices, and data equal bit for bit."""
    assert got.shape == want.shape
    for name in ("indptr", "indices"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.data.dtype == want.data.dtype == np.float64
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64)), "data"


@st.composite
def relation_pairs(draw):
    """Two small count matrices, integer or fractional, with empty rows,
    trailing empty rows and users whose two relations share no hashtag
    (zero diagonal mass in C = M1 @ M2.T)."""
    n = draw(st.integers(1, 9), label="n")
    m = draw(st.integers(1, 6), label="m")
    counts = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 5.0, 0.5, 1 / 3, 2.75])
    M1 = draw(hnp.arrays(np.float64, (n, m), elements=counts))
    M2 = draw(hnp.arrays(np.float64, (n, m), elements=counts))
    tail = draw(st.integers(0, n), label="trailing empty rows")
    M1[n - tail:] = M2[n - tail:] = 0.0
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n), label="disjoint rows"):
        M2[i, M1[i] > 0] = 0.0
    return M1, M2


@settings(max_examples=300, deadline=None)
@given(relation_pairs(), st.sampled_from([0.0, 0.01, 0.3, 0.6]),
       st.just(0) | st.integers(1, 10), st.booleans())
def test_pathsim_pipeline_equals_coo_reference(pair, min_weight, top_k, same_relation):
    M1, M2 = pair
    assert_same_csr(pathsim_scores(sp.csr_matrix(M1), sp.csr_matrix(M2)),
                    reference.pathsim_scores(sp.csr_matrix(M1), sp.csr_matrix(M2)))
    counts = counts_from(M2, T_retweet=M1)
    spec = metapath("tweet", "tweet") if same_relation else RunConfig()
    got, want = compute_pathsim(counts, spec), reference.compute_pathsim(counts, spec)
    assert_same_csr(got.W, want.W)
    assert got.kind == want.kind
    assert_same_csr(sparsify(got, min_weight, top_k).W,
                    reference.sparsify(want, min_weight, top_k).W)


@settings(max_examples=200, deadline=None)
@given(relation_pairs(), st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=3, max_size=3))
def test_social_graph_equals_coo_reference(pair, coefficients):
    assume(any(coefficients))
    M1, M2 = pair
    # Directed mention and reply counts, with self-relations on the diagonal.
    mutual = np.triu(M1 @ M2.T > 0, k=1)
    counts = counts_from(M1, mention=M1 @ M1.T, reply=M2 @ M1.T,
                         mutual=(mutual | mutual.T) * 1.0)
    cfg = social(*coefficients)
    assert_same_csr(build_social_graph(counts, cfg).W,
                    reference.build_social_graph(counts, cfg).W)


RELATIONS = ("tweet", "retweet", "reply")


@settings(max_examples=300, deadline=None)
@given(relation_pairs(), st.booleans(), st.sampled_from(RELATIONS), st.sampled_from(RELATIONS),
       st.sampled_from([1, 7, 60, graphs.PATHSIM_BLOCK]), st.sampled_from([0.0, 0.3]),
       st.integers(0, 3))
def test_numpy_build_equals_scipy_coo_reference_in_any_blocks(pair, empty_reply, left, right,
                                                              block, min_weight, top_k):
    # The build on CSR arrays against the scipy pipeline, bit for bit, with
    # the PathSim products split into row blocks as small as one row, a
    # relation that may be empty, and left equal to right or not.
    M1, M2 = pair
    counts = counts_from(M2, T_retweet=M1, T_reply=0 * M1 if empty_reply else M1 + M2,
                         mention=M1 @ M1.T, reply=M2 @ M1.T)
    cfg = RunConfig(pathsim_left=left, pathsim_right=right, social_c_mention=0.5)
    with mock.patch.object(graphs, "PATHSIM_BLOCK", block):
        assert_same_csr(pathsim_scores(counts.relation(left), counts.relation(right)),
                        reference.pathsim_scores(to_scipy(counts.relation(left)),
                                                 to_scipy(counts.relation(right))))
        got, want = compute_pathsim(counts, cfg), reference.compute_pathsim(counts, cfg)
    assert_same_csr(got.W, want.W)
    assert got.kind == want.kind
    assert_same_csr(sparsify(got, min_weight, top_k).W,
                    reference.sparsify(want, min_weight, top_k).W)
    assert_same_csr(build_social_graph(counts, cfg).W,
                    reference.build_social_graph(counts, cfg).W)


def test_pathsim_drops_a_score_that_underflows():
    # C[0, 1] = 1e-310 is stored, but 2 * C[0, 1] / (C[0, 0] + C[1, 1])
    # rounds to 0, so the pair gets no edge, as in the scipy pipeline.
    M1 = np.array([[1e-155, 1e10, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    M2 = np.array([[0.0, 1e10, 0.0], [1e-155, 0.0, 1.0], [1.0, 1.0, 0.0]])
    got = pathsim_scores(sp.csr_matrix(M1), sp.csr_matrix(M2))
    want = reference.pathsim_scores(sp.csr_matrix(M1), sp.csr_matrix(M2))
    assert (M1 @ M2.T)[0, 1] > 0 and dense(got)[0, 1] == 0.0
    assert_same_csr(got, want)
    assert got.nnz == 4


def test_pathsim_blocks_are_bounded_and_cover_every_row():
    rng = np.random.default_rng(5)
    M1, M2 = (rng.random((30, 8)) < 0.5) * 1.0, (rng.random((30, 8)) < 0.5) * 2.0
    counts = counts_from(M1, T_retweet=M2)
    spans = []
    product_rows = graphs._product_rows

    def recording(A, BT, lo, hi):
        spans.append((lo, hi))
        return product_rows(A, BT, lo, hi)

    with mock.patch.object(graphs, "PATHSIM_BLOCK", 64), \
            mock.patch.object(graphs, "_product_rows", recording):
        got = compute_pathsim(counts, RunConfig()).W
    want = reference.compute_pathsim(counts, RunConfig()).W
    assert_same_csr(got, want)
    # C's and D's blocks alternate over the same rows; each holds at most
    # 64 // 30 = 2 rows and the rows run 0..30 without a gap.
    assert spans[::2] == spans[1::2]
    starts = [lo for lo, _ in spans[::2]]
    assert starts == sorted(starts) and starts[0] == 0 and spans[-1][1] == 30
    assert all(1 <= hi - lo <= 2 for lo, hi in spans)
    assert all(a[1] == b[0] for a, b in zip(spans[::2], spans[2::2]))


def test_graphs_keep_the_float64_csr_they_are_given():
    W = random_user_graph(np.random.default_rng(7), 6).W
    assert W.has_canonical_format
    assert UserGraph(W=W).W is W
    R = random_bipartite(np.random.default_rng(8), 4, 3).R
    assert BipartiteGraph(R=R).R is R


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 4)])
def test_container_with_zero_length_arrays_round_trips(tmp_path, shape):
    n, m = shape
    write_container(tmp_path / "got.coo", GRAPH, (n, m, 0),
                    [np.zeros(n + 1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)])
    write_graph_container(tmp_path / "want.coo", shape, [0] * (n + 1), [], [])
    assert (tmp_path / "got.coo").read_bytes() == (tmp_path / "want.coo").read_bytes()
    fields, (indptr, indices, data) = read_container(tmp_path / "got.coo", GRAPH)
    assert fields == (n, m, 0) and len(indptr) == n + 1 and len(indices) == len(data) == 0


def test_checkpoint_container_with_no_user_rows_round_trips(tmp_path):
    # The user array is 0 x d: zero-length, and two-dimensional.
    ids = b'[[],["h0","h1"]]'
    hashtags = np.arange(6.0).reshape(2, 3)
    write_container(tmp_path / "c.bin", CHECKPOINT, (0, 2, 3, -1, len(ids)),
                    [np.zeros((0, 3)), hashtags, np.frombuffer(ids, np.uint8)])
    fields, (users, tags, block) = read_container(tmp_path / "c.bin", CHECKPOINT)
    assert fields == (0, 2, 3, -1, len(ids))
    assert len(users) == 0 and np.array_equal(tags, hashtags.ravel())
    assert block.tobytes() == ids


def test_container_arrays_are_read_straight_into_their_own_buffers(tmp_path):
    # The arrays are all that a read allocates: no whole-file bytes object,
    # no second copy per array.
    mat = sp.random(300, 400, density=0.5, format="csr", random_state=np.random.default_rng(8))
    path = tmp_path / "m.coo"
    save_matrix_coo(mat, path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, arrays = read_container(path, GRAPH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(arr.nbytes for arr in arrays) == size - len(GRAPH.magic) - GRAPH.header.size
    assert peak < 1.1 * size
    for arr in arrays:
        assert arr.dtype.isnative and arr.flags.owndata and arr.flags.writeable
    assert np.array_equal(arrays[2], mat.data) and np.array_equal(arrays[1], mat.indices)


def test_container_converts_an_array_outside_its_layout_dtype(tmp_path):
    # int64 indices are written as the layout's int32, with the same bytes.
    mat = sp.random(7, 9, density=0.5, format="csr", random_state=np.random.default_rng(5))
    assert mat.indices.dtype == np.int32
    arrays = [mat.indptr, mat.indices, mat.data]
    write_container(tmp_path / "wide.coo", GRAPH, (*mat.shape, mat.nnz),
                    [a.astype(np.int64) for a in arrays[:2]] + arrays[2:])
    write_graph_container(tmp_path / "want.coo", mat.shape, *arrays)
    assert (tmp_path / "wide.coo").read_bytes() == (tmp_path / "want.coo").read_bytes()


@pytest.mark.parametrize("top_k", [0, 2])
def test_every_graph_build_writes_holds_the_stored_dtypes(tmp_path, top_k):
    # The graphs are saved from their own arrays and loaded as read: no
    # conversion on either side.
    rng = np.random.default_rng(71)
    T = rng.integers(0, 3, size=(12, 6)) * (rng.random((12, 6)) < 0.5)
    T[:, 0] += 1
    mention = np.triu(rng.integers(0, 2, size=(12, 12)), 1)
    counts = counts_from(T, T_retweet=T[::-1], mention=mention, reply=mention.T)
    cfg = RunConfig(pathsim_top_k=top_k)
    built = {
        "bipartite": build_interaction_graph(counts).R,
        "social": build_social_graph(counts, cfg).W,
        "pathsim": sparsify(compute_pathsim(counts, cfg), cfg.pathsim_min_weight, top_k).W,
    }
    for name, mat in built.items():
        assert mat.nnz, name
        assert csr_dtypes(mat) == NATIVE_CSR_DTYPES, name
        path = tmp_path / f"{name}.coo"
        save_matrix_coo(mat, path)
        back = load_matrix_coo(path)
        assert csr_dtypes(back) == NATIVE_CSR_DTYPES, name
        assert path.stat().st_size == 34 + 4 * (mat.shape[0] + 1) + 12 * mat.nnz, name
        save_matrix_coo(back, tmp_path / "again.coo")
        assert (tmp_path / "again.coo").read_bytes() == path.read_bytes(), name


def test_save_matrix_coo_refuses_a_shape_beyond_int32(tmp_path):
    # The index arrays are int32, so a wider matrix would be stored wrapped.
    with pytest.raises(ShapeError, match="does not fit int32 indices"):
        save_matrix_coo(sp.csr_matrix((2, INDEX_MAX + 1)), tmp_path / "wide.coo")
    assert not (tmp_path / "wide.coo").exists()
    save_matrix_coo(sp.csr_matrix((2, INDEX_MAX)), tmp_path / "widest.coo")
    assert load_matrix_coo(tmp_path / "widest.coo").shape == (2, INDEX_MAX)


@pytest.mark.parametrize("shape", [(2, INDEX_MAX + 1), (2, 2**64 - 1)])
def test_matrix_loader_refuses_a_column_count_beyond_int32(tmp_path, shape):
    path = tmp_path / "wide.coo"
    write_graph_container(path, shape, [0, 1, 1], [5], [1.0])
    with pytest.raises(RecordError, match=f"shape 2 x {shape[1]} out of range"):
        load_matrix_coo(path)


def test_uniform_weights_match_binarized_adjacency():
    # 4-regular circulant with unit counts: weighting changes nothing and
    # every degree is a power of two, so the two operators agree bitwise
    T = np.zeros((8, 8))
    for i in range(8):
        for off in range(4):
            T[i, (i + off) % 8] = 1
    counts = counts_from(T)
    g = build_interaction_graph(counts)
    A_w = build_adjacency(g).matrix.toarray()
    A_b = build_adjacency(binarize(g)).matrix.toarray()
    assert np.array_equal(A_w, A_b)


def test_matrix_coo_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(53)
    mat = sp.csr_matrix(np.abs(rng.standard_normal((4, 5))) * (rng.random((4, 5)) < 0.6))
    path = tmp_path / "m.coo"
    save_matrix_coo(mat, path)
    back = load_matrix_coo(path)
    assert back.shape == mat.shape
    assert np.array_equal(back.toarray(), mat.toarray())


def test_bipartite_and_user_graph_roundtrip(tmp_path):
    rng = np.random.default_rng(59)
    g = random_bipartite(rng, 4, 3)
    save_matrix_coo(g.R, tmp_path / "g.coo")
    back = load_bipartite(tmp_path / "g.coo")
    assert np.array_equal(back.R.toarray(), g.R.toarray())

    ug = random_user_graph(rng, 5)
    save_matrix_coo(ug.W, tmp_path / "u.coo")
    back_u = load_user_graph(tmp_path / "u.coo", kind="social")
    assert np.array_equal(back_u.W.toarray(), ug.W.toarray())
    assert back_u.kind == "social"


def assert_canonical_finite(mat: sp.csr_matrix) -> None:
    n, m = mat.shape
    assert len(mat.indptr) == n + 1 and mat.indptr[0] == 0 and mat.indptr[-1] == mat.nnz
    assert (np.diff(mat.indptr) >= 0).all()
    assert ((mat.indices >= 0) & (mat.indices < m)).all()
    assert mat.has_canonical_format
    assert np.isfinite(mat.data).all() and (mat.data > 0).all()


@pytest.mark.parametrize("mat", [
    sp.random(6, 5, density=0.5, format="csr", random_state=np.random.default_rng(61)),
    sp.csr_matrix((3, 4)),
    sp.csr_matrix((0, 0)),
], ids=["random", "empty", "no-rows"])
def test_matrix_file_roundtrip_is_byte_exact(tmp_path, mat):
    first, second = tmp_path / "a.coo", tmp_path / "b.coo"
    save_matrix_coo(mat, first)
    back = load_matrix_coo(first)
    save_matrix_coo(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert back.shape == mat.shape and back.nnz == mat.nnz
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back, name), getattr(mat, name)), name


def test_matrix_file_is_canonical_documented_layout(tmp_path):
    # The canonical arrays given are written as they are.
    mat = sp.csr_matrix((np.array([2.0, 0.5, 5.0]), np.array([2, 0, 3]), np.array([0, 1, 3])),
                        shape=(2, 4))
    save_matrix_coo(mat, tmp_path / "got.coo")
    write_graph_container(tmp_path / "want.coo", (2, 4), [0, 1, 3], [2, 0, 3], [2.0, 0.5, 5.0])
    assert (tmp_path / "got.coo").read_bytes() == (tmp_path / "want.coo").read_bytes()


def good_arrays():
    return {"shape": (2, 3), "indptr": [0, 2, 3], "indices": [0, 2, 1], "data": [0.5, 0.5, 1.0]}


def malformed(**change):
    arrays = good_arrays()
    arrays.update(change)
    return arrays


@pytest.mark.parametrize("arrays", [
    malformed(indptr=[1, 2, 3]),
    malformed(indptr=[0, 3, 2], indices=[0, 1, 2]),
    malformed(indptr=[0, 2, 2]),
    malformed(indices=[0, 3, 1]),
    malformed(indices=[0, -1, 1]),
    malformed(indices=[2, 0, 1]),
    malformed(indices=[1, 1, 1]),
    malformed(data=[0.5, np.nan, 1.0]),
    malformed(data=[0.5, np.inf, 1.0]),
    malformed(data=[0.0, 2.5, 0.0]),
], ids=["indptr-start", "indptr-decreasing", "indptr-end", "column-too-large",
        "column-negative", "columns-unsorted", "column-repeated", "nan", "inf", "explicit-zeros"])
def test_matrix_loader_rejects_bad_arrays(tmp_path, arrays):
    path = tmp_path / "bad.coo"
    write_graph_container(path, arrays["shape"], arrays["indptr"], arrays["indices"],
                          arrays["data"])
    with pytest.raises(RecordError):
        load_matrix_coo(path)


# One valid file of each container kind, and its loader.
CONTAINER_FILES = {
    GRAPH: (lambda path: save_matrix_coo(sp.csr_matrix(np.array([[0.5, 0.0], [0.0, 2.0]])),
                                         path), load_matrix_coo),
    CHECKPOINT: (lambda path: save_checkpoint(
        path, EmbeddingState(users=np.ones((2, 3)), hashtags=np.zeros((1, 3)), seed=4),
        ["u0", "u1"], ["h0"]), load_checkpoint),
    COUNTS: (lambda path: save_counts(counts_from(np.eye(3, 2), mention=np.eye(3)[::-1]), path),
             load_counts),
}


def damaged(kind, blob: bytes, case: str) -> tuple[bytes, str]:
    """`blob`, a valid file of `kind`, damaged as `case` says, and the
    refusal its loader gives, as a pattern."""
    at = len(kind.magic)  # where the version starts
    other = {GRAPH: CHECKPOINT, CHECKPOINT: COUNTS, COUNTS: GRAPH}[kind].magic

    def with_version(version):
        return (blob[:at] + version.to_bytes(4, "little") + blob[at + 4:],
                f"unsupported {kind.name} version {version}")

    def with_size(damaged_blob):
        return damaged_blob, rf"size {len(damaged_blob)} does not match header \({len(blob)}\)"

    return {
        "bad-magic": (other + blob[at:], rf"not a {kind.name} \(bad magic\)"),
        "earlier-version": with_version(kind.version - 1),
        "later-version": with_version(kind.version + 1),
        "header-cut-short": (blob[:at + kind.header.size - 1], f"truncated {kind.name} header"),
        "size-short": with_size(blob[:-1]),
        "size-long": with_size(blob + b"\x00"),
    }[case]


@pytest.mark.parametrize("case", ["bad-magic", "earlier-version", "later-version",
                                  "header-cut-short", "size-short", "size-long"])
@pytest.mark.parametrize("kind", [GRAPH, CHECKPOINT, COUNTS],
                         ids=["graph", "checkpoint", "counts"])
def test_container_loaders_refuse_a_damaged_file(tmp_path, kind, case):
    write, load = CONTAINER_FILES[kind]
    write(tmp_path / "valid")
    load(tmp_path / "valid")
    blob, refusal = damaged(kind, (tmp_path / "valid").read_bytes(), case)
    path = tmp_path / "bad"
    path.write_bytes(blob)
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: {refusal}$"):
        load(path)


def test_graph_loaders_reject_negative_weights(tmp_path):
    path = tmp_path / "neg.coo"
    write_graph_container(path, (2, 2), [0, 1, 2], [1, 0], [-0.5, -0.5])
    for load in (load_matrix_coo, load_bipartite, load_user_graph):
        with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: value not positive$"):
            load(path)


def test_user_graph_loader_refuses_an_asymmetric_graph(tmp_path):
    # The upper triangle of a symmetric graph: the user operator would be
    # taken to be its own transpose.
    path = tmp_path / "upper.coo"
    write_graph_container(path, (3, 3), [0, 2, 3, 3], [1, 2, 2], [0.5, 1.0, 2.0])
    assert load_matrix_coo(path).nnz == 3
    load_bipartite(path)
    with pytest.raises(RecordError, match=f"{path}: user graph is not symmetric"):
        load_user_graph(path)
    # A symmetric graph whose mirrored weights differ is refused too.
    write_graph_container(path, (2, 2), [0, 1, 2], [1, 0], [0.5, 0.25])
    with pytest.raises(RecordError, match="not symmetric"):
        load_user_graph(path)


def test_user_graph_loader_refuses_a_graph_that_is_not_square(tmp_path):
    path = tmp_path / "wide.coo"
    write_graph_container(path, (2, 3), [0, 1, 2], [1, 0], [0.5, 0.5])
    load_bipartite(path)
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: user graph is not square$"):
        load_user_graph(path)


def test_user_graph_loader_refuses_a_diagonal_entry(tmp_path):
    path = tmp_path / "loop.coo"
    write_graph_container(path, (2, 2), [0, 2, 3], [0, 1, 0], [1.0, 0.5, 0.5])
    with pytest.raises(RecordError, match=f"{path}: user graph has diagonal entries"):
        load_user_graph(path)
    write_graph_container(path, (2, 2), [0, 1, 2], [1, 0], [0.5, 0.5])
    assert load_user_graph(path).W.nnz == 2


@settings(max_examples=300, deadline=None)
@given(
    dense=st.integers(0, 4).flatmap(lambda n: st.integers(1, 4).flatmap(lambda m: hnp.arrays(
        np.float64, (n, m), elements=st.sampled_from([0.0, 0.25, 1.0, 3.5])))),
    data=st.data(),
)
def test_matrix_loader_fuzz_returns_checked_matrix_or_record_error(dense, data):
    mat = load_corrupted(lambda path: save_matrix_coo(sp.csr_matrix(dense), path),
                         load_matrix_coo, lambda path, mat: save_matrix_coo(mat, path), data)
    if mat is not None:
        assert_canonical_finite(mat)


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
       seed=st.integers(-2**63, 2**63 - 1), data=st.data())
def test_checkpoint_loader_fuzz_returns_checked_state_or_record_error(shape, seed, data):
    n, m, d = shape
    rng = np.random.default_rng(abs(seed))
    state = EmbeddingState(users=rng.standard_normal((n, d)),
                           hashtags=rng.standard_normal((m, d)), seed=seed)
    users, tags = [f"u{i}" for i in range(n)], [f"más{j}" for j in range(m)]
    loaded = load_corrupted(lambda path: save_checkpoint(path, state, users, tags),
                            load_checkpoint, lambda path, got: save_checkpoint(path, *got), data)
    if loaded is not None:
        back, users, tags = loaded
        assert (len(back.users), len(back.hashtags)) == (len(users), len(tags))
        assert np.isfinite(back.users).all() and np.isfinite(back.hashtags).all()
