"""Embedding initialization, propagation, channel mixing, checkpoints."""

from __future__ import annotations

import dataclasses
import re
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from stancegraph import model
from stancegraph.config import RunConfig
from stancegraph.errors import ConfigError, RecordError, ShapeError
from stancegraph.graphs import (
    BipartiteGraph,
    UserGraph,
    build_adjacency,
    normalize_user_graph,
)
from stancegraph.ingest import write_container
from stancegraph.model import (
    CHECKPOINT,
    build_operators,
    forward,
    init_embeddings,
    layer_averaged_propagate,
    load_checkpoint,
    load_pretrained_vectors,
    save_checkpoint,
    EmbeddingState,
)

from stancegraph.train import grad_e0, pair_scores

from conftest import channel_set, random_bipartite, random_user_graph
from reference import affinity, propagate, score_all


def swap_adjacency():
    # one user, one hashtag: the operator exchanges the two rows
    return build_adjacency(BipartiteGraph(R=sp.csr_matrix(np.array([[1.0]]))))


# initialization -------------------------------------------------------------

def test_init_is_deterministic():
    cfg = RunConfig(dim=8)
    a = init_embeddings(5, 4, cfg, seed=99, pretrained=None)
    b = init_embeddings(5, 4, cfg, seed=99, pretrained=None)
    assert np.array_equal(a.users, b.users)
    assert np.array_equal(a.hashtags, b.hashtags)


def test_init_different_seeds_differ():
    cfg = RunConfig(dim=8)
    a = init_embeddings(5, 4, cfg, seed=1, pretrained=None)
    b = init_embeddings(5, 4, cfg, seed=2, pretrained=None)
    assert not np.array_equal(a.users, b.users)


def test_init_xavier_bound():
    # d=4, N=2: user entries live in [-1, 1] since sqrt(6/(2+4)) = 1
    cfg = RunConfig(dim=4)
    state = init_embeddings(2, 50, cfg, seed=0, pretrained=None)
    assert np.abs(state.users).max() <= 1.0
    bound_ht = np.sqrt(6.0 / (50 + 4))
    assert np.abs(state.hashtags).max() <= bound_ht


def test_init_pretrained_rows_copied_exactly():
    cfg = RunConfig(dim=3)
    v = np.array([0.25, -1.5, 3.0])
    state = init_embeddings(4, 6, cfg, seed=0, pretrained={2: v})
    assert np.array_equal(state.hashtags[2], v)
    # untouched rows still follow the Xavier draw
    assert np.abs(state.hashtags[[0, 1, 3, 4, 5]]).max() <= np.sqrt(6.0 / (6 + 3))


def test_load_pretrained_vectors(tmp_path):
    path = tmp_path / "vec.tsv"
    path.write_text("apruebo\t0.5\t1.5\nunknown\t9\t9\n", encoding="utf-8")
    vecs = load_pretrained_vectors(path, ["apruebo", "rechazo"], dim=2)
    assert set(vecs) == {0}
    assert np.array_equal(vecs[0], [0.5, 1.5])


@pytest.mark.parametrize("line", [
    "rechazo 0.5", "rechazo 0.5 1.5 2.5", "rechazo 0.5 abc", "rechazo nan 1.5",
    "rechazo 0.5 inf", "unknown -inf 1.0",
], ids=["too-few", "too-many", "not-a-number", "nan", "inf", "unknown-tag-inf"])
def test_load_pretrained_vectors_rejects_malformed_line(tmp_path, line):
    path = tmp_path / "vec.tsv"
    path.write_text(f"apruebo 0.5 1.5\n{line}\n", encoding="utf-8")
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: line 2: "):
        load_pretrained_vectors(path, ["apruebo", "rechazo"], dim=2)


@pytest.mark.parametrize("tag", ["rechazo", "unknown"])
def test_load_pretrained_vectors_refuses_a_repeated_hashtag(tmp_path, tag):
    # whether or not the corpus has the hashtag
    path = tmp_path / "vec.tsv"
    path.write_text(f"{tag} 1 1\napruebo 0.5 1.5\n#{tag.upper()} 2 2\n", encoding="utf-8")
    with pytest.raises(RecordError,
                       match=f"^{re.escape(str(path))}: line 3: repeated hashtag '{tag}'$"):
        load_pretrained_vectors(path, ["apruebo", "rechazo"], dim=2)


def test_stacked_roundtrip():
    cfg = RunConfig(dim=2)
    state = init_embeddings(3, 2, cfg, seed=4, pretrained=None)
    back = EmbeddingState.from_stacked(state.stacked(), n_users=3, seed=4)
    assert np.array_equal(back.users, state.users)
    assert np.array_equal(back.hashtags, state.hashtags)


# propagation ----------------------------------------------------------------

def test_propagate_zero_layers_is_identity():
    adj = swap_adjacency()
    E0 = np.array([[1.5], [-2.0]])
    layers = propagate(adj, E0, n_layers=0)
    assert len(layers) == 1
    assert np.array_equal(layers[0], E0)
    assert np.array_equal(layer_averaged_propagate(adj, E0, 0), E0)


def test_propagate_single_layer_average():
    # swap operator: H1 = (b, a), average = ((a+b)/2, (a+b)/2)
    adj = swap_adjacency()
    a, b = 3.0, 7.0
    E0 = np.array([[a], [b]])
    out = layer_averaged_propagate(adj, E0, 1)
    assert np.allclose(out, [[(a + b) / 2], [(a + b) / 2]], atol=1e-15)


def test_propagate_zero_operator_keeps_scaled_layer0():
    adj = normalize_user_graph(UserGraph(W=sp.csr_matrix((3, 3))))
    E0 = np.arange(6.0).reshape(3, 2)
    for K in (1, 2, 3):
        out = layer_averaged_propagate(adj, E0, K)
        assert np.allclose(out, E0 / (K + 1), atol=1e-15)


def test_propagate_matches_dense_powers():
    rng = np.random.default_rng(61)
    for _ in range(15):
        g = random_bipartite(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        adj = build_adjacency(g)
        E0 = rng.standard_normal((adj.size, 3))
        K = int(rng.integers(0, 4))
        dense = adj.matrix.toarray()
        layers = propagate(adj, E0, K)
        for k in range(K + 1):
            want = np.linalg.matrix_power(dense, k) @ E0
            assert np.abs(layers[k] - want).max() <= 1e-10


def test_propagation_linear_in_e0():
    rng = np.random.default_rng(67)
    g = random_bipartite(rng, 5, 4)
    adj = build_adjacency(g)
    E0 = rng.standard_normal((9, 3))
    for alpha in (2.0, -0.5):
        lhs = layer_averaged_propagate(adj, alpha * E0, 3)
        rhs = alpha * layer_averaged_propagate(adj, E0, 3)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_propagate_shape_mismatch():
    adj = swap_adjacency()
    with pytest.raises(ShapeError):
        propagate(adj, np.zeros((5, 2)), 1)


# scoring --------------------------------------------------------------------

def test_affinity_examples():
    assert affinity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert affinity(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    e = np.array([2.0, -3.0])
    assert affinity(e, e) == 13.0


def test_score_all_one_dimensional_case():
    users = np.array([[2.0]])
    tags = np.array([[1.0], [-1.0], [0.0]])
    assert np.array_equal(score_all(users, tags, 0), [2.0, -2.0, 0.0])


def test_score_all_matches_affinity_loop():
    rng = np.random.default_rng(73)
    users = rng.standard_normal((4, 5))
    tags = rng.standard_normal((6, 5))
    for u in range(4):
        scores = score_all(users, tags, u)
        looped = np.array([affinity(users[u], tags[j]) for j in range(6)])
        assert np.abs(scores - looped).max() <= 1e-12


def test_score_all_zero_user():
    users = np.zeros((1, 3))
    tags = np.ones((4, 3))
    assert not score_all(users, tags, 0).any()


# forward pass ---------------------------------------------------------------

def test_forward_without_user_channels_uses_bipartite_only():
    rng = np.random.default_rng(79)
    g = random_bipartite(rng, 4, 3)
    cfg = RunConfig(dim=2, n_layers=2)
    ops = build_operators(g, None)
    state = init_embeddings(4, 3, cfg, seed=0, pretrained=None)
    out = forward(state.stacked(), ops, cfg)
    full = layer_averaged_propagate(ops.bipartite, state.stacked(), 2)
    assert np.array_equal(out.final_users, full[:4])
    assert np.array_equal(out.final_hashtags, full[4:])


def test_forward_with_social_channel_averages_users():
    rng = np.random.default_rng(83)
    g = random_bipartite(rng, 4, 3)
    social = random_user_graph(rng, 4)
    cfg = RunConfig(dim=2, n_layers=1)
    ops = build_operators(g, channel_set(1, social))
    state = init_embeddings(4, 3, cfg, seed=1, pretrained=None)
    out = forward(state.stacked(), ops, cfg)
    bip = layer_averaged_propagate(ops.bipartite, state.stacked(), 1)
    soc = layer_averaged_propagate(normalize_user_graph(social), state.stacked()[:4], 1)
    assert np.abs(out.final_users - (bip[:4] + soc) / 2).max() <= 1e-15
    # hashtags never mix with user-graph channels
    assert np.array_equal(out.final_hashtags, bip[4:])


CHANNEL_COMBOS = [(True, False), (False, True), (True, True)]


def chosen(social, pathsim, use_social, use_pathsim):
    """The (social, pathsim) pair with the graphs not chosen set to None."""
    return social if use_social else None, pathsim if use_pathsim else None


def sparse_channel_oracle(g, graphs, cfg, X):
    """Forward's user side of X, from the sparse layer_averaged_propagate
    of each given normalized user graph."""
    n = g.n_users
    bip = layer_averaged_propagate(build_adjacency(g), X, cfg.n_layers)
    parts = [layer_averaged_propagate(normalize_user_graph(graph), X[:n], cfg.n_layers)
             for graph in graphs if graph is not None]
    return (bip[:n] + sum(parts)) / (1 + len(parts))


@pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
@pytest.mark.parametrize("use_social, use_pathsim", CHANNEL_COMBOS)
def test_dense_user_polynomial_matches_sparse_oracle(use_social, use_pathsim, n_layers):
    # 70 users span two polynomial column blocks, the second one partial.
    rng = np.random.default_rng(1000 + 8 * n_layers + 2 * use_social + use_pathsim)
    n, m, d = 70, 9, 3
    g = random_bipartite(rng, n, m)
    graphs = chosen(random_user_graph(rng, n, density=0.1),
                    random_user_graph(rng, n, density=0.6, kind="pathsim"),
                    use_social, use_pathsim)
    cfg = RunConfig(dim=d, n_layers=n_layers)
    ops = build_operators(g, channel_set(n_layers, *graphs))
    assert isinstance(ops.users, np.ndarray)
    X = rng.standard_normal((n + m, d))
    out = forward(X, ops, cfg)
    assert np.abs(out.final_users - sparse_channel_oracle(g, graphs, cfg, X)).max() <= 1e-12

    # The gradient against the sparse path, whose pull-back is the oracle's
    # layer_averaged_propagate of each channel.
    with mock.patch.object(model, "DENSE_POLY_BYTES", 0):
        sparse_ops = build_operators(g, channel_set(n_layers, *graphs))
    triples = np.column_stack([rng.integers(0, n, 200), rng.integers(0, m, 200),
                               rng.integers(0, m, 200)])
    cfg = dataclasses.replace(cfg, lambda_reg=0.01)
    scores = pair_scores(triples, out)
    got = grad_e0(triples, scores, ops, cfg, X)
    want = grad_e0(triples, scores, sparse_ops, cfg, X)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
@pytest.mark.parametrize("use_social, use_pathsim", CHANNEL_COMBOS)
def test_horner_polynomial_equals_sparse_sum_of_identity(use_social, use_pathsim, n_layers):
    # Two full column blocks and a partial third. Horner's rule sums the
    # powers in another order than the layer-by-layer operator, so the two
    # may differ in the last bits of entries below 1 in size.
    rng = np.random.default_rng(2000 + 8 * n_layers + 2 * use_social + use_pathsim)
    n = 2 * model.POLY_BLOCK_COLUMNS + 5
    graphs = [graph for graph in chosen(random_user_graph(rng, n, density=0.1),
                                        random_user_graph(rng, n, density=0.6, kind="pathsim"),
                                        use_social, use_pathsim) if graph is not None]
    P = model.build_user_operator([normalize_user_graph(g) for g in graphs], n_layers)
    assert isinstance(P, np.ndarray) and P.shape == (n, n)
    sparse = model.UserChannelSum(tuple(normalize_user_graph(g) for g in graphs), n_layers)
    assert np.abs(P - sparse @ np.eye(n)).max() <= 1e-13


def test_no_normalized_user_graph_outlives_the_dense_build():
    rng = np.random.default_rng(77)
    n = 30
    ops = [normalize_user_graph(random_user_graph(rng, n, density=0.1)),
           normalize_user_graph(random_user_graph(rng, n, density=0.6, kind="pathsim"))]
    alive = [weakref.ref(obj) for op in ops for obj in (op, op.matrix)]
    P = model.build_user_operator(ops, 3)
    assert isinstance(P, np.ndarray) and ops == [] and len(alive) == 4
    assert [ref() for ref in alive] == [None] * 4


@pytest.mark.parametrize("use_social, use_pathsim", CHANNEL_COMBOS)
def test_user_channels_above_byte_cap_stay_sparse(use_social, use_pathsim):
    rng = np.random.default_rng(4242)
    n, m = 8, 5
    g = random_bipartite(rng, n, m)
    graphs = chosen(random_user_graph(rng, n), random_user_graph(rng, n, kind="pathsim"),
                    use_social, use_pathsim)
    cfg = RunConfig(dim=2, n_layers=2)
    # One byte under the 8 * n * n bytes the polynomial would take.
    with mock.patch.object(model, "DENSE_POLY_BYTES", 8 * n * n - 1):
        ops = build_operators(g, channel_set(2, *graphs))
    assert isinstance(ops.users, model.UserChannelSum) and ops.users.T is ops.users
    assert len(ops.users.ops) == use_social + use_pathsim
    X = rng.standard_normal((n + m, 2))
    out = forward(X, ops, cfg)
    # The layer-by-layer path: the oracle's parts, summed in channel order.
    assert np.array_equal(out.final_users, sparse_channel_oracle(g, graphs, cfg, X))
    bip = layer_averaged_propagate(build_adjacency(g), X, 2)
    assert np.array_equal(out.final_hashtags, bip[n:])
    with mock.patch.object(model, "DENSE_POLY_BYTES", 8 * n * n):
        dense = channel_set(2, *graphs).users
    assert isinstance(dense, np.ndarray)


def test_channels_are_frozen_and_used_as_built():
    rng = np.random.default_rng(515)
    n = 6
    g = random_bipartite(rng, n, 4)
    channels = channel_set(2, random_user_graph(rng, n), random_user_graph(rng, n, kind="pathsim"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        channels.users = None
    ops = build_operators(g, channels)
    assert ops.users is channels.users and ops.n_channels == 3


def test_model_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(dim=0)
    with pytest.raises(ConfigError):
        RunConfig(n_layers=-1)


# checkpoints ----------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    cfg = RunConfig(dim=3)
    state = init_embeddings(4, 2, cfg, seed=42, pretrained=None)
    users = [f"u{i}" for i in range(4)]
    tags = ["alpha", "beta"]
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state, users, tags)
    back, back_users, back_tags = load_checkpoint(path)
    assert np.array_equal(back.users, state.users)
    assert np.array_equal(back.hashtags, state.hashtags)
    assert back.seed == 42
    assert back_users == users and back_tags == tags


@pytest.mark.parametrize("ids", [b"[" * 100_000, b"[" + b"1" * 5000 + b"]", b"\xff"],
                         ids=["nested-too-deep", "integer-too-long", "not-utf-8"])
def test_checkpoint_id_block_the_decoder_cannot_hold(tmp_path, ids):
    # Before, the first raised a RecursionError traceback.
    path = tmp_path / "ck.bin"
    write_container(path, CHECKPOINT, (1, 1, 1, 0, len(ids)),
                    [np.zeros((1, 1)), np.zeros((1, 1)), np.frombuffer(ids, np.uint8)])
    with pytest.raises(RecordError, match="bad id block"):
        load_checkpoint(path)


@pytest.mark.parametrize("users, tags, repeated", [
    (["a", "a"], ["x", "y"], "user id 'a'"),
    (["a", "b"], ["y", "y"], "hashtag 'y'"),
], ids=["user", "hashtag"])
def test_checkpoint_refuses_a_repeated_id(tmp_path, users, tags, repeated):
    # Before, it loaded, and the two rows were looked up under one id.
    path = tmp_path / "ck.bin"
    state = init_embeddings(2, 2, RunConfig(dim=2), seed=0, pretrained=None)
    save_checkpoint(path, state, users, tags)
    with pytest.raises(RecordError, match=f"^{path}: repeated {repeated}$"):
        load_checkpoint(path)
