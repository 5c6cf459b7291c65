"""BPR loss, analytic gradients vs finite differences, Adam, training loop."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from stancegraph import train as train_module
from stancegraph.config import RunConfig
from stancegraph.errors import ConfigError, NumericsError
from stancegraph.evaluate import graph_without_edges, kfold_split
from stancegraph.graphs import BipartiteGraph
from stancegraph.ingest import CSRArrays
from stancegraph.model import (
    PropagationOutput,
    build_operators,
    forward,
    init_embeddings,
    layer_averaged_propagate,
)
from stancegraph.train import (
    AdamState,
    adam_step,
    bpr_loss,
    grad_e0,
    pair_scores,
    sample_epoch,
    sigmoid_of_negated,
    train,
)

from conftest import channel_set, random_bipartite, random_user_graph
from reference import evaluate_loss, neighbors


def single_pair_output(user_vec, pos_vec, neg_vec) -> PropagationOutput:
    return PropagationOutput(
        final_users=np.array([user_vec], dtype=np.float64),
        final_hashtags=np.array([pos_vec, neg_vec], dtype=np.float64),
    )


def finite_difference_grad(e0, triples, ops, cfg, lam, h=1e-6):
    grad = np.zeros_like(e0)
    for idx in np.ndindex(e0.shape):
        plus = e0.copy()
        plus[idx] += h
        minus = e0.copy()
        minus[idx] -= h
        grad[idx] = (
            evaluate_loss(plus, triples, ops, cfg, lam)
            - evaluate_loss(minus, triples, ops, cfg, lam)
        ) / (2.0 * h)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-5, floor=1e-8):
    gap = np.abs(analytic - numeric)
    allowed = np.maximum(rel * np.abs(numeric), floor)
    worst = (gap - allowed).max()
    assert worst <= 0.0, f"gradient mismatch by {gap.max():.3e}"


# loss -----------------------------------------------------------------------

def test_loss_equal_scores_is_ln2():
    out = single_pair_output([1.0], [2.0], [2.0])
    triples = np.array([[0, 0, 1]])
    loss = bpr_loss(pair_scores(triples, out))
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_loss_large_margin_is_tiny():
    # score gap of +20: loss is -log sigmoid(20)
    out = single_pair_output([4.0], [5.0], [0.0])
    triples = np.array([[0, 0, 1]])
    loss = bpr_loss(pair_scores(triples, out))
    want = float(np.log1p(np.exp(-20.0)))
    assert loss == pytest.approx(want, rel=1e-12)
    assert loss == pytest.approx(2.06e-9, abs=5e-12)


def test_loss_invariant_under_triple_order():
    rng = np.random.default_rng(101)
    g = random_bipartite(rng, 5, 6)
    cfg = RunConfig(dim=3, n_layers=2)
    ops = build_operators(g, None)
    e0 = rng.standard_normal((11, 3))
    out = forward(e0, ops, cfg)
    triples = sample_epoch(g, rng)
    base = bpr_loss(pair_scores(triples, out))
    for _ in range(5):
        shuffled = triples[rng.permutation(triples.shape[0])]
        assert abs(bpr_loss(pair_scores(shuffled, out)) - base) <= 1e-10


# gradients ------------------------------------------------------------------

def test_grad_mf_reduction_matches_hand_formula():
    # K=0, single channel: the pull-back is the identity, so the gradient
    # is the textbook pairwise one
    g = BipartiteGraph(R=sp.csr_matrix(np.array([[0.6, 0.4, 0.0]])))
    cfg = RunConfig(dim=2, n_layers=0)
    ops = build_operators(g, None)
    rng = np.random.default_rng(5)
    e0 = rng.standard_normal((4, 2))
    triples = np.array([[0, 0, 2]])
    out = forward(e0, ops, cfg)
    got = grad_e0(triples, pair_scores(triples, out), ops, replace(cfg, lambda_reg=0.0), e0)

    e_u, e_i, e_j = e0[0], e0[1], e0[3]
    s = 1.0 / (1.0 + math.exp(float(e_u @ (e_i - e_j))))
    want = np.zeros_like(e0)
    want[0] = -s * (e_i - e_j)
    want[1] = -s * e_u
    want[3] = s * e_u
    assert np.abs(got - want).max() <= 1e-12


def test_grad_empty_batch_is_regularizer_derivative():
    rng = np.random.default_rng(7)
    g = random_bipartite(rng, 3, 3)
    cfg = RunConfig(dim=2, n_layers=2)
    ops = build_operators(g, None)
    e0 = rng.standard_normal((6, 2))
    out = forward(e0, ops, cfg)
    empty = np.zeros((0, 3), dtype=np.int64)
    got = grad_e0(empty, pair_scores(empty, out), ops, replace(cfg, lambda_reg=0.05), e0)
    assert np.abs(got - 2 * 0.05 * e0).max() <= 1e-15


def add_at_grad(triples, out, ops, cfg, e0, lam):
    """grad_e0 with the cotangents scattered by np.add.at, one side at a time."""
    n = ops.n_users
    g_users = np.zeros((n, e0.shape[1]))
    g_items = np.zeros((e0.shape[0] - n, e0.shape[1]))
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    eu = out.final_users[u]
    diff = out.final_hashtags[i] - out.final_hashtags[j]
    s = expit(-np.einsum("nd,nd->n", eu, diff))[:, None]
    np.add.at(g_users, u, -s * diff)
    np.add.at(g_items, i, -s * eu)
    np.add.at(g_items, j, s * eu)
    g_users /= ops.n_channels
    grad = layer_averaged_propagate(ops.bipartite, np.concatenate([g_users, g_items]),
                                    cfg.n_layers)
    if ops.users is not None:
        grad[:n] += ops.users.T @ g_users
    return grad + 2.0 * lam * e0


def test_sigmoid_of_negated_equals_expit_bit_for_bit():
    # scipy.special stays the oracle here; the package no longer imports it.
    rng = np.random.default_rng(17)
    scales = np.geomspace(1e-8, 300.0, 12)
    random_gaps = (rng.standard_normal((12, 83_334)) * scales[:, None]).ravel()
    log_max = math.log(np.finfo(np.float64).max)
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 709.78, -709.78, 709.79, -709.79,
             745.0, -745.0, 1e308, -1e308, log_max, np.nextafter(log_max, math.inf),
             np.nextafter(log_max, 0.0), -log_max]
    gaps = np.concatenate([random_gaps, edges])
    got = sigmoid_of_negated(gaps)
    want = expit(-gaps)
    assert got.dtype == np.float64 and got.shape == gaps.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert sigmoid_of_negated(np.array([710.0, 1.0]))[0] == 0.0
    assert sigmoid_of_negated(np.zeros(0)).shape == (0,)


def test_grad_scatter_is_bit_identical_to_add_at():
    # Batches far longer than the graph repeat every user and hashtag, on
    # both the positive and the negative side.
    rng = np.random.default_rng(31)
    n, m = 6, 5
    g = random_bipartite(rng, n, m)
    for channels in (None, channel_set(2, social=random_user_graph(rng, n))):
        cfg = RunConfig(dim=4, n_layers=2)
        ops = build_operators(g, channels)
        e0 = rng.standard_normal((n + m, 4))
        out = forward(e0, ops, cfg)
        for size in (1, 7, 300):
            triples = np.column_stack([
                rng.integers(0, n, size), rng.integers(0, m, size), rng.integers(0, m, size),
            ])
            got = grad_e0(triples, pair_scores(triples, out), ops,
                          replace(cfg, lambda_reg=0.01), e0)
            assert np.array_equal(got, add_at_grad(triples, out, ops, cfg, e0, 0.01))


def test_grad_matches_finite_differences_all_channel_combos():
    rng = np.random.default_rng(2024)
    checked = 0
    for use_social in (False, True):
        for use_pathsim in (False, True):
            for _ in range(6):
                n = int(rng.integers(2, 7))
                m = int(rng.integers(2, 7))
                d = int(rng.integers(1, 4))
                K = int(rng.integers(0, 4))
                g = random_bipartite(rng, n, m)
                channels = channel_set(
                    K, social=random_user_graph(rng, n) if use_social else None,
                    pathsim=random_user_graph(rng, n, kind="pathsim") if use_pathsim else None,
                )
                cfg = RunConfig(dim=d, n_layers=K)
                ops = build_operators(g, channels)
                try:
                    triples = sample_epoch(g, rng)
                except ConfigError:
                    continue  # every user saturated; nothing to sample
                e0 = 0.5 * rng.standard_normal((n + m, d))
                lam = float(rng.choice([0.0, 0.01, 0.1]))
                out = forward(e0, ops, cfg)
                analytic = grad_e0(triples, pair_scores(triples, out), ops,
                                   replace(cfg, lambda_reg=lam), e0)
                numeric = finite_difference_grad(e0, triples, ops, cfg, lam)
                assert_grad_close(analytic, numeric)
                checked += 1
    assert checked >= 20


def test_grad_pulls_back_through_user_poly_transpose():
    # The computed polynomial is symmetric only up to rounding; with a
    # clearly non-symmetric one, only the transpose matches the forward.
    rng = np.random.default_rng(404)
    n, m = 5, 4
    g = random_bipartite(rng, n, m)
    cfg = RunConfig(dim=2, n_layers=2)
    ops = build_operators(g, channel_set(2, social=random_user_graph(rng, n)))
    assert isinstance(ops.users, np.ndarray)
    ops.users = rng.standard_normal((n, n))
    triples = sample_epoch(g, rng)
    e0 = 0.5 * rng.standard_normal((n + m, 2))
    scores = pair_scores(triples, forward(e0, ops, cfg))
    analytic = grad_e0(triples, scores, ops, replace(cfg, lambda_reg=0.01), e0)
    assert_grad_close(analytic, finite_difference_grad(e0, triples, ops, cfg, 0.01))


# adam -----------------------------------------------------------------------

def test_adam_first_step_size():
    params = np.array([[0.0]])
    adam = AdamState.for_shape(params.shape)
    adam_step(adam, params, np.array([[2.0]]), lr=0.1)
    assert params[0, 0] == pytest.approx(-0.1, abs=1e-9)
    assert adam.t == 1


def test_adam_zero_gradient_keeps_params():
    params = np.array([[1.5, -2.5]])
    adam = AdamState.for_shape(params.shape)
    adam_step(adam, params, np.zeros((1, 2)), lr=0.1)
    assert np.array_equal(params, [[1.5, -2.5]])
    assert adam.t == 1


def test_adam_two_steps_match_scalar_reference():
    g_const = 0.7
    lr = 0.05
    b1, b2, eps = 0.9, 0.999, 1e-8
    p_ref, m, v = 3.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g_const
        v = b2 * v + (1 - b2) * g_const * g_const
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)

    params = np.array([[3.0]])
    adam = AdamState.for_shape(params.shape)
    for _ in range(2):
        adam_step(adam, params, np.array([[g_const]]), lr=lr)
    assert params[0, 0] == pytest.approx(p_ref, abs=1e-12)


def test_adam_rejects_nonfinite_gradient():
    params = np.zeros((1, 1))
    adam = AdamState.for_shape(params.shape)
    with pytest.raises(NumericsError):
        adam_step(adam, params, np.array([[np.nan]]), lr=0.1)


# sampling -------------------------------------------------------------------

def test_sample_one_triple_per_edge():
    R = np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [1.0, 0.0, 0.0]])
    g = BipartiteGraph(R=sp.csr_matrix(R))
    triples = sample_epoch(g, np.random.default_rng(0))
    assert triples.shape == (5, 3)


def test_sample_forced_complement():
    g = BipartiteGraph(R=sp.csr_matrix(np.array([[1.0, 0.0]])))
    for seed in range(5):
        triples = sample_epoch(g, np.random.default_rng(seed))
        assert triples.tolist() == [[0, 0, 1]]


def test_sample_negatives_avoid_neighbors():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_bipartite(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        triples = sample_epoch(g, rng)
        for u, i, j in triples:
            neigh = set(neighbors(g, int(u)).tolist())
            assert int(i) in neigh
            assert int(j) not in neigh


def test_sample_saturated_user_skipped(caplog):
    # first user interacts with every hashtag, so no negative exists
    R = np.array([[0.5, 0.5], [1.0, 0.0]])
    g = BipartiteGraph(R=sp.csr_matrix(R))
    with caplog.at_level("WARNING"):
        triples = sample_epoch(g, np.random.default_rng(0))
    assert (triples[:, 0] == 0).sum() == 0
    assert triples.shape == (1, 3)
    assert any("skip" in rec.message.lower() for rec in caplog.records)


def test_sample_deterministic_under_seed():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    g = random_bipartite(np.random.default_rng(9), 6, 5)
    assert np.array_equal(sample_epoch(g, rng_a), sample_epoch(g, rng_b))


def test_sample_needs_two_hashtags():
    g = BipartiteGraph(R=sp.csr_matrix(np.array([[1.0]])))
    with pytest.raises(ConfigError):
        sample_epoch(g, np.random.default_rng(0))


# training loop --------------------------------------------------------------

def two_block_setup(seed=0):
    """Planted structure: two user groups, disjoint hashtag vocabularies."""
    R = np.zeros((8, 6))
    rng = np.random.default_rng(seed)
    for u in range(8):
        block = range(0, 3) if u < 4 else range(3, 6)
        counts = rng.integers(1, 4, size=3).astype(float)
        R[u, list(block)] = counts / counts.sum()
    graph = BipartiteGraph(R=sp.csr_matrix(R))
    edges = graph.edges()
    val_pairs = kfold_split(edges, folds=4, rng=rng)[0]
    return graph_without_edges(graph, val_pairs), val_pairs


def test_train_on_a_graph_of_csr_arrays_equals_train_on_its_scipy_form():
    # A graph may hold CSR arrays (as `build` makes them) or a scipy matrix
    # (as the loaders and graph_without_edges make them).
    graph, val = two_block_setup()
    R = graph.R
    arrays = BipartiteGraph(R=CSRArrays(R.indptr, R.indices, R.data, R.shape))
    cfg = RunConfig(dim=4, n_layers=2, max_epochs=3)
    got, got_history, _ = train(arrays, None, cfg, val, seed=3)
    want, want_history, _ = train(graph, None, cfg, val, seed=3)
    assert np.array_equal(got.users, want.users) and np.array_equal(got.hashtags, want.hashtags)
    assert got_history == want_history


def test_train_zero_epochs_returns_initial_state():
    graph, val = two_block_setup()
    cfg = RunConfig(dim=4, n_layers=1, max_epochs=0)
    state, history, _ = train(graph, None, cfg, val, seed=3)
    init = init_embeddings(graph.n_users, graph.n_hashtags, cfg, 3, None)
    assert history == []
    assert np.array_equal(state.users, init.users)
    assert np.array_equal(state.hashtags, init.hashtags)


def test_train_zero_learning_rate_freezes_params():
    graph, val = two_block_setup()
    cfg = RunConfig(dim=4, n_layers=1, learning_rate=0.0, max_epochs=4, patience=10)
    state, history, _ = train(graph, None, cfg, val, seed=3)
    init = init_embeddings(graph.n_users, graph.n_hashtags, cfg, 3, None)
    assert np.array_equal(state.users, init.users)
    assert np.array_equal(state.hashtags, init.hashtags)
    assert len(history) == 4


def test_train_patience_one_stops_after_two_evaluations():
    graph, val = two_block_setup()
    # frozen parameters keep validation recall constant forever
    cfg = RunConfig(dim=4, n_layers=1, learning_rate=0.0, max_epochs=100, patience=1)
    _, history, _ = train(graph, None, cfg, val, seed=3)
    assert len(history) == 2


def test_train_deterministic_under_seed():
    graph, val = two_block_setup()
    cfg = RunConfig(dim=4, n_layers=2, max_epochs=6, patience=10)
    state_a, hist_a, _ = train(graph, None, cfg, val, seed=11)
    state_b, hist_b, _ = train(graph, None, cfg, val, seed=11)
    assert np.array_equal(state_a.users, state_b.users)
    assert np.array_equal(state_a.hashtags, state_b.hashtags)
    assert [h.loss for h in hist_a] == [h.loss for h in hist_b]

    state_c, _, _ = train(graph, None, cfg, val, seed=12)
    assert not np.array_equal(state_a.users, state_c.users)


@pytest.mark.parametrize("max_epochs", [0, 6])
@pytest.mark.parametrize("with_social", [False, True])
def test_train_returns_forward_output_of_its_state(max_epochs, with_social):
    # Callers score this output instead of propagating the state again.
    graph, val = two_block_setup()
    channels = channel_set(2, social=random_user_graph(np.random.default_rng(9), graph.n_users)) \
        if with_social else None
    cfg = RunConfig(dim=4, n_layers=2, learning_rate=0.05, max_epochs=max_epochs, patience=2)
    state, _, out = train(graph, channels, cfg, val, seed=5)
    want = forward(state.stacked(), build_operators(graph, channels), cfg)
    assert np.array_equal(out.final_users, want.final_users)
    assert np.array_equal(out.final_hashtags, want.final_hashtags)


@pytest.mark.parametrize("max_epochs", [0, 1, 5])
def test_train_propagates_once_per_step_and_once_more(monkeypatch, max_epochs):
    # Each batch's forward is that of the params as they stand, and the
    # end-of-epoch forward is reused for the next epoch's first batch, so
    # a run makes one forward per step plus one, and the same after 0 epochs.
    calls = {"forward": 0, "adam_step": 0}
    for name in calls:
        original = getattr(train_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(train_module, name, counted)
    graph, val = two_block_setup()
    cfg = RunConfig(dim=4, n_layers=1, learning_rate=0.05, max_epochs=max_epochs, patience=10,
                    batch_size=4)
    _, history, _ = train(graph, None, cfg, val, seed=5)
    assert len(history) == max_epochs
    assert calls["adam_step"] == max_epochs * -(-graph.R.nnz // 4)
    assert calls["forward"] == calls["adam_step"] + 1


def test_epoch_loss_is_mean_bpr_plus_l2():
    # At learning rate 0 the parameters stay E0 through the epoch, so its
    # loss is the reference BPR sum over the epoch's triples, per triple,
    # plus the L2 term once.
    graph, val = two_block_setup()
    cfg = RunConfig(dim=4, n_layers=2, learning_rate=0.0, max_epochs=1, lambda_reg=0.05,
                    batch_size=5)
    _, history, _ = train(graph, None, cfg, val, seed=3)
    e0 = init_embeddings(graph.n_users, graph.n_hashtags, cfg, 3, None).stacked()
    triples = sample_epoch(graph, np.random.default_rng(3))
    assert triples.shape[0] > cfg.batch_size
    bpr = evaluate_loss(e0, triples, build_operators(graph, None), cfg, 0.0)
    want = bpr / triples.shape[0] + cfg.lambda_reg * float(np.sum(e0 ** 2))
    assert history[0].loss == pytest.approx(want, rel=1e-12)


def test_train_loss_decreases_on_planted_graph():
    graph, val = two_block_setup()
    cfg = RunConfig(dim=8, n_layers=2, learning_rate=0.05, max_epochs=40, patience=100)
    _, history, _ = train(graph, None, cfg, val, seed=0)
    assert history[-1].loss < history[0].loss


def test_train_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(patience=0)
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0)
