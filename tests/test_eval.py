"""Evaluation protocol: stance rules, splits, baselines, synthetic data."""

from __future__ import annotations

import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stancegraph import cli, evaluate, graphs, metrics, model
from stancegraph import train as train_module
from stancegraph.config import VARIANT_NAMES, RunConfig
from stancegraph.errors import ConfigError, RecordError, StanceGraphError
from stancegraph.evaluate import (
    CLASS_ORDER,
    STANCE_NUMERIC,
    EvalReport,
    FoldMetrics,
    HoldoutSplit,
    StanceAnnotation,
    annotation_curve,
    bundled_annotations,
    graph_without_edges,
    holdout_split,
    kfold_split,
    null_model,
    parse_annotations,
    predicted_stances,
    run_protocol,
    save_annotations,
    stance_metrics,
    synth_generate,
    true_stances,
    held_out_count,
    validation_edges,
    VARIANTS,
    with_usage,
    write_report,
)
from stancegraph.graphs import (BipartiteGraph, binarize, build_adjacency, build_interaction_graph,
                               to_scipy)
from stancegraph.ingest import InteractionCounts, save_counts
from stancegraph.metrics import ranking_metrics
from stancegraph.model import build_operators, forward
from stancegraph.train import train

from conftest import (NO_CHANNELS, channel_set, counts_from, dense, random_bipartite,
                      random_user_graph)
from reference import (
    assert_row_stochastic,
    classify_stance,
    csr_from_counts,
    ground_truth_stance,
    ndcg_at_k,
    neighbors,
    recall_at_k,
    score_all,
    top_k_items,
)

QUICK_TRAIN = dict(max_epochs=3, patience=5)


def protocol_cfg(**keys) -> RunConfig:
    """A run config with dim 8 and QUICK_TRAIN's training keys."""
    return RunConfig(dim=8, **QUICK_TRAIN, **keys)


def class_size(ann: StanceAnnotation, cls: str) -> int:
    return len(ann.by_class.get(cls, ()))


# annotations ----------------------------------------------------------------

def test_parse_annotations_basic():
    ann = parse_annotations(["#Apruebo\tPOS", "rechazo\tNEG", "plebiscito\tNEUTRAL"])
    assert ann.by_class["POS"] == ("apruebo",)
    assert ann.by_class["NEG"] == ("rechazo",)
    assert class_size(ann, "NEUTRAL") == 1


def test_parse_annotations_dedupes_within_class():
    ann = parse_annotations(["tag\tPOS", "#TAG\tPOS"])
    assert ann.by_class["POS"] == ("tag",)


def test_parse_annotations_warns_on_cross_class_overlap(caplog):
    with caplog.at_level("WARNING"):
        ann = parse_annotations(["both\tPOS", "both\tNEG"])
    assert "both" in ann.by_class["POS"] and "both" in ann.by_class["NEG"]
    assert any("class" in rec.message.lower() for rec in caplog.records)


def test_parse_annotations_rejects_unknown_class():
    with pytest.raises(RecordError):
        parse_annotations(["tag\tMAYBE"])


def test_bundled_fixture_class_sizes():
    entry = bundled_annotations("entry")
    assert tuple(class_size(entry, c) for c in ("POS", "NEG", "NEUTRAL")) == (14, 21, 5)
    exit_ann = bundled_annotations("exit")
    assert tuple(class_size(exit_ann, c) for c in ("POS", "NEG", "NEUTRAL")) == (26, 25, 4)


def test_with_usage_counts_column_mass():
    counts = counts_from([[2, 0], [1, 3]])
    ann = parse_annotations([f"{h}\tPOS" for h in counts.hashtags])
    ranked = with_usage(ann, counts)
    assert ranked.usage[counts.hashtags[0]] == 3.0
    assert ranked.usage[counts.hashtags[1]] == 3.0


# stance classification ------------------------------------------------------

def three_class_annotation():
    return StanceAnnotation(by_class={
        "POS": ("p1", "p2"),
        "NEG": ("n1", "n2"),
        "NEUTRAL": ("z1",),
    })


def test_classify_argmax():
    ann = three_class_annotation()
    aff = {"p1": 0.5, "p2": 0.5, "n1": 0.3, "n2": 0.3, "z1": 0.4}
    assert classify_stance(aff, ann) == "POS"


def test_classify_tie_picks_last_class_in_order():
    ann = three_class_annotation()
    aff = {t: 0.2 for t in ("p1", "p2", "n1", "n2", "z1")}
    assert classify_stance(aff, ann) == "POS"
    assert CLASS_ORDER[-1] == "POS"


def test_classify_excludes_unscored_class(caplog):
    ann = three_class_annotation()
    aff = {"p1": 0.1, "p2": 0.1, "n1": 0.2, "n2": 0.2}
    with caplog.at_level("WARNING"):
        assert classify_stance(aff, ann) == "NEG"
    assert any("NEUTRAL" in rec.message for rec in caplog.records)


def test_classify_no_scored_class_raises():
    with pytest.raises(StanceGraphError, match="^no class has a scored hashtag$"):
        classify_stance({}, three_class_annotation())


def test_classify_invariant_under_positive_affine_rescale():
    rng = np.random.default_rng(19)
    ann = three_class_annotation()
    tags = list(ann.tags())
    for _ in range(50):
        aff = {t: float(rng.standard_normal()) for t in tags}
        base = classify_stance(aff, ann)
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.standard_normal() * 5)
        scaled = {t: a * v + b for t, v in aff.items()}
        assert classify_stance(scaled, ann) == base


def test_ground_truth_single_class_usage():
    ann = three_class_annotation()
    assert ground_truth_stance({"p1": 0.4, "p2": 0.1}, ann) == "POS"


def test_ground_truth_divides_by_full_class_size():
    # NEG mean 0.6/2 = 0.3 beats POS mean (0.25 + 0.25)/2 = 0.25
    ann = three_class_annotation()
    weights = {"n1": 0.6, "p1": 0.25, "p2": 0.25}
    assert ground_truth_stance(weights, ann) == "NEG"


def test_ground_truth_tie_goes_to_pos():
    ann = three_class_annotation()
    weights = {"p1": 0.2, "p2": 0.2, "n1": 0.2, "n2": 0.2}
    assert ground_truth_stance(weights, ann) == "POS"


def test_ground_truth_only_touched_class_wins_property():
    rng = np.random.default_rng(23)
    ann = three_class_annotation()
    for cls in CLASS_ORDER:
        for _ in range(20):
            members = list(ann.by_class[cls])
            touched = rng.choice(members, size=rng.integers(1, len(members) + 1), replace=False)
            weights = {t: float(rng.uniform(0.05, 1.0)) for t in touched}
            assert ground_truth_stance(weights, ann) == cls


def test_stance_metrics_hand_cases():
    assert stance_metrics(["POS", "NEG"], ["POS", "NEG"]) == (1.0, 0.0)
    acc, rmse = stance_metrics(["POS"], ["NEG"])
    assert acc == 0.0 and rmse == 1.0
    acc, rmse = stance_metrics(["POS", "NEUTRAL"], ["POS", "POS"])
    assert acc == 0.5
    assert rmse == pytest.approx(math.sqrt(0.25 / 2), abs=1e-12)


def test_stance_metrics_errors():
    with pytest.raises(StanceGraphError, match="^no users to evaluate$"):
        stance_metrics([], [])


def test_stance_numeric_mapping_is_increasing():
    values = [STANCE_NUMERIC[c] for c in CLASS_ORDER]
    assert values == sorted(values)
    assert values[0] < values[1] < values[2]


def per_user_stances(final_users, final_hashtags, hashtags, hidden, ann):
    """The scored users, their truths and their predictions, one user at a
    time through ground_truth_stance and classify_stance."""
    index = {h: j for j, h in enumerate(hashtags)}
    users, truth, pred = [], [], []
    for u in sorted(hidden):
        by_name = {hashtags[j]: w for j, w in hidden[u].items()}
        if not any(by_name.get(t, 0.0) > 0 for t in ann.tags()):
            continue
        scores = final_hashtags @ final_users[u]
        users.append(u)
        truth.append(ground_truth_stance(by_name, ann))
        pred.append(classify_stance(
            {t: float(scores[index[t]]) for t in ann.tags() if t in index}, ann))
    return users, truth, pred


@st.composite
def stance_cases(draw):
    # Integer embeddings and quarter weights keep every class sum exact
    # whatever the order, and make exact ties common. The tag pool holds
    # two tags absent from the corpus, and each class draws from all of it,
    # so a tag can sit in two classes and a class can have no scored tag.
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    grid = st.integers(-2, 2).map(float)
    final_users = draw(hnp.arrays(np.float64, (n, d), elements=grid))
    final_hashtags = draw(hnp.arrays(np.float64, (m, d), elements=grid))
    hashtags = [f"h{j}" for j in range(m)]
    pool = st.sampled_from(hashtags + ["absent0", "absent1"])
    by_class = {cls: tuple(draw(st.lists(pool, unique=True, max_size=4))) for cls in CLASS_ORDER}
    by_class = {cls: tags for cls, tags in by_class.items() if tags}
    if not by_class:
        by_class = {draw(st.sampled_from(CLASS_ORDER)): (draw(pool),)}
    weight = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    hidden = draw(st.dictionaries(
        st.integers(0, n - 1), st.dictionaries(st.integers(0, m - 1), weight), max_size=n))
    return final_users, final_hashtags, hashtags, hidden, StanceAnnotation(by_class=by_class)


@settings(max_examples=300, deadline=None)
@given(stance_cases())
# Summed in annotation order, NEG's 0.3 + 0.2 + 0.1 equals POS's 0.6, so
# truth and prediction tie; summed in column order it is one ulp larger.
@example((np.ones((1, 1)), np.array([[0.1], [0.2], [0.3], [0.6], [0.0], [0.0]]),
          [f"h{j}" for j in range(6)], {0: {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.6}},
          StanceAnnotation(by_class={"NEG": ("h2", "h1", "h0"), "POS": ("h3", "h4", "h5")})))
def test_array_scorer_equals_per_user_reference(case):
    final_users, final_hashtags, hashtags, hidden, ann = case
    # With no annotated tag in the corpus no user is scored, and the scorer
    # raises where classify_stance would.
    scoreable = any(t in hashtags for t in ann.tags())
    want_users, want_truth, want_pred = per_user_stances(
        final_users, final_hashtags, hashtags, hidden, ann)
    users, truth = true_stances(hidden, ann, hashtags)
    assert (users, truth) == (want_users, want_truth)
    if scoreable:
        assert predicted_stances(final_users, final_hashtags, users, ann, hashtags) == want_pred
    else:
        with pytest.raises(StanceGraphError, match="^no class has a scored hashtag$"):
            predicted_stances(final_users, final_hashtags, users, ann, hashtags)


# ranking metrics ------------------------------------------------------------

def test_ndcg_hand_example():
    # relevant items at ranks 1 and 3 of a K=3 list
    got = ndcg_at_k([7, 5, 9], {7, 9})
    want = (1.0 + 1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.9197, abs=1e-4)


def test_recall_and_ndcg_edge_cases():
    assert recall_at_k([1, 2, 3], {2, 9}) == 0.5
    assert recall_at_k([1, 2], {1, 2}) == 1.0
    assert recall_at_k([1, 2], {5}) == 0.0
    assert ndcg_at_k([4], {4}) == 1.0
    assert ndcg_at_k([1, 2], {5}) == 0.0


def test_ranking_metrics_match_brute_force_over_permutations():
    def brute_recall(seq, rel):
        return sum(1 for x in seq if x in rel) / len(rel)

    def brute_ndcg(seq, rel):
        dcg = sum(1.0 / math.log2(p + 1) for p, x in enumerate(seq, 1) if x in rel)
        ideal = min(len(seq), len(rel))
        idcg = sum(1.0 / math.log2(p + 1) for p in range(1, ideal + 1))
        return dcg / idcg if idcg > 0 else 0.0

    for n in range(1, 7):
        items = list(range(n))
        subsets = [s for r in range(1, n + 1) for s in itertools.combinations(items, r)]
        if n >= 5:  # keep the cross product bounded; permutations already explode
            subsets = subsets[:3] + subsets[-3:]
        for rel in map(set, subsets):
            for perm in itertools.permutations(items):
                assert recall_at_k(perm, rel) == pytest.approx(brute_recall(perm, rel), abs=1e-12)
                assert ndcg_at_k(perm, rel) == pytest.approx(brute_ndcg(perm, rel), abs=1e-12)


def test_top_k_excludes_and_orders():
    scores = np.array([0.1, 0.9, 0.5, 0.7])
    assert top_k_items(scores, {1}, 2).tolist() == [3, 2]
    assert top_k_items(scores, set(), 10).tolist() == [1, 3, 2, 0]


def per_user_ranking_metrics(final_users, final_hashtags, exclude, val_pairs, k):
    """The reference: one top_k_items ranking per user, scored one by one."""
    relevant: dict[int, set[int]] = {}
    for u, j in val_pairs:
        relevant.setdefault(int(u), set()).add(int(j))
    recalls, ndcgs = [], []
    for u in sorted(relevant):
        excluded = exclude.indices[exclude.indptr[u]:exclude.indptr[u + 1]]
        if len(excluded) >= final_hashtags.shape[0]:
            continue
        top = top_k_items(final_hashtags @ final_users[u], excluded, k)
        recalls.append(recall_at_k(top, relevant[u]))
        ndcgs.append(ndcg_at_k(top, relevant[u]))
    if not recalls:
        return 0.0, 0.0, 0
    return float(np.mean(recalls)), float(np.mean(ndcgs)), len(recalls)


@st.composite
def ranking_cases(draw):
    # Integer embeddings keep every score exact whatever the BLAS summation
    # order, and make ties at the k-th score common.
    n, m, d = draw(st.integers(1, 9)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    grid = st.integers(-2, 2).map(float)
    users = draw(hnp.arrays(np.float64, (n, d), elements=grid))
    hashtags = draw(hnp.arrays(np.float64, (m, d), elements=grid))
    for _ in range(draw(st.integers(0, 2))):
        target = users if draw(st.booleans()) else hashtags
        row = draw(st.integers(0, target.shape[0] - 1))
        target[row, draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    exclude = sp.csr_matrix(draw(hnp.arrays(bool, (n, m))))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                         min_size=1, max_size=3 * n))
    k = draw(st.integers(1, m + 2))
    # A few rows per block, so most cases span several blocks.
    block_entries = draw(st.integers(1, 3 * m))
    return users, hashtags, exclude, np.array(pairs, dtype=np.int64).reshape(-1, 2), k, block_entries


def ranking_case(users, hashtags, excluded, pairs, k, block_entries):
    return (np.array(users, dtype=float), np.array(hashtags, dtype=float),
            sp.csr_matrix(np.array(excluded, dtype=bool)), np.array(pairs, dtype=np.int64), k,
            block_entries)


@settings(max_examples=300, deadline=None)
@given(ranking_cases())
# The k-th score, 1, is shared by three hashtags, so at least two of them lie
# outside a row's k top slots: the pair at the smaller column is a hit, the
# one at the larger a miss.
@example(ranking_case([[1], [1]], [[3], [1], [1], [1]], [[0] * 4] * 2, [[0, 1], [1, 3]], 2, 8))
# Every score equal, one row per block: every pair ties and its whole row is
# counted.
@example(ranking_case([[1], [1]], [[1]] * 5, [[0] * 5] * 2,
                      [[0, 0], [0, 2], [0, 4], [1, 3], [1, 1]], 3, 5))
# k above the number of hashtags, and rows with fewer finite scores than k.
@example(ranking_case([[1], [2]], [[1], [-1], [np.inf]], [[0, 0, 0], [1, 0, 0]],
                      [[0, 1], [0, 2], [1, 1], [1, 0]], 5, 9))
@example(ranking_case([[1], [1]], [[2], [1], [0], [-1]], [[1, 1, 0, 0], [0, 0, 0, 0]],
                      [[0, 2], [0, 3], [1, 3]], 3, 8))
def test_batched_ranking_metrics_equal_per_user_reference(case):
    users, hashtags, exclude, pairs, k, block_entries = case
    with np.errstate(invalid="ignore"), mock.patch.object(metrics, "BLOCK_ENTRIES", block_entries):
        got = ranking_metrics(users, hashtags, exclude, pairs, k=k)
        want = per_user_ranking_metrics(users, hashtags, exclude, pairs, k)
    assert got == want


def test_ranking_metrics_skips_users_without_candidates_and_dedupes_pairs():
    users = np.ones((3, 1))
    hashtags = np.array([[3.0], [2.0], [1.0]])
    # User 1 has no candidates; user 2 ranks only hashtags 1 and 2.
    exclude = sp.csr_matrix(np.array([[0, 0, 0], [1, 1, 1], [1, 0, 0]], dtype=float))
    pairs = np.array([[0, 0], [0, 0], [0, 2], [1, 0], [2, 1]])
    # User 0 hits 1 of {0, 2} at rank 1, user 2 hits 1 of {1}.
    assert ranking_metrics(users, hashtags, exclude, pairs, k=1) == (0.75, 1.0, 2)
    assert ranking_metrics(users, hashtags, exclude, pairs[:0]) == (0.0, 0.0, 0)
    with pytest.raises(ConfigError):
        ranking_metrics(users, hashtags, exclude, pairs, k=0)


# holdout split --------------------------------------------------------------

def annotated_world(n_users=100, n_tags=10, n_annotated=4, seed=0):
    rng = np.random.default_rng(seed)
    T = np.zeros((n_users, n_tags))
    for u in range(n_users):
        cols = rng.choice(n_tags, size=3, replace=False)
        T[u, cols] = rng.integers(1, 4, size=3)
        T[u, u % n_annotated] += 1  # everyone touches one annotated tag
    counts = counts_from(T)
    tags = counts.hashtags
    ann = parse_annotations(
        [f"{tags[j]}\t{'POS' if j % 2 == 0 else 'NEG'}" for j in range(n_annotated)]
    )
    from stancegraph.graphs import build_interaction_graph

    # as `eval` loads it: scipy-backed
    return BipartiteGraph(R=to_scipy(build_interaction_graph(counts).R)), ann, tags


def test_holdout_selects_ceiling_fraction():
    graph, ann, tags = annotated_world()
    split = holdout_split(graph, ann, tags, fraction=0.05, rng=np.random.default_rng(1))
    assert split.n_eligible == 100
    assert len(split.holdout_users) == 5


def test_holdout_hides_annotated_edges_with_original_weights():
    graph, ann, tags = annotated_world()
    split = holdout_split(graph, ann, tags, fraction=0.05, rng=np.random.default_rng(2))
    annotated_cols = {j for j, t in enumerate(tags) if t in ann.tags()}
    before, after = dense(graph.R), dense(split.train_graph.R)
    for u in split.holdout_users:
        assert split.hidden[u], "holdout user lost no edges"
        for j, w in split.hidden[u].items():
            assert j in annotated_cols
            assert w == before[u, j]  # pre-split weight preserved
            assert after[u, j] == 0.0
        # non-annotated edges survive and the row is renormalized
        kept = after[u]
        if kept.any():
            assert abs(kept.sum() - 1.0) <= 1e-9


def test_holdout_keeps_other_users_untouched():
    graph, ann, tags = annotated_world()
    split = holdout_split(graph, ann, tags, fraction=0.05, rng=np.random.default_rng(3))
    untouched = sorted(set(range(graph.n_users)) - set(split.holdout_users))
    sub_before = dense(graph.R)[untouched]
    sub_after = dense(split.train_graph.R)[untouched]
    assert np.array_equal(sub_before, sub_after)


def test_holdout_deterministic_under_seed():
    graph, ann, tags = annotated_world()
    a = holdout_split(graph, ann, tags, 0.05, np.random.default_rng(7))
    b = holdout_split(graph, ann, tags, 0.05, np.random.default_rng(7))
    assert a.holdout_users == b.holdout_users
    assert a.hidden == b.hidden


def test_holdout_no_eligible_users():
    graph = BipartiteGraph(R=sp.csr_matrix(np.array([[1.0]])))
    ann = parse_annotations(["unused\tPOS"])
    with pytest.raises(StanceGraphError, match="^no user interacts with an annotated hashtag$"):
        holdout_split(graph, ann, ["other"], 0.05, np.random.default_rng(0))


def test_holdout_holds_out_the_exact_decimal_share():
    # 0.07 of 100 eligible users is 7, as validation_edges counts a share;
    # ceil of the float product 7.000000000000001 would hold out 8.
    graph = BipartiteGraph(R=sp.csr_matrix(np.ones((100, 1))))
    split = holdout_split(graph, parse_annotations(["tag\tPOS"]), ["tag"], 0.07,
                          np.random.default_rng(0))
    assert (split.n_eligible, len(split.holdout_users)) == (100, 7)


def holdout_reference(graph, annotations, hashtags, fraction, rng):
    """The set-scan split: eligibility and hidden weights per user."""
    annotated_cols = {j for j, h in enumerate(hashtags) if h in annotations.tags()}
    eligible = [u for u in range(graph.n_users)
                if any(int(j) in annotated_cols for j in neighbors(graph, u))]
    if not eligible:
        raise StanceGraphError("no eligible user")
    chosen = rng.choice(len(eligible), size=held_out_count(fraction, len(eligible)),
                        replace=False)
    holdout_users = tuple(sorted(eligible[k] for k in chosen))
    hidden = {}
    for u in holdout_users:
        row = to_scipy(graph.R)[u].tocoo()
        hidden[u] = {int(j): float(w) for j, w in zip(row.col, row.data)
                     if int(j) in annotated_cols}
    return holdout_users, hidden, len(eligible)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_holdout_split_equals_set_scan_reference(data):
    n, m = data.draw(st.integers(1, 10), label="n"), data.draw(st.integers(1, 6), label="m")
    T = data.draw(hnp.arrays(np.float64, (n, m), elements=st.sampled_from([0.0, 0.0, 1.0, 2.0])))
    graph = build_interaction_graph(counts_from(T))
    hashtags = [f"h{j:03d}" for j in range(m)]
    marked = data.draw(st.lists(st.sampled_from(hashtags), min_size=1, max_size=m), label="ann")
    ann = parse_annotations([f"{h}\tPOS" for h in marked])
    fraction = data.draw(st.sampled_from([0.05, 0.3, 0.5, 1.0]), label="fraction")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = holdout_reference(graph, ann, hashtags, fraction, rng_want)
    except StanceGraphError:
        with pytest.raises(StanceGraphError,
                           match="^no user interacts with an annotated hashtag$"):
            holdout_split(graph, ann, hashtags, fraction, rng_got)
        return
    got = holdout_split(graph, ann, hashtags, fraction, rng_got)
    assert got.holdout_users == want[0]
    assert all(type(u) is int for u in got.holdout_users)
    assert list(got.hidden.items()) == list(want[1].items())
    assert got.n_eligible == want[2]
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# k-fold ---------------------------------------------------------------------

def test_kfold_sizes_on_ten_edges():
    edges = np.array([[u, 0] for u in range(10)])
    folds = kfold_split(edges, folds=5, rng=np.random.default_rng(0))
    assert [val_pairs.shape for val_pairs in folds] == [(2, 2)] * 5


def test_kfold_is_a_partition():
    rng = np.random.default_rng(11)
    edges = np.array([[int(rng.integers(0, 6)), int(rng.integers(0, 6))] for _ in range(23)])
    edges = np.unique(edges, axis=0)
    folds = kfold_split(edges, folds=5, rng=rng)
    seen: list[tuple[int, int]] = []
    for val_pairs in folds:
        # each fold is in edge order
        assert np.array_equal(val_pairs, np.unique(val_pairs, axis=0))
        seen.extend(map(tuple, val_pairs.tolist()))
    # disjoint, and together every edge
    assert sorted(seen) == sorted(map(tuple, edges.tolist()))


def test_kfold_rejects_bad_configs():
    edges = np.array([[0, 0], [1, 1]])
    with pytest.raises(ConfigError, match="need at least 2 folds"):
        RunConfig(folds=1)
    with pytest.raises(ConfigError, match="2 edges cannot fill 3 folds"):
        kfold_split(edges, folds=3, rng=np.random.default_rng(0))


def test_validation_edges_at_one_fifth_are_kfold_fold_0():
    # ceil(0.2 * n) is exact in floating point: for n = 1..10,000 the
    # held-out edges are fold 0 of kfold_split(..., 5) from the same state.
    all_edges = np.column_stack([np.arange(10_000), np.arange(10_000) % 7])
    for n in range(1, 10_001):
        assert math.ceil(0.2 * n) == -(-n // 5)
        if n < 5:
            continue
        edges = all_edges[:n]
        got = validation_edges(edges, 0.2, np.random.default_rng(n))
        want = kfold_split(edges, 5, np.random.default_rng(n))[0]
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.4, 0.45, 0.5])
@pytest.mark.parametrize("n", [2, 7, 100, 12_890])
def test_validation_edges_hold_out_the_fraction(fraction, n):
    edges = np.column_stack([np.arange(n), np.zeros(n, dtype=np.int64)])
    val = validation_edges(edges, fraction, np.random.default_rng(3))
    assert fraction * n <= len(val) < fraction * n + 1
    assert len(np.unique(val[:, 0])) == len(val)
    assert np.array_equal(val, edges[np.sort(val[:, 0])])


def test_held_out_count_is_the_exact_decimal_ceil():
    # 0.07 * 100 is 7.000000000000001 in floating point; the count reads
    # 0.07 as 7/100, for every n up to 200,000.
    assert 0.07 * 100 > 7
    assert [held_out_count(0.07, n) for n in range(1, 200_001)] == [
        -(-7 * n // 100) for n in range(1, 200_001)]
    edges = np.column_stack([np.arange(100), np.zeros(100, dtype=np.int64)])
    assert len(validation_edges(edges, 0.07, np.random.default_rng(0))) == 7


def test_validation_edges_leave_an_edge_to_train_on():
    with pytest.raises(ConfigError, match="holding out 1 of 1 edges"):
        validation_edges(np.array([[0, 0]]), 0.2, np.random.default_rng(0))


def test_graph_without_edges_renormalizes():
    R = np.array([[0.5, 0.5], [1.0, 0.0]])
    g = BipartiteGraph(R=sp.csr_matrix(R))
    out = dense(graph_without_edges(g, np.array([[0, 1]])).R)
    assert out[0, 0] == 1.0
    assert out[0, 1] == 0.0
    assert out[1, 0] == 1.0


def test_graph_without_edges_rescales_only_rows_that_lost_an_edge():
    # row 0 sums to 1 - 2**-53 in floating point, so rescaling it would
    # change its bits; removing a pair that is not an edge must not
    R = np.array([[0.1, 0.2, 0.7, 0.0], [0.5, 0.5, 0.0, 0.0]])
    g = BipartiteGraph(R=sp.csr_matrix(R))
    out = graph_without_edges(g, np.array([[0, 3], [1, 0]]))
    assert dense(out.R).tolist() == [[0.1, 0.2, 0.7, 0.0], [0.0, 1.0, 0.0, 0.0]]


# null model -----------------------------------------------------------------

def test_null_zero_interactions_is_empty():
    g = null_model(3, 4, 0, np.random.default_rng(0))
    assert g.R.nnz == 0


def test_null_single_cell_accumulates_to_unit_weight():
    g = null_model(1, 1, 5, np.random.default_rng(0))
    assert dense(g.R).tolist() == [[1.0]]


def test_null_per_cell_counts_match_uniform_sampling():
    # with a single user the row total equals the draw count, so scaling
    # the normalized row recovers the per-cell counts exactly
    m, n_draws, seeds = 8, 64, 100
    cells = np.zeros((seeds, m))
    for s in range(seeds):
        g = null_model(1, m, n_draws, np.random.default_rng(s))
        cells[s] = dense(g.R)[0] * n_draws
    mean = cells.mean(axis=0)
    p = 1.0 / m
    expect = n_draws * p
    se = math.sqrt(n_draws * p * (1 - p) / seeds)
    assert np.abs(mean - expect).max() <= 3 * se


def test_null_rows_are_stochastic():
    g = null_model(6, 5, 40, np.random.default_rng(3))
    assert_row_stochastic(g)


# baselines ------------------------------------------------------------------

def test_mf_baseline_scores_are_raw_inner_products():
    rng = np.random.default_rng(31)
    g = random_bipartite(rng, 6, 5)
    edges = g.edges()
    val_pairs = kfold_split(edges, folds=4, rng=rng)[0]
    fold_graph = graph_without_edges(g, val_pairs)
    mf = VARIANTS["mf"]
    cfg = mf.model(RunConfig(dim=3, n_layers=3, **QUICK_TRAIN))
    assert cfg == RunConfig(dim=3, n_layers=0, **QUICK_TRAIN) and not mf.channels
    mf_graph = mf.graph(fold_graph, 1, rng)
    assert mf_graph is fold_graph
    state, _, _ = train(mf_graph, NO_CHANNELS, cfg, val_pairs, seed=0)
    out = forward(state.stacked(), build_operators(fold_graph, NO_CHANNELS), cfg)
    assert np.array_equal(out.final_users, state.users)
    assert np.array_equal(out.final_hashtags, state.hashtags)
    for u in range(6):
        assert np.array_equal(
            score_all(out.final_users, out.final_hashtags, u),
            score_all(state.users, state.hashtags, u),
        )


def test_lightgcn_baseline_trains_on_binary_graph():
    rng = np.random.default_rng(37)
    g = random_bipartite(rng, 6, 5)
    edges = g.edges()
    val_pairs = kfold_split(edges, folds=4, rng=rng)[0]
    fold_graph = graph_without_edges(g, val_pairs)
    lightgcn = VARIANTS["lightgcn"]
    cfg = lightgcn.model(RunConfig(dim=3, **QUICK_TRAIN))
    assert cfg == RunConfig(dim=3, **QUICK_TRAIN) and not lightgcn.channels
    state_b, _, _ = train(lightgcn.graph(fold_graph, 1, rng), NO_CHANNELS, cfg, val_pairs, seed=5)

    state_ref, _, _ = train(binarize(fold_graph), NO_CHANNELS, RunConfig(dim=3, **QUICK_TRAIN),
                            val_pairs, seed=5)
    assert np.array_equal(state_b.users, state_ref.users)
    assert np.array_equal(state_b.hashtags, state_ref.hashtags)


def test_binarize_idempotent_reduction():
    rng = np.random.default_rng(41)
    g = random_bipartite(rng, 4, 4)
    assert np.array_equal(dense(binarize(binarize(g)).R), dense(binarize(g).R))


# synthetic generator --------------------------------------------------------

SMALL = dict(n_users=40, n_hashtags=20, n_neutral=4, interactions_per_user=10,
             annotated_per_camp=5)


def small_synth(seed=0, **kw):
    cfg = RunConfig(**dict(SMALL, **kw))
    return synth_generate(cfg, np.random.default_rng(seed)), cfg


def test_synth_camps_are_balanced():
    data, _ = small_synth()
    pos = sum(1 for c in data.planted if c == "POS")
    neg = sum(1 for c in data.planted if c == "NEG")
    assert abs(pos - neg) <= 1
    assert pos + neg == 40


def test_synth_disconnected_blocks_without_leakage():
    data, cfg = small_synth(p_in=1.0, p_out=0.0, n_neutral=0)
    R = dense(build_interaction_graph(data.counts).R)
    half_tags = (cfg.n_hashtags - cfg.n_neutral) // 2
    for u, camp in enumerate(data.planted):
        own = slice(0, half_tags) if camp == "POS" else slice(half_tags, None)
        other = slice(half_tags, None) if camp == "POS" else slice(0, half_tags)
        assert R[u, other].sum() == 0.0
        assert R[u, own].sum() == pytest.approx(1.0, abs=1e-9)


def test_synth_annotations_cover_both_camps_with_usage():
    data, cfg = small_synth()
    assert class_size(data.annotations, "POS") == cfg.annotated_per_camp
    assert class_size(data.annotations, "NEG") == cfg.annotated_per_camp
    assert data.annotations.usage  # effort curve needs usage ranks


def test_synth_deterministic_output(tmp_path):
    a, _ = small_synth(seed=9)
    b, _ = small_synth(seed=9)
    assert np.array_equal(dense(build_interaction_graph(a.counts).R),
                          dense(build_interaction_graph(b.counts).R))
    assert a.planted == b.planted
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_annotations(a.annotations, pa)
    save_annotations(b.annotations, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_synth_validates_probabilities():
    with pytest.raises(ConfigError):
        RunConfig(p_in=0.1, p_out=0.2)
    with pytest.raises(ConfigError):
        RunConfig(p_in=0.7, p_out=0.4)  # leaves no mass for neutral tags
    with pytest.raises(ConfigError):
        RunConfig(n_neutral=0, p_in=0.8, p_out=0.1)  # must sum to 1 here


def test_synth_counts_match_interaction_budget():
    data, cfg = small_synth()
    assert data.counts.T.data.sum() == cfg.n_users * cfg.interactions_per_user


def synth_reference(cfg, rng):
    """The scalar-loop generator: one integers() call per interaction and
    one random() call per user pair, counts gathered in dicts."""
    n_pos_users = (cfg.n_users + 1) // 2
    camp_tags = cfg.n_hashtags - cfg.n_neutral
    n_pos_tags = (camp_tags + 1) // 2
    users = [f"u{i:05d}" for i in range(cfg.n_users)]
    tags = [f"ht{j:05d}" for j in range(cfg.n_hashtags)]
    planted = ["POS" if i < n_pos_users else "NEG" for i in range(cfg.n_users)]
    pos_tags = list(range(0, n_pos_tags))
    neg_tags = list(range(n_pos_tags, camp_tags))
    neutral_tags = list(range(camp_tags, cfg.n_hashtags))

    by_kind = {"original": {}, "retweet": {}}
    for i in range(cfg.n_users):
        own = pos_tags if planted[i] == "POS" else neg_tags
        other = neg_tags if planted[i] == "POS" else pos_tags
        cats = rng.random(cfg.interactions_per_user)
        kinds = rng.random(cfg.interactions_per_user) < cfg.retweet_rate
        for k in range(cfg.interactions_per_user):
            if cats[k] < cfg.p_in:
                pool = own
            elif cats[k] < cfg.p_in + cfg.p_out:
                pool = other
            else:
                pool = neutral_tags
            j = pool[int(rng.integers(0, len(pool)))]
            bucket = by_kind["retweet" if kinds[k] else "original"]
            bucket[(i, j)] = bucket.get((i, j), 0.0) + 1.0

    mutual = {}
    for i in range(cfg.n_users):
        for j in range(i + 1, cfg.n_users):
            same = (i < n_pos_users) == (j < n_pos_users)
            p = cfg.social_base_rate * (cfg.homophily if same else 1.0)
            if rng.random() < min(p, 1.0):
                mutual[(i, j)] = 1.0
                mutual[(j, i)] = 1.0

    n, m = cfg.n_users, cfg.n_hashtags
    t_tweet = csr_from_counts(by_kind["original"], (n, m))
    t_retweet = csr_from_counts(by_kind["retweet"], (n, m))
    counts = InteractionCounts(
        users=users, hashtags=tags, T_tweet=t_tweet, T_retweet=t_retweet,
        T_reply=csr_from_counts({}, (n, m)), mention=csr_from_counts({}, (n, n)),
        reply=csr_from_counts({}, (n, n)), mutual_follow=csr_from_counts(mutual, (n, n)),
    )
    annotations = StanceAnnotation(by_class={
        "POS": tuple(tags[j] for j in pos_tags[: cfg.annotated_per_camp]),
        "NEG": tuple(tags[j] for j in neg_tags[: cfg.annotated_per_camp]),
    })
    return evaluate.SynthData(counts=counts, annotations=with_usage(annotations, counts),
                              planted=planted)



@pytest.mark.parametrize("kw", [
    {},
    dict(n_users=500, n_hashtags=300, n_neutral=30, interactions_per_user=30),
    dict(SMALL, n_neutral=0, p_in=0.75, p_out=0.25),
    dict(SMALL, p_out=0.0),
    dict(SMALL, retweet_rate=0.0),
    dict(SMALL, retweet_rate=1.0),
    dict(SMALL, social_base_rate=0.0),
    dict(SMALL, social_base_rate=1.0),
    dict(SMALL, homophily=0.0),
    dict(SMALL, n_users=41),
    dict(SMALL, n_users=2),
    dict(SMALL, n_hashtags=5, n_neutral=3, annotated_per_camp=1),
], ids=["default", "benchmark", "no-neutral", "p-out-0", "retweet-0", "retweet-1",
        "social-0", "social-1", "homophily-0", "odd-users", "two-users", "pools-of-one"])
def test_synth_generate_equals_scalar_loop_reference(kw, tmp_path):
    cfg = RunConfig(**kw)
    for seed in range(5):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = synth_generate(cfg, rng_got), synth_reference(cfg, rng_want)
        save_counts(got.counts, tmp_path / "got.json")
        save_counts(want.counts, tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
        assert got.planted == want.planted
        assert got.annotations == want.annotations
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        assert rng_got.random() == rng_want.random()


def test_variant_table_holds_exactly_the_configured_names():
    assert set(VARIANTS) == set(VARIANT_NAMES)
    for name in VARIANT_NAMES:
        assert RunConfig(variant=name).variant == name
    with pytest.raises(ConfigError, match="unknown model variant 'bogus'"):
        RunConfig(variant="bogus")


# protocol and reports -------------------------------------------------------

def protocol_fixture(variant="wlgcn", seed=0):
    data, _ = small_synth(seed=1)
    return run_protocol(
        build_interaction_graph(data.counts), NO_CHANNELS, data.annotations, data.counts,
        protocol_cfg(holdout_fraction=0.1, folds=2, variant=variant), seed,
    )


def test_protocol_builds_no_user_operator_and_one_adjacency_per_fold():
    # The channels come with their user operator built, so the protocol
    # normalizes no user graph and builds no polynomial, in any module.
    # Each fold's bipartite operator is built once, by train, and its final
    # embeddings come from train too.
    data, _ = small_synth(seed=1)
    rng = np.random.default_rng(7)
    cfg = protocol_cfg(holdout_fraction=0.1, folds=2)
    channels = channel_set(cfg.n_layers, random_user_graph(rng, 40),
                           random_user_graph(rng, 40, kind="pathsim"))
    calls = {}
    with contextlib.ExitStack() as stack:
        for module in (cli, evaluate, graphs, model, train_module):
            for name in ("normalize_user_graph", "user_channels", "build_user_operator",
                         "build_adjacency"):
                if hasattr(module, name):
                    counted = calls.setdefault(name, mock.Mock(wraps=getattr(module, name)))
                    stack.enter_context(mock.patch.object(module, name, counted))
        res = run_protocol(
            build_interaction_graph(data.counts), channels, data.annotations, data.counts,
            cfg, 0,
        )
    assert len(res.report.folds) == 2
    assert {name: mock_.call_count for name, mock_ in calls.items()} == {
        "normalize_user_graph": 0, "user_channels": 0, "build_user_operator": 0,
        "build_adjacency": 2}


def test_protocol_produces_reasonable_report():
    res = protocol_fixture()
    r = res.report
    assert 0.0 <= r.recall <= 1.0
    assert 0.0 <= r.ndcg <= 1.0
    assert 0.0 <= r.accuracy <= 1.0
    assert r.rmse >= 0.0
    assert len(r.folds) == 2
    assert res.fold0_history
    assert res.fold0_val.shape[1] == 2
    assert r.n_holdout_users == len(res.split.holdout_users)


def test_protocol_deterministic(tmp_path):
    a = protocol_fixture(seed=4)
    b = protocol_fixture(seed=4)
    write_report(a.report, tmp_path / "ra.txt", tmp_path / "fa.csv")
    write_report(b.report, tmp_path / "rb.txt", tmp_path / "fb.csv")
    assert (tmp_path / "ra.txt").read_bytes() == (tmp_path / "rb.txt").read_bytes()
    assert (tmp_path / "fa.csv").read_bytes() == (tmp_path / "fb.csv").read_bytes()
    assert np.array_equal(a.state.users, b.state.users)


def test_protocol_null_variant_runs():
    res = protocol_fixture(variant="null")
    assert 0.0 <= res.report.recall <= 1.0


def test_protocol_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        protocol_fixture(variant="boosted")


@pytest.mark.parametrize("binary", [False, True])
def test_protocol_binary_stance_skips_neutral_only_users(binary):
    # Few annotated camp tags and many neutral draws, so some holdout users
    # hide only NEUTRAL edges.
    data, cfg = small_synth(seed=5, n_users=60, n_hashtags=30, n_neutral=10, p_in=0.5,
                            p_out=0.1, interactions_per_user=6, annotated_per_camp=2)
    tags = data.counts.hashtags
    two_class = data.annotations
    ann = with_usage(StanceAnnotation(by_class={**two_class.by_class,
                                                "NEUTRAL": tuple(tags[20:25])}), data.counts)
    scorer = mock.Mock(wraps=evaluate.predicted_stances)
    with mock.patch.object(evaluate, "predicted_stances", scorer):
        res = run_protocol(build_interaction_graph(data.counts), NO_CHANNELS, ann, data.counts,
                           protocol_cfg(holdout_fraction=0.5, folds=2, binary_stance=binary),
                           0)
    neutral_only = {u for u in res.split.holdout_users
                    if not {tags[j] for j in res.split.hidden[u]} & two_class.tags()}
    assert neutral_only and len(neutral_only) < len(res.split.holdout_users)
    reference = two_class if binary else ann
    preds, truths = [], []
    for call in scorer.call_args_list:
        final_users, final_hashtags, users = call.args[:3]
        want_users, truth, pred = per_user_stances(final_users, final_hashtags, tags,
                                                   res.split.hidden, reference)
        assert users == want_users
        assert neutral_only.isdisjoint(users) if binary else neutral_only < set(users)
        preds += pred
        truths += truth
    assert len(scorer.call_args_list) == 2
    assert res.report.accuracy == stance_metrics(preds, truths)[0]
    assert all(res.report.n_scored == len(call.args[2]) for call in scorer.call_args_list)
    if binary:
        assert res.report.n_scored < res.report.n_holdout_users


def test_null_recall_within_sanity_bound_of_chance():
    # uninformed rankings cannot beat five times the analytic chance level
    data, cfg = small_synth(seed=2, n_users=60, n_hashtags=50, interactions_per_user=8)
    m = cfg.n_hashtags
    recalls, chances = [], []
    for seed in range(10):
        res = run_protocol(
            build_interaction_graph(data.counts), NO_CHANNELS, data.annotations, data.counts,
            protocol_cfg(holdout_fraction=0.1, folds=2, variant="null"), seed,
        )
        recalls.append(res.report.recall)
        per_user_rel: dict[int, int] = {}
        for u, _ in res.fold0_val.tolist():
            per_user_rel[u] = per_user_rel.get(u, 0) + 1
        chances.append(np.mean([20.0 * r / m for r in per_user_rel.values()]))
    assert np.mean(recalls) <= 5.0 * np.mean(chances)


def test_write_report_format(tmp_path):
    report = EvalReport(
        recall=0.5, ndcg=0.25, accuracy=0.75, rmse=0.125,
        accuracy_cold=0.0, n_cold=0, n_holdout_users=4, n_scored=3, n_eligible=40,
        folds=[FoldMetrics(fold=0, recall=0.5, ndcg=0.25, accuracy=0.75, rmse=0.125)],
    )
    rp, fp = tmp_path / "report.txt", tmp_path / "folds.csv"
    write_report(report, rp, fp)
    text = rp.read_text(encoding="utf-8")
    assert "recall@20=0.500000" in text
    assert "accuracy=0.750000" in text
    assert "\nn_holdout_users=4\nn_scored=3\nn_eligible=40\n" in text
    lines = fp.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "fold,recall@20,ndcg@20,accuracy,rmse"
    assert lines[1].startswith("0,0.500000")


# annotation curve -----------------------------------------------------------

def curve_setup():
    data, cfg = small_synth(seed=3)
    split = holdout_split(
        build_interaction_graph(data.counts), data.annotations, data.counts.hashtags, 0.1,
        np.random.default_rng(0),
    )
    edges = split.train_graph.edges()
    val_pairs = kfold_split(edges, folds=2, rng=np.random.default_rng(1))[0]
    fold_graph = graph_without_edges(split.train_graph, val_pairs)
    _, _, out = train(fold_graph, NO_CHANNELS, protocol_cfg(), val_pairs, seed=0)
    return out, data, split, cfg


def test_curve_full_x_matches_direct_two_class_eval():
    out, data, split, cfg = curve_setup()
    tags = data.counts.hashtags
    x_full = min(class_size(data.annotations, "POS"), class_size(data.annotations, "NEG"))
    curve = annotation_curve(out.final_users, out.final_hashtags, tags, split.hidden,
                             data.annotations, [x_full])

    two_class = StanceAnnotation(
        by_class={c: data.annotations.by_class[c] for c in ("POS", "NEG")},
        usage=data.annotations.usage,
    )
    index = {h: j for j, h in enumerate(tags)}
    scored = [(t, index[t]) for t in sorted(two_class.tags()) if t in index]
    predicted, truths = [], []
    for u in split.holdout_users:
        hidden = {tags[j]: w for j, w in split.hidden[u].items()}
        if not any(hidden.get(t, 0.0) > 0 for t in two_class.tags()):
            continue
        scores = out.final_hashtags @ out.final_users[u]
        predicted.append(classify_stance({t: float(scores[j]) for t, j in scored}, two_class))
        truths.append(ground_truth_stance(hidden, two_class))
    want_acc, _ = stance_metrics(predicted, truths)
    assert curve[0] == (x_full, want_acc)


def test_curve_x_one_uses_two_hashtags():
    out, data, split, _ = curve_setup()
    tags = data.counts.hashtags
    curve = annotation_curve(out.final_users, out.final_hashtags, tags, split.hidden,
                             data.annotations, [1])
    assert curve[0][0] == 1
    assert 0.0 <= curve[0][1] <= 1.0


def test_curve_reproducible():
    out, data, split, _ = curve_setup()
    tags = data.counts.hashtags
    a = annotation_curve(out.final_users, out.final_hashtags, tags, split.hidden,
                         data.annotations, [1, 2, 3])
    b = annotation_curve(out.final_users, out.final_hashtags, tags, split.hidden,
                         data.annotations, [1, 2, 3])
    assert a == b


def test_curve_rejects_out_of_range_x():
    out, data, split, cfg = curve_setup()
    tags = data.counts.hashtags
    with pytest.raises(ConfigError,
                       match=rf"^x={cfg.annotated_per_camp + 1} outside \[1, \d+\]$"):
        annotation_curve(out.final_users, out.final_hashtags, tags, split.hidden,
                         data.annotations, [cfg.annotated_per_camp + 1])
    with pytest.raises(ConfigError, match=r"^x=0 outside \[1, \d+\]$"):
        annotation_curve(out.final_users, out.final_hashtags, tags, split.hidden,
                         data.annotations, [0])
