"""Two-level evaluation: edge ranking and user stance classification.

Edge level: hide a fraction of users' annotated-hashtag edges, cross-validate
the remaining edges, and rank candidates by affinity. User level: classify
each held-out user by comparing class-mean affinities against the stance
implied by their hidden usage. Also provides the reduction baselines, a
random-interaction null model, the annotation-effort curve, and a synthetic
two-camp generator with planted stances.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import ConfigError, RecordError, StanceGraphError, open_text
from .graphs import BipartiteGraph, _is_member, _kept, binarize, row_normalize
from .ingest import InteractionCounts, _flat_keys, _row_indices, _unit_counts, normalize_hashtag
from .metrics import EVAL_K, ranking_metrics
from .model import ChannelSet, EmbeddingState, PropagationOutput
from .train import train

LOGGER = logging.getLogger(__name__)

# Tie-breaks pick the LAST maximal class in this order.
CLASS_ORDER = ("NEG", "NEUTRAL", "POS")
STANCE_NUMERIC = {"NEG": 0.0, "NEUTRAL": 0.5, "POS": 1.0}


@dataclass
class StanceAnnotation:
    """Hashtags labeled by stance class, with optional usage counts.

    Labels are stored per class: a hashtag listed under two classes is kept
    in both (the parser warns), and each class mean is computed over its
    own list.
    """

    by_class: dict[str, tuple[str, ...]]
    usage: dict[str, float] = field(default_factory=dict)

    def tags(self) -> set[str]:
        return {t for tags in self.by_class.values() for t in tags}


def parse_annotations(lines) -> StanceAnnotation:
    """Parse 'hashtag<TAB>class' lines; hashtags are normalized."""
    by_class: dict[str, list[str]] = {c: [] for c in CLASS_ORDER}
    for line_no, line in enumerate(lines, 1):
        # no comment syntax here: a leading '#' is hashtag spelling
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise RecordError("expected 'hashtag<TAB>class'", line_no)
        tag, cls = parts[0].strip(), parts[1].strip().upper()
        if cls not in CLASS_ORDER:
            raise RecordError(f"unknown stance class {parts[1]!r}", line_no)
        tag = normalize_hashtag(tag, line_no)
        if tag not in by_class[cls]:
            by_class[cls].append(tag)
    listed = [t for tags in by_class.values() for t in tags]  # unique within a class
    overlap = sorted({t for t in listed if listed.count(t) > 1})
    if overlap:
        LOGGER.warning(
            "%d hashtags appear in more than one class: %s", len(overlap), ", ".join(overlap))
    return StanceAnnotation(by_class={c: tuple(v) for c, v in by_class.items() if v})


def load_annotations(path) -> StanceAnnotation:
    with open_text(path, strict=True) as lines:
        return parse_annotations(lines)


def bundled_annotations(name: str) -> StanceAnnotation:
    """Annotation sets shipped with the package: 'entry' or 'exit'."""
    if name not in ("entry", "exit"):
        raise ConfigError(f"no bundled annotation set named {name!r}")
    text = resources.files("stancegraph").joinpath(
        "data", f"annotations_{name}.tsv"
    ).read_text("utf-8")
    return parse_annotations(text.splitlines())


def with_usage(annotations: StanceAnnotation, counts: InteractionCounts) -> StanceAnnotation:
    """Attach total usage counts from a corpus to each annotated hashtag."""
    T = counts.T
    totals = np.bincount(T.indices, weights=T.data, minlength=len(counts.hashtags))
    index = {h: j for j, h in enumerate(counts.hashtags)}
    usage = {t: float(totals[index[t]]) if t in index else 0.0 for t in annotations.tags()}
    return StanceAnnotation(by_class=dict(annotations.by_class), usage=usage)


def stance_metrics(predicted: list[str], truth: list[str]) -> tuple[float, float]:
    """Accuracy and RMSE under the NEG=0, NEUTRAL=0.5, POS=1 embedding, of
    predictions and truths for one list of users."""
    if not predicted:
        raise StanceGraphError("no users to evaluate")
    correct = sum(1 for p, t in zip(predicted, truth) if p == t)
    sq = [
        (STANCE_NUMERIC[p] - STANCE_NUMERIC[t]) ** 2
        for p, t in zip(predicted, truth)
    ]
    return correct / len(predicted), float(np.sqrt(np.mean(sq)))


@dataclass
class HoldoutSplit:
    """User-level holdout: selected users lose every annotated edge."""

    train_graph: BipartiteGraph
    hidden: dict[int, dict[int, float]]  # user -> {hashtag column: original weight}
    holdout_users: tuple[int, ...]
    n_eligible: int


def holdout_split(
    graph: BipartiteGraph,
    annotations: StanceAnnotation,
    hashtags: list[str],
    fraction: float,
    rng: np.random.Generator,
) -> HoldoutSplit:
    """Hide all annotated-hashtag edges of a random user fraction.

    Eligible users have at least one annotated edge;
    held_out_count(fraction, count) of them are selected. Hidden weights
    keep their pre-split values; the remaining rows of selected users are
    renormalized. `hashtags` names the graph's columns.
    """
    tags = annotations.tags()
    annotated = np.array([h in tags for h in hashtags], dtype=bool)
    R = graph.R
    rows = _row_indices(R, np.int64)
    on_annotated = annotated[R.indices]
    eligible = np.unique(rows[on_annotated])
    if not len(eligible):
        raise StanceGraphError("no user interacts with an annotated hashtag")
    n_hold = held_out_count(fraction, len(eligible))
    chosen = rng.choice(len(eligible), size=n_hold, replace=False)
    holdout_users = tuple(int(u) for u in np.sort(eligible[chosen]))

    held = np.zeros(graph.n_users, dtype=bool)
    held[list(holdout_users)] = True
    take = on_annotated & held[rows]
    drop = np.column_stack([rows[take], R.indices[take].astype(np.int64)])
    hidden: dict[int, dict[int, float]] = {u: {} for u in holdout_users}
    for u, j, w in zip(drop[:, 0].tolist(), drop[:, 1].tolist(), R.data[take].tolist()):
        hidden[u][j] = w
    return HoldoutSplit(
        train_graph=graph_without_edges(graph, drop),
        hidden=hidden,
        holdout_users=holdout_users,
        n_eligible=len(eligible),
    )


def kfold_split(edges: np.ndarray, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random edge partition into validation folds, in edge order; each fold trains on the rest."""
    if edges.shape[0] < folds:
        raise ConfigError(f"{edges.shape[0]} edges cannot fill {folds} folds")
    perm = rng.permutation(edges.shape[0])
    return [edges[np.sort(part)] for part in np.array_split(perm, folds)]


def held_out_count(fraction: float, n: int) -> int:
    """ceil(fraction * n), taken in exact arithmetic on the fraction's
    decimal form (its shortest repr): 0.07 of 100 edges is 7, where the
    float product 7.000000000000001 would round up to 8."""
    # Imported here: fractions pulls in decimal, which only the train and
    # eval stage processes, the two that hold a share out, need.
    from fractions import Fraction

    return math.ceil(Fraction(repr(float(fraction))) * n)


def validation_edges(
    edges: np.ndarray, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """The first held_out_count(fraction, n) of a random permutation of the
    n edges, in edge order. At fraction 0.2 this is kfold_split's fold 0
    for 5 folds under the same generator state."""
    n = edges.shape[0]
    count = held_out_count(fraction, n)
    if count >= n:
        raise ConfigError(f"holding out {count} of {n} edges leaves none to train on")
    return edges[np.sort(rng.permutation(n)[:count])]


def graph_without_edges(graph: BipartiteGraph, removed: np.ndarray) -> BipartiteGraph:
    """The graph with the given (user, hashtag) edges removed.

    Only rows that lost an edge are rescaled to sum to 1 again; rows left
    empty stay zero.
    """
    keys = _flat_keys(graph.R)
    gone = _is_member(np.unique(removed[:, 0] * graph.n_hashtags + removed[:, 1]), keys)
    R = row_normalize(_kept(graph.R, ~gone), rows=np.unique(keys[gone] // graph.n_hashtags))
    return BipartiteGraph(R=R)


def null_model(
    n_users: int, n_hashtags: int, n_interactions: int, rng: np.random.Generator
) -> BipartiteGraph:
    """Uniform random interactions with replacement, row-normalized."""
    flat = rng.integers(0, n_users * n_hashtags, size=n_interactions)
    T = _unit_counts(flat // n_hashtags, flat % n_hashtags, (n_users, n_hashtags))
    return BipartiteGraph(R=row_normalize(T))


def _stances(values: np.ndarray, annotations: StanceAnnotation, index: dict[str, int],
             full_lists: bool) -> list[str]:
    """Each row's class: the highest mean over a class's hashtags present in
    `index` (columns of `values`), ties to the later class in CLASS_ORDER.
    With `full_lists`, as in the truth rule, a class divides by its full
    list size, so absent hashtags count 0; without, it divides by its
    present hashtags and one with none is left out. Each sum adds one
    column at a time from 0.0 in annotation order, so every mean equals
    tests/reference.py's per-user one bit for bit."""
    classes = []
    for cls in CLASS_ORDER:
        tags = annotations.by_class.get(cls, ())
        columns = [index[t] for t in tags if t in index]
        if full_lists and tags or columns:
            classes.append((cls, columns, len(tags) if full_lists else len(columns)))
        elif tags:
            LOGGER.warning("class %s has no scored hashtags; excluded", cls)
    if not classes:
        raise StanceGraphError("no class has a scored hashtag")
    best = np.full(len(values), -np.inf)
    label = np.empty(len(values), dtype=object)
    for cls, columns, divisor in classes:
        total = np.zeros(len(values))
        for j in columns:
            total += values[:, j]
        mean = total / divisor
        win = mean >= best
        best[win], label[win] = mean[win], cls
    return label.tolist()


def true_stances(
    hidden: dict[int, dict[int, float]], annotations: StanceAnnotation, hashtags: list[str]
) -> tuple[list[int], list[str]]:
    """The users of `hidden` with positive hidden weight on an annotated
    hashtag, in order, and each one's class by tests/reference.py's
    ground_truth_stance."""
    index = {h: j for j, h in enumerate(hashtags)}
    users = sorted(hidden)
    weights = np.zeros((len(users), len(hashtags)))
    for row, u in enumerate(users):
        weights[row, list(hidden[u])] = list(hidden[u].values())
    annotated = [index[t] for t in annotations.tags() if t in index]
    scored = (weights[:, annotated] > 0).any(axis=1)
    return ([u for u, s in zip(users, scored) if s],
            _stances(weights[scored], annotations, index, full_lists=True))


def predicted_stances(final_users: np.ndarray, final_hashtags: np.ndarray, users: list[int],
                      annotations: StanceAnnotation, hashtags: list[str]) -> list[str]:
    """Each of `users`' class by tests/reference.py's classify_stance."""
    # Stacked matrix-vector products: numpy runs one gemv per user, the
    # kernel of `final_hashtags @ final_users[u]`, so every score equals the
    # per-user one bit for bit; a single gemm sums in another order.
    scores = (final_hashtags @ final_users[users][:, :, None])[:, :, 0]
    return _stances(scores, annotations, {h: j for j, h in enumerate(hashtags)}, full_lists=False)


@dataclass
class FoldMetrics:
    fold: int
    recall: float
    ndcg: float
    accuracy: float
    rmse: float


@dataclass
class EvalReport:
    recall: float
    ndcg: float
    accuracy: float
    rmse: float
    accuracy_cold: float
    n_cold: int
    n_holdout_users: int
    n_scored: int
    n_eligible: int
    folds: list[FoldMetrics]


def write_report(report: EvalReport, report_path, folds_path) -> None:
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(f"recall@{EVAL_K}={report.recall:.6f}\n")
        fh.write(f"ndcg@{EVAL_K}={report.ndcg:.6f}\n")
        fh.write(f"accuracy={report.accuracy:.6f}\n")
        fh.write(f"rmse={report.rmse:.6f}\n")
        fh.write(f"accuracy_cold={report.accuracy_cold:.6f}\n")
        fh.write(f"n_cold={report.n_cold}\n")
        fh.write(f"n_holdout_users={report.n_holdout_users}\n")
        fh.write(f"n_scored={report.n_scored}\n")
        fh.write(f"n_eligible={report.n_eligible}\n")
        fh.write(f"n_folds={len(report.folds)}\n")
    with open(folds_path, "w", encoding="utf-8") as fh:
        fh.write(f"fold,recall@{EVAL_K},ndcg@{EVAL_K},accuracy,rmse\n")
        for row in report.folds:
            fh.write(
                f"{row.fold},{row.recall:.6f},{row.ndcg:.6f},"
                f"{row.accuracy:.6f},{row.rmse:.6f}\n"
            )


@dataclass(frozen=True)
class Variant:
    """One evaluated model: the graph it trains on, given the fold graph, a
    null-model draw count and rng, and the config it trains with, given the
    run's. Only a variant with `channels` is given the side channels and
    pretrained vectors: cmd_eval loads none for the others."""

    graph: Callable[[BipartiteGraph, int, np.random.Generator], BipartiteGraph]
    model: Callable[[RunConfig], RunConfig] = lambda cfg: cfg
    channels: bool = False


# The weighted model and its baselines: plain matrix factorization (no
# propagation), unweighted LightGCN (binarized interactions), and a null
# model trained on a random graph but ranked on the real split. The keys
# are config.VARIANT_NAMES, the names RunConfig accepts.
VARIANTS = {
    "wlgcn": Variant(graph=lambda g, n, rng: g, channels=True),
    "mf": Variant(graph=lambda g, n, rng: g, model=lambda cfg: replace(cfg, n_layers=0)),
    "lightgcn": Variant(graph=lambda g, n, rng: binarize(g)),
    "null": Variant(graph=lambda g, n, rng: null_model(g.n_users, g.n_hashtags, n, rng)),
}


@dataclass
class ProtocolResult:
    report: EvalReport
    state: EmbeddingState  # first fold's model
    propagated: EmbeddingState  # first fold's final embeddings
    split: HoldoutSplit
    fold0_val: np.ndarray  # first fold's validation edges
    fold0_history: list


def run_protocol(
    graph: BipartiteGraph,
    channels: ChannelSet,
    annotations: StanceAnnotation,
    counts: InteractionCounts,
    cfg: RunConfig,
    seed: int,
) -> ProtocolResult:
    """Full two-level evaluation.

    Per fold: train `cfg.variant` on its graph for the fold, rank validation
    edges against the candidates outside the fold's training positives, and
    classify the holdout users, both from the final embeddings train
    returns with its model. The holdout users' true stances and cold flags
    are fixed per split; `cfg.binary_stance` drops the NEUTRAL class, so users
    with NEUTRAL-only hidden usage are not scored. Returns the averaged
    report plus the first fold's model, its final embeddings and the split,
    for downstream artifacts. `graph` is that of `counts`, and the null
    variant draws their interaction volume. Every fold trains with
    `channels`; cmd_eval gives a variant without `channels` an empty set.
    `seed` is the eval stage's seed, derived from `cfg.seed` by the caller.
    """
    hashtags = counts.hashtags
    spec = VARIANTS[cfg.variant]
    fold_cfg = spec.model(cfg)
    n_draws = int(counts.T.data.sum())
    holdout_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    kfold_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))

    split = holdout_split(graph, annotations, hashtags, cfg.holdout_fraction, holdout_rng)
    val_folds = kfold_split(split.train_graph.edges(), cfg.folds, kfold_rng)
    if cfg.binary_stance:
        annotations = StanceAnnotation(
            by_class={c: v for c, v in annotations.by_class.items() if c != "NEUTRAL"})
    users, truth = true_stances(split.hidden, annotations, hashtags)
    cold = (np.diff(split.train_graph.R.indptr)[users] == 0).tolist()

    fold_rows: list[FoldMetrics] = []
    fold0: tuple[EmbeddingState, PropagationOutput, list] | None = None
    all_pred: list[str] = []
    for f, val_pairs in enumerate(val_folds):
        fold_graph = graph_without_edges(split.train_graph, val_pairs)
        fold_seed = int(
            np.random.SeedSequence(seed, spawn_key=(2, f)).generate_state(1)[0]
        )
        null_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, f)))
        variant_graph = spec.graph(fold_graph, n_draws, null_rng)
        state, history, out = train(variant_graph, channels, fold_cfg, val_pairs, fold_seed)
        if f == 0:
            fold0 = (state, out, history)

        recall, ndcg, _ = ranking_metrics(
            out.final_users, out.final_hashtags, fold_graph.R, val_pairs
        )

        pred = predicted_stances(out.final_users, out.final_hashtags, users, annotations,
                                 hashtags)
        accuracy, rmse = stance_metrics(pred, truth)
        all_pred.extend(pred)
        fold_rows.append(FoldMetrics(f, recall, ndcg, accuracy, rmse))
        LOGGER.info(
            "fold %d: recall %.4f ndcg %.4f accuracy %.4f rmse %.4f",
            f, recall, ndcg, accuracy, rmse,
        )

    all_truth = truth * len(fold_rows)
    accuracy, rmse = stance_metrics(all_pred, all_truth)
    cold_pairs = [(p, t) for p, t, c in zip(all_pred, all_truth, cold * len(fold_rows)) if c]
    acc_cold = stance_metrics(*zip(*cold_pairs))[0] if cold_pairs else float("nan")
    report = EvalReport(
        recall=float(np.mean([r.recall for r in fold_rows])),
        ndcg=float(np.mean([r.ndcg for r in fold_rows])),
        accuracy=accuracy,
        rmse=rmse,
        accuracy_cold=acc_cold,
        n_cold=sum(cold),
        n_holdout_users=len(split.holdout_users),
        n_scored=len(users),
        n_eligible=split.n_eligible,
        folds=fold_rows,
    )
    state, out, history = fold0
    return ProtocolResult(
        report=report,
        state=state,
        propagated=EmbeddingState(out.final_users, out.final_hashtags, state.seed),
        split=split,
        fold0_val=val_folds[0],
        fold0_history=history,
    )


def annotation_curve(
    final_users: np.ndarray,
    final_hashtags: np.ndarray,
    hashtags: list[str],
    hidden: dict[int, dict[int, float]],
    annotations: StanceAnnotation,
    x_values,
) -> list[tuple[int, float]]:
    """Stance accuracy when only the top-x most-used POS and NEG hashtags
    are treated as annotated.

    `hidden` maps each holdout user to their hidden edge weights by hashtag
    column. Ground truth is fixed at the full two-class annotation; users
    with no hidden POS or NEG usage are skipped. NEUTRAL never participates.
    POS and NEG hashtags are ranked by `annotations.usage` (with_usage).
    """
    ranked: dict[str, tuple[str, ...]] = {}
    for cls in ("POS", "NEG"):
        tags = annotations.by_class.get(cls, ())
        if not tags:
            raise ConfigError(f"annotation set has no {cls} hashtags")
        ranked[cls] = tuple(sorted(tags, key=lambda t: (-annotations.usage.get(t, 0.0), t)))
    max_x = min(len(tags) for tags in ranked.values())

    users, truths = true_stances(hidden, StanceAnnotation(by_class=ranked), hashtags)
    if not users:
        raise StanceGraphError("no holdout user has POS or NEG usage")

    curve = []
    for x in x_values:
        if x < 1 or x > max_x:
            raise ConfigError(f"x={x} outside [1, {max_x}]")
        top_x = StanceAnnotation(by_class={cls: tags[:x] for cls, tags in ranked.items()})
        predicted = predicted_stances(final_users, final_hashtags, users, top_x, hashtags)
        curve.append((x, stance_metrics(predicted, truths)[0]))
    return curve


@dataclass
class SynthData:
    counts: InteractionCounts
    annotations: StanceAnnotation
    planted: list[str]  # per-user true camp, index-aligned with counts.users


def synth_generate(cfg: RunConfig, rng: np.random.Generator) -> SynthData:
    """Generate a two-camp corpus.

    Users draw own-camp hashtags with probability p_in, other-camp with
    p_out, neutral otherwise; each draw is a retweet with retweet_rate.
    Mutual-follow edges appear with social_base_rate, boosted by the
    homophily factor inside a camp. Only the first annotated_per_camp
    hashtags of each camp are labeled, so holdout users keep unannotated
    own-camp edges.

    Draw order, a contract that fixes the corpus for a seed: for each user
    in turn, random(k) for the categories, random(k) for the kinds, then
    one integers(0, pool size) offset per interaction (k =
    interactions_per_user); then random(n - 1 - i) for each follow row i of
    the upper triangle, rows in order. That array draws give the values of
    the scalar draws they replace is a numpy implementation property;
    tests/test_eval.py compares against a scalar-loop reference, and that
    test is what catches a numpy release that breaks it.
    """
    n, m, k = cfg.n_users, cfg.n_hashtags, cfg.interactions_per_user
    n_pos_users = (n + 1) // 2
    camp_tags = m - cfg.n_neutral
    n_pos_tags = (camp_tags + 1) // 2
    users = [f"u{i:05d}" for i in range(n)]
    tags = [f"ht{j:05d}" for j in range(m)]
    planted = ["POS" if i < n_pos_users else "NEG" for i in range(n)]
    camp = (np.arange(n) >= n_pos_users).astype(np.intp)  # 0 POS, 1 NEG

    # [start, stop) of each camp's pools, in category order own, other, neutral
    pos, neg, neutral = (0, n_pos_tags), (n_pos_tags, camp_tags), (camp_tags, m)
    pools = np.array([[pos, neg, neutral], [neg, pos, neutral]], dtype=np.int64)
    pool_sizes = pools[..., 1] - pools[..., 0]
    cuts = np.array([cfg.p_in, cfg.p_in + cfg.p_out])
    category = np.empty((n, k), dtype=np.intp)
    offset = np.empty((n, k), dtype=np.int64)
    retweet = np.empty((n, k), dtype=bool)
    for i in range(n):
        category[i] = np.searchsorted(cuts, rng.random(k), side="right")
        retweet[i] = rng.random(k) < cfg.retweet_rate
        offset[i] = rng.integers(0, pool_sizes[camp[i], category[i]])
    rows = np.repeat(np.arange(n), k)
    cols = (pools[camp[:, None], category, 0] + offset).ravel()
    retweet = retweet.ravel()

    # threshold[c, j]: follow probability between a camp-c user and user j
    same = camp[None, :] == np.arange(2)[:, None]
    threshold = np.where(same, min(cfg.social_base_rate * cfg.homophily, 1.0),
                         min(cfg.social_base_rate, 1.0))
    followed = [np.flatnonzero(rng.random(n - 1 - i) < threshold[camp[i], i + 1:]) + (i + 1)
                for i in range(n - 1)]
    f_rows = np.repeat(np.arange(n - 1), [f.size for f in followed])
    f_cols = np.concatenate(followed)

    none = np.empty(0, dtype=np.int64)
    counts = InteractionCounts(
        users=users,
        hashtags=tags,
        T_tweet=_unit_counts(rows[~retweet], cols[~retweet], (n, m)),
        T_retweet=_unit_counts(rows[retweet], cols[retweet], (n, m)),
        T_reply=_unit_counts(none, none, (n, m)),
        mention=_unit_counts(none, none, (n, n)),
        reply=_unit_counts(none, none, (n, n)),
        # each follow pair (r < c) at (r, c) and at (c, r)
        mutual_follow=_unit_counts(np.concatenate([f_rows, f_cols]),
                                   np.concatenate([f_cols, f_rows]), (n, n)),
    )

    annotations = StanceAnnotation(
        by_class={
            "POS": tuple(tags[:n_pos_tags][: cfg.annotated_per_camp]),
            "NEG": tuple(tags[n_pos_tags:camp_tags][: cfg.annotated_per_camp]),
        }
    )
    annotations = with_usage(annotations, counts)

    return SynthData(counts=counts, annotations=annotations, planted=planted)


def save_annotations(annotations: StanceAnnotation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cls in CLASS_ORDER:
            for tag in annotations.by_class.get(cls, ()):
                fh.write(f"{tag}\t{cls}\n")


def save_planted(planted: list[str], users: list[str], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uid, cls in zip(users, planted):
            fh.write(f"{uid}\t{cls}\n")
