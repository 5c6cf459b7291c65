"""Command line entry points for the full pipeline.

Subcommands: ingest, build, train, eval, curve, synth. Every command takes
--config (key=value file) plus flags for individual keys; flags win. Exit
codes: 0 ok, 2 bad configuration, 3 parse failure, 4 missing file, 5 other
domain errors.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import logging
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, config_lines, resolve, stage_rng, stage_seed
from .errors import (
    BoundsError,
    ConfigError,
    RecordError,
    ShapeError,
    StanceGraphError,
    open_text,
)
from .evaluate import (
    VARIANTS,
    HoldoutSplit,
    annotation_curve,
    bundled_annotations,
    graph_without_edges,
    load_annotations,
    run_protocol,
    save_annotations,
    save_planted,
    synth_generate,
    validation_edges,
    with_usage,
    write_report,
)
from .graphs import (
    build_interaction_graph,
    build_social_graph,
    compute_pathsim,
    load_bipartite,
    load_user_graph,
    normalize_user_graph,
    save_matrix_coo,
    sparsify,
)
from .ingest import (
    apply_filters,
    extract_interactions,
    load_counts,
    parse_corpus,
    save_counts,
)
from .metrics import EVAL_K
from .model import load_checkpoint, load_pretrained_vectors, save_checkpoint, user_channels
from .train import save_history, train

LOGGER = logging.getLogger(__name__)

_CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)]


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.type == "bool":
            sub.add_argument(flag, dest=field.name, default=None,
                             action=argparse.BooleanOptionalAction)
        else:
            sub.add_argument(flag, dest=field.name, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stancegraph",
        description="Stance inference over weighted user-hashtag graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a tweet corpus into interaction counts")
    p.add_argument("--tweets", required=True, help="JSON-lines tweet file")
    p.add_argument("--follows", help="tab-separated follower/followee pairs")
    p.add_argument("--outlets", help="news outlet account ids, one per line")
    p.add_argument("--out", required=True, help="output counts.json path")
    _add_config_flags(p)

    p = sub.add_parser("build", help="build and serialize the graphs")
    p.add_argument("--counts", required=True, help="counts.json from ingest")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_config_flags(p)

    p = sub.add_parser("train", help="train embeddings on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory with counts.json")
    p.add_argument("--out", required=True, help="output directory for checkpoint and history")
    p.add_argument("--pretrained", help="hashtag vector file")
    _add_config_flags(p)

    p = sub.add_parser("eval", help="run the holdout plus cross-validation protocol")
    p.add_argument("--data", required=True, help="dataset directory with counts.json")
    p.add_argument("--annotations", help="hashtag annotation TSV")
    p.add_argument("--bundled", choices=("entry", "exit"), help="bundled annotation set")
    p.add_argument("--out", required=True, help="output directory for the report")
    p.add_argument("--pretrained", help="hashtag vector file")
    _add_config_flags(p)

    p = sub.add_parser("curve", help="annotation-effort accuracy curve")
    p.add_argument("--data", required=True, help="dataset directory with counts.json")
    p.add_argument("--eval-dir", required=True, help="output directory of a prior eval run")
    p.add_argument("--annotations", help="hashtag annotation TSV")
    p.add_argument("--bundled", choices=("entry", "exit"), help="bundled annotation set")
    p.add_argument("--out", required=True, help="output curve CSV path")
    _add_config_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic two-camp dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_config_flags(p)

    return parser


def _normalized_user_graph(data: Path, kind: str, n_users: int):
    """<kind>.coo normalized; the loaded graph is dropped on return."""
    graph = load_user_graph(data / f"{kind}.coo", kind=kind)
    if graph.n_users != n_users:
        raise ShapeError(f"{kind}.coo does not match counts.json")
    return normalize_user_graph(graph)


def _load_dataset(data_dir, cfg: RunConfig, pretrained_path=None):
    """Counts plus the graphs `build` wrote, and the pretrained hashtag
    vectors when a file is given. `use_social`/`use_pathsim` choose the
    user graphs loaded, which only the user operator built for `n_layers`
    outlives; a missing graph file is a missing input (exit 4), never
    rebuilt here."""
    data = Path(data_dir)
    counts = load_counts(data / "counts.json")
    graph = load_bipartite(data / "bipartite.coo")
    if graph.n_users != len(counts.users) or graph.n_hashtags != len(counts.hashtags):
        raise ShapeError("bipartite.coo does not match counts.json")
    ops = [_normalized_user_graph(data, kind, graph.n_users)
           for kind, used in (("social", cfg.use_social), ("pathsim", cfg.use_pathsim)) if used]
    pretrained = None
    if pretrained_path is not None:
        pretrained = load_pretrained_vectors(pretrained_path, counts.hashtags, cfg.dim)
    return counts, graph, user_channels(ops, cfg.n_layers, pretrained)


def _load_annotation_arg(args):
    if getattr(args, "annotations", None) and getattr(args, "bundled", None):
        raise ConfigError("give either --annotations or --bundled, not both")
    if getattr(args, "annotations", None):
        ann = load_annotations(args.annotations)
    elif getattr(args, "bundled", None):
        ann = bundled_annotations(args.bundled)
    else:
        raise ConfigError("an annotation set is required (--annotations or --bundled)")
    if not ann.tags():
        raise ConfigError("annotation set has no hashtags")
    return ann


def cmd_ingest(args, cfg: RunConfig) -> int:
    with contextlib.ExitStack() as stack:
        lines = [stack.enter_context(open_text(path, strict=cfg.strict_parse)) if path else ()
                 for path in (args.tweets, args.follows, args.outlets)]
        corpus = parse_corpus(*lines, strict=cfg.strict_parse)
    corpus = apply_filters(corpus, cfg)
    counts = extract_interactions(corpus)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_counts(counts, args.out)
    print(
        f"ingest: {len(counts.users)} users, {len(counts.hashtags)} hashtags, "
        f"{int(counts.T.data.sum())} interactions -> {args.out}"
    )
    return 0


def cmd_build(args, cfg: RunConfig) -> int:
    counts = load_counts(args.counts)
    # Every graph is built first, so a refused key writes no file.
    graph = build_interaction_graph(counts)
    social = build_social_graph(counts, cfg)
    pathsim = sparsify(compute_pathsim(counts, cfg), cfg.pathsim_min_weight, cfg.pathsim_top_k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # load_counts validated the file, so its bytes are copied, not re-encoded.
    try:
        shutil.copyfile(args.counts, out / "counts.json")
    except shutil.SameFileError:
        pass
    save_matrix_coo(graph.R, out / "bipartite.coo")
    save_matrix_coo(social.W, out / "social.coo")
    save_matrix_coo(pathsim.W, out / "pathsim.coo")
    print(
        f"build: bipartite {graph.R.nnz} edges, social {social.W.nnz} edges, "
        f"pathsim {pathsim.W.nnz} edges -> {out}"
    )
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    counts, graph, channels = _load_dataset(args.data, cfg, args.pretrained)
    val_pairs = validation_edges(graph.edges(), cfg.val_fraction, stage_rng(cfg.seed, "train"))
    train_graph = graph_without_edges(graph, val_pairs)
    t0 = time.perf_counter()
    state, history, _ = train(train_graph, channels, cfg, cfg, val_pairs,
                              seed=stage_seed(cfg.seed, "train"))
    train_s = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.bin", state, counts.users, counts.hashtags)
    save_history(history, out / "history.csv")
    best = max((r.recall for r in history if np.isfinite(r.recall)), default=float("nan"))
    print(
        f"train: {len(history)} epochs in {train_s:.2f} s, best recall@{EVAL_K} {best:.4f} "
        f"-> {out}"
    )
    return 0


def _write_hidden(split: HoldoutSplit, users, hashtags, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in split.holdout_users:
            for j in sorted(split.hidden[u]):
                fh.write(f"{users[u]}\t{hashtags[j]}\t{split.hidden[u][j]:.17g}\n")


def _write_pairs(pairs: np.ndarray, users, hashtags, path) -> None:
    """The (user, hashtag) rows of `pairs` as id lines, by user then hashtag index."""
    rows = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for u, j in rows:
            fh.write(f"{users[u]}\t{hashtags[j]}\n")


def cmd_eval(args, cfg: RunConfig) -> int:
    spec = VARIANTS[cfg.variant]
    pretrained = args.pretrained
    ignored = [name for name, given in (("social.coo", cfg.use_social),
                                        ("pathsim.coo", cfg.use_pathsim),
                                        (f"--pretrained {pretrained}", pretrained)) if given]
    if ignored and not spec.channels:
        # a warning, not an error: a baseline table passes one flag set to every variant
        LOGGER.warning("variant %s uses no side channels; ignoring %s",
                       cfg.variant, ", ".join(ignored))
        cfg, pretrained = dataclasses.replace(cfg, use_social=False, use_pathsim=False), None
    # Annotations first: a bad file is refused before the user operator is built.
    annotations = _load_annotation_arg(args)
    counts, graph, channels = _load_dataset(args.data, cfg, pretrained)
    result = run_protocol(graph, channels, with_usage(annotations, counts), counts.hashtags, cfg,
                          stage_seed(cfg.seed, "eval"),
                          null_interactions=int(counts.T.data.sum()))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(result.report, out / "report.txt", out / "folds.csv")
    save_checkpoint(out / "checkpoint.bin", result.state, counts.users, counts.hashtags)
    save_checkpoint(out / "propagated.bin", result.propagated, counts.users, counts.hashtags)
    _write_hidden(result.split, counts.users, counts.hashtags, out / "hidden.tsv")
    _write_pairs(result.fold0_val, counts.users, counts.hashtags, out / "val.tsv")
    r = result.report
    print(
        f"eval[{cfg.variant}]: recall@{EVAL_K} {r.recall:.4f} ndcg@{EVAL_K} {r.ndcg:.4f} "
        f"accuracy {r.accuracy:.4f} rmse {r.rmse:.4f} -> {out}"
    )
    return 0


def cmd_curve(args, cfg: RunConfig) -> int:
    """The effort curve from the fold-0 embeddings an eval run wrote, so
    it always reads the variant, graph and channels that eval used."""
    counts = load_counts(Path(args.data) / "counts.json")
    annotations = with_usage(_load_annotation_arg(args), counts)
    eval_dir = Path(args.eval_dir)
    emb, user_ids, tag_ids = load_checkpoint(eval_dir / "propagated.bin")
    if user_ids != counts.users or tag_ids != counts.hashtags:
        raise ShapeError("propagated embedding index does not match the dataset")

    uidx = {u: i for i, u in enumerate(counts.users)}
    hidx = {h: j for j, h in enumerate(counts.hashtags)}
    hidden: dict[int, dict[int, float]] = {}
    with open_text(eval_dir / "hidden.tsv", strict=True) as lines:
        for line_no, line in enumerate(lines, 1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise RecordError("expected 'user<TAB>hashtag<TAB>weight'", line_no)
            if parts[0] not in uidx or parts[1] not in hidx:
                raise RecordError(f"unknown id in hidden edge {parts[:2]}", line_no)
            try:
                weight = float(parts[2])
            except ValueError:
                weight = np.nan
            if not 0 <= weight < np.inf:
                raise RecordError(f"hidden edge weight {parts[2]!r} is not finite and >= 0",
                                  line_no)
            row, j = hidden.setdefault(uidx[parts[0]], {}), hidx[parts[1]]
            if j in row:
                raise RecordError(f"repeated hidden edge {parts[:2]}", line_no)
            row[j] = weight
    curve = annotation_curve(
        emb.users, emb.hashtags, counts.hashtags, hidden, annotations,
        range(1, cfg.x_max + 1),
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("x,accuracy\n")
        for x, acc in curve:
            fh.write(f"{x},{acc:.6f}\n")
    print(f"curve: {len(curve)} points -> {out_path}")
    return 0


def cmd_synth(args, cfg: RunConfig) -> int:
    data = synth_generate(cfg, stage_rng(cfg.seed, "synth"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_counts(data.counts, out / "counts.json")
    save_annotations(data.annotations, out / "annotations.tsv")
    save_planted(data.planted, data.counts.users, out / "planted.tsv")
    print(
        f"synth: {len(data.counts.users)} users, {len(data.counts.hashtags)} hashtags, "
        f"{int(data.counts.T.data.sum())} interactions -> {out}"
    )
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "build": cmd_build,
    "train": cmd_train,
    "eval": cmd_eval,
    "curve": cmd_curve,
    "synth": cmd_synth,
}


def _fail(exc: Exception, code: int) -> int:
    msg = str(exc).replace("\n", " ")
    print(f"error kind={type(exc).__name__} exit={code}: {msg}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("train", "eval"):
        # These commands load graphs and train on them, and graphs.py
        # imports scipy.sparse on first use (build works on NumPy CSR
        # arrays alone). Imported here, before the freeze, its objects are
        # frozen with the others; imported after it, every later
        # collection would scan them.
        import scipy.sparse  # noqa: F401
    # Move the objects the imports left tracked into the permanent
    # generation: the full collections during the run and the one at
    # interpreter exit then skip them, which saves ~20 ms per stage process.
    # Only the first call freezes. Frozen cyclic garbage is never freed, and
    # a process that calls main again (a test run) would freeze what each
    # earlier call left behind.
    if not gc.get_freeze_count():
        gc.freeze()
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        overrides = {
            key: getattr(args, key)
            for key in _CONFIG_KEYS
            if getattr(args, key, None) is not None
        }
        cfg = resolve(getattr(args, "config", None), overrides)
        for line in config_lines(cfg):
            print(f"[config] {line}")
        return COMMANDS[args.command](args, cfg)
    except (ConfigError, BoundsError) as exc:
        return _fail(exc, 2)
    except RecordError as exc:
        return _fail(exc, 3)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        return _fail(exc, 4)
    except StanceGraphError as exc:
        return _fail(exc, 5)


if __name__ == "__main__":
    sys.exit(main())
