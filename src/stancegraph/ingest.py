"""Corpus ingestion: tweet parsing, user filtering, interaction counting.

Input is a JSON-lines tweet corpus plus tab-separated follow edges and an
optional list of news-outlet account ids. Output is an InteractionCounts
bundle: the user-hashtag count matrices and the user-user relation matrices
everything downstream is built from.
"""

from __future__ import annotations

import json
import logging
import re
import sys
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np
import scipy.sparse as sp

from .config import CorpusFilterConfig
from .errors import DegenerateHashtag, EmptyCorpus, RecordError, ShapeError

LOGGER = logging.getLogger(__name__)

KINDS = ("original", "retweet", "reply")

SECONDS_PER_DAY = 86400.0

HASHTAG_RE = re.compile(r"#(\w+)")

# User ids and hashtags become fields of line-based TSV outputs, so they may
# not hold a field or line separator; nor a lone surrogate, which has no
# UTF-8 encoding.
BAD_ID_CHARS = re.compile("[\t\r\n\ud800-\udfff]")


def _fold_chars(s: str) -> str:
    # Compatibility-decompose, drop combining marks, then casefold.
    s = unicodedata.normalize("NFKD", s)
    s = "".join(c for c in s if not unicodedata.combining(c))
    return s.casefold()


def normalize_hashtag(raw: str) -> str:
    """Canonicalize a hashtag string.

    Leading '#' characters are removed, the text is compatibility-decomposed
    with combining marks stripped, and the result is casefolded. Folding is
    iterated to a fixpoint because casefolding can reintroduce decomposable
    characters. Raises DegenerateHashtag when nothing is left.
    """
    s = raw.strip().lstrip("#")
    prev = None
    while s != prev:
        prev = s
        s = _fold_chars(s)
    if not s:
        raise DegenerateHashtag(f"hashtag {raw!r} normalizes to empty")
    return s


@dataclass(frozen=True, slots=True)
class TweetRecord:
    tweet_id: str
    user_id: str
    timestamp: float  # UTC seconds
    kind: str
    hashtags: tuple[str, ...] = ()
    ref_user_id: str | None = None
    mentions: tuple[str, ...] = ()


@dataclass
class Corpus:
    tweets: list[TweetRecord]
    follows: set[tuple[str, str]] = field(default_factory=set)
    outlets: frozenset[str] = frozenset()
    locations: dict[str, str] = field(default_factory=dict)


def _parse_timestamp(value: str) -> float:
    # ISO-8601; a trailing Z is normalized, naive times are taken as UTC.
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _parse_tweet_line(line: str, line_no: int,
                      normalized: dict[str, str]) -> tuple[TweetRecord, str | None]:
    """One record and its location. `normalized` maps each raw hashtag seen
    so far to its normalized form and is extended here, so each distinct raw
    hashtag is normalized once and the records share one string per
    hashtag. User ids and kinds are interned, so they are shared too."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"invalid JSON: {exc}", line_no) from exc
    if not isinstance(obj, dict):
        raise RecordError("record is not an object", line_no)
    try:
        tweet_id = str(obj["tweet_id"])
        user_id = sys.intern(str(obj["user_id"]))
        timestamp = _parse_timestamp(str(obj["timestamp"]))
        text = str(obj["text"])
        kind = sys.intern(str(obj["kind"]))
    except KeyError as exc:
        raise RecordError(f"missing key {exc.args[0]!r}", line_no) from exc
    except ValueError as exc:
        raise RecordError(f"bad timestamp: {exc}", line_no) from exc
    if kind not in KINDS:
        raise RecordError(f"unknown kind {kind!r}", line_no)

    raw_tags = obj.get("hashtags")
    if raw_tags is None:
        raw_tags = HASHTAG_RE.findall(text)
    tags = []
    for raw in raw_tags:
        raw = str(raw)
        tag = normalized.get(raw)
        if tag is None:
            try:
                tag = normalized[raw] = normalize_hashtag(raw)
            except DegenerateHashtag as exc:
                raise RecordError(str(exc), line_no) from exc
        tags.append(tag)

    checked_ids([user_id, *tags], "record", line_no)

    ref = obj.get("ref_user_id")
    mentions = tuple(sys.intern(str(m)) for m in obj.get("mentions", ()) or ())
    record = TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        timestamp=timestamp,
        kind=kind,
        hashtags=tuple(tags),
        ref_user_id=None if ref is None else sys.intern(str(ref)),
        mentions=mentions,
    )
    location = obj.get("location")
    return record, None if location is None else str(location)


def parse_corpus(tweet_lines, follow_lines=(), outlet_lines=(), *, strict: bool) -> Corpus:
    """Parse raw input streams into a Corpus.

    Malformed lines raise RecordError with their line number when strict,
    and are skipped with a warning otherwise. A repeated tweet_id keeps the
    last record seen.
    """
    by_id: dict[str, TweetRecord] = {}
    locations: dict[str, str] = {}
    normalized: dict[str, str] = {}
    for line_no, line in enumerate(tweet_lines, 1):
        if not line.strip():
            continue
        try:
            record, location = _parse_tweet_line(line, line_no, normalized)
        except RecordError as exc:
            if strict:
                raise
            LOGGER.warning("skipping tweet record: %s", exc)
            continue
        if record.tweet_id in by_id:
            LOGGER.warning("duplicate tweet_id %s; keeping last record", record.tweet_id)
        by_id[record.tweet_id] = record
        if location is not None:
            locations[record.user_id] = location

    follows: set[tuple[str, str]] = set()
    for line_no, line in enumerate(follow_lines, 1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            if strict:
                raise RecordError("expected 'follower<TAB>followee'", line_no)
            LOGGER.warning("skipping follow edge on line %d", line_no)
            continue
        follows.add((parts[0].strip(), parts[1].strip()))

    outlets = frozenset(line.strip() for line in outlet_lines if line.strip())
    return Corpus(tweets=list(by_id.values()), follows=follows, outlets=outlets, locations=locations)


def apply_filters(corpus: Corpus, cfg: CorpusFilterConfig) -> Corpus:
    """Drop users that exceed rate or outlet thresholds, or sit outside the
    location allowlist when one is set (comma-separated; "" disables it).
    Tweets of dropped users are removed; follow edges touching them are
    pruned."""
    first_ts: dict[str, float] = {}
    last_ts: dict[str, float] = {}
    n_tweets: dict[str, int] = {}
    for t in corpus.tweets:
        n_tweets[t.user_id] = n_tweets.get(t.user_id, 0) + 1
        first_ts[t.user_id] = min(first_ts.get(t.user_id, t.timestamp), t.timestamp)
        last_ts[t.user_id] = max(last_ts.get(t.user_id, t.timestamp), t.timestamp)

    outlets_followed: dict[str, int] = {}
    if corpus.outlets:
        for follower, followee in corpus.follows:
            if followee in corpus.outlets:
                outlets_followed[follower] = outlets_followed.get(follower, 0) + 1

    names = [s.strip() for s in cfg.location_allowlist.split(",")]
    allow = {_fold_chars(s) for s in names if s} or None

    removed: set[str] = set()
    for user, count in n_tweets.items():
        # Activity span is clamped to one day so single-day users get a rate.
        span_days = max((last_ts[user] - first_ts[user]) / SECONDS_PER_DAY, 1.0)
        if count / span_days > cfg.max_avg_daily_tweets:
            removed.add(user)
            continue
        if outlets_followed.get(user, 0) > cfg.max_outlets_followed:
            removed.add(user)
            continue
        if allow is not None:
            loc = corpus.locations.get(user)
            if loc is None or _fold_chars(loc) not in allow:
                removed.add(user)

    if removed:
        LOGGER.info("filters removed %d of %d users", len(removed), len(n_tweets))
    tweets = [t for t in corpus.tweets if t.user_id not in removed]
    follows = {(a, b) for a, b in corpus.follows if a not in removed and b not in removed}
    locations = {u: loc for u, loc in corpus.locations.items() if u not in removed}
    return Corpus(tweets=tweets, follows=follows, outlets=corpus.outlets, locations=locations)


@dataclass
class InteractionCounts:
    """Count matrices extracted from a corpus.

    T splits by tweet kind: T = T_tweet + T_retweet + T_reply. The user-user
    matrices hold directed mention and reply counts and the symmetric 0/1
    mutual-follow indicator, all restricted to in-corpus users.
    """

    users: list[str]
    hashtags: list[str]
    T: sp.csr_matrix
    T_tweet: sp.csr_matrix
    T_retweet: sp.csr_matrix
    T_reply: sp.csr_matrix
    mention: sp.csr_matrix
    reply: sp.csr_matrix
    mutual_follow: sp.csr_matrix

    def relation(self, name: str) -> sp.csr_matrix:
        table = {"tweet": self.T_tweet, "retweet": self.T_retweet, "reply": self.T_reply}
        if name not in table:
            raise KeyError(f"unknown relation {name!r}")
        return table[name]

    def validate(self) -> None:
        n, m = len(self.users), len(self.hashtags)
        for mat in (self.T, self.T_tweet, self.T_retweet, self.T_reply):
            if mat.shape != (n, m):
                raise ShapeError(f"hashtag count matrix is {mat.shape}, want {(n, m)}")
        for mat in (self.mention, self.reply, self.mutual_follow):
            if mat.shape != (n, n):
                raise ShapeError(f"user relation matrix is {mat.shape}, want {(n, n)}")
        total = self.T_tweet + self.T_retweet + self.T_reply
        if abs(self.T - total).sum() != 0.0:
            raise ShapeError("T is not the sum of T_tweet, T_retweet and T_reply")
        if not (self.T.data >= 0).all():
            raise ShapeError("negative interaction count")
        if not is_symmetric(self.mutual_follow):
            raise ShapeError("mutual_follow is not symmetric")


def is_symmetric(M: sp.csr_matrix) -> bool:
    """Whether the square matrix M equals its transpose, by the verdict of
    abs(M - M.T).sum() == 0: a stored zero counts as absent and a
    non-finite value (once duplicates are summed) as asymmetric. Only the
    transpose is formed, and compared with M array by array; M is copied
    first only if it holds duplicates, unsorted indices or stored zeros."""
    M = sp.csr_matrix(M)
    if not M.has_canonical_format or not M.data.all():
        M = M.copy()
        M.sum_duplicates()
        M.eliminate_zeros()
    if not np.isfinite(M.data).all():
        return False
    T = M.T.tocsr()
    return (np.array_equal(M.indptr, T.indptr) and np.array_equal(M.indices, T.indices)
            and np.array_equal(M.data, T.data))


def _unit_counts(rows, cols, shape) -> sp.csr_matrix:
    """CSR with one count per (row, col) pair, duplicates summed and
    indices sorted."""
    mat = sp.csr_matrix((np.ones(len(rows)), (np.asarray(rows, dtype=np.int64),
                                              np.asarray(cols, dtype=np.int64))), shape=shape)
    mat.sum_duplicates()
    return mat


def extract_interactions(corpus: Corpus) -> InteractionCounts:
    """Count hashtag usages per user and kind, plus user-user relations.

    Each usage or relation is one (row, column) pair in a flat index list;
    _unit_counts sums the repeats."""
    if not corpus.tweets:
        raise EmptyCorpus("no tweets to extract interactions from")
    users = sorted({t.user_id for t in corpus.tweets})
    tags = sorted({h for t in corpus.tweets for h in t.hashtags})
    if not tags:
        raise EmptyCorpus("no hashtags in corpus")
    uidx = {u: i for i, u in enumerate(users)}
    hidx = {h: j for j, h in enumerate(tags)}

    by_kind = {kind: ([], []) for kind in KINDS}
    mention: tuple[list[int], list[int]] = ([], [])
    reply_edges: tuple[list[int], list[int]] = ([], [])
    for t in corpus.tweets:
        i = uidx[t.user_id]
        rows, cols = by_kind[t.kind]
        for h in t.hashtags:
            rows.append(i)
            cols.append(hidx[h])
        for m in t.mentions:
            if m in uidx:
                mention[0].append(i)
                mention[1].append(uidx[m])
        if t.kind == "reply" and t.ref_user_id in uidx:
            reply_edges[0].append(i)
            reply_edges[1].append(uidx[t.ref_user_id])

    mutual: tuple[list[int], list[int]] = ([], [])
    for a, b in corpus.follows:
        if a in uidx and b in uidx and (b, a) in corpus.follows and a != b:
            mutual[0].append(uidx[a])
            mutual[1].append(uidx[b])

    n, m = len(users), len(tags)
    t_tweet = _unit_counts(*by_kind["original"], (n, m))
    t_retweet = _unit_counts(*by_kind["retweet"], (n, m))
    t_reply = _unit_counts(*by_kind["reply"], (n, m))
    counts = InteractionCounts(
        users=users,
        hashtags=tags,
        T=(t_tweet + t_retweet + t_reply).tocsr(),
        T_tweet=t_tweet,
        T_retweet=t_retweet,
        T_reply=t_reply,
        mention=_unit_counts(*mention, (n, n)),
        reply=_unit_counts(*reply_edges, (n, n)),
        mutual_follow=_unit_counts(*mutual, (n, n)),
    )
    counts.validate()
    return counts


COUNT_MATRICES = ("T_tweet", "T_retweet", "T_reply", "mention", "reply", "mutual_follow")
# Array entries per json.dumps call in save_counts.
JSON_SLICE = 65536


def checked_ids(ids, source, line_no: int | None = None) -> list[str]:
    """`ids` if it is a list of strings none of which holds a tab, CR, LF or
    lone surrogate; RecordError otherwise. `source` names the file in the
    error message."""
    if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
        raise RecordError(f"{source}: id lists must hold strings", line_no)
    for x in ids:
        if BAD_ID_CHARS.search(x):
            raise RecordError(f"{source}: id {x!r} holds a tab, line break or surrogate",
                              line_no)
    return ids


def checked_csr(indptr, indices, data, shape, source) -> sp.csr_matrix:
    """CSR matrix from arrays read out of a file, refused with RecordError
    unless they form a canonical matrix of `shape`.

    indptr must run from 0 to nnz without decreasing, column indices must
    lie in range and strictly increase within each row, and every value
    must be finite. `source` names the file in the error message.
    """
    n, m = shape
    nnz = len(indices)
    if len(indptr) != n + 1 or len(data) != nnz:
        raise RecordError(f"{source}: array lengths do not match the shape")
    if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
        raise RecordError(f"{source}: bad row pointers")
    if nnz and (indices.min() < 0 or indices.max() >= m):
        raise RecordError(f"{source}: column index out of range")
    # A step between two entries of one row must move to a larger column.
    row_start = np.zeros(nnz + 1, dtype=bool)
    row_start[indptr] = True
    if not (indices[1:] > indices[:-1])[~row_start[1:nnz]].all():
        raise RecordError(f"{source}: column indices not sorted and unique within a row")
    if not np.isfinite(data).all():
        raise RecordError(f"{source}: non-finite value")
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _write_columns(fh, mat: sp.spmatrix, dumps) -> None:
    """Write mat as the CSR columns object {"indptr", "indices", "data"}.

    Each array goes out JSON_SLICE entries at a time, so only one slice is
    ever a Python list; the bytes equal dumps() of the whole-array lists."""
    csr = sp.csr_matrix(mat, dtype=np.float64, copy=True)
    csr.sum_duplicates()
    for sep, key in (("{", "indptr"), (",", "indices"), (",", "data")):
        arr = getattr(csr, key)
        fh.write(f'{sep}"{key}":[')
        for start in range(0, arr.size, JSON_SLICE):
            fh.write(("," if start else "") + dumps(arr[start:start + JSON_SLICE].tolist())[1:-1])
        fh.write("]")
    fh.write("}")


def _column_array(values, kinds: str, source: str) -> np.ndarray:
    try:
        arr = np.array(values)
    except ValueError as exc:
        raise RecordError(f"{source}: bad matrix columns") from exc
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds):
        raise RecordError(f"{source}: bad matrix columns")
    return arr


def _from_columns(columns, shape, source: str) -> sp.csr_matrix:
    if not isinstance(columns, dict) or set(columns) != {"indptr", "indices", "data"}:
        raise RecordError(f"{source}: bad matrix columns")
    mat = checked_csr(
        _column_array(columns["indptr"], "iu", source).astype(np.int64),
        _column_array(columns["indices"], "iu", source).astype(np.int64),
        _column_array(columns["data"], "iuf", source).astype(np.float64),
        shape,
        source,
    )
    if mat.nnz and mat.data.min() < 0:
        raise RecordError(f"{source}: negative count")
    return mat


def save_counts(counts: InteractionCounts, path) -> None:
    """JSON with the id lists and each count matrix as CSR columns
    {"indptr", "indices", "data"}; T is not stored, being the sum of the
    three per-kind matrices."""
    dumps = partial(json.dumps, ensure_ascii=False, separators=(",", ":"))
    # One json.dumps per id list and per array slice: that runs the C encoder
    # (json.dump to a file runs the pure-Python one) without holding the
    # whole document, or a whole array as Python objects, in memory.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"users":' + dumps(counts.users) + ',"hashtags":' + dumps(counts.hashtags))
        for name in COUNT_MATRICES:
            fh.write(f',"{name}":')
            _write_columns(fh, getattr(counts, name), dumps)
        fh.write("}\n")


def load_counts(path) -> InteractionCounts:
    """Read save_counts' file. Undecodable JSON, a missing key, an id list
    that checked_ids refuses, bad matrix columns and negative or non-finite
    counts raise RecordError; matrices that disagree with each other raise
    ShapeError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RecordError(f"{path}: not a counts file ({exc})") from exc
    if not isinstance(payload, dict):
        raise RecordError(f"{path}: not a counts file")
    missing = [k for k in ("users", "hashtags") + COUNT_MATRICES if k not in payload]
    if missing:
        raise RecordError(f"{path}: missing key {missing[0]!r}")
    users = checked_ids(payload["users"], path)
    tags = checked_ids(payload["hashtags"], path)
    n, m = len(users), len(tags)
    mats = {
        name: _from_columns(payload[name], (n, m) if name.startswith("T_") else (n, n),
                            f"{path} {name}")
        for name in COUNT_MATRICES
    }
    counts = InteractionCounts(
        users=users,
        hashtags=tags,
        T=(mats["T_tweet"] + mats["T_retweet"] + mats["T_reply"]).tocsr(),
        **mats,
    )
    counts.validate()
    return counts
