"""Corpus ingestion: tweet parsing, user filtering, interaction counting.

Input is a JSON-lines tweet corpus plus tab-separated follow edges and an
optional list of news-outlet account ids. Output is an InteractionCounts
bundle: the user-hashtag count matrices and the user-user relation matrices
everything downstream is built from. The binary container that counts.json,
the graph files and the checkpoints share is read and written here too.
"""

from __future__ import annotations

import json
import logging
import os
import re
import struct
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from typing import Callable

import numpy as np

from .config import RunConfig
from .errors import RecordError, StanceGraphError, skip_line

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


def normalize_hashtag(raw: str, line_no: int) -> str:
    """Canonicalize a hashtag string.

    Leading '#' characters are removed, the text is compatibility-decomposed
    with combining marks stripped, and the result is casefolded. Folding is
    iterated to a fixpoint because casefolding can reintroduce decomposable
    characters. Raises RecordError for line `line_no` when nothing is left.
    """
    s = raw.strip().lstrip("#")
    prev = None
    while s != prev:
        prev = s
        s = _fold_chars(s)
    if not s:
        raise RecordError(f"hashtag {raw!r} normalizes to empty", line_no)
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


def _string_list(obj: dict, key: str, line_no: int) -> list[str] | None:
    """obj[key] if it is a list of strings, None if it is absent or null;
    RecordError otherwise."""
    value = obj.get(key)
    if value is not None and not (isinstance(value, list)
                                  and all(isinstance(x, str) for x in value)):
        raise RecordError(f"{key} must be a list of strings", line_no)
    return value


def _string(obj: dict, key: str, line_no: int, *, ids: bool = False) -> str:
    """obj[key] if it is a string; with `ids`, an integer (not a boolean)
    too, as its decimal string. RecordError for any other value."""
    value = obj[key]
    if isinstance(value, str) or ids and type(value) is int:
        return str(value)
    raise RecordError(f"{key} must be a string{' or an integer' if ids else ''}", line_no)


def _parse_tweet_line(line: str, line_no: int, normalized: dict[str, str],
                      checked: set[str]) -> tuple[TweetRecord, str | None]:
    """One record and its location. `normalized` maps each raw hashtag seen
    so far to its normalized form and is extended here, so each distinct raw
    hashtag is normalized once and the records share one string per
    hashtag. User ids and kinds are interned, so they are shared too.
    `checked` holds the user ids and hashtags that checked_ids passed on
    earlier lines; an id is checked until it passes, so a bad one is
    refused on every line it appears on."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also a 5,000-digit integer, deep nesting
        raise RecordError(f"invalid JSON: {exc}", line_no) from exc
    if not isinstance(obj, dict):
        raise RecordError("record is not an object", line_no)
    try:
        tweet_id = _string(obj, "tweet_id", line_no, ids=True)
        user_id = sys.intern(_string(obj, "user_id", line_no, ids=True))
        timestamp = _parse_timestamp(_string(obj, "timestamp", line_no))
        text = _string(obj, "text", line_no)
        kind = sys.intern(_string(obj, "kind", line_no))
    except KeyError as exc:
        raise RecordError(f"missing key {exc.args[0]!r}", line_no) from exc
    except ValueError as exc:
        raise RecordError(f"bad timestamp: {exc}", line_no) from exc
    if kind not in KINDS:
        raise RecordError(f"unknown kind {kind!r}", line_no)

    raw_tags = _string_list(obj, "hashtags", line_no)
    if raw_tags is None:
        raw_tags = HASHTAG_RE.findall(text)
    tags = []
    for raw in raw_tags:
        tag = normalized.get(raw)
        if tag is None:
            tag = normalized[raw] = normalize_hashtag(raw, line_no)
        tags.append(tag)

    fresh = [x for x in (user_id, *tags) if x not in checked]
    if fresh:
        checked.update(checked_ids(fresh, "record", line_no))

    ref = obj.get("ref_user_id")
    if ref is not None:
        ref = sys.intern(_string(obj, "ref_user_id", line_no, ids=True))
    mentions = tuple(map(sys.intern, _string_list(obj, "mentions", line_no) or ()))
    record = TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        timestamp=timestamp,
        kind=kind,
        hashtags=tuple(tags),
        ref_user_id=ref,
        mentions=mentions,
    )
    location = obj.get("location")
    return record, None if location is None else _string(obj, "location", line_no)


def parse_corpus(tweet_lines, follow_lines=(), outlet_lines=(), *, strict: bool) -> Corpus:
    """Parse raw input streams into a Corpus.

    Malformed lines raise RecordError with their line number when strict,
    and are skipped with a warning otherwise. A repeated tweet_id keeps the
    last record seen.
    """
    by_id: dict[str, TweetRecord] = {}
    locations: dict[str, str] = {}
    normalized: dict[str, str] = {}
    checked: set[str] = set()
    for line_no, line in enumerate(tweet_lines, 1):
        if not line.strip():
            continue
        try:
            record, location = _parse_tweet_line(line, line_no, normalized, checked)
        except RecordError as exc:
            if strict:
                raise
            skip_line(exc)
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
            exc = RecordError("expected 'follower<TAB>followee'", line_no)
            if strict:
                raise exc
            skip_line(exc)
            continue
        follows.add((parts[0].strip(), parts[1].strip()))

    outlets = frozenset(line.strip() for line in outlet_lines if line.strip())
    return Corpus(tweets=list(by_id.values()), follows=follows, outlets=outlets, locations=locations)


def apply_filters(corpus: Corpus, cfg: RunConfig) -> Corpus:
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


@dataclass(frozen=True)
class CSRArrays:
    """A sparse matrix as its CSR arrays: row i holds the columns
    indices[indptr[i]:indptr[i + 1]] with the values at the same slice of
    data. The count matrices are canonical (column indices strictly
    increase within a row) with int32 indices and float64 data, the form
    the counts and graph files store; graphs.to_scipy wraps them without a
    copy, as scipy keeps that index dtype."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)


# The dtypes of a CSR matrix's indptr, indices and data, in memory, in
# counts.json (COUNTS) and in the graph files (graphs.GRAPH).
CSR_DTYPES = ("<i4", "<i4", "<f8")
# Entries of a transpose that is_symmetric gathers and compares at a time.
SYMMETRY_SLICE = 1 << 18


def check_index_range(shape, nnz: int) -> None:
    """StanceGraphError unless a `shape` matrix with `nnz` entries fits int32 indices."""
    if max(*shape, nnz) > np.iinfo(np.int32).max:
        raise StanceGraphError(f"a {shape[0]} x {shape[1]} matrix with {nnz} entries "
                               "does not fit int32 indices")


def _csr_arrays(indptr, indices, data, shape) -> CSRArrays:
    """CSRArrays with int32 index arrays; see check_index_range."""
    check_index_range(shape, len(indices))
    return CSRArrays(indptr.astype(np.int32, copy=False), indices.astype(np.int32, copy=False),
                     data, tuple(shape))


def _row_indices(mat, dtype=np.intp) -> np.ndarray:
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(mat.shape[0], dtype=dtype), np.diff(mat.indptr))


def _flat_keys(mat) -> np.ndarray:
    """Row-major int64 keys row * width + column of a CSR matrix's entries,
    in storage order; sorted and unique when the matrix is canonical."""
    keys = _row_indices(mat, np.int64)
    keys *= mat.shape[1]
    keys += mat.indices
    return keys


def _column_order(mat) -> np.ndarray:
    """A stable sort of a CSR matrix's column indices, by NumPy's radix
    sort of 16-bit digits, least significant first."""
    order = np.argsort(mat.indices.astype(np.uint16), kind="stable")
    if mat.shape[1] > 1 << 16:
        high = (mat.indices >> 16).astype(np.uint16)
        order = order[np.argsort(high[order], kind="stable")]
    return order


def _transposed(mat) -> CSRArrays:
    """The CSR arrays of a canonical CSR matrix's transpose: the entries in
    _column_order, so that rows stay ascending within each column."""
    n, m = mat.shape
    order = _column_order(mat)
    indptr = np.zeros(m + 1, dtype=mat.indptr.dtype)
    np.cumsum(np.bincount(mat.indices, minlength=m), out=indptr[1:])
    return CSRArrays(indptr, _row_indices(mat, mat.indices.dtype)[order], mat.data[order],
                     (m, n))


def _sorted_within_rows(indptr, indices) -> bool:
    """Whether column indices strictly increase within every row, that is
    are sorted and unique: a step between two entries of one row must move
    to a larger column."""
    nnz = len(indices)
    row_start = np.zeros(nnz + 1, dtype=bool)
    row_start[indptr] = True
    return bool((indices[1:] > indices[:-1])[~row_start[1:nnz]].all())


def _from_keys(keys: np.ndarray, data: np.ndarray, shape) -> CSRArrays:
    """The canonical CSR arrays of entries at sorted, unique row-major int64
    keys. Row i starts at the first key at or past i * width. `keys` is
    consumed: its entries become the column indices in place."""
    n, m = shape
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * m)
    np.remainder(keys, m, out=keys)
    return _csr_arrays(indptr, keys, data, shape)


def _unit_counts(rows, cols, shape) -> CSRArrays:
    """CSR with one count per (row, col) pair, repeats summed and indices
    sorted: the pairs' row-major keys are sorted in place, and each run of
    equal keys is one entry."""
    keys = np.asarray(rows, dtype=np.int64) * shape[1]
    keys += np.asarray(cols, dtype=np.int64)
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if first.all():  # no repeats, as for mutual follows: skip the run lengths
        return _from_keys(keys, np.ones(len(keys)), shape)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys)).astype(np.float64)
    return _from_keys(keys[starts], counts, shape)


def _sum(mats) -> CSRArrays:
    """The entrywise sum of CSR matrices of one shape, as scipy's `+` gives
    it: repeats of an entry are added in the order of `mats` and of their
    storage, and sums equal to zero are dropped."""
    keys = np.concatenate([_flat_keys(mat) for mat in mats])
    data = np.concatenate([mat.data for mat in mats]).astype(np.float64, copy=False)
    if not (keys[1:] > keys[:-1]).all():
        keys, inverse = np.unique(keys, return_inverse=True)
        data = np.bincount(inverse, weights=data, minlength=len(keys))
    nonzero = data != 0
    return _from_keys(keys[nonzero], data[nonzero], mats[0].shape)


@dataclass(frozen=True)
class InteractionCounts:
    """Count matrices extracted from a corpus.

    T splits by tweet kind: T = T_tweet + T_retweet + T_reply, derived on
    first use. The user-user matrices hold directed mention and reply
    counts and the symmetric 0/1 mutual-follow indicator, all restricted to
    in-corpus users.
    """

    users: list[str]
    hashtags: list[str]
    T_tweet: CSRArrays
    T_retweet: CSRArrays
    T_reply: CSRArrays
    mention: CSRArrays
    reply: CSRArrays
    mutual_follow: CSRArrays

    @cached_property
    def T(self) -> CSRArrays:
        return _sum((self.T_tweet, self.T_retweet, self.T_reply))

    def relation(self, name: str) -> CSRArrays:
        """T_tweet, T_retweet or T_reply, for the meta-path relation `name`."""
        return getattr(self, f"T_{name}")


def is_symmetric(M) -> bool:
    """Whether the square CSR matrix M equals its transpose. M is canonical
    with finite, positive values, as checked_csr passes it, so the verdict
    is that of abs(M - M.T).sum() == 0. The transpose, M's entries in
    _column_order, is compared with M a slice at a time: each entry must
    lie in the row that M's column index at its position names, and hold
    M's value there. The row pointers then match too, since each row holds
    as many entries as its column."""
    order = _column_order(M)
    for lo in range(0, M.nnz, SYMMETRY_SLICE):
        at, rows, values = (a[lo:lo + SYMMETRY_SLICE] for a in (order, M.indices, M.data))
        if not ((M.indptr[rows] <= at).all() and (at < M.indptr[rows + 1]).all()
                and np.array_equal(M.data[at], values)):
            return False
    return True


def extract_interactions(corpus: Corpus) -> InteractionCounts:
    """Count hashtag usages per user and kind, plus user-user relations.

    Each usage or relation is one (row, column) pair in a flat index list;
    _unit_counts sums the repeats."""
    if not corpus.tweets:
        raise StanceGraphError("no tweets to extract interactions from")
    users = sorted({t.user_id for t in corpus.tweets})
    tags = sorted({h for t in corpus.tweets for h in t.hashtags})
    if not tags:
        raise StanceGraphError("no hashtags in corpus")
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
    return InteractionCounts(
        users=users,
        hashtags=tags,
        T_tweet=_unit_counts(*by_kind["original"], (n, m)),
        T_retweet=_unit_counts(*by_kind["retweet"], (n, m)),
        T_reply=_unit_counts(*by_kind["reply"], (n, m)),
        mention=_unit_counts(*mention, (n, n)),
        reply=_unit_counts(*reply_edges, (n, n)),
        mutual_follow=_unit_counts(*mutual, (n, n)),
    )


COUNT_MATRICES = ("T_tweet", "T_retweet", "T_reply", "mention", "reply", "mutual_follow")


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


def checked_csr(indptr, indices, data, shape, source) -> CSRArrays:
    """CSR arrays read out of a file, refused with RecordError unless they
    form a canonical matrix of `shape`.

    indptr must run from 0 to nnz without decreasing, column indices must
    lie in range and strictly increase within each row, and every value
    must be finite and positive, so that no zero is stored. `source` names
    the file in the error message.
    """
    n, m = shape
    nnz = len(indices)
    if len(indptr) != n + 1 or len(data) != nnz:
        raise RecordError(f"{source}: array lengths do not match the shape")
    if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
        raise RecordError(f"{source}: bad row pointers")
    if nnz and (indices.min() < 0 or indices.max() >= m):
        raise RecordError(f"{source}: column index out of range")
    if not _sorted_within_rows(indptr, indices):
        raise RecordError(f"{source}: column indices not sorted and unique within a row")
    if not np.isfinite(data).all():
        raise RecordError(f"{source}: non-finite value")
    if not (data > 0).all():
        raise RecordError(f"{source}: value not positive")
    return _csr_arrays(indptr, indices, data, shape)


def id_block(users: list[str], hashtags: list[str]) -> np.ndarray:
    """The ids of a file's rows as its bytes store them: the compact UTF-8
    JSON [users, hashtags]."""
    text = json.dumps([users, hashtags], ensure_ascii=False, separators=(",", ":"))
    return np.frombuffer(text.encode("utf-8"), np.uint8)


def checked_id_block(block: np.ndarray, lengths: tuple[int, int], source) -> tuple[list, list]:
    """The user and hashtag ids in the bytes `block` of a file. RecordError
    unless they are id_block's JSON of as many ids as `lengths` gives
    (users, hashtags), each one that checked_ids passes and none repeated
    within its list; `source` names the file in the error message."""
    raw = block.tobytes()
    try:
        users, hashtags = json.loads(raw.decode("utf-8"))
    except (ValueError, TypeError, RecursionError) as exc:
        raise RecordError(f"{source}: bad id block ({exc})") from exc
    checked_ids(users, source)
    checked_ids(hashtags, source)
    if (len(users), len(hashtags)) != lengths:
        raise RecordError(f"{source}: id counts do not match the header")
    if id_block(users, hashtags).tobytes() != raw:
        raise RecordError(f"{source}: id block is not canonical JSON")
    for what, ids in (("user id", users), ("hashtag", hashtags)):
        if len(set(ids)) != len(ids):
            repeated = Counter(ids).most_common(1)[0][0]
            raise RecordError(f"{source}: repeated {what} {repeated!r}")
    return users, hashtags


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


# Header: version, users, hashtags, id bytes, then each count matrix's nnz
# in COUNT_MATRICES order. Arrays: each matrix's indptr, indices and data in
# CSR_DTYPES, in that order, then the ids as id_block's JSON.
COUNTS = Container("counts file", b"SGCNT\x00", struct.Struct("<I9Q"), 1,
                   lambda n, m, id_bytes, *nnz: [
                       item for k in nnz for item in zip(CSR_DTYPES, (n + 1, k, k))
                   ] + [("u1", id_bytes)])


def write_container(path, kind: Container, fields: tuple, arrays) -> None:
    """Write `kind`'s magic, its header with `fields` after the version, and
    `arrays` in the dtypes of its layout. Each array goes out in one write,
    straight from its buffer when it is contiguous and in its layout dtype;
    a zero-length array writes nothing."""
    with open(path, "wb") as fh:
        fh.write(kind.magic + kind.header.pack(kind.version, *fields))
        for (dtype, _), arr in zip(kind.layout(*fields), arrays):
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


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


def save_counts(counts: InteractionCounts, path) -> None:
    """Write the count matrices and the ids of their rows and columns as one
    COUNTS container; T is not stored, being the sum of the three per-kind
    matrices."""
    mats = [getattr(counts, name) for name in COUNT_MATRICES]
    ids = id_block(counts.users, counts.hashtags)
    fields = (len(counts.users), len(counts.hashtags), len(ids), *(mat.nnz for mat in mats))
    write_container(path, COUNTS, fields,
                    [arr for mat in mats for arr in (mat.indptr, mat.indices, mat.data)] + [ids])


def load_counts(path) -> InteractionCounts:
    """Read save_counts' file. Besides read_container's refusals, ids that
    checked_id_block refuses, arrays that checked_csr refuses, a sum T that
    overflows and an asymmetric mutual_follow raise RecordError."""
    (n, m, *_), arrays = read_container(path, COUNTS)
    users, hashtags = checked_id_block(arrays.pop(), (n, m), path)
    mats = {name: checked_csr(*arrays[3 * k:3 * k + 3],
                              (n, m) if name.startswith("T_") else (n, n), f"{path} {name}")
            for k, name in enumerate(COUNT_MATRICES)}
    counts = InteractionCounts(users=users, hashtags=hashtags, **mats)
    if not np.isfinite(counts.T.data).all():
        raise RecordError(f"{path}: T_tweet + T_retweet + T_reply overflows")
    if not is_symmetric(counts.mutual_follow):
        raise RecordError(f"{path}: mutual_follow is not symmetric")
    return counts
