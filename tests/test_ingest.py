"""Corpus parsing, text normalization, filters, and count extraction."""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stancegraph import ingest
from stancegraph.errors import DegenerateHashtag, EmptyCorpus, RecordError, ShapeError
from stancegraph.ingest import (
    Corpus,
    CorpusFilterConfig,
    apply_filters,
    extract_interactions,
    load_counts,
    normalize_hashtag,
    parse_corpus,
    save_counts,
)

from conftest import counts_from
from reference import csr_from_counts


def tweet_line(tid, uid, ts="2022-09-04T12:00:00+00:00", text="", kind="original",
               ref=None, mentions=(), hashtags=None, **extra) -> str:
    rec = {
        "tweet_id": tid,
        "user_id": uid,
        "timestamp": ts,
        "text": text,
        "kind": kind,
        "ref_user_id": ref,
        "mentions": list(mentions),
    }
    if hashtags is not None:
        rec["hashtags"] = list(hashtags)
    rec.update(extra)
    return json.dumps(rec)


# hashtag normalization ------------------------------------------------------

def test_normalize_strips_hash_and_case():
    assert normalize_hashtag("#Apruebo") == "apruebo"


def test_normalize_removes_accents():
    assert normalize_hashtag("Más") == "mas"
    assert normalize_hashtag("#RECHAZO") == "rechazo"
    assert normalize_hashtag("Ñuñoa") == "nunoa"


def test_normalize_is_idempotent():
    tricky = ["#Apruebo", "Más", "ﬁn", "Straße", "İstanbul", "CAFÉ", "ApruEbo2022", "ñandú"]
    for raw in tricky:
        once = normalize_hashtag(raw)
        assert normalize_hashtag(once) == once


def test_normalize_is_case_insensitive():
    for raw in ["Apruebo", "VíaChile", "straße", "İzmir"]:
        assert normalize_hashtag(raw.upper()) == normalize_hashtag(raw.lower())


def test_normalize_empty_result_raises():
    with pytest.raises(DegenerateHashtag):
        normalize_hashtag("#")
    with pytest.raises(DegenerateHashtag):
        normalize_hashtag("   ")


# corpus parsing -------------------------------------------------------------

def test_parse_three_valid_lines():
    lines = [tweet_line(f"t{i}", "alice", text=f"hola #tag{i}") for i in range(3)]
    corpus = parse_corpus(lines, strict=True)
    assert len(corpus.tweets) == 3


# Ids with a tab or line break would split the lines of hidden.tsv, val.tsv
# and planted.tsv, so records holding one are malformed.
MALFORMED_LINES = [
    "{not json",
    tweet_line("t9", "user\nzero", text="#a"),
    tweet_line("t9", "user\rzero", text="#a"),
    tweet_line("t9", "carol", hashtags=["#a\tb"]),
]


def test_parse_malformed_line_strict():
    for bad in MALFORMED_LINES:
        lines = [tweet_line("t1", "alice"), bad, tweet_line("t2", "bob")]
        with pytest.raises(RecordError) as err:
            parse_corpus(lines, strict=True)
        assert "line 2" in str(err.value)


def test_parse_malformed_line_lenient_skips():
    for bad in MALFORMED_LINES:
        lines = [tweet_line("t1", "alice"), bad, tweet_line("t2", "bob")]
        corpus = parse_corpus(lines, strict=False)
        assert [t.tweet_id for t in corpus.tweets] == ["t1", "t2"]


def test_parse_duplicate_tweet_id_last_wins(caplog):
    lines = [
        tweet_line("t1", "alice", text="first #a"),
        tweet_line("t1", "alice", text="second #b"),
    ]
    with caplog.at_level("WARNING"):
        corpus = parse_corpus(lines, strict=True)
    assert len(corpus.tweets) == 1
    assert corpus.tweets[0].hashtags == ("b",)
    assert any("duplicate" in rec.message.lower() for rec in caplog.records)


def test_parse_extracts_hashtags_from_text_when_absent():
    corpus = parse_corpus([tweet_line("t1", "alice", text="vamos #Apruebo #YA")], strict=True)
    assert corpus.tweets[0].hashtags == ("apruebo", "ya")


def test_parse_explicit_hashtags_override_text():
    corpus = parse_corpus([tweet_line("t1", "alice", text="#ignored", hashtags=["#Dado"])], strict=True)
    assert corpus.tweets[0].hashtags == ("dado",)


def test_parse_follow_and_outlet_streams():
    corpus = parse_corpus(
        [tweet_line("t1", "alice")],
        follow_lines=["alice\tbob", "bob\talice"],
        outlet_lines=["pressdesk"],
        strict=True,
    )
    assert ("alice", "bob") in corpus.follows and ("bob", "alice") in corpus.follows
    assert "pressdesk" in corpus.outlets


def test_parse_bad_kind_rejected():
    line = tweet_line("t1", "alice", kind="quote")
    with pytest.raises(RecordError):
        parse_corpus([line], strict=True)


# filters --------------------------------------------------------------------

def make_corpus(lines, follows=(), outlets=()):
    return parse_corpus(lines, follow_lines=follows, outlet_lines=outlets, strict=True)


def test_filter_rate_over_span():
    # 10 tweets across 2 days is 5/day, above the 3.0 limit
    lines = [
        tweet_line(f"t{i}", "heavy", ts=f"2022-09-0{1 + i % 2}T10:0{i}:00+00:00")
        for i in range(10)
    ]
    lines.append(tweet_line("k1", "casual"))
    out = apply_filters(make_corpus(lines), CorpusFilterConfig(max_avg_daily_tweets=3.0))
    users = {t.user_id for t in out.tweets}
    assert users == {"casual"}


def test_filter_single_day_span_clamps_to_one():
    lines = [
        tweet_line("t1", "alice", ts="2022-09-04T10:00:00+00:00"),
        tweet_line("t2", "alice", ts="2022-09-04T11:00:00+00:00"),
    ]
    out = apply_filters(make_corpus(lines), CorpusFilterConfig(max_avg_daily_tweets=3.0))
    assert len(out.tweets) == 2


def test_filter_is_monotone_in_rate_limit():
    rng = np.random.default_rng(5)
    lines = []
    for u in range(6):
        for k in range(int(rng.integers(1, 9))):
            day = 1 + int(rng.integers(0, 3))
            lines.append(tweet_line(f"u{u}t{k}", f"user{u}",
                                    ts=f"2022-09-0{day}T12:00:00+00:00"))
    corpus = make_corpus(lines)
    kept_prev: set | None = None
    for limit in (8.0, 4.0, 2.0, 1.0):
        out = apply_filters(corpus, CorpusFilterConfig(max_avg_daily_tweets=limit))
        kept = {t.user_id for t in out.tweets}
        if kept_prev is not None:
            assert kept <= kept_prev
        kept_prev = kept


def test_filter_outlet_follow_limit():
    outlets = [f"outlet{i}" for i in range(12)]
    follows = [f"newsjunkie\toutlet{i}" for i in range(11)] + ["casual\toutlet0"]
    lines = [tweet_line("t1", "newsjunkie"), tweet_line("t2", "casual")]
    out = apply_filters(
        make_corpus(lines, follows=follows, outlets=outlets),
        CorpusFilterConfig(max_outlets_followed=10),
    )
    assert {t.user_id for t in out.tweets} == {"casual"}


def test_filter_location_allowlist_folds_accents():
    lines = [
        tweet_line("t1", "stgo", location="Santiago"),
        tweet_line("t2", "valpo", location="Valparaíso"),
        tweet_line("t3", "nowhere"),
    ]
    out = apply_filters(
        make_corpus(lines),
        CorpusFilterConfig(location_allowlist="santiago"),
    )
    assert {t.user_id for t in out.tweets} == {"stgo"}


# interaction extraction -----------------------------------------------------

def test_extract_counts_repeated_hashtag():
    corpus = make_corpus([tweet_line("t1", "alice", text="hola #a #a")])
    counts = extract_interactions(corpus)
    j = counts.hashtags.index("a")
    assert counts.T[0, j] == 2.0


def test_extract_retweet_populates_both_matrices():
    corpus = make_corpus([tweet_line("t1", "alice", text="rt #b", kind="retweet", ref="bob")])
    counts = extract_interactions(corpus)
    j = counts.hashtags.index("b")
    i = counts.users.index("alice")
    assert counts.T_retweet[i, j] == 1.0
    assert counts.T[i, j] == 1.0


def test_extract_mutual_follow_is_symmetric():
    corpus = make_corpus(
        [tweet_line("t1", "p", text="#x"), tweet_line("t2", "q", text="#x")],
        follows=["p\tq", "q\tp"],
    )
    counts = extract_interactions(corpus)
    i, j = counts.users.index("p"), counts.users.index("q")
    assert counts.mutual_follow[i, j] == 1.0
    assert counts.mutual_follow[j, i] == 1.0


def test_extract_one_way_follow_is_not_mutual():
    corpus = make_corpus(
        [tweet_line("t1", "p", text="#x"), tweet_line("t2", "q", text="#x")],
        follows=["p\tq"],
    )
    counts = extract_interactions(corpus)
    assert counts.mutual_follow.nnz == 0


def test_extract_conserves_incidences():
    rng = np.random.default_rng(13)
    lines = []
    total = 0
    for t in range(40):
        n_tags = int(rng.integers(0, 4))
        tags = " ".join(f"#tag{int(rng.integers(0, 6))}" for _ in range(n_tags))
        kind = ["original", "retweet", "reply"][int(rng.integers(0, 3))]
        ref = "someone" if kind != "original" else None
        lines.append(tweet_line(f"t{t}", f"user{int(rng.integers(0, 5))}",
                                text=f"texto {tags}", kind=kind, ref=ref))
        total += n_tags
    counts = extract_interactions(make_corpus(lines))
    assert counts.T.sum() == total
    counts.validate()


def extract_reference(corpus: Corpus) -> dict[str, sp.csr_matrix]:
    """The dict-counting extraction: one {(row, col): count} dict per
    matrix, each count a running float sum."""
    users = sorted({t.user_id for t in corpus.tweets})
    tags = sorted({h for t in corpus.tweets for h in t.hashtags})
    uidx = {u: i for i, u in enumerate(users)}
    hidx = {h: j for j, h in enumerate(tags)}
    dicts = {name: {} for name in ("original", "retweet", "reply", "mention", "reply_edges")}

    def bump(name, key):
        dicts[name][key] = dicts[name].get(key, 0.0) + 1.0

    for t in corpus.tweets:
        i = uidx[t.user_id]
        for h in t.hashtags:
            bump(t.kind, (i, hidx[h]))
        for m in t.mentions:
            if m in uidx:
                bump("mention", (i, uidx[m]))
        if t.kind == "reply" and t.ref_user_id in uidx:
            bump("reply_edges", (i, uidx[t.ref_user_id]))
    mutual = {(uidx[a], uidx[b]): 1.0 for a, b in corpus.follows
              if a in uidx and b in uidx and (b, a) in corpus.follows and a != b}
    n, m = len(users), len(tags)
    return {
        "T_tweet": csr_from_counts(dicts["original"], (n, m)),
        "T_retweet": csr_from_counts(dicts["retweet"], (n, m)),
        "T_reply": csr_from_counts(dicts["reply"], (n, m)),
        "mention": csr_from_counts(dicts["mention"], (n, n)),
        "reply": csr_from_counts(dicts["reply_edges"], (n, n)),
        "mutual_follow": csr_from_counts(mutual, (n, n)),
    }


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["original", "retweet", "reply"]),
                          st.lists(st.sampled_from(["#t0", "#T0", "#t1", "#tÀ", "#ta", "#t2"]),
                                   max_size=4),
                          st.lists(st.integers(0, 7), max_size=3), st.integers(0, 7)),
                min_size=1, max_size=30),
       st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
def test_extract_equals_dict_count_reference(tweets, follows):
    # Users 6 and 7 never tweet: their mentions, replies and follows drop.
    lines = [tweet_line(f"t{k}", f"u{u}", kind=kind, hashtags=tags,
                        mentions=[f"u{x}" for x in mentions], ref=f"u{ref}")
             for k, (u, kind, tags, mentions, ref) in enumerate(tweets)]
    corpus = parse_corpus(lines, [f"u{a}\tu{b}" for a, b in follows], strict=True)
    assume(any(t.hashtags for t in corpus.tweets))
    counts = extract_interactions(corpus)
    for name, want in extract_reference(corpus).items():
        got = getattr(counts, name)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)
    # Records share one string per distinct user id and kind, and one per
    # distinct raw hashtag spelling.
    for field in ("user_id", "kind"):
        assert len({id(getattr(t, field)) for t in corpus.tweets}) == len(
            {getattr(t, field) for t in corpus.tweets})
    objects: dict[str, set[int]] = {}
    for (_, _, raw_tags, _, _), record in zip(tweets, corpus.tweets, strict=True):
        for raw, tag in zip(raw_tags, record.hashtags, strict=True):
            objects.setdefault(raw, set()).add(id(tag))
    assert all(len(ids) == 1 for ids in objects.values())


def _valid_counts():
    return counts_from(np.array([[1.0, 0.0], [2.0, 1.0]]),
                       mutual=np.array([[0.0, 1.0], [1.0, 0.0]]))


# One broken invariant per bundle. Only pytest.raises checks here, so the
# test still means something under `python -O`, which strips assert.
@pytest.mark.parametrize("broken", [
    lambda c: dataclasses.replace(c, T_reply=sp.csr_matrix((2, 3))),
    lambda c: dataclasses.replace(c, T=c.T + sp.csr_matrix(np.eye(2))),
    lambda c: counts_from(np.array([[-1.0, 0.0], [2.0, 1.0]])),
    lambda c: dataclasses.replace(c, mutual_follow=sp.csr_matrix(np.triu(np.ones((2, 2)), 1))),
], ids=["shape", "sum-of-parts", "negative", "asymmetric-follow"])
def test_validate_raises_shape_error(broken):
    _valid_counts().validate()
    with pytest.raises(ShapeError):
        broken(_valid_counts()).validate()


# Values whose sums are exact in any order, so that summing duplicates
# cannot depend on which copy comes first; canonical matrices also get
# values at the ends of the float range.
EXACT_VALUES = [0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 3.0, np.inf, -np.inf, np.nan]
EXTREME_VALUES = [1e308, -1e308, 5e-324, -5e-324]


@settings(max_examples=500, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_symmetry_check_gives_the_verdict_of_the_difference_sum(n, data):
    canonical = data.draw(st.booleans(), label="canonical")
    values = EXACT_VALUES + (EXTREME_VALUES if canonical else [])
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from(values)), max_size=2 * n * n),
                        label="entries")
    if data.draw(st.booleans(), label="mirrored"):
        # Each entry also at its mirror position: symmetric unless a later
        # entry overrides one side, or duplicates sum unevenly.
        entries += [(c, r, v) for r, c, v in entries]
    if canonical:
        cells = {(r, c): v for r, c, v in entries}  # the last value of a cell wins
        entries = [(r, c, cells[r, c]) for r, c in sorted(cells)]
    else:
        entries = sorted(entries, key=lambda e: e[0])  # stable: a row keeps its order
    rows = np.array([r for r, _, _ in entries], dtype=np.int64)
    M = sp.csr_matrix((np.array([v for _, _, v in entries], dtype=np.float64),
                       np.array([c for _, c, _ in entries], dtype=np.int32),
                       np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    if canonical:
        assert M.has_canonical_format
    before = (M.indptr.copy(), M.indices.copy(), M.data.copy())
    with np.errstate(all="ignore"):
        want = not abs(M - M.T).sum() != 0.0
    assert ingest.is_symmetric(M) == want
    for got, was in zip((M.indptr, M.indices, M.data), before):
        assert np.array_equal(got, was, equal_nan=True)


def test_extract_index_order_is_lexicographic():
    corpus = make_corpus([
        tweet_line("t1", "zed", text="#beta"),
        tweet_line("t2", "ana", text="#alpha"),
    ])
    counts = extract_interactions(corpus)
    assert counts.users == sorted(counts.users)
    assert counts.hashtags == sorted(counts.hashtags)


def test_extract_empty_corpus_raises():
    with pytest.raises(EmptyCorpus):
        extract_interactions(Corpus(tweets=(), follows=set(), outlets=frozenset(), locations={}))
    # tweets without any hashtag leave nothing to count either
    corpus = make_corpus([tweet_line("t1", "alice", text="sin etiquetas")])
    with pytest.raises(EmptyCorpus):
        extract_interactions(corpus)


def test_counts_roundtrip_identical(tmp_path):
    rng = np.random.default_rng(17)
    lines = []
    for t in range(25):
        tags = " ".join(f"#h{int(rng.integers(0, 5))}" for _ in range(int(rng.integers(1, 4))))
        lines.append(tweet_line(f"t{t}", f"user{int(rng.integers(0, 4))}", text=tags))
    corpus = make_corpus(lines, follows=["user0\tuser1", "user1\tuser0"])
    counts = extract_interactions(corpus)
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    back = load_counts(path)
    assert back.users == counts.users
    assert back.hashtags == counts.hashtags
    for name in ("T", "T_tweet", "T_retweet", "T_reply", "mention", "reply", "mutual_follow"):
        a, b = getattr(counts, name), getattr(back, name)
        assert np.array_equal(a.toarray(), b.toarray())


def small_counts(rng: np.random.Generator, n: int = 4, m: int = 3):
    T = rng.integers(0, 3, size=(n, m)) * (rng.random((n, m)) < 0.6)
    follow = np.triu(rng.random((n, n)) < 0.5, k=1)
    mention = rng.integers(0, 2, size=(n, n)) * (1 - np.eye(n))
    return counts_from(T, T_retweet=np.eye(n, m), mention=mention,
                       mutual=(follow | follow.T).astype(float))


def test_counts_file_is_csr_columns(tmp_path):
    counts = small_counts(np.random.default_rng(3))
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert set(payload) == {"users", "hashtags", "T_tweet", "T_retweet", "T_reply",
                            "mention", "reply", "mutual_follow"}
    for name in ("T_tweet", "mention", "mutual_follow"):
        mat = getattr(counts, name)
        assert payload[name] == {"indptr": mat.indptr.tolist(), "indices": mat.indices.tolist(),
                                 "data": mat.data.tolist()}


def test_counts_roundtrip_is_byte_exact(tmp_path):
    for seed, n, m in ((5, 4, 3), (6, 1, 1), (7, 6, 2)):
        counts = small_counts(np.random.default_rng(seed), n, m)
        first, second = tmp_path / f"a{seed}.json", tmp_path / f"b{seed}.json"
        save_counts(counts, first)
        save_counts(load_counts(first), second)
        assert first.read_bytes() == second.read_bytes()
    # a bundle with no interactions of some kinds keeps its empty matrices
    assert load_counts(second).T_reply.nnz == 0


def test_counts_file_is_one_compact_json_document(tmp_path):
    counts = small_counts(np.random.default_rng(5), 5, 4)
    counts = dataclasses.replace(counts, users=["usér", "ü2", "u3", "u4", "u5"],
                                 T_tweet=counts.T_tweet * 0.1)
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert list(payload) == ["users", "hashtags", "T_tweet", "T_retweet", "T_reply",
                             "mention", "reply", "mutual_follow"]
    assert text == json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"
    assert "usér" in text


def compact(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("slice_size", [1, 2, 5, None])
def test_counts_arrays_written_in_slices_keep_their_bytes(tmp_path, monkeypatch, slice_size):
    if slice_size is None:
        # 300 users who all follow each other: 89,700 entries, two default slices
        rng = np.random.default_rng(6)
        counts = counts_from(rng.integers(0, 3, size=(300, 4)), mutual=1 - np.eye(300))
        assert counts.mutual_follow.nnz > ingest.JSON_SLICE
    else:
        monkeypatch.setattr(ingest, "JSON_SLICE", slice_size)
        counts = small_counts(np.random.default_rng(7), 12, 9)
        counts = dataclasses.replace(counts, T_tweet=counts.T_tweet * 0.1)
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == compact(payload)
    for name in ("T_tweet", "mention", "mutual_follow"):
        mat = getattr(counts, name)
        assert payload[name] == {"indptr": mat.indptr.tolist(), "indices": mat.indices.tolist(),
                                 "data": mat.data.tolist()}


def test_counts_file_with_empty_matrices(tmp_path):
    counts = counts_from(np.zeros((3, 2)))
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    text = path.read_text(encoding="utf-8")
    assert text == compact(json.loads(text))
    assert '"mention":{"indptr":[0,0,0,0],"indices":[],"data":[]}' in text
    loaded = load_counts(path)
    assert loaded.T_tweet.shape == (3, 2) and loaded.T.nnz == 0 and loaded.mutual_follow.nnz == 0


def counts_payload(tmp_path) -> dict:
    path = tmp_path / "good.json"
    save_counts(small_counts(np.random.default_rng(9)), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["T_tweet"]["data"] and payload["mention"]["data"]
    return payload


def without(payload: dict, key: str) -> dict:
    del payload[key]
    return payload


def corrupt(payload: dict, name: str, column: str, values) -> dict:
    payload[name][column] = values
    return payload


@pytest.mark.parametrize("edit", [
    lambda p: without(p, "mention"),
    lambda p: without(p, "users"),
    lambda p: dict(p, users="u000"),
    lambda p: dict(p, hashtags=[1, 2, 3]),
    lambda p: dict(p, T_tweet=[[0, 0, 1.0]]),
    lambda p: dict(p, T_tweet={"indptr": [0, 0, 0, 0, 0]}),
    lambda p: corrupt(p, "T_tweet", "indices", [[0]] * len(p["T_tweet"]["indices"])),
    lambda p: corrupt(p, "T_tweet", "indices", [0.5] * len(p["T_tweet"]["indices"])),
    lambda p: corrupt(p, "T_tweet", "indices", [True] * len(p["T_tweet"]["indices"])),
    lambda p: corrupt(p, "T_tweet", "indices", [3] * len(p["T_tweet"]["indices"])),
    lambda p: corrupt(p, "mention", "indptr", [0, 0, 0, 0]),
    lambda p: corrupt(p, "mention", "indptr", [1] + p["mention"]["indptr"][1:]),
    lambda p: corrupt(p, "mention", "data", [-1.0] * len(p["mention"]["data"])),
    lambda p: corrupt(p, "mention", "data", ["1"] * len(p["mention"]["data"])),
    lambda p: corrupt(p, "mention", "data", [float("nan")] * len(p["mention"]["data"])),
    lambda p: corrupt(p, "mention", "data", [float("inf")] * len(p["mention"]["data"])),
    lambda p: [p],
    lambda p: dict(p, users=["user\nzero"] + p["users"][1:]),
    lambda p: dict(p, users=p["users"][:-1] + ["user\rlast"]),
    lambda p: dict(p, hashtags=["a\tb"] + p["hashtags"][1:]),
    lambda p: dict(p, users=["\ud800"] + p["users"][1:]),
], ids=["missing-matrix", "missing-users", "users-not-list", "hashtag-not-string",
        "old-triples", "missing-columns", "nested-indices", "float-indices", "bool-indices",
        "index-out-of-range", "short-indptr", "indptr-start", "negative-count",
        "string-count", "nan-count", "inf-count", "not-an-object", "user-with-newline",
        "user-with-cr", "hashtag-with-tab", "user-lone-surrogate"])
def test_load_counts_rejects_malformed(tmp_path, edit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(counts_payload(tmp_path))), encoding="utf-8")
    with pytest.raises(RecordError):
        load_counts(path)


def test_load_counts_rejects_truncated_and_non_utf8(tmp_path):
    path = tmp_path / "counts.json"
    save_counts(small_counts(np.random.default_rng(11)), path)
    blob = path.read_bytes()
    for k, bad in enumerate((blob[: len(blob) // 2], b"", b"\xff" + blob[1:])):
        bad_path = tmp_path / f"bad{k}.json"
        bad_path.write_bytes(bad)
        with pytest.raises(RecordError):
            load_counts(bad_path)


def test_load_counts_inconsistent_matrices_raise_shape_error(tmp_path):
    payload = counts_payload(tmp_path)
    # An asymmetric mutual-follow matrix parses but fails validate().
    payload["mutual_follow"] = {"indptr": [0, 1, 1, 1, 1], "indices": [1], "data": [1.0]}
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ShapeError):
        load_counts(path)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 4), m=st.integers(1, 3), data=st.data())
def test_counts_loader_fuzz_returns_valid_counts_or_typed_error(seed, n, m, data):
    # Every write goes to a new file: truncating an existing one can be slow.
    with tempfile.TemporaryDirectory() as tmp:
        valid = Path(tmp) / "valid.json"
        save_counts(small_counts(np.random.default_rng(seed), n, m), valid)
        blob = valid.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="position")
            value = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
            blob = blob[:pos] + bytes([value]) + blob[pos + 1:]
        path = Path(tmp) / "corrupt.json"
        path.write_bytes(blob)
        try:
            counts = load_counts(path)
        except (RecordError, ShapeError):
            return
        counts.validate()
        for name in ("T_tweet", "T_retweet", "T_reply", "mention", "reply", "mutual_follow"):
            mat = getattr(counts, name)
            assert mat.has_canonical_format
            assert np.isfinite(mat.data).all() and (mat.data >= 0).all()
