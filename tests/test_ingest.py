"""Corpus parsing, text normalization, filters, and count extraction."""

from __future__ import annotations

import base64
import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stancegraph import ingest
from stancegraph.config import RunConfig
from stancegraph.errors import RecordError, StanceGraphError
from stancegraph.evaluate import synth_generate
from stancegraph.graphs import GRAPH, to_scipy
from stancegraph.ingest import (
    COUNT_MATRICES,
    COUNTS,
    CSRArrays,
    Corpus,
    apply_filters,
    extract_interactions,
    load_counts,
    normalize_hashtag,
    parse_corpus,
    save_counts,
)

from conftest import (INDEX_MAX, NATIVE_CSR_DTYPES, count_arrays, count_matrix,
                      counts_container, counts_from, csr_dtypes, dense, json_counts_payload,
                      json_ids, load_corrupted)
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
    assert normalize_hashtag("#Apruebo", 1) == "apruebo"


def test_normalize_removes_accents():
    assert normalize_hashtag("Más", 1) == "mas"
    assert normalize_hashtag("#RECHAZO", 1) == "rechazo"
    assert normalize_hashtag("Ñuñoa", 1) == "nunoa"


def test_normalize_is_idempotent():
    tricky = ["#Apruebo", "Más", "ﬁn", "Straße", "İstanbul", "CAFÉ", "ApruEbo2022", "ñandú"]
    for raw in tricky:
        once = normalize_hashtag(raw, 1)
        assert normalize_hashtag(once, 1) == once


def test_normalize_is_case_insensitive():
    for raw in ["Apruebo", "VíaChile", "straße", "İzmir"]:
        assert normalize_hashtag(raw.upper(), 1) == normalize_hashtag(raw.lower(), 1)


def test_normalize_empty_result_raises():
    with pytest.raises(RecordError, match=r"^line 3: hashtag '#' normalizes to empty$"):
        normalize_hashtag("#", 3)
    with pytest.raises(RecordError, match=r"^line 1: hashtag '   ' normalizes to empty$"):
        normalize_hashtag("   ", 1)


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


@pytest.mark.parametrize("bad", [
    tweet_line("t3", "user\nzero", text="#a"),
    tweet_line("t3", "carol", hashtags=["#a", "#b\tc"]),
], ids=["user-id", "hashtag"])
def test_bad_id_first_seen_on_a_later_line_is_refused_on_every_line(bad):
    # Each id is checked until it passes once; the good ids of lines 1-2
    # pass before the bad one first appears on line 3, and again on line 5.
    good = [tweet_line("t1", "carol", hashtags=["#a"]), tweet_line("t2", "carol", text="#a")]
    lines = good + [bad, tweet_line("t4", "carol", text="#a"), bad.replace("t3", "t5")]
    with pytest.raises(RecordError) as err:
        parse_corpus(lines, strict=True)
    assert err.value.line_no == 3 and "holds a tab, line break or surrogate" in str(err.value)
    with pytest.raises(RecordError) as err:
        parse_corpus(lines[:2] + lines[3:], strict=True)
    assert err.value.line_no == 4
    corpus = parse_corpus(lines, strict=False)
    assert [t.tweet_id for t in corpus.tweets] == ["t1", "t2", "t4"]


ID_SPELLINGS = st.sampled_from(["ana", "Más", "x\ty", "u\nv", "c\rd", "\ud800", "#", " "])
RECORD_LINES = st.one_of(
    st.builds(lambda tid, uid, tags: tweet_line(tid, uid, hashtags=tags),
              st.sampled_from(["t1", "t2", "t3"]), ID_SPELLINGS, st.lists(ID_SPELLINGS, max_size=3)),
    st.sampled_from(["{not json", "[]", '{"tweet_id": "t9"}']),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(RECORD_LINES, min_size=1, max_size=8), strict=st.booleans())
def test_parse_gives_the_verdict_of_each_line_parsed_alone(lines, strict):
    # What parse_corpus keeps across lines (the normalized hashtags, the ids
    # that passed their check) changes no line's verdict.
    alone = []
    for k, line in enumerate(lines, 1):
        try:
            alone.append(parse_corpus([line], strict=True).tweets[0])
        except RecordError as exc:
            alone.append(f"line {k}:" + str(exc).removeprefix("line 1:"))
    errors = [verdict for verdict in alone if isinstance(verdict, str)]
    if strict and errors:
        with pytest.raises(RecordError) as err:
            parse_corpus(lines, strict=True)
        assert str(err.value) == errors[0]
        return
    last = {}
    for verdict in alone:
        if not isinstance(verdict, str):
            last[verdict.tweet_id] = verdict
    assert parse_corpus(lines, strict=strict).tweets == list(last.values())


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


@pytest.mark.parametrize("key, value", [
    ("hashtags", 5), ("hashtags", "abc"), ("hashtags", {"a": 1}), ("hashtags", ["#a", 7]),
    ("mentions", 7), ("mentions", "bob"), ("mentions", ["bob", None]),
], ids=["hashtags-number", "hashtags-string", "hashtags-object", "hashtags-with-number",
        "mentions-number", "mentions-string", "mentions-with-null"])
def test_parse_refuses_hashtags_or_mentions_that_are_not_a_list_of_strings(key, value):
    bad = json.dumps(dict(json.loads(tweet_line("t2", "bob", text="#x")), **{key: value}))
    lines = [tweet_line("t1", "alice", text="#a"), bad, tweet_line("t3", "carol", text="#b")]
    with pytest.raises(RecordError) as err:
        parse_corpus(lines, strict=True)
    assert err.value.line_no == 2 and f"{key} must be a list of strings" in str(err.value)
    assert [t.tweet_id for t in parse_corpus(lines, strict=False).tweets] == ["t1", "t3"]


def test_parse_null_hashtags_and_mentions_count_as_absent():
    record = json.loads(tweet_line("t1", "alice", text="#Uno"))
    record.update(hashtags=None, mentions=None)
    (tweet,) = parse_corpus([json.dumps(record)], strict=True).tweets
    assert tweet.hashtags == ("uno",) and tweet.mentions == ()


NON_STRINGS = {"null": None, "true": True, "float": 1.5, "list": [1], "object": {}}
ID_KEYS = ("tweet_id", "user_id", "ref_user_id")
STRING_KEYS = ("timestamp", "text", "kind", "location")
OPTIONAL_KEYS = ("ref_user_id", "location")


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}-{name}")
    for key in ID_KEYS + STRING_KEYS for name, value in NON_STRINGS.items()
    # a null optional key is absent: test_parse_null_ref_user_id_and_location_count_as_absent
    if not (value is None and key in OPTIONAL_KEYS)
])
def test_parse_refuses_a_field_of_the_wrong_type(key, value):
    # Before, str() made null the id or text "None", and an object the
    # user "{'x': 1}".
    bad = json.dumps(dict(json.loads(tweet_line("t2", "bob", text="#x")), **{key: value}))
    lines = [tweet_line("t1", "alice", text="#a"), bad, tweet_line("t3", "carol", text="#b")]
    with pytest.raises(RecordError) as err:
        parse_corpus(lines, strict=True)
    kinds = "a string or an integer" if key in ID_KEYS else "a string"
    assert str(err.value) == f"line 2: {key} must be {kinds}"
    assert [t.tweet_id for t in parse_corpus(lines, strict=False).tweets] == ["t1", "t3"]


@pytest.mark.parametrize("key", STRING_KEYS)
def test_parse_refuses_an_integer_where_only_a_string_is_allowed(key):
    bad = json.dumps(dict(json.loads(tweet_line("t1", "bob")), **{key: 7}))
    with pytest.raises(RecordError, match=f"^line 1: {key} must be a string$"):
        parse_corpus([bad], strict=True)


def test_parse_integer_ids_are_their_decimal_strings():
    line = tweet_line(12, 345, kind="retweet", ref=-6, location="Santiago")
    corpus = parse_corpus([line, tweet_line("12", "345", text="later")], strict=True)
    (tweet,) = corpus.tweets  # tweet_id 12 and "12" are the same record
    assert (tweet.tweet_id, tweet.user_id) == ("12", "345") and tweet.hashtags == ()
    assert parse_corpus([line], strict=True).tweets[0].ref_user_id == "-6"
    assert parse_corpus([line], strict=True).locations == {"345": "Santiago"}


def test_parse_null_ref_user_id_and_location_count_as_absent():
    (tweet,) = parse_corpus([tweet_line("t1", "alice", ref=None, location=None)],
                            strict=True).tweets
    assert tweet.ref_user_id is None
    assert parse_corpus([tweet_line("t1", "alice", location=None)], strict=True).locations == {}


@pytest.mark.parametrize("bad", [
    '{"tweet_id": ' + "1" * 5000 + "}",
    "[" * 100_000,
], ids=["integer-too-long", "nested-too-deep"])
def test_parse_refuses_json_the_decoder_cannot_hold(bad):
    # Before, these raised a ValueError or RecursionError traceback.
    lines = [tweet_line("t1", "alice"), bad]
    with pytest.raises(RecordError, match="^line 2: invalid JSON: "):
        parse_corpus(lines, strict=True)
    assert [t.tweet_id for t in parse_corpus(lines, strict=False).tweets] == ["t1"]


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
    out = apply_filters(make_corpus(lines), RunConfig(max_avg_daily_tweets=3.0))
    users = {t.user_id for t in out.tweets}
    assert users == {"casual"}


def test_filter_single_day_span_clamps_to_one():
    lines = [
        tweet_line("t1", "alice", ts="2022-09-04T10:00:00+00:00"),
        tweet_line("t2", "alice", ts="2022-09-04T11:00:00+00:00"),
    ]
    out = apply_filters(make_corpus(lines), RunConfig(max_avg_daily_tweets=3.0))
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
        out = apply_filters(corpus, RunConfig(max_avg_daily_tweets=limit))
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
        RunConfig(max_outlets_followed=10),
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
        RunConfig(location_allowlist="santiago"),
    )
    assert {t.user_id for t in out.tweets} == {"stgo"}


# interaction extraction -----------------------------------------------------

def test_extract_counts_repeated_hashtag():
    corpus = make_corpus([tweet_line("t1", "alice", text="hola #a #a")])
    counts = extract_interactions(corpus)
    j = counts.hashtags.index("a")
    assert dense(counts.T)[0, j] == 2.0


def test_extract_retweet_populates_both_matrices():
    corpus = make_corpus([tweet_line("t1", "alice", text="rt #b", kind="retweet", ref="bob")])
    counts = extract_interactions(corpus)
    j = counts.hashtags.index("b")
    i = counts.users.index("alice")
    assert dense(counts.T_retweet)[i, j] == 1.0
    assert dense(counts.T)[i, j] == 1.0


def test_extract_mutual_follow_is_symmetric():
    corpus = make_corpus(
        [tweet_line("t1", "p", text="#x"), tweet_line("t2", "q", text="#x")],
        follows=["p\tq", "q\tp"],
    )
    counts = extract_interactions(corpus)
    i, j = counts.users.index("p"), counts.users.index("q")
    assert dense(counts.mutual_follow)[i, j] == 1.0
    assert dense(counts.mutual_follow)[j, i] == 1.0


def test_extract_one_way_follow_is_not_mutual():
    corpus = make_corpus(
        [tweet_line("t1", "p", text="#x"), tweet_line("t2", "q", text="#x")],
        follows=["p\tq"],
    )
    counts = extract_interactions(corpus)
    assert len(counts.mutual_follow.data) == 0


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
    assert counts.T.data.sum() == total
    assert_counts_consistent(counts)


def assert_counts_consistent(counts) -> None:
    """What load_counts refuses to pass: a sum T that is not finite, or a
    mutual_follow that scipy finds asymmetric. Raised, not asserted, so
    that it holds under -O."""
    follow = to_scipy(counts.mutual_follow)
    if not (np.isfinite(counts.T.data).all() and abs(follow - follow.T).sum() == 0):
        raise AssertionError("T overflows or mutual_follow is asymmetric")


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


# One broken invariant per bundle: each matrix passes checked_csr on its
# own, and load_counts refuses the bundle. The name is from when a
# validate() method raised ShapeError for these; load_counts now raises
# RecordError. Only pytest.raises checks here, so the test still means
# something under `python -O`, which strips assert.
@pytest.mark.parametrize("broken, message", [
    # T is derived from its parts, so the only sum that can fail is one
    # past the float range
    (lambda c: dataclasses.replace(c, T_tweet=count_matrix([[1e308, 0.0], [2.0, 1.0]]),
                                   T_retweet=count_matrix([[1e308, 0.0], [0.0, 0.0]])),
     "T_tweet + T_retweet + T_reply overflows"),
    (lambda c: dataclasses.replace(c, mutual_follow=count_matrix(np.triu(np.ones((2, 2)), 1))),
     "mutual_follow is not symmetric"),
], ids=["sum-of-parts", "asymmetric-follow"])
def test_validate_raises_shape_error(tmp_path, broken, message):
    path = tmp_path / "counts.json"
    save_counts(_valid_counts(), path)
    load_counts(path)
    save_counts(broken(_valid_counts()), path)
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_counts(path)


# The values checked_csr passes are finite and positive; these include the
# ends of the float range.
POSITIVE_VALUES = [0.5, 1.0, 2.0, 3.0, 1e308, 5e-324]


@settings(max_examples=500, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_symmetry_check_gives_the_verdict_of_the_difference_sum(n, data):
    # Over the matrices checked_csr passes: canonical, with positive values.
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from(POSITIVE_VALUES)),
                                 max_size=2 * n * n), label="entries")
    if data.draw(st.booleans(), label="mirrored"):
        # Each entry also at its mirror position: symmetric unless a later
        # entry overrides one side.
        entries += [(c, r, v) for r, c, v in entries]
    cells = {(r, c): v for r, c, v in entries}  # the last value of a cell wins
    entries = [(r, c, cells[r, c]) for r, c in sorted(cells)]
    rows = np.array([r for r, _, _ in entries], dtype=np.int64)
    M = sp.csr_matrix((np.array([v for _, _, v in entries], dtype=np.float64),
                       np.array([c for _, c, _ in entries], dtype=np.int32),
                       np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    assert M.has_canonical_format
    before = (M.indptr.copy(), M.indices.copy(), M.data.copy())
    with np.errstate(all="ignore"):
        want = not abs(M - M.T).sum() != 0.0
    assert ingest.is_symmetric(CSRArrays(M.indptr, M.indices, M.data, M.shape)) == want
    for got, was in zip((M.indptr, M.indices, M.data), before):
        assert np.array_equal(got, was)


@pytest.mark.parametrize("slice_size", [1, 3, 1 << 18])
def test_symmetry_check_in_slices_gives_the_whole_verdict(monkeypatch, slice_size):
    # Slices of one or three entries cut across rows and mirror pairs, so
    # an asymmetry found only in a later slice must still be reported.
    monkeypatch.setattr(ingest, "SYMMETRY_SLICE", slice_size)
    rng = np.random.default_rng(slice_size)
    verdicts = set()
    for _ in range(200):
        n = int(rng.integers(1, 9))
        W = np.triu((rng.random((n, n)) < 0.5) * rng.integers(1, 4, (n, n)), 1).astype(float)
        W = W + W.T
        if rng.random() < 0.5:  # drop one entry, or add 1 to it, on one side only
            i, j = rng.integers(0, n, 2)
            W[i, j] = 0.0 if W[i, j] and rng.random() < 0.5 else W[i, j] + 1.0
        M = sp.csr_matrix(W)
        want = not abs(M - M.T).sum() != 0.0
        verdicts.add(want)
        assert ingest.is_symmetric(CSRArrays(M.indptr, M.indices, M.data, M.shape)) == want
    assert verdicts == {True, False}


@pytest.mark.parametrize("width", [1, 7, 1 << 16, (1 << 16) + 5, 3 << 17])
def test_transpose_equals_scipys(width):
    # Widths past 2^16 take the second 16-bit radix pass.
    rng = np.random.default_rng(width)
    cols = rng.choice(width, size=min(width, 40), replace=False)
    cols[: len(cols) // 2] = cols[0]  # one column shared by many rows
    M = sp.csr_matrix((rng.random(len(cols)) + 0.5, (rng.integers(0, 9, len(cols)), cols)),
                      shape=(9, width))
    M.sum_duplicates()
    got = ingest._transposed(CSRArrays(M.indptr, M.indices, M.data, M.shape))
    want = M.T.tocsr()
    want.sort_indices()
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_extract_index_order_is_lexicographic():
    corpus = make_corpus([
        tweet_line("t1", "zed", text="#beta"),
        tweet_line("t2", "ana", text="#alpha"),
    ])
    counts = extract_interactions(corpus)
    assert counts.users == sorted(counts.users)
    assert counts.hashtags == sorted(counts.hashtags)


def test_extract_empty_corpus_raises():
    with pytest.raises(StanceGraphError, match="^no tweets to extract interactions from$"):
        extract_interactions(Corpus(tweets=(), follows=set(), outlets=frozenset(), locations={}))
    # tweets without any hashtag leave nothing to count either
    corpus = make_corpus([tweet_line("t1", "alice", text="sin etiquetas")])
    with pytest.raises(StanceGraphError, match="^no hashtags in corpus$"):
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
        assert np.array_equal(dense(a), dense(b))


def small_counts(rng: np.random.Generator, n: int = 4, m: int = 3):
    T = rng.integers(0, 3, size=(n, m)) * (rng.random((n, m)) < 0.6)
    follow = np.triu(rng.random((n, n)) < 0.5, k=1)
    mention = rng.integers(0, 2, size=(n, n)) * (1 - np.eye(n))
    return counts_from(T, T_retweet=np.eye(n, m), mention=mention,
                       mutual=(follow | follow.T).astype(float))


# COUNT_MATRICES positions of two matrices the malformed cases edit.
T_TWEET, MENTION = COUNT_MATRICES.index("T_tweet"), COUNT_MATRICES.index("mention")


def test_counts_file_is_csr_columns(tmp_path):
    # The file is the documented layout: the header, each matrix's CSR
    # arrays in COUNT_MATRICES order and the compact UTF-8 JSON of the ids,
    # which keeps a non-ASCII id as it is.
    counts = small_counts(np.random.default_rng(3))
    counts = dataclasses.replace(counts, users=["usér", "ü2", "u3", "u4"])
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    ids = json_ids(counts.users, counts.hashtags)
    assert b'"us\xc3\xa9r"' in ids
    assert path.read_bytes() == counts_container((4, 3), count_arrays(counts), ids)


def test_counts_and_graph_files_share_the_array_dtypes():
    assert ingest.CSR_DTYPES == ("<i4", "<i4", "<f8")
    assert GRAPH.layout(3, 4, 5) == [("<i4", 4), ("<i4", 5), ("<f8", 5)]
    layout = COUNTS.layout(3, 4, 9, 5, 0, 0, 0, 0, 0)
    assert layout[:3] == GRAPH.layout(3, 4, 5) and layout[-1] == ("u1", 9)


def test_count_matrices_hold_the_stored_dtypes_in_memory(tmp_path):
    # Extracted, synthesized and loaded matrices all hold CSR_DTYPES, so a
    # save writes their buffers as they are and a load keeps what it read.
    corpus = make_corpus([tweet_line("t1", "ana", text="#a #b"),
                          tweet_line("t2", "bob", text="#b", kind="retweet")],
                         follows=["ana\tbob", "bob\tana"])
    synth = synth_generate(RunConfig(n_users=20, n_hashtags=10, n_neutral=2,
                                       interactions_per_user=4, annotated_per_camp=2),
                           np.random.default_rng(0)).counts
    path = tmp_path / "counts.json"
    save_counts(synth, path)
    for counts in (extract_interactions(corpus), synth, load_counts(path)):
        for name in COUNT_MATRICES + ("T",):
            assert csr_dtypes(getattr(counts, name)) == NATIVE_CSR_DTYPES, name


def test_count_matrices_refuse_a_shape_beyond_int32():
    with pytest.raises(StanceGraphError, match="does not fit int32 indices"):
        ingest._unit_counts([0], [INDEX_MAX], (1, INDEX_MAX + 1))
    widest = ingest._unit_counts([0], [INDEX_MAX - 1], (1, INDEX_MAX))
    assert widest.indices.tolist() == [INDEX_MAX - 1]


def test_counts_file_with_int64_indices_is_refused(tmp_path):
    # The index arrays written as "<i8": each takes twice the bytes the
    # header implies.
    counts = small_counts(np.random.default_rng(9))
    mats = [[np.asarray(indptr, "<i8").tobytes(), np.asarray(indices, "<i8").tobytes(), data]
            for indptr, indices, data in count_arrays(counts)]
    path = tmp_path / "old.json"
    path.write_bytes(counts_container((4, 3), mats, json_ids(counts.users, counts.hashtags)))
    with pytest.raises(RecordError, match="does not match header"):
        load_counts(path)


def test_counts_roundtrip_is_byte_exact(tmp_path):
    bundles = [small_counts(np.random.default_rng(seed), n, m)
               for seed, n, m in ((5, 4, 3), (6, 1, 1), (7, 6, 2))]
    # a bundle with no interactions at all: every matrix is empty
    bundles.append(counts_from(np.zeros((3, 2))))
    for k, counts in enumerate(bundles):
        first, second = tmp_path / f"a{k}.json", tmp_path / f"b{k}.json"
        save_counts(counts, first)
        save_counts(load_counts(first), second)
        assert first.read_bytes() == second.read_bytes()
    # a bundle with no interactions of some kinds keeps its empty matrices
    assert len(load_counts(tmp_path / "b0.json").T_reply.data) == 0
    assert all(len(getattr(load_counts(second), name).data) == 0 for name in COUNT_MATRICES)


def test_counts_file_with_empty_matrices(tmp_path):
    counts = counts_from(np.zeros((3, 2)))
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    ids = json_ids(counts.users, counts.hashtags)
    # The magic and the header, then each matrix's indptr of zeros alone.
    assert path.stat().st_size == 6 + 76 + 6 * 4 * 4 + len(ids)
    assert path.read_bytes() == counts_container((3, 2), [[[0] * 4, [], []]] * 6, ids)
    loaded = load_counts(path)
    assert loaded.T_tweet.shape == (3, 2)
    assert len(loaded.T.data) == 0 and len(loaded.mutual_follow.data) == 0


def test_loaded_count_arrays_are_writable_native_arrays(tmp_path):
    path = tmp_path / "counts.json"
    save_counts(small_counts(np.random.default_rng(13), 5, 4), path)
    counts = load_counts(path)
    for name in COUNT_MATRICES:
        mat = getattr(counts, name)
        for arr in (mat.indptr, mat.indices, mat.data):
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.dtype.isnative
        assert mat.data.dtype == np.float64
        np.multiply(mat.data, 2.0, out=mat.data)


def counts_file(edit=None, ids=None) -> bytes:
    """A counts file of small_counts(seed 9), with `edit` applied to its
    arrays (a list of each matrix's [indptr, indices, data]) and `ids` in
    place of its id block. The header keeps the entry counts of the
    unedited arrays."""
    counts = small_counts(np.random.default_rng(9))
    mats = count_arrays(counts)
    assert len(mats[T_TWEET][2]) and len(mats[MENTION][2])
    nnz = [len(indices) for _, indices, _ in mats]
    if edit:
        edit(mats)
    if ids is None:
        ids = json_ids(counts.users, counts.hashtags)
    return counts_container((4, 3), mats, ids, nnz)


def removed(mats, k: int, *columns: int) -> None:
    for column in columns:
        mats[k][column] = b""


def as_bytes(mats, k: int, column: int, convert) -> None:
    mats[k][column] = convert(mats[k][column])


def edited(mats, k: int, column: int, values) -> None:
    mats[k][column][...] = values


USERS, TAGS = ["u000", "u001", "u002", "u003"], ["h000", "h001", "h002"]


@pytest.mark.parametrize("blob", [
    lambda: counts_file(lambda m: removed(m, MENTION, 0, 1, 2)),
    lambda: counts_file(ids=json.dumps([TAGS]).encode()),
    lambda: counts_file(ids=json_ids("u000", TAGS)),
    lambda: counts_file(ids=json_ids(USERS, [1, 2, 3])),
    lambda: b'{"users":["u000"],"hashtags":["h000"],"T_tweet":[[0,0,1.0]]}',
    lambda: counts_file(lambda m: removed(m, T_TWEET, 1, 2)),
    lambda: counts_file(lambda m: as_bytes(m, T_TWEET, 1, lambda a: np.repeat(a, 2).tobytes())),
    lambda: counts_file(lambda m: as_bytes(m, T_TWEET, 1, lambda a: a.astype("<f8").tobytes())),
    lambda: counts_file(lambda m: as_bytes(m, T_TWEET, 1, lambda a: a.astype("?").tobytes())),
    lambda: counts_file(lambda m: edited(m, T_TWEET, 1, 3)),
    lambda: counts_file(lambda m: as_bytes(m, MENTION, 0, lambda a: a[:-1].tobytes())),
    lambda: counts_file(lambda m: edited(m, MENTION, 0, [1, *m[MENTION][0][1:]])),
    lambda: counts_file(lambda m: edited(m, MENTION, 2, -1.0)),
    lambda: counts_file(lambda m: as_bytes(m, MENTION, 2, lambda a: b"1" * len(a))),
    lambda: counts_file(lambda m: edited(m, MENTION, 2, np.nan)),
    lambda: counts_file(lambda m: edited(m, MENTION, 2, np.inf)),
    lambda: b"[" + counts_file() + b"]",
    lambda: counts_file(ids=json_ids(["user\nzero"] + USERS[1:], TAGS)),
    lambda: counts_file(ids=json_ids(USERS[:-1] + ["user\rlast"], TAGS)),
    lambda: counts_file(ids=json_ids(USERS, ["a\tb"] + TAGS[1:])),
    lambda: counts_file(ids=json.dumps([["\ud800"] + USERS[1:], TAGS]).encode("ascii")),
], ids=["missing-matrix", "missing-users", "users-not-list", "hashtag-not-string",
        "old-triples", "missing-columns", "nested-indices", "float-indices", "bool-indices",
        "index-out-of-range", "short-indptr", "indptr-start", "negative-count",
        "string-count", "nan-count", "inf-count", "not-an-object", "user-with-newline",
        "user-with-cr", "hashtag-with-tab", "user-lone-surrogate"])
def test_load_counts_rejects_malformed(tmp_path, blob):
    # Arrays missing or stored in another dtype (nested-indices: two items
    # per entry, string-count: decimal text) do not fill the size the
    # header implies.
    path = tmp_path / "bad.json"
    path.write_bytes(blob())
    with pytest.raises(RecordError):
        load_counts(path)


@pytest.mark.parametrize("ids", [b"[" + b"1" * 5000 + b"]", b"[" * 100_000, b"\xff"],
                         ids=["integer-too-long", "nested-too-deep", "not-utf-8"])
def test_load_counts_refuses_json_the_decoder_cannot_hold(tmp_path, ids):
    path = tmp_path / "bad.json"
    path.write_bytes(counts_file(ids=ids))
    with pytest.raises(RecordError, match="bad id block"):
        load_counts(path)


@pytest.mark.parametrize("column", [
    lambda c: np.frombuffer(base64.b64decode(c["indptr"]), "<i4").tolist(),
    lambda c: None,
    lambda c: 7,
    lambda c: "AAAAAAAAAAé=",
    lambda c: "AAAA!AAAAAA=",
    lambda c: "AAAAAAAAAAA",
    lambda c: "AAAAAAAA\nAAA=",
    lambda c: base64.b64encode(bytes(10)).decode(),
    lambda c: base64.b64encode(bytes(12)).decode(),
], ids=["list-format", "null", "number", "non-ascii", "bad-character", "missing-padding",
        "line-break", "ragged-bytes", "ragged-data-bytes"])
def test_load_counts_refuses_a_column_that_is_not_base64_items(tmp_path, column):
    # counts.json in the JSON layout of base64 columns that earlier versions
    # wrote is refused at its first bytes, whatever a column holds; before,
    # each of these was refused as "bad matrix columns".
    payload = json_counts_payload(small_counts(np.random.default_rng(9)))
    payload["mention"]["indptr"] = column(payload["mention"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(RecordError, match=r"bad\.json: not a counts file \(bad magic\)$"):
        load_counts(path)


def test_load_counts_rejects_truncated_and_non_utf8(tmp_path):
    path = tmp_path / "counts.json"
    save_counts(small_counts(np.random.default_rng(11)), path)
    blob = path.read_bytes()
    for k, bad in enumerate((blob[: len(blob) // 2], b"", b"\xff" + blob[1:],
                             blob[:-1] + b"\xff")):
        bad_path = tmp_path / f"bad{k}.json"
        bad_path.write_bytes(bad)
        with pytest.raises(RecordError):
            load_counts(bad_path)


def asymmetric_follow(counts, path):
    mats = count_arrays(counts)
    mats[COUNT_MATRICES.index("mutual_follow")] = [[0, 1, 1, 1, 1], [1], [1.0]]
    path.write_bytes(counts_container((4, 3), mats, json_ids(counts.users, counts.hashtags)))


def overflowing_sum(counts, path):
    huge = count_matrix([[1e308, 0.0, 0.0]] + [[0.0] * 3] * 3)
    save_counts(dataclasses.replace(counts, T_tweet=huge, T_retweet=huge), path)


@pytest.mark.parametrize("damage, message", [
    (asymmetric_follow, "mutual_follow is not symmetric"),
    (overflowing_sum, "T_tweet + T_retweet + T_reply overflows"),
], ids=["asymmetric-follow", "overflow"])
def test_load_counts_refuses_inconsistent_matrices_naming_the_file(tmp_path, damage, message):
    # Each matrix passes checked_csr on its own, but load_counts refuses
    # them together.
    path = tmp_path / "counts.json"
    damage(small_counts(np.random.default_rng(9)), path)
    with pytest.raises(RecordError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_counts(path)


@pytest.mark.parametrize("users, hashtags, repeated", [
    (["u0", "u0", "u2", "u3"], ["h0", "h1", "h2"], "user id 'u0'"),
    (["u0", "u1", "u2", "u3"], ["h0", "h2", "h2"], "hashtag 'h2'"),
], ids=["user", "hashtag"])
def test_load_counts_refuses_a_repeated_id(tmp_path, users, hashtags, repeated):
    # Before, it loaded, and the index dicts took two rows or columns for one.
    counts = dataclasses.replace(small_counts(np.random.default_rng(9)), users=users,
                                 hashtags=hashtags)
    path = tmp_path / "counts.json"
    save_counts(counts, path)
    with pytest.raises(RecordError, match=f"^{path}: repeated {repeated}$"):
        load_counts(path)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 4), m=st.integers(1, 3), data=st.data())
def test_counts_loader_fuzz_returns_valid_counts_or_typed_error(seed, n, m, data):
    counts = load_corrupted(
        lambda path: save_counts(small_counts(np.random.default_rng(seed), n, m), path),
        load_counts, lambda path, counts: save_counts(counts, path), data)
    if counts is not None:
        assert_counts_consistent(counts)
        for name in COUNT_MATRICES:
            mat = getattr(counts, name)
            assert to_scipy(mat).has_canonical_format
            assert np.isfinite(mat.data).all() and (mat.data > 0).all()
