"""Corpus parsing, text normalization, filters, and count extraction."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

from stancegraph.errors import DegenerateHashtag, EmptyCorpus, RecordError, ShapeError
from stancegraph.ingest import (
    Corpus,
    CorpusFilterConfig,
    apply_filters,
    extract_interactions,
    load_counts,
    normalize_hashtag,
    parse_corpus,
    preprocess_text,
    save_counts,
)

from conftest import counts_from


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


# text preprocessing ---------------------------------------------------------

def test_preprocess_removes_urls_and_punctuation():
    assert preprocess_text("Vota YA! https://t.co/x") == ["vota", "ya"]


def test_preprocess_empty_text():
    assert preprocess_text("") == []


def test_preprocess_accents_and_email():
    assert preprocess_text("Más info vía email a@b.cl") == ["mas", "info", "via", "email"]


def test_preprocess_drops_mentions_and_emoji():
    assert preprocess_text("oye @pedro vamos \U0001F600 ahora") == ["oye", "vamos", "ahora"]


def test_preprocess_stopwords_and_stemmer():
    tokens = preprocess_text("la marcha grande", stopwords=frozenset({"la"}),
                             stemmer=lambda t: t[:4])
    assert tokens == ["marc", "gran"]


# corpus parsing -------------------------------------------------------------

def test_parse_three_valid_lines():
    lines = [tweet_line(f"t{i}", "alice", text=f"hola #tag{i}") for i in range(3)]
    corpus = parse_corpus(lines)
    assert len(corpus.tweets) == 3


def test_parse_malformed_line_strict():
    lines = [tweet_line("t1", "alice"), "{not json", tweet_line("t2", "bob")]
    with pytest.raises(RecordError) as err:
        parse_corpus(lines, strict=True)
    assert "line 2" in str(err.value)


def test_parse_malformed_line_lenient_skips():
    lines = [tweet_line("t1", "alice"), "{not json", tweet_line("t2", "bob")]
    corpus = parse_corpus(lines, strict=False)
    assert len(corpus.tweets) == 2


def test_parse_duplicate_tweet_id_last_wins(caplog):
    lines = [
        tweet_line("t1", "alice", text="first #a"),
        tweet_line("t1", "alice", text="second #b"),
    ]
    with caplog.at_level("WARNING"):
        corpus = parse_corpus(lines)
    assert len(corpus.tweets) == 1
    assert corpus.tweets[0].hashtags == ("b",)
    assert any("duplicate" in rec.message.lower() for rec in caplog.records)


def test_parse_extracts_hashtags_from_text_when_absent():
    corpus = parse_corpus([tweet_line("t1", "alice", text="vamos #Apruebo #YA")])
    assert corpus.tweets[0].hashtags == ("apruebo", "ya")


def test_parse_explicit_hashtags_override_text():
    corpus = parse_corpus([tweet_line("t1", "alice", text="#ignored", hashtags=["#Dado"])])
    assert corpus.tweets[0].hashtags == ("dado",)


def test_parse_follow_and_outlet_streams():
    corpus = parse_corpus(
        [tweet_line("t1", "alice")],
        follow_lines=["alice\tbob", "bob\talice"],
        outlet_lines=["pressdesk"],
    )
    assert ("alice", "bob") in corpus.follows and ("bob", "alice") in corpus.follows
    assert "pressdesk" in corpus.outlets


def test_parse_bad_kind_rejected():
    line = tweet_line("t1", "alice", kind="quote")
    with pytest.raises(RecordError):
        parse_corpus([line])


# filters --------------------------------------------------------------------

def make_corpus(lines, follows=(), outlets=()):
    return parse_corpus(lines, follow_lines=follows, outlet_lines=outlets)


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
        CorpusFilterConfig(location_allowlist=frozenset({"santiago"})),
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
