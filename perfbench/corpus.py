"""Seeded raw corpus generator for the pipeline benchmark.

Writes the inputs `stancegraph ingest` reads (tweets JSONL, follows TSV,
outlet list) plus the annotation TSV and the planted camp of every user.
The same spec and seed give byte-identical files: only `random.Random`
drives the draws, and every file is written in a fixed order.

Why each property is there is recorded in BENCHMARK.json under the
workloads that use this generator; in short:
- two planted camps, so stance accuracy has a ground truth;
- Zipf hashtag popularity and lognormal user activity, so the bipartite
  degree distribution is skewed and the PathSim graph is dense;
- an original/retweet/reply mix with mentions, so every relation the
  meta-path and social graphs read is populated;
- mutual follows with homophily, so the social channel carries camp signal;
- a slice of high-rate and many-outlet accounts, so the ingest filters
  drop users;
- mixed-case and accented spellings, so hashtag normalization does work.
The skew parameters are a guess: no real corpus ships with the repository.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

EPOCH_2023 = 1672531200  # 2023-01-01T00:00:00Z
SECONDS_PER_DAY = 86400
ACCENTS = {"a": "áà", "e": "éè", "i": "íì", "o": "óò", "u": "úù"}
WORDS = ("vote", "reform", "senate", "people", "future", "change", "europe", "union")


@dataclass(frozen=True)
class CorpusSpec:
    n_users: int
    n_hashtags: int
    n_tweets: int  # ordinary users' tweets, shared out by lognormal activity
    activity_sigma: float = 1.0
    max_tweets: int = 150  # cap for ordinary users: 2.5/day over the window
    zipf_s: float = 1.1
    neutral_share: float = 0.2  # share of hashtags in the neutral pool
    p_in: float = 0.8  # hashtag drawn from the user's own camp
    p_out: float = 0.05  # hashtag drawn from the other camp; rest neutral
    kind_mix: tuple[float, float, float] = (0.45, 0.4, 0.15)  # original, retweet, reply
    mention_rate: float = 0.3
    follows_per_user: int = 8
    homophily: float = 0.85  # share of follows and references inside the camp
    reciprocity: float = 0.6
    n_outlets: int = 30
    high_rate_share: float = 0.03
    outlet_heavy_share: float = 0.02
    variant_rate: float = 0.3  # share of hashtag uses spelled non-canonically
    days: int = 60
    annotated_per_camp: int = 15


def _spell(tag: str, rng: random.Random) -> str:
    out = []
    for ch in tag:
        if ch in ACCENTS and rng.random() < 0.3:
            ch = rng.choice(ACCENTS[ch])
        if rng.random() < 0.4:
            ch = ch.upper()
        out.append(ch)
    return "".join(out)


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def generate(spec: CorpusSpec, seed: int, out_dir) -> dict:
    """Write tweets.jsonl, follows.tsv, outlets.txt, annotations.tsv,
    planted.tsv and manifest.json under out_dir; return the manifest."""
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    users = [f"u{i:05d}" for i in range(spec.n_users)]
    camp = ["POS" if i % 2 == 0 else "NEG" for i in range(spec.n_users)]
    by_camp = {c: [u for u, k in zip(users, camp) if k == c] for c in ("POS", "NEG")}

    # Global popularity ranks are shuffled across pools, so every pool holds
    # both head and tail hashtags.
    n_neutral = max(1, int(spec.n_hashtags * spec.neutral_share))
    ranks = list(range(spec.n_hashtags))
    rng.shuffle(ranks)
    names = [f"{WORDS[j % len(WORDS)]}{j:04d}" for j in range(spec.n_hashtags)]
    pools = {"NEUTRAL": list(range(n_neutral))}
    camp_tags = list(range(n_neutral, spec.n_hashtags))
    pools["POS"] = camp_tags[0::2]
    pools["NEG"] = camp_tags[1::2]
    cum = {}
    for key, pool in pools.items():
        pool.sort(key=lambda j: ranks[j])
        acc, cw = 0.0, []
        for j in pool:
            acc += (ranks[j] + 1) ** -spec.zipf_s
            cw.append(acc)
        cum[key] = cw

    def draw_tag(own: str) -> int:
        other = "NEG" if own == "POS" else "POS"
        r = rng.random()
        key = own if r < spec.p_in else other if r < spec.p_in + spec.p_out else "NEUTRAL"
        cw = cum[key]
        return pools[key][bisect.bisect_left(cw, rng.random() * cw[-1])]

    def peer(own: str) -> str:
        side = own if rng.random() < spec.homophily else ("NEG" if own == "POS" else "POS")
        return rng.choice(by_camp[side])

    outlets = [f"outlet{k:03d}" for k in range(spec.n_outlets)]
    n_high = int(spec.n_users * spec.high_rate_share)
    n_heavy = int(spec.n_users * spec.outlet_heavy_share)
    flagged = rng.sample(range(spec.n_users), n_high + n_heavy)
    high_rate, outlet_heavy = set(flagged[:n_high]), set(flagged[n_high:])

    # Activity is lognormal in shape but scaled to a fixed total, so the
    # volume of work does not vary with the seed.
    weight = [rng.lognormvariate(0.0, spec.activity_sigma) for _ in users]
    scale = spec.n_tweets / sum(w for i, w in enumerate(weight) if i not in high_rate)
    window = spec.days * SECONDS_PER_DAY
    tweets = []
    for i, uid in enumerate(users):
        if i in high_rate:
            n = rng.randint(40, 80)
            start = EPOCH_2023 + rng.randrange(window - 3 * SECONDS_PER_DAY)
            span = 3 * SECONDS_PER_DAY
        else:
            n = min(spec.max_tweets, max(1, round(weight[i] * scale)))
            start, span = EPOCH_2023, window
        for _ in range(n):
            ts = start + rng.randrange(span)
            r = rng.random()
            kind = "original" if r < spec.kind_mix[0] else (
                "retweet" if r < spec.kind_mix[0] + spec.kind_mix[1] else "reply")
            n_tags = 1 + (rng.random() < 0.4) + (rng.random() < 0.15)
            tags = [draw_tag(camp[i]) for _ in range(n_tags)]
            spelled = [
                _spell(names[j], rng) if rng.random() < spec.variant_rate else names[j]
                for j in tags
            ]
            words = rng.sample(WORDS, 3)
            text = f"{words[0]} #{spelled[0]} {words[1]} " + " ".join("#" + s for s in spelled[1:])
            rec = {"user_id": uid, "timestamp": _iso(ts), "text": text.strip() + f" {words[2]}",
                   "kind": kind}
            if kind != "original":
                rec["ref_user_id"] = peer(camp[i])
            if rng.random() < spec.mention_rate:
                rec["mentions"] = sorted({peer(camp[i]) for _ in range(rng.randint(1, 2))})
            tweets.append(rec)

    with open(out / "tweets.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for k, rec in enumerate(tweets):
            rec = {"tweet_id": f"t{k:08d}", **rec}
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")

    follows = set()
    for i, uid in enumerate(users):
        for _ in range(rng.randint(spec.follows_per_user // 2, spec.follows_per_user * 3 // 2)):
            other = peer(camp[i])
            if other == uid:
                continue
            follows.add((uid, other))
            if rng.random() < spec.reciprocity:
                follows.add((other, uid))
        n_out = rng.randint(12, 25) if i in outlet_heavy else rng.randint(0, 3)
        for o in rng.sample(outlets, n_out):
            follows.add((uid, o))
    with open(out / "follows.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{a}\t{b}\n" for a, b in sorted(follows))
    with open(out / "outlets.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(o + "\n" for o in outlets)

    # The most popular hashtags of each camp are the annotated ones, as a
    # human annotator would label the tags they see most.
    with open(out / "annotations.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for cls in ("POS", "NEG"):
            for j in pools[cls][: spec.annotated_per_camp]:
                fh.write(f"{names[j]}\t{cls}\n")
    with open(out / "planted.tsv", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{u}\t{c}\n" for u, c in zip(users, camp))

    manifest = {
        "seed": seed,
        "spec": asdict(spec),
        "users": spec.n_users,
        "tweets": len(tweets),
        "follow_lines": len(follows),
        "planted_high_rate": n_high,
        "planted_outlet_heavy": n_heavy,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest
