"""Seeded synthetic corpus generator.

Stands in for the private dataset: benign comment arrivals follow a
rise-peak-decay Poisson intensity, target threads get a popularity
lift, and malicious comments are injected per a strategy mix with URLs
drawn from a generated blacklist. Every injected attack is recorded as
planted truth so the labeling pipeline can be verified end to end.

GeneratorConfig holds what callers set: the seed, the page and thread
counts and the attacked share (``synth`` flags), the strategy mix
(``synth --profile``) and the share of benign comments that carry a
URL. Every other setting is a module constant below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .corpus import Comment, Corpus, Page, Post, Region, url_tokens, write_lines
from .labeler import Category, MaliciousLabel

EARLY_STAGE = "EarlyStage"
LATE_STAGE = "LateStage"
SYNC_BURST = "SyncBurst"
SINGLE_REPEAT = "SingleAccountRepeat"

STRATEGIES = (EARLY_STAGE, LATE_STAGE, SYNC_BURST, SINGLE_REPEAT)

SHORTENER_HOST = "sh-url.io"

# 2011-01-01T00:00:00Z .. 2014-11-30T00:00:00Z
_START_TS = 1293840000
_END_TS = 1417305600

# popularity scale factor for the comments and likes of target threads
TARGET_LIFT = 3.0
# arrival intensity shape: rises, peaks at PEAK_MINUTE, long-tail decay
PEAK_MINUTE = 12.0
MEAN_FIRST_HOUR_COMMENTS = 40.0
# per-thread popularity spread (lognormal sigma); heavy tails make
# popular non-targets overlap with targets
POPULARITY_SIGMA = 0.3
# fraction of targets whose activity is a sharp early burst (peaking at
# BURST_PEAK_MINUTE) instead of a sustained lift; the two target modes
# together make single-feature marginals bimodal
BURST_TARGET_FRACTION = 0.45
BURST_PEAK_MINUTE = 2.0
SYNC_BURST_ACCOUNTS = 4
SYNC_BURST_SPAN_MINUTES = 8.0
SINGLE_REPEAT_COPIES = 12
REGIONS = ("MiddleEast", "Asia", "Europe", "USNews", "USPolitics")
ACCOUNTS_PER_PAGE = 400
N_ATTACKER_ACCOUNTS = 60
ATTACKER_ZERO_LIKE_PROB = 0.75
SHORTENER_FRACTION = 0.3
CAMPAIGN_URLS_PER_CATEGORY = 25
SIM_MINUTES = 600


class ConfigError(ValueError):
    pass


class BlacklistEntry(NamedTuple):  # a planted key, as write_blacklist_tsv writes it
    key: str  # a domain, or a full URL when it contains "/"
    category: Category


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 42
    n_pages: int = 10
    n_threads: int = 2000
    target_fraction: float = 0.1
    strategy_mix: dict[str, float] = field(default_factory=lambda: {
        EARLY_STAGE: 0.25, LATE_STAGE: 0.25, SYNC_BURST: 0.25, SINGLE_REPEAT: 0.25})
    benign_url_prob: float = 0.05

    def validate(self) -> None:
        if self.n_pages < 1 or self.n_threads < 1:
            raise ConfigError("n_pages and n_threads must be positive")
        if not 0.0 < self.target_fraction < 1.0:
            raise ConfigError("target_fraction must be in (0,1)")
        mix = self.strategy_mix
        if abs(sum(mix.values()) - 1.0) > 1e-9 or any(v < 0 for v in mix.values()):
            raise ConfigError("strategy_mix weights must be >= 0 and sum to 1")
        if set(mix) - set(STRATEGIES):
            raise ConfigError(f"unknown strategies {set(mix) - set(STRATEGIES)}")


@dataclass(frozen=True)
class PlantedAttack:
    comment_id: str
    category: str
    strategy: str
    account_id: str
    url: str


@dataclass
class SynthResult:
    corpus: Corpus  # its comments carry URL tokens, as ingest builds them
    comment_texts: dict[str, str]  # comment id -> text, for the corpus file
    blacklist: list[BlacklistEntry]
    shortener_hosts: list[str]
    shortener_map: dict[str, str]
    planted: list[PlantedAttack]


def intensity(minutes: np.ndarray, peak: float, amplitude: float) -> np.ndarray:
    """Per-minute arrival rate A*(t/tau)*exp(1 - t/tau)."""
    t = np.asarray(minutes, dtype=float)
    return amplitude * (t / peak) * np.exp(1.0 - t / peak)


def _amplitude() -> float:
    shape = intensity(np.arange(60) + 0.5, PEAK_MINUTE, 1.0)
    return MEAN_FIRST_HOUR_COMMENTS / float(shape.sum())


def _campaigns():
    """Deterministic campaign URL pool, blacklist, and shortener map.

    Domains are unique per (category, index) so a comment never matches
    more than one category."""
    blacklist = []
    urls: dict[str, list[str]] = {}
    shortener_map: dict[str, str] = {}
    short_alias: dict[str, str] = {}
    for category in Category:
        cat = category.value
        urls[cat] = []
        for j in range(CAMPAIGN_URLS_PER_CATEGORY):
            domain = f"{cat.lower()}{j:03d}-sink.com"
            url = f"http://{domain}/offer{j}"
            urls[cat].append(url)
            if j % 4 == 0:  # a quarter of the keys are full URLs
                blacklist.append(BlacklistEntry(f"{domain}/offer{j}", category))
            else:
                blacklist.append(BlacklistEntry(domain, category))
            if j % 3 == 0:  # a third of the campaigns hide behind the shortener
                code = f"{cat.lower()}{j:02d}"
                shortener_map[f"{SHORTENER_HOST}/{code}"] = url
                short_alias[url] = f"http://{SHORTENER_HOST}/{code}"
    blacklist.sort(key=lambda e: e.key)
    return urls, blacklist, shortener_map, short_alias


def _target_flags(n_threads: int, fraction: float) -> list[bool]:
    """Exactly round(fraction*n) targets, spread evenly over the index."""
    n_targets = round(n_threads * fraction)
    return [((i + 1) * n_targets) // n_threads > (i * n_targets) // n_threads
            for i in range(n_threads)]


_BENIGN_SNIPPETS = (
    "totally agree with this",
    "not sure I buy that",
    "this is big news",
    "thanks for sharing",
    "what happens next?",
    "saw this earlier today",
    "hard to believe",
    "following this story closely",
)


def generate(config: GeneratorConfig) -> SynthResult:
    """Build the corpus, blacklist, shortener table, and planted truth.

    Fully deterministic per config: each thread derives its own RNG from
    (seed, thread index)."""
    config.validate()
    amplitude = _amplitude()
    urls, blacklist, shortener_map, short_alias = _campaigns()
    master = np.random.default_rng([config.seed, 0])

    regions = [Region(REGIONS[i % len(REGIONS)])
               for i in range(config.n_pages)]
    pages = {f"pg{i:02d}": Page(f"pg{i:02d}", f"Synth Page {i:02d}", regions[i])
             for i in range(config.n_pages)}
    page_ids = sorted(pages)
    pools = {pid: [f"u{idx:02d}_{k:04d}" for k in range(ACCOUNTS_PER_PAGE)]
             for idx, pid in enumerate(page_ids)}
    attackers = [f"atk{k:03d}" for k in range(N_ATTACKER_ACCOUNTS)]
    attacker_zero_like = {a: bool(master.uniform() < ATTACKER_ZERO_LIKE_PROB)
                          for a in attackers}

    strategy_names = sorted(config.strategy_mix)
    strategy_w = np.array([config.strategy_mix[s] for s in strategy_names])
    category_names = sorted(c.value for c in Category)
    # uniform, but passed as p= all the same: numpy draws an unweighted
    # choice from the stream differently, which would change every corpus
    category_w = np.full(len(category_names), 1 / len(category_names))

    targets = _target_flags(config.n_threads, config.target_fraction)
    minutes_grid = np.arange(SIM_MINUTES) + 0.5
    base_lam = intensity(minutes_grid, PEAK_MINUTE, amplitude)

    posts: dict[str, Post] = {}
    comments: dict[str, Comment] = {}
    texts: dict[str, str] = {}
    planted: list[PlantedAttack] = []

    for i in range(config.n_threads):
        rng = np.random.default_rng([config.seed, 1, i])
        page_id = page_ids[i % config.n_pages]
        pool = pools[page_id]
        post_id = f"p{i:05d}"
        post_ts = int(_START_TS + rng.integers(0, _END_TS - _START_TS))
        spread = float(rng.lognormal(-0.5 * POPULARITY_SIGMA * POPULARITY_SIGMA,
                                     POPULARITY_SIGMA))
        burst_mode = bool(targets[i] and rng.uniform() < BURST_TARGET_FRACTION)
        lift = (TARGET_LIFT if targets[i] else 1.0) * spread
        post = Post(post_id, page_id, pool[int(rng.integers(len(pool)))],
                    post_ts, int(rng.poisson(30 * lift)),
                    f"synthetic story {i}")
        posts[post_id] = post

        if burst_mode:
            # same expected first-hour volume as a sustained-lift target,
            # but concentrated into the first few minutes
            lam = intensity(minutes_grid, BURST_PEAK_MINUTE, 1.0)
            lam *= (MEAN_FIRST_HOUR_COMMENTS * lift) / float(lam[:60].sum())
        else:
            lam = base_lam * lift
        counts = rng.poisson(lam)
        events: list[tuple[int, str, int, str]] = []  # (ts, author, likes, text)
        for minute in np.nonzero(counts)[0]:
            for _ in range(int(counts[minute])):
                ts = post_ts + int(minute) * 60 + int(rng.integers(0, 60))
                author = pool[int(rng.integers(len(pool)))]
                likes = int(rng.poisson(0.5 * lift))
                if rng.uniform() < config.benign_url_prob:
                    text = f"source: http://news-site.org/story/{int(rng.integers(10000))}"
                else:
                    text = _BENIGN_SNIPPETS[int(rng.integers(len(_BENIGN_SNIPPETS)))]
                events.append((ts, author, likes, text))

        attack_events: list[tuple[int, str, str, str]] = []  # (ts, account, url, strategy)
        if targets[i]:
            strategy = strategy_names[int(rng.choice(len(strategy_names), p=strategy_w))]
            category = category_names[int(rng.choice(len(category_names), p=category_w))]
            url = urls[category][int(rng.integers(len(urls[category])))]
            if strategy == EARLY_STAGE:
                t_attack = rng.uniform(0.0, PEAK_MINUTE)
                account = attackers[int(rng.integers(len(attackers)))]
                attack_events.append((post_ts + int(t_attack * 60), account, url, strategy))
            elif strategy == LATE_STAGE:
                benign_minutes = sorted((ts - post_ts) / 60.0 for ts, *_ in events)
                if benign_minutes:
                    q = rng.uniform(0.55, 0.98)
                    t_attack = float(np.quantile(benign_minutes, q))
                else:
                    t_attack = 60.0
                account = attackers[int(rng.integers(len(attackers)))]
                attack_events.append((post_ts + int(t_attack * 60) + 1, account, url, strategy))
            elif strategy == SYNC_BURST:
                k = SYNC_BURST_ACCOUNTS
                picks = rng.choice(len(attackers), size=k, replace=False)
                t0 = rng.uniform(3.0, 90.0)
                offsets = np.sort(rng.uniform(0.0, SYNC_BURST_SPAN_MINUTES, size=k))
                for acc_idx, off in zip(picks, offsets):
                    attack_events.append((post_ts + int((t0 + off) * 60),
                                          attackers[int(acc_idx)], url, strategy))
            else:  # SINGLE_REPEAT
                account = attackers[int(rng.integers(len(attackers)))]
                times = np.sort(rng.uniform(0.0, 180.0, size=SINGLE_REPEAT_COPIES))
                for t in times:
                    attack_events.append((post_ts + int(t * 60), account, url, strategy))

        rows: list[tuple[int, str, int, str, str | None, str | None]] = [
            (ts, author, likes, text, None, None) for ts, author, likes, text in events]
        for ts, account, url, strategy in attack_events:
            if attacker_zero_like[account]:
                likes = 0
            else:
                likes = int(rng.poisson(0.3))
            shown = None
            if url in short_alias and rng.uniform() < SHORTENER_FRACTION:
                shown = short_alias[url]
            text = f"check this out {shown or url}"
            rows.append((ts, account, likes, text, url, strategy))

        rows.sort(key=lambda r: r[0])
        for j, (ts, author, likes, text, url, strategy) in enumerate(rows):
            cid = f"c{i:05d}_{j:04d}"
            comments[cid] = Comment(cid, post_id, author, ts, likes, url_tokens(text))
            texts[cid] = text
            if url is not None:  # an attack of this thread's category
                planted.append(PlantedAttack(cid, category, strategy, author, url))

    corpus = Corpus(pages=pages, posts=posts, comments=comments)
    planted.sort(key=lambda p: p.comment_id)
    return SynthResult(corpus=corpus, comment_texts=texts, blacklist=blacklist,
                       shortener_hosts=[SHORTENER_HOST],
                       shortener_map=dict(sorted(shortener_map.items())),
                       planted=planted)


def profile_config(profile: str, **overrides) -> GeneratorConfig:
    """Preset configs: 'default' uses the mixed strategy blend; 'early',
    'late', 'burst', and 'repeat' concentrate all attacks on one strategy."""
    mixes = {
        "default": None,
        "early": {EARLY_STAGE: 1.0, LATE_STAGE: 0.0, SYNC_BURST: 0.0, SINGLE_REPEAT: 0.0},
        "late": {EARLY_STAGE: 0.0, LATE_STAGE: 1.0, SYNC_BURST: 0.0, SINGLE_REPEAT: 0.0},
        "burst": {EARLY_STAGE: 0.0, LATE_STAGE: 0.0, SYNC_BURST: 1.0, SINGLE_REPEAT: 0.0},
        "repeat": {EARLY_STAGE: 0.0, LATE_STAGE: 0.0, SYNC_BURST: 0.0, SINGLE_REPEAT: 1.0},
    }
    if profile not in mixes:
        raise ConfigError(f"unknown profile {profile!r}; choose from {sorted(mixes)}")
    config = GeneratorConfig(**overrides)
    if mixes[profile] is not None:
        config = replace(config, strategy_mix=mixes[profile])
    config.validate()
    return config


@dataclass
class VerifyReport:
    precision: float
    recall: float


def verify_planted(labels: list[MaliciousLabel],
                   planted: list[PlantedAttack]) -> VerifyReport:
    """Compare labeler output against the generator's planted truth on
    (comment_id, category) pairs."""
    got = {(lab.comment_id, lab.category.value) for lab in labels}
    want = {(p.comment_id, p.category) for p in planted}
    precision = (len(got & want) / len(got)) if got else 1.0
    recall = (len(got & want) / len(want)) if want else 1.0
    return VerifyReport(precision, recall)


# ---------------------------------------------------------------------------
# file emission

def write_corpus_jsonl(result: SynthResult, path: str) -> None:
    corpus = result.corpus
    pages = ({"kind": "page", "id": p.page_id, "name": p.name, "region": p.region.value}
             for p in map(corpus.pages.get, sorted(corpus.pages)))
    posts = ({"kind": "post", "id": p.post_id, "page_id": p.page_id,
              "author_id": p.author_id, "created_ts": p.created_ts,
              "like_count": p.like_count, "text": p.raw_text}
             for p in map(corpus.posts.get, sorted(corpus.posts)))
    comments = ({"kind": "comment", "id": c.comment_id, "post_id": c.post_id,
                 "author_id": c.author_id, "created_ts": c.created_ts,
                 "like_count": c.like_count, "text": result.comment_texts[c.comment_id]}
                for c in map(corpus.comments.get, sorted(corpus.comments)))
    write_lines(path, (json.dumps(record, sort_keys=True)
                       for records in (pages, posts, comments) for record in records))


def write_blacklist_tsv(result: SynthResult, path: str) -> None:
    write_lines(path, (f"{e.key}\t{e.category.value.lower()}" for e in result.blacklist))


def write_shortener_files(result: SynthResult, map_path: str, hosts_path: str) -> None:
    write_lines(map_path, (f"{short}\t{target}"
                           for short, target in result.shortener_map.items()))
    write_lines(hosts_path, result.shortener_hosts)


def write_planted_jsonl(result: SynthResult, path: str) -> None:
    write_lines(path, (json.dumps({"comment_id": p.comment_id, "category": p.category,
                                   "strategy": p.strategy, "account_id": p.account_id,
                                   "url": p.url}, sort_keys=True)
                       for p in result.planted))


def read_planted_jsonl(path: str) -> list[PlantedAttack]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                d = json.loads(line)
                out.append(PlantedAttack(d["comment_id"], d["category"],
                                         d["strategy"], d["account_id"], d["url"]))
    return out
