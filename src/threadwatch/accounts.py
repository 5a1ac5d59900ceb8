"""Attacker vs. normal account characterization: global footprints,
response-time statistics, and campaign clustering by exact URL.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .corpus import TIME_ORDER, Comment, Corpus, rel_minutes, write_csv
from .labeler import MaliciousLabel, UrlObservation, url_key

SCATTER_THRESHOLD = 10


@dataclass(frozen=True)
class AccountFootprint:
    account_id: str
    n_pages: int
    n_posts: int
    n_comments: int
    n_likes: int


@dataclass(frozen=True)
class ResponseStats:
    account_id: str
    times: tuple[float, ...]
    mean: float
    std: float  # population


@dataclass(frozen=True)
class CampaignCluster:
    url: str
    occurrences: int
    accounts: frozenset[str]


class AccountError(ValueError):
    pass


def comments_by_author(corpus: Corpus, account_ids: list[str]
                       ) -> dict[str, list[Comment]]:
    """The comments of each listed account from one pass over the corpus,
    each list sorted by (created_ts, comment_id); a listed account with no
    comments gets an empty list. ``footprint`` and ``response_stats`` read
    this grouping, so one pass can serve several of their calls."""
    by_author: dict[str, list[Comment]] = {aid: [] for aid in account_ids}
    for c in corpus.comments.values():
        if c.author_id in by_author:
            by_author[c.author_id].append(c)
    for rows in by_author.values():
        rows.sort(key=TIME_ORDER)
    return by_author


def footprint(corpus: Corpus, by_author: dict[str, list[Comment]],
              account_ids: list[str]) -> list[AccountFootprint]:
    """Per listed account, in list order, the aggregation of a
    ``comments_by_author`` grouping that covers every listed id; an id
    with no comments yields a zero footprint."""
    out = []
    for aid in account_ids:
        rows = by_author[aid]
        posts = {c.post_id for c in rows}
        out.append(AccountFootprint(
            aid, len({corpus.posts[pid].page_id for pid in posts}), len(posts),
            len(rows), sum(c.like_count for c in rows)))
    return out


def check_sample_options(per_page: int, seed: int) -> None:
    """Raise AccountError unless ``sample_normal_accounts`` takes these
    values: neither may be negative. A command checks them before it
    reads a corpus."""
    if per_page < 0:
        raise AccountError(f"per_page must be >= 0, got {per_page}")
    if seed < 0:
        raise AccountError(f"seed must be >= 0, got {seed}")


def sample_normal_accounts(corpus: Corpus, attackers: set[str],
                           per_page: int = 1000, seed: int = 0) -> list[str]:
    """Seeded per-page sample of at most per_page commenters never seen
    in the attacker set; per_page 0 gives an empty sample.

    Pages go in sorted order. A page's pool holding at most per_page
    accounts is taken whole; from a larger one, the stdlib generator
    ``random.Random(seed)``, one for all pages, draws per_page accounts
    without replacement, listed in sorted order. The seed must not be
    negative: ``random.Random`` seeds from its absolute value.
    """
    check_sample_options(per_page, seed)
    by_page: dict[str, set[str]] = {}
    for c in corpus.comments.values():
        if c.author_id in attackers:
            continue
        page_id = corpus.posts[c.post_id].page_id
        by_page.setdefault(page_id, set()).add(c.author_id)
    rng = random.Random(seed)
    sample: list[str] = []
    for page_id in sorted(by_page):
        pool = sorted(by_page[page_id])
        if len(pool) <= per_page:
            sample.extend(pool)
        else:
            sample.extend(sorted(rng.sample(pool, per_page)))
    return sample


def response_stats(corpus: Corpus, by_author: dict[str, list[Comment]],
                   account_ids: list[str]) -> list[ResponseStats]:
    """Per listed account, the minutes between each of its comments and
    its post's creation, in comment-timestamp order, with mean and
    population std; ``by_author`` is a ``comments_by_author`` grouping
    that covers every listed id."""
    out = []
    for aid in account_ids:
        if not by_author[aid]:
            raise AccountError(f"account {aid} has no comments")
        out.append(stats_from_times(aid, tuple(rel_minutes(corpus.posts[c.post_id], c)
                                               for c in by_author[aid])))
    return out


def stats_from_times(account_id: str, times: tuple[float, ...]) -> ResponseStats:
    mean = sum(times) / len(times)
    var = sum((t - mean) ** 2 for t in times) / len(times)
    return ResponseStats(account_id, times, mean, math.sqrt(var))


def cluster_campaigns(labels: list[MaliciousLabel],
                      observations: list[UrlObservation]) -> list[CampaignCluster]:
    """Group labeled comments by exact malicious URL.

    Labels are joined back to their full URLs through the observations:
    an observation matches a label when it shares the comment and its
    domain or its URL's ``url_key`` equals the matched key. Each label
    takes the URL of its matching observation with the smallest
    (domain, url), so the clusters do not depend on the order of the
    observations.
    """
    obs_by_comment: dict[str, list[UrlObservation]] = {}
    for o in observations:
        obs_by_comment.setdefault(o.comment_id, []).append(o)

    hits: dict[str, dict[str, str]] = {}  # url -> comment_id -> account
    for lab in labels:
        key = lab.matched_key
        matching = [(o.domain, o.url, o.account_id)
                    for o in obs_by_comment.get(lab.comment_id, ())
                    if o.domain == key or url_key(o.url) == key]
        if matching:
            _, url, account = min(matching)
            hits.setdefault(url, {})[lab.comment_id] = account
    clusters = [CampaignCluster(url, len(comments), frozenset(comments.values()))
                for url, comments in hits.items()]
    clusters.sort(key=lambda c: (-c.occurrences, c.url))
    return clusters


def campaign_scatter(clusters: list[CampaignCluster]
                     ) -> list[tuple[str, int, int, str]]:
    """One (url, n_accounts, occurrences, flag) point per cluster.

    Flags the two pathological corners: many accounts spreading one URL,
    and one account posting many copies.
    """
    points = []
    for c in clusters:
        flag = ""
        if len(c.accounts) >= SCATTER_THRESHOLD:
            flag = "synchronized multi-account"
        elif len(c.accounts) == 1 and c.occurrences >= SCATTER_THRESHOLD:
            flag = "single-account repetition"
        points.append((c.url, len(c.accounts), c.occurrences, flag))
    return points


def write_footprint_csv(groups: dict[str, list[AccountFootprint]], path: str) -> None:
    write_csv(path, ["account_id", "group", "n_pages", "n_posts", "n_comments", "n_likes"],
              ([f.account_id, group, f.n_pages, f.n_posts, f.n_comments, f.n_likes]
               for group in sorted(groups) for f in groups[group]))


def write_scatter_csv(points: list[tuple[str, int, int, str]], path: str) -> None:
    write_csv(path, ["url_hash", "n_accounts", "occurrences", "flag"],
              ([hashlib.sha256(url.encode("utf-8")).hexdigest()[:16], n_accounts,
                occurrences, flag] for url, n_accounts, occurrences, flag in points))


def write_response_csv(stats: dict[str, list[ResponseStats]], path: str) -> None:
    write_csv(path, ["account_id", "group", "n", "mean_min", "std_min"],
              ([s.account_id, group, len(s.times), f"{s.mean:.4f}", f"{s.std:.4f}"]
               for group in sorted(stats) for s in stats[group]))
