"""Temporal forensics over labeled attacks: empirical CDF tables for
thread-relative position, minutes since post creation, and per-page
inter-attack gaps, plus a month-by-page heatmap.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone

from .corpus import TIME_ORDER, Corpus, build_threads, rel_minutes, write_csv
from .labeler import Category, MaliciousLabel, labelled_comments

DAY_MINUTES = 1440.0

Ecdf = list[tuple[float, float]]  # (x, F) points, sorted by x


@dataclass(frozen=True)
class AttackEvent:
    comment_id: str
    page_id: str
    category: Category
    ts: int
    minutes_since_post: float
    relative_position: float
    region: str


def ecdf(values: list[float]) -> Ecdf:
    """Standard empirical CDF with one point per distinct value."""
    xs = sorted(values)
    n = len(xs)
    points = []
    count = 0
    for i, x in enumerate(xs):
        count += 1
        if i + 1 == n or xs[i + 1] != x:
            points.append((x, count / n))
    return points


def attack_events(corpus: Corpus, labels: list[MaliciousLabel]) -> list[AttackEvent]:
    """One event per (labeled comment, category), with thread-relative
    coordinates computed from the sorted comment order; ``labelled_comments``
    checks the labels first."""
    comment_of = labelled_comments(corpus, labels)
    comments_of = {t.post.post_id: t.comments for t in build_threads(corpus)}
    events = []
    for lab in labels:
        comment = comment_of[lab.comment_id]
        post = corpus.posts[comment.post_id]
        page = corpus.pages[post.page_id]
        # (created_ts, comment_id) is unique, so this is the comment's rank
        thread = comments_of[post.post_id]
        rank = bisect_left(thread, TIME_ORDER(comment), key=TIME_ORDER)
        n = len(thread)
        events.append(AttackEvent(
            comment_id=comment.comment_id,
            page_id=page.page_id,
            category=lab.category,
            ts=comment.created_ts,
            minutes_since_post=rel_minutes(post, comment),
            relative_position=rank / (n - 1) if n > 1 else 0.0,
            region=page.region.value,
        ))
    events.sort(key=lambda e: (e.ts, e.comment_id, e.category.value))
    return events


def _grouped(events: list[AttackEvent], value) -> dict[str, list[float]]:
    """Values per region, per category, and over all events."""
    groups: dict[str, list[float]] = {}
    for e in events:
        groups.setdefault(f"region:{e.region}", []).append(value(e))
        groups.setdefault(f"category:{e.category.value}", []).append(value(e))
    groups.setdefault("all", [value(e) for e in events])
    return groups


def _ecdfs(groups: dict[str, list[float]]) -> dict[str, Ecdf]:
    return {name: ecdf(vals) for name, vals in sorted(groups.items())}


def relative_positions(events: list[AttackEvent]) -> dict[str, Ecdf]:
    return _ecdfs(_grouped(events, lambda e: e.relative_position))


def time_since_post(events: list[AttackEvent]
                    ) -> tuple[dict[str, Ecdf], dict[str, float]]:
    """ECDFs of minutes since post creation, plus the fraction of each
    group's attacks landing within one day."""
    groups = _grouped(events, lambda e: e.minutes_since_post)
    within_day = {name: (sum(1 for v in vals if v <= DAY_MINUTES) / len(vals)
                         if vals else 0.0)
                  for name, vals in groups.items()}
    return _ecdfs(groups), within_day


def inter_attack_intervals(events: list[AttackEvent]) -> dict[str, Ecdf]:
    """Per-page consecutive attack gaps in minutes, grouped by page
    region and by category. A comment with several category labels
    counts once at page level, but contributes to each category group."""
    region = {e.page_id: e.region for e in events}
    groups: dict[str, list[float]] = {}
    for page_id, gaps in page_gaps(events).items():
        groups.setdefault(f"region:{region[page_id]}", []).extend(gaps)
        groups.setdefault("all", []).extend(gaps)
    # category groups keep label multiplicity but still gap within a page
    for (_, category), gaps in _gaps(events, lambda e: (e.page_id, e.category)).items():
        groups.setdefault(f"category:{category.value}", []).extend(gaps)
    return _ecdfs({name: gaps for name, gaps in groups.items() if gaps})


def page_gaps(events: list[AttackEvent]) -> dict[str, list[float]]:
    """Raw per-page gap lists (minutes), comment-deduplicated."""
    return _gaps(_per_comment(events), lambda e: e.page_id)


def _gaps(events: list[AttackEvent], key) -> dict:
    """Minutes between consecutive events of each key, in (ts, comment_id)
    order; a key with one event has no gap."""
    times: dict = {}
    for e in sorted(events, key=lambda e: (e.ts, e.comment_id)):
        times.setdefault(key(e), []).append(e.ts)
    return {k: [(b - a) / 60.0 for a, b in zip(ts, ts[1:])] for k, ts in times.items()}


def _per_comment(events: list[AttackEvent]) -> list[AttackEvent]:
    """One event per (page, comment): a comment with several category
    labels counts once."""
    return list({(e.page_id, e.comment_id): e for e in events}.values())


def _month(ts: int) -> int:
    """The UTC calendar month of a timestamp, as year * 12 + month - 1."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.year * 12 + dt.month - 1


def monthly_heatmap(events: list[AttackEvent], corpus: Corpus
                    ) -> tuple[list[str], list[str], list[list[int]]]:
    """Counts of attacks per (page, UTC calendar month).

    Returns (page names, YYYY-MM column labels, count matrix) with the
    month axis zero-filled over the observed range. Comments carrying
    several category labels count once.
    """
    events = _per_comment(events)
    if events:
        months = [_month(e.ts) for e in events]
        span = range(min(months), max(months) + 1)
    elif corpus.posts:
        all_ts = [p.created_ts for p in corpus.posts.values()]
        all_ts += [c.created_ts for c in corpus.comments.values()]
        span = range(_month(min(all_ts)), _month(max(all_ts)) + 1)
    else:
        span = range(0)
    pages = sorted(corpus.pages.values(), key=lambda p: p.page_id)
    row_index = {p.page_id: i for i, p in enumerate(pages)}
    matrix = [[0] * len(span) for _ in pages]
    for e in events:
        matrix[row_index[e.page_id]][_month(e.ts) - span.start] += 1
    labels = [f"{m // 12:04d}-{m % 12 + 1:02d}" for m in span]
    return [p.name for p in pages], labels, matrix


def write_ecdf_csv(tables: dict[str, Ecdf], path: str) -> None:
    write_csv(path, ["group", "x", "F"],
              ([name, repr(float(x)), f"{f:.6f}"]
               for name in sorted(tables) for x, f in tables[name]))


def write_heatmap_csv(pages: list[str], months: list[str],
                      matrix: list[list[int]], path: str) -> None:
    write_csv(path, ["page", *months],
              ([name, *row] for name, row in zip(pages, matrix)))
