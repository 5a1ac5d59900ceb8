"""Corpus data model and line-oriented JSONL ingest.

A corpus file holds one JSON object per line, each tagged with
``kind`` in {page, post, comment}. Ingest buffers all records first
and then resolves references, so the result is independent of line
order. Records with unknown parents or duplicate ids are dropped and
counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter


class Region(str, Enum):
    MIDDLE_EAST = "MiddleEast"
    ASIA = "Asia"
    EUROPE = "Europe"
    US_NEWS = "USNews"
    US_POLITICS = "USPolitics"
    OTHER = "Other"


_REGION_LOOKUP = {r.value.lower(): r for r in Region}


@dataclass(frozen=True)
class Page:
    page_id: str
    name: str
    region: Region


@dataclass(frozen=True)
class Post:
    post_id: str
    page_id: str
    author_id: str
    created_ts: int
    like_count: int
    raw_text: str


@dataclass(frozen=True)
class Comment:
    comment_id: str
    post_id: str
    author_id: str
    created_ts: int
    like_count: int
    raw_text: str


@dataclass
class PostThread:
    post: Post
    comments: list[Comment]  # sorted by (created_ts, comment_id)


@dataclass
class Corpus:
    pages: dict[str, Page] = field(default_factory=dict)
    posts: dict[str, Post] = field(default_factory=dict)
    comments: dict[str, Comment] = field(default_factory=dict)
    # comments timestamped before their post; clamped in relative-time math
    skew_clamped: int = 0


@dataclass
class IngestResult:
    corpus: Corpus
    kept: int
    dropped: int
    line_errors: list[tuple[int, str]] = field(default_factory=list)


class CorpusError(Exception):
    pass


def rel_seconds(post: Post, comment: Comment) -> int:
    """Seconds between a comment and its post, clamped at zero for clock skew."""
    return max(0, comment.created_ts - post.created_ts)


def rel_minutes(post: Post, comment: Comment) -> float:
    return rel_seconds(post, comment) / 60.0


_REQUIRED = {
    "page": ("id", "name", "region"),
    "post": ("id", "page_id", "author_id", "created_ts", "like_count", "text"),
    "comment": ("id", "post_id", "author_id", "created_ts", "like_count", "text"),
}
_FIELDS = {kind: itemgetter(*names) for kind, names in _REQUIRED.items()}


def _int_field(value: object, name: str) -> int:
    """A JSON integer, or a float with no fractional part; nothing else."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _parse_record(obj) -> tuple[str, str, object]:
    """The kind, id and record of one parsed JSON line."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _REQUIRED:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        values = _FIELDS[kind](obj)
    except KeyError:
        missing = [f for f in _REQUIRED[kind] if f not in obj]
        raise ValueError(f"{kind} record missing fields {missing}") from None
    rid = str(values[0])
    if kind == "page":
        _, name, region_name = values
        region = _REGION_LOOKUP.get(str(region_name).lower())
        if region is None:
            raise ValueError(f"unknown region {region_name!r}")
        return kind, rid, Page(rid, str(name), region)
    _, parent, author, ts, like, text = values
    like, ts = _int_field(like, "like_count"), _int_field(ts, "created_ts")
    if like < 0:
        raise ValueError("like_count must be >= 0")
    cls = Post if kind == "post" else Comment
    return kind, rid, cls(rid, str(parent), str(author), ts, like, str(text))


def ingest(path: str) -> IngestResult:
    """Load and validate a corpus file.

    Malformed lines (invalid UTF-8, bad JSON, non-objects, bad fields or
    numbers) are reported with their line number and skipped; an
    unreadable file raises CorpusError. Records referencing unknown
    parents, and later records repeating an id, are dropped.
    """
    pages: dict[str, Page] = {}
    posts: dict[str, Post] = {}
    comments: dict[str, Comment] = {}
    tables = {"page": pages, "post": posts, "comment": comments}
    errors: list[tuple[int, str]] = []
    dropped = 0

    try:
        with open(path, "rb") as fh:
            # binary iteration splits on b"\n" only, one line in memory at a time
            for lineno, line in enumerate(fh, start=1):
                try:
                    # a bad byte is a ValueError
                    text = line.removesuffix(b"\n").decode("utf-8")
                    if not text.strip():
                        continue
                    kind, rid, rec = _parse_record(json.loads(text))
                except (ValueError, TypeError, RecursionError) as exc:
                    errors.append((lineno, str(exc)))
                    continue
                table = tables[kind]
                if rid in table:
                    dropped += 1
                else:
                    table[rid] = rec
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    # referential integrity, resolved after the full pass so that input
    # order never matters
    kept_posts = {}
    for pid, p in posts.items():
        if p.page_id in pages:
            kept_posts[pid] = p
        else:
            dropped += 1
    kept_comments = {}
    skew = 0
    for cid, c in comments.items():
        parent = kept_posts.get(c.post_id)
        if parent is None:
            dropped += 1
            continue
        if c.created_ts < parent.created_ts:
            skew += 1
        kept_comments[cid] = c

    corpus = Corpus(pages=pages, posts=kept_posts, comments=kept_comments,
                    skew_clamped=skew)
    kept = len(pages) + len(kept_posts) + len(kept_comments)
    return IngestResult(corpus=corpus, kept=kept, dropped=dropped,
                        line_errors=errors)


def build_threads(corpus: Corpus) -> list[PostThread]:
    """One thread per post, comments sorted by (created_ts, comment_id).

    Threads are ordered by the post's (created_ts, post_id), so output
    is stable across runs and input orderings.
    """
    by_post: dict[str, list[Comment]] = {pid: [] for pid in corpus.posts}
    for c in corpus.comments.values():
        by_post[c.post_id].append(c)
    threads = []
    for post in sorted(corpus.posts.values(), key=lambda p: (p.created_ts, p.post_id)):
        members = by_post[post.post_id]
        members.sort(key=lambda c: (c.created_ts, c.comment_id))
        threads.append(PostThread(post, members))
    return threads
