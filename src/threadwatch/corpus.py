"""Corpus data model and line-oriented JSONL ingest.

A corpus file holds one JSON object per line, each tagged with
``kind`` in {page, post, comment}. Ingest buffers all records first
and then resolves references, so the result is independent of line
order. Records with unknown parents or duplicate ids are dropped and
counted; orphans are deleted from the tables in place, and survivors
keep their input order.

Comment lines, nearly all of a corpus, take one fused path: orjson
reads the line, and the record is built at once when its ids, author
and text are strings, its timestamp and like count are ints and the like
count is not negative. Every other line takes the general path, where
orjson reads each line and ``json.loads`` decides every line that orjson
rejects or may read differently. Both paths accept the same values and
report the same line errors, those of ``json.loads``.

Records are immutable tuples (``NamedTuple``). Within one ingest, page,
post and author ids share one string per distinct value, so a comment's
``post_id`` is the very object its post holds. The sharing table is
local to the call and freed with it; nothing is interned process-wide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

import orjson


class Region(str, Enum):
    MIDDLE_EAST = "MiddleEast"
    ASIA = "Asia"
    EUROPE = "Europe"
    US_NEWS = "USNews"
    US_POLITICS = "USPolitics"
    OTHER = "Other"


_REGION_LOOKUP = {r.value.lower(): r for r in Region}


class Page(NamedTuple):
    page_id: str
    name: str
    region: Region


class Post(NamedTuple):
    post_id: str
    page_id: str
    author_id: str
    created_ts: int
    like_count: int
    raw_text: str


class Comment(NamedTuple):
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


# the sort key (created_ts, id) of a Post or a Comment, by field position;
# it orders threads, and the comments within each
TIME_ORDER = itemgetter(3, 0)

_REQUIRED = {
    "page": ("id", "name", "region"),
    "post": ("id", "page_id", "author_id", "created_ts", "like_count", "text"),
    "comment": ("id", "post_id", "author_id", "created_ts", "like_count", "text"),
}
_FIELDS = {kind: itemgetter(*names) for kind, names in _REQUIRED.items()}


def _int_field(value: object, name: str) -> int:
    """A number field that is not an int: a float with no fractional part
    as an int; anything else is an error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# orjson gives a str or an int only where json.loads gives the same value
_EXACT = frozenset((str, int))


def _line_fields(line: bytes) -> tuple[str, tuple] | None:
    """The kind of one corpus line and the field values its record is
    built from, or None for a blank line.

    orjson reads the line when every value taken from it is a str or an
    int. Any other line goes to json.loads, which decides it: orjson
    rejects NaN, ``1e400``, lone surrogates and nesting past 1024 levels,
    and reads an integer beyond 64 bits as a float.
    """
    try:
        obj = orjson.loads(line)
        kind = obj["kind"]
        values = _FIELDS[kind](obj)
        if _EXACT.issuperset(map(type, values)):
            return kind, values
    except (orjson.JSONDecodeError, KeyError, TypeError):
        pass
    # a bad byte is a ValueError
    text = line.removesuffix(b"\n").decode("utf-8")
    if not text.strip():
        return None
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _REQUIRED:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        return kind, _FIELDS[kind](obj)
    except KeyError:
        missing = [f for f in _REQUIRED[kind] if f not in obj]
        raise ValueError(f"{kind} record missing fields {missing}") from None


def _make_record(kind: str, values: tuple, ids: dict[str, str]) -> tuple[str, tuple]:
    """The id and record of one line's field values; page, post and
    author ids are replaced by their first-seen string in ``ids``."""
    rid = str(values[0])
    share = ids.setdefault
    if kind == "page":
        _, name, region_name = values
        region = _REGION_LOOKUP.get(str(region_name).lower())
        if region is None:
            raise ValueError(f"unknown region {region_name!r}")
        rid = share(rid, rid)
        return rid, tuple.__new__(Page, (rid, str(name), region))
    _, parent, author, ts, like, text = values
    if type(like) is not int:
        like = _int_field(like, "like_count")
    if type(ts) is not int:
        ts = _int_field(ts, "created_ts")
    if like < 0:
        raise ValueError("like_count must be >= 0")
    parent, author = str(parent), str(author)
    parent, author = share(parent, parent), share(author, author)
    if kind == "post":
        rid = share(rid, rid)
        return rid, tuple.__new__(Post, (rid, parent, author, ts, like, str(text)))
    return rid, tuple.__new__(Comment, (rid, parent, author, ts, like, str(text)))


def ingest(path: str) -> IngestResult:
    """Load and validate a corpus file.

    Malformed lines (invalid UTF-8, bad JSON, non-objects, bad fields or
    numbers) are reported with their line number and skipped; an
    unreadable file raises CorpusError. Records referencing unknown
    parents, and later records repeating an id, are dropped.
    """
    # one string per distinct page, post and author id; ids are attacker
    # written, so the table lives and dies with this call (no sys.intern)
    ids: dict[str, str] = {}
    pages: dict[str, Page] = {}
    posts: dict[str, Post] = {}
    comments: dict[str, Comment] = {}
    tables = {"page": pages, "post": posts, "comment": comments}
    errors: list[tuple[int, str]] = []
    dropped = 0

    loads, comment_values, share = orjson.loads, _FIELDS["comment"], ids.setdefault

    try:
        with open(path, "rb") as fh:
            # binary iteration splits on b"\n" only, one line in memory at a time
            for lineno, line in enumerate(fh, start=1):
                # the fused comment path: it takes a line only when the
                # general path below would build the same record from it
                try:
                    obj = loads(line)
                    if obj["kind"] == "comment":
                        cid, parent, author, ts, like, text = comment_values(obj)
                        # chained: each of the four types is str, both of the two int
                        if (type(cid) is type(parent) is type(author) is type(text) is str
                                and type(ts) is type(like) is int and like >= 0):
                            if cid in comments:
                                dropped += 1
                            else:
                                comments[cid] = tuple.__new__(Comment, (
                                    cid, share(parent, parent), share(author, author),
                                    ts, like, text))
                            continue
                except (orjson.JSONDecodeError, KeyError, TypeError):
                    pass
                try:
                    fields = _line_fields(line)
                    if fields is None:
                        continue
                    kind, values = fields
                    rid, rec = _make_record(kind, values, ids)
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
    # order never matters; orphans are deleted in place, not copied around
    orphans = [pid for pid, p in posts.items() if p.page_id not in pages]
    for pid in orphans:
        del posts[pid]
    dropped += len(orphans)
    orphans = []
    skew = 0
    for cid, c in comments.items():
        parent = posts.get(c.post_id)
        if parent is None:
            orphans.append(cid)
        elif c.created_ts < parent.created_ts:
            skew += 1
    for cid in orphans:
        del comments[cid]
    dropped += len(orphans)

    corpus = Corpus(pages=pages, posts=posts, comments=comments, skew_clamped=skew)
    kept = len(pages) + len(posts) + len(comments)
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
    for post in sorted(corpus.posts.values(), key=TIME_ORDER):
        members = by_post[post.post_id]
        members.sort(key=TIME_ORDER)
        threads.append(PostThread(post, members))
    return threads
