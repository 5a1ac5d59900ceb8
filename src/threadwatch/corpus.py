"""Corpus data model and line-oriented JSONL ingest.

A corpus file holds one JSON object per line, each tagged with
``kind`` in {page, post, comment}. Ingest buffers all records first
and then resolves references, so the result is independent of line
order. Records with unknown parents or duplicate ids are dropped and
counted; orphans are deleted from the tables in place, and survivors
keep their input order.

Every line takes one path. orjson reads it once, and one check takes
its values as they are when the ids, name, region and text are strings
and the numbers of a post or a comment are ints; orjson reads a string
or an int only where ``json.loads`` reads the same value. ``json.loads``
decides every other line (``_line_fields``), so line errors are those of
``json.loads``. One builder then checks the region or the like count and
makes the record of each kind.

A comment keeps the raw URL tokens of its text, not the text: labelling
reads nothing else of it, and texts are a large part of a corpus's memory.
Ingest tokenizes each distinct comment text that holds a "/" once, in
time linear in its length (see ``url_tokens``).

Records are immutable tuples (``NamedTuple``). Within one ingest, page,
post and author ids share one string per distinct value, so a comment's
``post_id`` is the very object its post holds, and equal token tuples
share one tuple. The sharing table is local to the call and freed with
it; nothing is interned process-wide.

Every output file is written as UTF-8 by one of two writers: ``write_csv``
for tables (``csv.writer``, lines end in CRLF) and ``write_lines`` for line
files (lines end in LF on every platform). ``open_text`` opens an operator
file to read and names the line of a byte that is not UTF-8.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterable
from contextlib import contextmanager
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
    url_tokens: tuple[str, ...]  # raw, in text order; () when there are none


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


def at_line(path: str, message: str, *linenos: int) -> str:
    """The error text of a reader: ``<path> line N: message``, or
    ``<path> lines N and M: message`` for a fault that two lines make."""
    where = " and ".join(map(str, linenos))
    return f"{path} {'lines' if len(linenos) > 1 else 'line'} {where}: {message}"


@contextmanager
def open_text(path: str, error: type[ValueError], newline: str | None = None):
    """The file at path, open to read as UTF-8 text. A byte that is not
    UTF-8 raises ``error`` with the ``at_line`` text of the first line
    that holds one; the lines are decoded one by one only then, and only
    in a regular file: any other, such as a pipe, cannot be read again."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        if not os.path.isfile(path):
            raise error(f"{path}: {exc}") from None
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise error(at_line(path, str(bad), lineno)) from None
        raise  # not this file's byte, or the file changed since


def write_csv(path: str, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write the header and then the rows through ``csv.writer``, as UTF-8;
    each line ends in CRLF."""
    import csv  # loaded only by the commands that write a table
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line followed by LF, as UTF-8, with no newline
    translation."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def rel_seconds(post: Post, comment: Comment) -> int:
    """Seconds between a comment and its post, clamped at zero for clock skew."""
    return max(0, comment.created_ts - post.created_ts)


def rel_minutes(post: Post, comment: Comment) -> float:
    return rel_seconds(post, comment) / 60.0


# URL tokens. A token is what this pattern finds, scanning left to right:
#
#   (?i)\b( https?://[^\s<>"']+ | (?:[a-z0-9][a-z0-9-]*\.)+[a-z]{2,}/[^\s<>"']* )
#
# Tried as written, the scheme-less alternative rescans a dotted run from
# every label in it, so one long run of "a." takes time quadratic in its
# length. url_tokens gives the same tokens, at any host length, by trying
# a host only where a run of host characters that ends in ".<letters>/"
# starts. The leftmost host in such a run starts after the last "." that
# is followed by "." or "-", which a search from the run's end finds. Each
# character is scanned a bounded number of times.

# a scheme URL (group 1), or a run of host characters that no host
# character precedes and that ends in ".<letters>/"
_CANDIDATE = re.compile(r"""(?ix)
    \b(https?://[^\s<>"']+)
  | (?<![a-z0-9.-])[a-z0-9.-]*\.[a-z]{2,}/
""")
_PATH = re.compile(r"""[^\s<>"']*""")
# a label start inside a run: a character after "." or "-" that is neither
_LABEL_START = re.compile(r"[.-][^.-]")


def _host_start(text: str, s: int, j: int) -> int:
    """Where the leftmost host in the run text[s:j] starts, or -1.

    The run holds only host characters and ends in ".<letters>". A host
    is text[i:j] for an i at a word boundary whose labels are not empty
    and do not start with "-"; so i lies after the last "." that is
    followed by "." or "-".
    """
    dot = text.rfind(".", s, j)
    bad = max(text.rfind("..", s, dot + 1), text.rfind(".-", s, dot + 1))
    if bad < 0 and text[s] not in ".-" and not (
            s and (text[s - 1].isalnum() or text[s - 1] == "_")):
        return s
    m = _LABEL_START.search(text, max(bad, s), dot)
    return -1 if m is None else m.start() + 1


def url_tokens(text: str) -> tuple[str, ...]:
    """The raw URL tokens of a comment's text, in text order."""
    tokens = []
    search, pos = _CANDIDATE.search, 0
    while m := search(text, pos):
        pos = m.end()
        if m.group(1) is not None:
            tokens.append(m.group(1))
            continue
        start = _host_start(text, m.start(), pos - 1)
        if start >= 0:
            pos = _PATH.match(text, pos).end()
            tokens.append(text[start:pos])
    return tuple(tokens)


# the sort key (created_ts, id) of a Post or a Comment, by field position;
# it orders threads, and the comments within each
TIME_ORDER = itemgetter(3, 0)

_REQUIRED = {
    "page": ("id", "name", "region"),
    "post": ("id", "page_id", "author_id", "created_ts", "like_count", "text"),
    "comment": ("id", "post_id", "author_id", "created_ts", "like_count", "text"),
}
_FIELDS = {kind: itemgetter(*names) for kind, names in _REQUIRED.items()}

# the created_ts range that datetime holds in UTC: 0001-01-01T00:00:00Z to
# 9999-12-31T23:59:59Z
MIN_TS, MAX_TS = -62135596800, 253402300799


def _int_field(value: object, name: str) -> int:
    """A number field as an int: a float with no fractional part as an
    int; anything else but an int is an error."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _line_fields(line: bytes) -> tuple[str, tuple] | None:
    """The kind of a corpus line that orjson rejects or reads into other
    types, and its field values as the record holds them: ids, name and
    text as str, numbers as int, the region as read; None for a blank line.

    json.loads decides the line: orjson rejects NaN, ``1e400``, lone
    surrogates and nesting past 1024 levels, and reads an integer beyond
    64 bits as a float.
    """
    # a bad byte is a ValueError
    text = line.removesuffix(b"\n").decode("utf-8")
    if not text.strip(" \t\r\n"):  # JSON whitespace only
        return None
    obj = json.loads(text)
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
    if kind == "page":
        rid, name, region = values
        return kind, (str(rid), str(name), region)
    rid, parent, author, ts, like, text = values
    like = _int_field(like, "like_count")
    ts = _int_field(ts, "created_ts")
    return kind, (str(rid), str(parent), str(author), ts, like, str(text))


def ingest(path: str) -> IngestResult:
    """Load and validate a corpus file.

    Malformed lines (invalid UTF-8, bad JSON, non-objects, bad fields or
    numbers, a ``created_ts`` outside ``MIN_TS``..``MAX_TS``) are reported
    with their line number and skipped; a line of JSON whitespace alone is
    skipped silently; an unreadable file raises CorpusError. Records
    referencing unknown parents, and later records repeating an id, are
    dropped.
    """
    # one object per distinct page, post and author id and per distinct
    # token tuple; both are attacker written, so the table lives and dies
    # with this call (no sys.intern)
    shared: dict = {}
    # the token tuple of each distinct comment text that holds a "/":
    # campaigns repeat their texts, so each is tokenized once; the texts
    # are freed when this call returns
    by_text: dict[str, tuple[str, ...]] = {}
    pages: dict[str, Page] = {}
    posts: dict[str, Post] = {}
    comments: dict[str, Comment] = {}
    tables = {"page": pages, "post": posts, "comment": comments}
    errors: list[tuple[int, str]] = []
    dropped = 0

    loads, share = orjson.loads, shared.setdefault
    # each kind's field reader and table
    kinds = {kind: (_FIELDS[kind], table) for kind, table in tables.items()}

    try:
        with open(path, "rb") as fh:
            # binary iteration splits on b"\n" only, one line in memory at a time
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj = loads(line)
                    fields, table = kinds[obj["kind"]]
                    values = fields(obj)
                    # the fast check, one for every kind: the ids, name,
                    # region and text are str, and the numbers of a post or
                    # a comment are int
                    exact = (type(values[0]) is type(values[1]) is type(values[2]) is str
                             and (table is pages
                                  or type(values[5]) is str
                                  and type(values[3]) is type(values[4]) is int))
                except (orjson.JSONDecodeError, KeyError, TypeError):
                    exact = False
                try:
                    if not exact:
                        parsed = _line_fields(line)
                        if parsed is None:
                            continue
                        kind, values = parsed
                        table = tables[kind]
                    # checked before the id, so a repeat with a bad field
                    # is a line error
                    if table is pages:
                        rid, name, region_name = values
                        region = _REGION_LOOKUP.get(str(region_name).lower())
                        if region is None:
                            raise ValueError(f"unknown region {region_name!r}")
                    else:
                        rid, parent, author, ts, like, text = values
                        if like < 0:
                            raise ValueError("like_count must be >= 0")
                        if not MIN_TS <= ts <= MAX_TS:
                            raise ValueError("created_ts out of range")
                except (ValueError, TypeError, RecursionError) as exc:
                    errors.append((lineno, str(exc)))
                    continue
                if rid in table:
                    dropped += 1
                elif table is comments:
                    tokens = ()
                    if "/" in text:
                        tokens = by_text.get(text)
                        if tokens is None:
                            tokens = url_tokens(text)
                            tokens = by_text[text] = share(tokens, tokens)
                    comments[rid] = tuple.__new__(Comment, (
                        rid, share(parent, parent), share(author, author), ts, like, tokens))
                elif table is posts:
                    rid = share(rid, rid)
                    posts[rid] = tuple.__new__(Post, (
                        rid, share(parent, parent), share(author, author), ts, like, text))
                else:
                    rid = share(rid, rid)
                    pages[rid] = tuple.__new__(Page, (rid, name, region))
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
