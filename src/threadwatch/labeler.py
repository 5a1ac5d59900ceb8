"""Ground-truth labeling: URL normalization, shortener expansion, and the
keyed join of URL observations against a categorized blacklist.

Ingest takes each comment's raw URL tokens from its text once, in linear
time (``Comment.url_tokens``); labelling reads those tokens and scans no
text. ``extract_urls`` runs the same tokenizer on a text and normalizes
what it finds.

Every URL is compared with a key, and every blacklist and shortener key
is read, in the one form ``url_key`` gives: surrounding spaces and an
http(s):// scheme removed, the host (the text before the first "/")
lowercased and the path kept as written, since scheme and host are
case-insensitive and the path is not (RFC 3986 §6.2.2.1).

Blacklist keys containing "/" are full-URL keys; keys without "/" are
domain keys. A comment gets one label per category it matches; the
label's matched key is the smallest matching domain key, or, when no
domain key matches, the smallest matching full-URL key.

A blacklist is read twice, each time in one loop. ``load_blacklist``
checks and counts every line before the corpus is read, and indexes
nothing. ``label_comments`` then resolves each distinct raw URL token of
the corpus once, keeping only the ``url_key`` and the domain of its URL,
and reads the file again to index only the keys those can match. A
blacklist is far larger than the part of it one corpus reaches, so the
join's hash table is built on its small side (Shapiro, ACM TODS 11(3),
1986). The second read must find the same file (device, inode, size and
modification time) with the same number of entries; a file that cannot
be read twice, such as a pipe, is indexed whole at the first read. Each token is checked against that index once;
only the few that match are resolved again and make observations, one at
a time, and the join sees no other.
``collect_observations`` keeps every observation, in thread order.
"""

from __future__ import annotations

import os
import re
import stat
from collections.abc import Collection, Iterable
from enum import Enum
from itertools import chain, compress
from operator import itemgetter
from typing import NamedTuple
from urllib.parse import urlsplit, urlunsplit

from .corpus import (Comment, Corpus, at_line, build_threads, open_text, url_tokens,
                     write_lines)

MAX_EXPANSION_HOPS = 5

# two-level public suffixes seen in the corpus regions; registrable
# domains under these keep three labels
_PUBLIC_SUFFIXES = {"co.uk", "com.au", "com.tw", "co.jp"}

_TRAILING_JUNK = ".,;:!?)\"'’”]}>"

_SCHEME_RE = re.compile(r"(?i)https?://")

class Category(str, Enum):
    ADS = "Ads"
    MALWARE = "Malware"
    PHISHING = "Phishing"
    PORN = "Porn"


_CATEGORY_LOOKUP = {c.value.lower(): c for c in Category}

# the categories of a key listed once; every such key shares its tuple
_ONE_CATEGORY = {c: (c,) for c in Category}


class UrlObservation(NamedTuple):
    url: str
    domain: str
    comment_id: str
    account_id: str
    flagged: bool = False  # expansion chain exceeded the hop bound or cycled


class Blacklist:
    """Blacklist keys indexed for the join by their one reader,
    ``_read_blacklist``: domain keys and full-URL keys, each mapped to its
    distinct categories in file order. len() is the number of entries read."""

    __slots__ = ("domains", "urls", "entries")

    def __init__(self, domains: dict[str, tuple[Category, ...]],
                 urls: dict[str, tuple[Category, ...]], entries: int):
        self.domains = domains
        self.urls = urls
        self.entries = entries

    def __len__(self) -> int:
        return self.entries

    def indexed(self, wanted: Collection[str] | None = None) -> "Blacklist":
        """This index, whatever is wanted: a key no observation reaches
        changes no join."""
        return self


class BlacklistFile:
    """A regular blacklist file as ``load_blacklist`` checked it: its path,
    its identity (``_identity``) and the number of entries it held (len())."""

    __slots__ = ("path", "identity", "entries")

    def __init__(self, path: str, identity: tuple[int, ...], entries: int):
        self.path = path
        self.identity = identity
        self.entries = entries

    def __len__(self) -> int:
        return self.entries

    def indexed(self, wanted: Collection[str] | None = None) -> Blacklist:
        """The join's index of the file's keys in wanted (every key when
        None), read from the file again. A file that is not the one checked
        (another file, size or modification time, or another number of
        entries) raises LabelError naming it."""
        with open_text(self.path, LabelError) as fh:
            same = _identity(fh) == self.identity
            index = _read_blacklist(fh, self.path, wanted) if same else None
        if index is None or len(index) != self.entries:
            raise LabelError(f"{self.path}: changed between its two reads")
        return index


class MaliciousLabel(NamedTuple):
    comment_id: str
    category: Category
    matched_key: str


class LabelError(ValueError):
    pass


def normalize_url(token: str) -> str | None:
    """Canonical absolute URL for a raw text token, or None if unusable.

    Lowercases scheme and host, strips the fragment and trailing
    punctuation, and assumes http for scheme-less host.tld/path tokens.
    """
    token = token.rstrip(_TRAILING_JUNK)
    if not token:
        return None
    if not _SCHEME_RE.match(token):
        token = "http://" + token
    try:
        parts = urlsplit(token)
    except ValueError:  # an unclosed "[", or a host character NFKC maps to "/?#@:"
        return None  # comment text is attacker input; one token must not abort
    host = parts.netloc.lower()
    if "." not in host:
        return None
    return urlunsplit((parts.scheme.lower(), host, parts.path, parts.query, ""))


def extract_urls(raw_text: str) -> list[str]:
    """All normalized absolute http/https URLs found in a comment's text:
    the tokens ingest keeps for it (``Comment.url_tokens``), normalized."""
    out = []
    for token in url_tokens(raw_text):
        url = normalize_url(token)
        if url is not None:
            out.append(url)
    return out


def registrable_domain(url_or_host: str) -> str:
    """Registrable domain of a URL or hostname (lowercase, no scheme/path)."""
    host = url_or_host
    if "://" in host:
        host = urlsplit(host).netloc
    host = host.split("/", 1)[0].split(":", 1)[0].lower()
    labels = host.split(".")
    if len(labels) >= 3 and ".".join(labels[-2:]) in _PUBLIC_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:]) if len(labels) >= 2 else host


def url_key(text: str) -> str:
    """The form in which a URL and a key are compared: without
    surrounding spaces and an http(s):// scheme, the host (the text
    before the first "/") lowercased, the path as written."""
    text = text.strip()
    if "://" in text:  # _SCHEME_RE matches nothing else
        match = _SCHEME_RE.match(text)
        if match:
            text = text[match.end():]
    host, slash, path = text.partition("/")
    return host.lower() + slash + path


class ShortenerTable:
    """Offline stand-in for live shortener resolution.

    Holds the set of shortener hosts, lowercased, and a map from short URL
    (its ``url_key``) to target URL, normalized, as ``load`` reads them. A
    target that normalize_url rejects is left out, so its short link
    resolves to itself: whoever makes a short link chooses its target.
    """

    def __init__(self, hosts: set[str], mapping: dict[str, str]):
        self.hosts = hosts
        self.mapping = mapping

    @classmethod
    def load(cls, map_path: str, hosts_path: str) -> "ShortenerTable":
        """A map line without a tab or with an empty key, or a key that a
        later line maps to another target, raises LabelError naming the
        file and lines; a repeat of a line's key and target is accepted.
        The hosts file is read first, so that each file's fault is its own."""
        with open_text(hosts_path, LabelError) as fh:
            hosts = list(fh)
        with open_text(map_path, LabelError) as lines:
            return _read_shortener_table(hosts, lines, map_path)

    def lookup(self, url: str) -> str | None:
        host = urlsplit(url).netloc.lower()
        if host not in self.hosts:
            return None
        return self.mapping.get(url_key(url))


def _read_shortener_table(hosts: Iterable[str], lines: Iterable[str],
                          path: str) -> ShortenerTable:
    """The ``ShortenerTable`` of the host lines and of the lines of the map
    file at path, each map line read in one loop."""
    mapping: dict[str, str] = {}
    first: dict[str, int] = {}  # key -> the line that mapped it
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            short, target = line.split("\t", 1)
        except ValueError as exc:
            raise LabelError(at_line(path, "not short<TAB>target", lineno)) from exc
        key = url_key(short)
        if not key:
            raise LabelError(at_line(path, "empty key", lineno))
        target = normalize_url(target.strip())
        seen = first.setdefault(key, lineno)
        if seen != lineno and mapping.get(key) != target:
            raise LabelError(at_line(path, f"two targets for {key}", seen, lineno))
        if target is not None:
            mapping[key] = target
    return ShortenerTable({h.strip().lower() for h in hosts if h.strip()}, mapping)


def expand_url(url: str, table: ShortenerTable) -> tuple[str, bool]:
    """Follow shortener redirects through the offline table.

    Returns (resolved URL, flagged). flagged is True when the chain
    exceeds MAX_EXPANSION_HOPS or forms a cycle; the last resolved URL
    is returned in that case.
    """
    seen = {url}
    current = url
    for _ in range(MAX_EXPANSION_HOPS):
        target = table.lookup(current)
        if target is None:
            return current, False
        if target == current or target in seen:
            return current, True
        seen.add(target)
        current = target
    return current, table.lookup(current) is not None


def _resolve(token: str, table: ShortenerTable) -> tuple[str, str, bool] | None:
    """(resolved URL, domain, flagged) of one raw token, or None if it is
    unusable."""
    url = normalize_url(token)
    if url is None:
        return None
    resolved, flagged = expand_url(url, table)
    return resolved, registrable_domain(resolved), flagged


def _observations(comments: Iterable[Comment], hits: dict[str, tuple[str, str, bool]]):
    """One observation per (comment, URL token in hits) pair, yielded in
    the order of the comments given, each comment's in token order; hits
    maps a token to the (resolved URL, domain, flagged) of its URL."""
    new = tuple.__new__
    get = hits.get
    for comment in comments:
        if not comment.url_tokens:
            continue
        cid, _, author, _, _, tokens = comment
        for token in tokens:
            hit = get(token)
            if hit is not None:
                resolved, domain, flagged = hit
                yield new(UrlObservation, (resolved, domain, cid, author, flagged))


# a Comment's url_tokens, by field position
_URL_TOKENS = itemgetter(5)


def collect_observations(corpus: Corpus, table: ShortenerTable) -> list[UrlObservation]:
    """The observations of the corpus's comments, in thread order: threads
    as ``build_threads`` orders them, the comments of each in time order,
    each comment's observations in token order. Each distinct URL token is
    resolved once. The campaign stage reads these for the labelled
    comments; labelling itself keeps no observation (``label_comments``).
    """
    hits = {}
    for token in set(chain.from_iterable(map(_URL_TOKENS, corpus.comments.values()))):
        hit = _resolve(token, table)
        if hit is not None:
            hits[token] = hit
    comments = (c for thread in build_threads(corpus) for c in thread.comments)
    return list(_observations(comments, hits))


def load_blacklist(path: str) -> BlacklistFile | Blacklist:
    """Check a key<TAB>category TSV line by line, in one pass, and count
    its entries; its keys are indexed later, by ``BlacklistFile.indexed``.

    Keys are read as their ``url_key``; categories are case-insensitive.
    Blank lines are skipped. Operators, not attackers, write the blacklist,
    so a bad line (no tab, an unknown category, or a key that is empty once
    stripped) raises LabelError naming the file and line and aborts the run.
    A file that is not a regular file, such as a pipe, cannot be read
    again, so its whole index is returned.
    """
    with open_text(path, LabelError) as fh:
        identity = _identity(fh)
        if identity is None:
            return _read_blacklist(fh, path)
        entries = len(_read_blacklist(fh, path, ()))
    return BlacklistFile(path, identity, entries)


def _identity(fh) -> tuple[int, ...] | None:
    """The device, inode, size and modification time of an open regular
    file; None for any other file."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _read_blacklist(lines: Iterable[str], path: str,
                    wanted: Collection[str] | None = None) -> Blacklist:
    """The ``Blacklist`` of the lines of the file at path, read in one
    loop: every line is checked and counted, and the index holds the keys
    in wanted, or every key when wanted is None. With nothing wanted, a
    key's ``url_key`` is taken only when it holds "://", since any other
    key's is empty exactly when the stripped key is."""
    domains: dict[str, tuple[Category, ...]] = {}
    urls: dict[str, tuple[Category, ...]] = {}
    categories: dict[str, Category] = {}  # raw category field -> category
    check_only = wanted is not None and not wanted
    n = 0
    for lineno, line in enumerate(lines, start=1):
        key, tab, cat = line.partition("\t")
        category = categories.get(cat)
        if category is None:
            if not line.strip():
                continue
            if not tab:
                raise LabelError(at_line(path, "not key<TAB>category", lineno))
            category = _CATEGORY_LOOKUP.get(cat.strip().lower())
            if category is None:
                cat = cat.rstrip("\n")
                raise LabelError(at_line(path, f"unknown category {cat!r}", lineno))
            categories[cat] = category
        if check_only:
            if not key.strip() or "://" in key and not url_key(key):
                raise LabelError(at_line(path, "empty key", lineno))
            n += 1
            continue
        key = url_key(key)
        if not key:
            raise LabelError(at_line(path, "empty key", lineno))
        n += 1
        if wanted is not None and key not in wanted:
            continue
        index = urls if "/" in key else domains
        known = index.get(key, ())
        if category not in known:
            index[key] = known + (category,) if known else _ONE_CATEGORY[category]
    return Blacklist(domains, urls, n)


def join_blacklist(observations: Iterable[UrlObservation],
                   blacklist: Blacklist | BlacklistFile) -> list[MaliciousLabel]:
    """Match observations against the blacklist by keyed lookup.

    An observation matches when the ``url_key`` of its URL equals a
    full-URL key or its domain equals a domain key. Output has one
    label per (comment_id, category), sorted; its matched key is the
    smallest matching domain key, else the smallest matching full-URL
    key. The observations may be any iterable, read once, in any order;
    the keys of each distinct (url, domain) pair are looked up once. A
    blacklist file is indexed whole.
    """
    index = blacklist.indexed()
    domain_index, url_index = index.domains, index.urls

    # (is_url, key) orders domain keys first, then by key
    found: dict[tuple[str, Category], tuple[bool, str]] = {}
    # (url, domain) -> the (category, rank) pairs it matches
    matches: dict[tuple[str, str], list[tuple[Category, tuple[bool, str]]]] = {}
    for url, domain, cid, _, _ in observations:
        hits = matches.get((url, domain))
        if hits is None:
            key = url_key(url)
            hits = [(c, (False, domain)) for c in domain_index.get(domain, ())]
            hits += [(c, (True, key)) for c in url_index.get(key, ())]
            matches[url, domain] = hits
        for category, rank in hits:
            k = (cid, category)
            best = found.get(k)
            if best is None or rank < best:
                found[k] = rank

    labels = [MaliciousLabel(cid, cat, key)
              for (cid, cat), (_, key) in found.items()]
    labels.sort(key=lambda lab: (lab.comment_id, lab.category.value))
    return labels


def label_comments(comments: Collection[Comment], table: ShortenerTable,
                   blacklist: Blacklist | BlacklistFile) -> list[MaliciousLabel]:
    """The labels of the comments: ``join_blacklist`` over only those of
    their observations that match a key, made one at a time and never kept.
    Equal, for the comments of a corpus in any order, to ``join_blacklist``
    over ``collect_observations`` of that corpus.

    No Python loop runs over every comment. Those that hold a URL token
    are picked out once, and their distinct token tuples are few: ingest
    shares equal tuples, and campaigns repeat their links. The tokens that
    match a key (``_matching_tokens``) are resolved again, so only their
    hits are ever kept, and only the comments holding one make
    observations.
    """
    linked = list(filter(_URL_TOKENS, comments))  # the comments holding a token
    token_tuples = set(map(_URL_TOKENS, linked))
    matching, index = _matching_tokens(set(chain.from_iterable(token_tuples)), table,
                                       blacklist)
    hits = {token: _resolve(token, table) for token in matching}
    hit_tuples = {tokens for tokens in token_tuples if not matching.isdisjoint(tokens)}
    hit_comments = compress(linked, map(hit_tuples.__contains__, map(_URL_TOKENS, linked)))
    return join_blacklist(_observations(hit_comments, hits), index)


def _matching_tokens(tokens: Iterable[str], table: ShortenerTable,
                     blacklist: Blacklist | BlacklistFile) -> tuple[set[str], Blacklist]:
    """The distinct URL tokens whose URLs match a key, and the join's index
    of the blacklist's keys those URLs can reach. Each token is resolved
    once, and only the ``url_key`` and the domain of its URL are kept; each
    is checked against that index once."""
    url_keys: dict[str, str] = {}  # each token that normalizes -> its URL's url_key
    by_domain: dict[str, list[str]] = {}  # each domain of those URLs -> its tokens
    for token in tokens:
        hit = _resolve(token, table)
        if hit is not None:
            url_keys[token] = url_key(hit[0])
            by_domain.setdefault(hit[1], []).append(token)
    index = blacklist.indexed({*url_keys.values(), *by_domain})
    matching = {token for token, key in url_keys.items() if key in index.urls}
    for domain in by_domain.keys() & index.domains.keys():
        matching.update(by_domain[domain])
    return matching, index


def labelled_comments(corpus: Corpus, labels: list[MaliciousLabel]) -> dict[str, Comment]:
    """The comment of each label, by comment id, in label order. Labels
    that name comments the corpus lacks raise one LabelError listing
    every such id; each stage that reads labels checks them here."""
    comments = corpus.comments
    unknown = sorted({lab.comment_id for lab in labels
                      if lab.comment_id not in comments})
    if unknown:
        raise LabelError(f"labels reference unknown comments: {unknown}")
    return {lab.comment_id: comments[lab.comment_id] for lab in labels}


def label_threads(corpus: Corpus, labels: list[MaliciousLabel]
                  ) -> tuple[dict[str, bool], set[str]]:
    """(is_target, attackers): whether each post of the corpus, by post
    id, has a labelled comment, and the authors of labelled comments."""
    target_posts = set()
    attackers = set()
    for comment in labelled_comments(corpus, labels).values():
        target_posts.add(comment.post_id)
        attackers.add(comment.author_id)
    return {pid: pid in target_posts for pid in corpus.posts}, attackers


def write_labels(labels: list[MaliciousLabel], path: str) -> None:
    write_lines(path, (f"{lab.comment_id}\t{lab.category.value.lower()}\t{lab.matched_key}"
                       for lab in labels))


def read_labels(path: str) -> list[MaliciousLabel]:
    """The labels of a labels file, one per (comment, category), in file
    order. A repeat of a line's label is read once; the same comment and
    category with another key raises LabelError naming both lines."""
    # (comment, category) -> (key, the line that labelled it)
    found: dict[tuple[str, Category], tuple[str, int]] = {}
    with open_text(path, LabelError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                cid, cat, key = line.split("\t")
            except ValueError as exc:
                raise LabelError(at_line(path, "bad row", lineno)) from exc
            category = _CATEGORY_LOOKUP.get(cat.lower())
            if category is None:
                raise LabelError(at_line(path, f"unknown category {cat!r}", lineno))
            seen_key, seen = found.setdefault((cid, category), (key, lineno))
            if seen_key != key:
                raise LabelError(at_line(
                    path, f"two keys for comment {cid}, category {category.value.lower()}",
                    seen, lineno))
    return [MaliciousLabel(cid, category, key) for (cid, category), (key, _) in found.items()]
