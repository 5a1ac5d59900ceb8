import gc
import json
import random
import tracemalloc
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threadwatch import corpus as corpus_mod
from threadwatch.corpus import (TIME_ORDER, Corpus, CorpusError, IngestResult, Region,
                                build_threads, ingest, rel_minutes)
from threadwatch.synthgen import write_corpus_jsonl
from url_oracle import oracle_tokens


def _write(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + ("\n" if records else ""))
    return str(path)


def _page(pid="pg0", region="Asia"):
    return {"kind": "page", "id": pid, "name": f"Page {pid}", "region": region}


def _post(pid, page="pg0", ts=1000, likes=0):
    return {"kind": "post", "id": pid, "page_id": page, "author_id": "a0",
            "created_ts": ts, "like_count": likes, "text": "post"}


def _comment(cid, post, ts, author="u1", likes=0, text="hi"):
    return {"kind": "comment", "id": cid, "post_id": post, "author_id": author,
            "created_ts": ts, "like_count": likes, "text": text}


def test_ingest_empty_file(tmp_path):
    result = ingest(_write(tmp_path, []))
    assert len(result.corpus.pages) == 0
    assert len(result.corpus.posts) == 0
    assert result.dropped == 0


def test_ingest_drops_orphan_comment(tmp_path):
    records = [
        _page(),
        _post("p1"), _post("p2"),
        _comment("c1", "p1", 1010), _comment("c2", "p1", 1020),
        _comment("c3", "p2", 1030), _comment("c4", "p2", 1040),
        _comment("c5", "missing", 1050),
    ]
    result = ingest(_write(tmp_path, records))
    threads = build_threads(result.corpus)
    assert len(threads) == 2
    assert len(result.corpus.comments) == 4
    assert result.dropped == 1


def test_ingest_drops_duplicate_comment_id(tmp_path):
    records = [_page(), _post("p1"),
               _comment("c1", "p1", 1010),
               _comment("c1", "p1", 1020)]
    result = ingest(_write(tmp_path, records))
    assert result.dropped == 1
    assert result.corpus.comments["c1"].created_ts == 1010


def test_ingest_malformed_line_continues(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_page()) + "\nnot json\n" + json.dumps(_post("p1")) + "\n")
    result = ingest(str(path))
    assert len(result.line_errors) == 1
    assert result.line_errors[0][0] == 2
    assert len(result.corpus.posts) == 1


def test_ingest_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(CorpusError):
        ingest(str(tmp_path / "nope.jsonl"))


def test_ingest_rejects_unknown_region(tmp_path):
    result = ingest(_write(tmp_path, [_page(region="Mars")]))
    assert len(result.line_errors) == 1
    assert len(result.corpus.pages) == 0


def test_thread_with_no_comments(tmp_path):
    result = ingest(_write(tmp_path, [_page(), _post("p1")]))
    threads = build_threads(result.corpus)
    assert len(threads) == 1
    assert threads[0].comments == []


def test_comment_sort_key_is_ts_then_id(tmp_path):
    t = 1000
    records = [_page(), _post("p1", ts=t),
               _comment("c3", "p1", t + 30),
               _comment("c2", "p1", t + 10),
               _comment("c1", "p1", t + 10)]
    result = ingest(_write(tmp_path, records))
    thread = build_threads(result.corpus)[0]
    assert [c.comment_id for c in thread.comments] == ["c1", "c2", "c3"]


def test_time_order_reads_created_ts_then_id(small_synth):
    # the key reads fields by position; a reordered record must fail here
    corpus = small_synth.corpus
    assert [TIME_ORDER(p) for p in corpus.posts.values()] == [
        (p.created_ts, p.post_id) for p in corpus.posts.values()]
    assert [TIME_ORDER(c) for c in corpus.comments.values()] == [
        (c.created_ts, c.comment_id) for c in corpus.comments.values()]


def test_threads_ordered_by_post_creation(tmp_path):
    records = [_page(), _post("pB", ts=2000), _post("pA", ts=1000)]
    result = ingest(_write(tmp_path, records))
    assert [t.post.post_id for t in build_threads(result.corpus)] == ["pA", "pB"]


def test_shuffled_input_yields_identical_threads(tmp_path):
    records = [_page(), _post("p1", ts=1000), _post("p2", ts=1500)]
    records += [_comment(f"c{i}", "p1" if i % 2 else "p2", 1500 + i * 7)
                for i in range(20)]
    base = ingest(_write(tmp_path, records, "a.jsonl"))
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    other = ingest(_write(tmp_path, shuffled, "b.jsonl"))
    assert build_threads(base.corpus) == build_threads(other.corpus)


def test_comment_counts_consistent(tmp_path):
    records = [_page(), _post("p1"), _post("p2")]
    records += [_comment(f"c{i}", "p1" if i < 7 else "p2", 1000 + i) for i in range(12)]
    result = ingest(_write(tmp_path, records))
    total = sum(len(t.comments) for t in build_threads(result.corpus))
    assert total == len(result.corpus.comments) == 12


def test_total_order_within_thread(small_synth):
    for thread in build_threads(small_synth.corpus):
        keys = [(c.created_ts, c.comment_id) for c in thread.comments]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_clock_skew_clamped_not_dropped(tmp_path):
    records = [_page(), _post("p1", ts=1000), _comment("c1", "p1", 900)]
    result = ingest(_write(tmp_path, records))
    assert len(result.corpus.comments) == 1
    assert result.corpus.skew_clamped == 1
    post = result.corpus.posts["p1"]
    assert rel_minutes(post, result.corpus.comments["c1"]) == 0.0


@pytest.mark.parametrize("line", ["[1,2]", '"s"', "3", "null",
                                  pytest.param("[" * 100000, id="deep")])
def test_non_object_line_is_a_line_error(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_page()) + "\n" + line + "\n")
    result = ingest(str(path))
    assert [lineno for lineno, _ in result.line_errors] == [2]
    assert list(result.corpus.pages) == ["pg0"]


@pytest.mark.parametrize("field", ["created_ts", "like_count"])
@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400",
                                     "true", "false", "12.9", '"7"', '"1_000"'])
def test_bad_number_is_a_line_error(tmp_path, field, literal):
    bad = json.dumps({**_post("p2"), field: "VALUE"}).replace('"VALUE"', literal)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([json.dumps(_page()), json.dumps(_post("p1")), bad]) + "\n")
    result = ingest(str(path))
    assert [lineno for lineno, _ in result.line_errors] == [3]
    assert list(result.corpus.posts) == ["p1"]


_BAD_TEXT = json.dumps({**_post("p2"), "text": "TEXT"}).encode().replace(b"TEXT", b"\xc3(")


@pytest.mark.parametrize("bad", [b"\xff\xfe junk", _BAD_TEXT], ids=["junk", "text"])
def test_invalid_utf8_line_is_a_line_error(tmp_path, bad):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join([json.dumps(_page()).encode(), bad,
                                 json.dumps(_post("p1")).encode()]) + b"\n")
    result = ingest(str(path))
    assert [lineno for lineno, _ in result.line_errors] == [2]
    assert (list(result.corpus.pages), list(result.corpus.posts)) == (["pg0"], ["p1"])


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_unicode_line_separator_in_text_is_kept(tmp_path, sep):
    records = [_page(), _post("p1"),
               _comment("c1", "p1", 1010, text=f"a{sep}b.co/c{sep}d")]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n",
                    encoding="utf-8")
    result = ingest(str(path))
    assert result.line_errors == []
    # one line, one comment: the separator ends the token, not the line
    assert result.corpus.comments["c1"].url_tokens == ("b.co/c",)


def test_crlf_line_ends_are_read(tmp_path):
    records = [_page(), _post("p1"), _comment("c1", "p1", 1010)]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"".join(json.dumps(r).encode() + b"\r\n" for r in records))
    result = ingest(str(path))
    assert result.line_errors == [] and list(result.corpus.comments) == ["c1"]


def test_line_errors_keep_numbers_and_messages(tmp_path):
    # blank lines still count, only the b"\n" is cut from a CRLF line, and
    # a last line without b"\n" is read whole
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(json.dumps(_page()).encode() + b"\n\n\n  \n"
                     + b'{"kind": "post"\r\n'
                     + json.dumps(_post("p1")).encode() + b"\n"
                     + b'{"kind": "comment", "id": "c1"')
    result = ingest(str(path))
    assert result.line_errors == [
        (5, "Expecting ',' delimiter: line 1 column 17 (char 16)"),
        (7, "Expecting ',' delimiter: line 1 column 31 (char 30)")]
    assert list(result.corpus.posts) == ["p1"]


def test_integral_float_is_read_exactly(tmp_path):
    result = ingest(_write(tmp_path, [_page(), _post("p1", ts=1000.0, likes=3.0)]))
    post = result.corpus.posts["p1"]
    assert (post.created_ts, post.like_count) == (1000, 3)


_VALID = [_page(), _post("p1"), _post("p2", ts=2000, likes=4),
          _comment("c1", "p1", 1010, text="see http://a.com/x or b.co/y"),
          _comment("c2", "p2", 1990, likes=1)]

# URL-like text: the scheme, host characters (with the four non-ASCII
# letters that (?i)[a-z] matches) and characters that end a host or a token
_URL_PIECES = st.sampled_from([*"ab1-./:_é\"<²", " ", "\n", "http://", "HTTPſ://", "co/",
                               "\u0130", "\u0131", "\u212a"])
_URL_TEXT = st.lists(_URL_PIECES, max_size=40).map("".join)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3))

# integer literals just past 64 bits, which orjson reads as floats
_BIG_INTS = ["18446744073709551616", "-9223372036854775809", str(10**30)]

_NUMBER_LITERALS = st.sampled_from(
    ["Infinity", "-Infinity", "NaN", "1e400", "-1e400", "true", "false",
     "null", "12.9", "-0.5", '"7"', '"x"', "[]", "{}", *_BIG_INTS]) | st.floats().map(json.dumps)


@st.composite
def _bad_number_record(draw):
    kind = draw(st.sampled_from(["post", "comment"]))
    rec = _post("junk", page="nowhere") if kind == "post" else _comment("junk", "nowhere", 0)
    field = draw(st.sampled_from(["created_ts", "like_count"]))
    return json.dumps({**rec, field: "VALUE"}).replace('"VALUE"', draw(_NUMBER_LITERALS))


@st.composite
def _any_text_record(draw):
    """A comment under p1 whose author or text is any string, escaped or
    raw, or holds lone surrogates."""
    value = draw(st.builds(json.dumps, st.text() | _URL_TEXT, ensure_ascii=st.booleans())
                 | st.sampled_from(['"\\ud800"', '"a\\udfff"', '"\\ud83d\\ude00"']))
    rec = _comment(f"t{draw(st.integers(0, 3))}", "p1", 1030)
    field = draw(st.sampled_from(["author_id", "text"]))
    return json.dumps({**rec, field: "VALUE"}).replace('"VALUE"', value)


_JUNK_LINES = (st.text()
               | st.sampled_from(["[1,2]", '"s"', "3", "null", "{", "[" * 5000])
               | _JSON_VALUES.map(json.dumps)
               | _bad_number_record()
               | _any_text_record()).map(str.encode) | st.binary()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(junk=st.lists(_JUNK_LINES, max_size=12),
       text=st.text(st.sampled_from("ab \u2028\u2029\u0085"), max_size=8),
       data=st.data())
def test_ingest_survives_any_line_and_keeps_valid_records(tmp_path, junk, text, data):
    # a valid record may hold raw line separators other than \n
    valid = _VALID + [_comment("c3", "p1", 1020, text=text)]
    lines = data.draw(st.permutations(
        [json.dumps(r, ensure_ascii=False).encode() for r in valid] + junk))
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    corpus = ingest(str(path)).corpus
    expected = ingest(_write(tmp_path, valid, "valid.jsonl")).corpus
    for table in ("pages", "posts", "comments"):
        kept = getattr(corpus, table)
        for key, rec in getattr(expected, table).items():
            assert kept.get(key) == rec


# The ingest with frozen-dataclass records, unshared id strings, json.loads
# on every line, URL tokens from the one-regex oracle and a copy of the
# surviving posts and comments into new tables, kept as an oracle. Its
# field table, region lookup and number check are its own, so a change to
# the module's cannot pass on both sides.

_REF_REQUIRED = {
    "page": ("id", "name", "region"),
    "post": ("id", "page_id", "author_id", "created_ts", "like_count", "text"),
    "comment": ("id", "post_id", "author_id", "created_ts", "like_count", "text"),
}
_REF_FIELDS = {kind: itemgetter(*names) for kind, names in _REF_REQUIRED.items()}
_REF_REGIONS = {"middleeast": Region.MIDDLE_EAST, "asia": Region.ASIA,
                "europe": Region.EUROPE, "usnews": Region.US_NEWS,
                "uspolitics": Region.US_POLITICS, "other": Region.OTHER}
# the timestamps datetime holds in UTC, the first and last second of years 1
# and 9999
_REF_MIN_TS = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
_REF_MAX_TS = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


def _ref_int_field(value, name):
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RefPage:
    page_id: str
    name: str
    region: Region


@dataclass(frozen=True)
class RefPost:
    post_id: str
    page_id: str
    author_id: str
    created_ts: int
    like_count: int
    raw_text: str


@dataclass(frozen=True)
class RefComment:
    comment_id: str
    post_id: str
    author_id: str
    created_ts: int
    like_count: int
    url_tokens: tuple


def _ref_parse_record(obj):
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _REF_REQUIRED:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        values = _REF_FIELDS[kind](obj)
    except KeyError:
        missing = [f for f in _REF_REQUIRED[kind] if f not in obj]
        raise ValueError(f"{kind} record missing fields {missing}") from None
    rid = str(values[0])
    if kind == "page":
        _, name, region_name = values
        region = _REF_REGIONS.get(str(region_name).lower())
        if region is None:
            raise ValueError(f"unknown region {region_name!r}")
        return kind, rid, RefPage(rid, str(name), region)
    _, parent, author, ts, like, text = values
    like, ts = _ref_int_field(like, "like_count"), _ref_int_field(ts, "created_ts")
    if like < 0:
        raise ValueError("like_count must be >= 0")
    if not _REF_MIN_TS <= ts <= _REF_MAX_TS:
        raise ValueError("created_ts out of range")
    if kind == "post":
        return kind, rid, RefPost(rid, str(parent), str(author), ts, like, str(text))
    return kind, rid, RefComment(rid, str(parent), str(author), ts, like,
                                 oracle_tokens(str(text)))


def reference_ingest(path):
    pages, posts, comments = {}, {}, {}
    tables = {"page": pages, "post": posts, "comment": comments}
    errors = []
    dropped = 0
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    text = line.removesuffix(b"\n").decode("utf-8")
                    if not text.strip(" \t\r\n"):
                        continue
                    kind, rid, rec = _ref_parse_record(json.loads(text))
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
    return IngestResult(corpus=corpus, kept=kept, dropped=dropped, line_errors=errors)


def _fields(rec):
    """A record's class name without the oracle's prefix, and its fields
    in order with each value's type."""
    items = rec._asdict().items() if hasattr(rec, "_asdict") else vars(rec).items()
    return (type(rec).__name__.removeprefix("Ref"),
            [(name, type(value), value) for name, value in items])


def assert_same_as_reference(path):
    got, want = ingest(path), reference_ingest(path)
    assert (got.kept, got.dropped, got.line_errors, got.corpus.skew_clamped) == (
        want.kept, want.dropped, want.line_errors, want.corpus.skew_clamped)
    for table in ("pages", "posts", "comments"):
        mine, theirs = getattr(got.corpus, table), getattr(want.corpus, table)
        assert list(mine) == list(theirs)
        assert [_fields(r) for r in mine.values()] == [_fields(r) for r in theirs.values()]
    return got


@pytest.fixture(scope="module")
def small_synth_jsonl(small_synth, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.jsonl"
    write_corpus_jsonl(small_synth, str(path))
    return str(path)


# the lines that are not records, mixed into the shuffled file below
_NON_RECORD_LINES = [b"not json", b"[1]", b""]


@pytest.fixture(scope="module")
def mixed_jsonl(small_synth_jsonl, tmp_path_factory):
    """The small corpus shuffled with orphans, duplicates, clock skew and
    a few lines that are not records."""
    with open(small_synth_jsonl, "rb") as fh:
        lines = fh.read().splitlines()
    corpus = ingest(small_synth_jsonl).corpus
    post_ids, comment_ids = sorted(corpus.posts), sorted(corpus.comments)
    rng = random.Random(3)
    extra = []
    for i in range(300):
        extra += [_post(f"op{i}", page="nowhere"),
                  _comment(f"oc{i}", f"op{i}", 5_000, author=f"u{i % 7}"),
                  _comment(f"mc{i}", "missing", 5_000),
                  _comment(f"sk{i}", rng.choice(post_ids), 0, author=f"u{i % 5}"),
                  _comment(rng.choice(comment_ids), rng.choice(post_ids), 1)]
        if i % 15 == 0:
            # whichever line comes first wins, so a thread may be orphaned
            extra.append(_post(rng.choice(post_ids), page="nowhere"))
    lines += [json.dumps(r).encode() for r in extra] + _NON_RECORD_LINES
    rng.shuffle(lines)
    path = tmp_path_factory.mktemp("corpus") / "mixed.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


_MISSING = object()  # a field to delete

_NOT_STR = _JSON_VALUES.filter(lambda v: not isinstance(v, str))


def _fast_check_exits(kind):
    """(field, value) changes to a record of kind, each taking it off
    ingest's fast check or failing its builder's check."""
    names = _REF_REQUIRED[kind]
    exits = [
        # 7 names post or page "7" as an int
        st.tuples(st.sampled_from([f for f in names if f not in ("created_ts", "like_count")]),
                  st.just(7) | _NOT_STR),
        st.tuples(st.sampled_from(["kind", *names]), st.just(_MISSING)),
        st.tuples(st.just("kind"), _NOT_STR),
    ]
    if kind != "page":
        exits += [
            st.tuples(st.sampled_from(["created_ts", "like_count"]),
                      st.sampled_from([1030.0, 1030.5, 0.0, -0.0, True, False, 1e20])
                      | st.floats()),
            st.tuples(st.just("like_count"), st.integers(max_value=-1)),
            # created_ts just past what datetime holds, or far past it
            st.tuples(st.just("created_ts"),
                      st.sampled_from([_REF_MIN_TS - 1, _REF_MAX_TS + 1, -10**12, 10**15,
                                       _REF_MIN_TS, _REF_MAX_TS])),
        ]
    return st.one_of(exits)


# (the ids of the edge records, the parents and regions they may name,
# ids they may repeat)
_EDGE_RECORDS = {
    "comment": (["x0", "x1", "x2"], ["p1", "7"], ["c1", "c2", "x0"]),
    "post": (["y0", "y1", "y2"], ["pg0", "7"], ["p1", "p2", "y0"]),
    "page": (["z0", "z1", "z2"], ["Asia", "usnews", "Other"], ["pg0", "7", "z0"]),
}


def _fast_check_keeps(kind):
    """Changes the fast check accepts but that ingest must treat as
    json.loads reads them: an extra field, or a repeated id."""
    return st.one_of(
        st.tuples(st.sampled_from(["extra", "Kind", "ID"]), _JSON_VALUES),
        st.tuples(st.just("id"), st.sampled_from(_EDGE_RECORDS[kind][2])))


@st.composite
def _fast_path_edge_line(draw):
    """A comment, post or page line with one change from
    _fast_check_exits or _fast_check_keeps; a comment names post p1 or
    "7", a post page pg0 or "7"."""
    kind = draw(st.sampled_from(sorted(_EDGE_RECORDS)))
    ids, refs, _ = _EDGE_RECORDS[kind]
    rid, ref = draw(st.sampled_from(ids)), draw(st.sampled_from(refs))
    if kind == "comment":
        rec = _comment(rid, ref, 1030, likes=2)
    elif kind == "post":
        rec = _post(rid, page=ref, ts=1010, likes=2)
    else:
        rec = _page(rid, region=ref)
    field, value = draw(_fast_check_exits(kind) | _fast_check_keeps(kind))
    if value is _MISSING:
        del rec[field]
    else:
        rec[field] = value
    return json.dumps(rec).encode()


class TestIngestMatchesReference:
    def test_small_synth(self, small_synth_jsonl):
        got = assert_same_as_reference(small_synth_jsonl)
        assert got.kept > 10_000

    def test_shuffled_with_orphans_duplicates_and_skew(self, mixed_jsonl):
        got = assert_same_as_reference(mixed_jsonl)
        assert got.dropped >= 900 and got.corpus.skew_clamped > 250

    @pytest.mark.parametrize("literal", _BIG_INTS)
    @pytest.mark.parametrize("field", ["kind", "id", "post_id", "author_id", "created_ts",
                                       "like_count", "name", "region", "line"])
    def test_integer_beyond_64_bits(self, tmp_path, field, literal):
        # a post whose id is the literal's digits, so that a comment whose
        # post_id is the literal itself has a parent
        records = [_page(), _post("p1"), _post(literal)]
        rec = _page("pg1") if field in ("name", "region") else _comment("c1", "p1", 1010)
        line = literal if field == "line" else json.dumps(
            {**rec, field: "VALUE"}).replace('"VALUE"', literal)
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join([*map(json.dumps, records), line]) + "\n")
        assert_same_as_reference(str(path))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(junk=st.lists(_JUNK_LINES, max_size=12), data=st.data())
    def test_any_line_mix(self, tmp_path, junk, data):
        lines = data.draw(st.permutations(
            [json.dumps(r).encode() for r in _VALID + _VALID[1:3]] + junk))
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert_same_as_reference(str(path))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edge=st.lists(_fast_path_edge_line(), min_size=1, max_size=8), data=st.data())
    def test_fast_path_edges(self, tmp_path, edge, data):
        valid = _VALID + [_page("7"), _post("7", ts=1005), _comment("c3", "7", 1040)]
        lines = data.draw(st.permutations([json.dumps(r).encode() for r in valid] + edge))
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert_same_as_reference(str(path))

    # json.loads' message for a line with no JSON value
    _NO_VALUE = "Expecting value: line 1 column 1 (char 0)"

    @pytest.mark.parametrize("line, error", [
        (b"", None), (b" \t\r", None),
        (b"\x0c", _NO_VALUE), (b"\x0b", _NO_VALUE), ("\x1c".encode(), _NO_VALUE),
        ("\u2028".encode(), _NO_VALUE), ("\x85 ".encode(), _NO_VALUE)])
    def test_only_json_whitespace_is_blank(self, tmp_path, line, error):
        # JSON whitespace is space, tab, CR and LF (RFC 8259, section 2)
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps(_page()).encode() + b"\n" + line + b"\n")
        got = assert_same_as_reference(str(path))
        assert got.kept == 1
        assert got.line_errors == ([] if error is None else [(2, error)])

    @pytest.mark.parametrize("ts, kept", [
        (_REF_MIN_TS, True), (_REF_MAX_TS, True), (_REF_MIN_TS - 1, False),
        (_REF_MAX_TS + 1, False), (-10**12, False), (10**15, False)])
    def test_created_ts_outside_datetime_is_a_line_error(self, tmp_path, ts, kept):
        path = _write(tmp_path, [_page(), _post("p1"), _post("p2", ts=ts),
                                 _comment("c1", "p1", ts)])
        got = assert_same_as_reference(path)
        assert set(got.corpus.posts) == ({"p1", "p2"} if kept else {"p1"})
        assert list(got.corpus.comments) == (["c1"] if kept else [])
        assert got.line_errors == ([] if kept else [(3, "created_ts out of range"),
                                                    (4, "created_ts out of range")])


def _json_loads_calls(monkeypatch):
    """The texts that json.loads is called with, from now on."""
    texts = []
    loads = corpus_mod.json.loads

    def counted(text, *args, **kwargs):
        texts.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(corpus_mod.json, "loads", counted)
    return texts


class TestOrjsonCarriesTheLoad:
    def test_no_line_of_a_clean_corpus_reaches_json(self, small_synth_jsonl, monkeypatch):
        texts = _json_loads_calls(monkeypatch)
        assert ingest(small_synth_jsonl).kept > 10_000
        assert texts == []

    def test_only_non_record_lines_reach_json(self, mixed_jsonl, monkeypatch):
        texts = _json_loads_calls(monkeypatch)
        ingest(mixed_jsonl)
        # a blank line is skipped before json.loads
        assert sorted(texts) == sorted(line.decode() for line in _NON_RECORD_LINES if line)

    def test_one_orjson_parse_per_line(self, small_synth_jsonl, monkeypatch):
        lines = []
        loads = corpus_mod.orjson.loads

        def counted(line):
            lines.append(line)
            return loads(line)

        monkeypatch.setattr(corpus_mod.orjson, "loads", counted)
        ingest(small_synth_jsonl)
        with open(small_synth_jsonl, "rb") as fh:
            assert lines == fh.readlines()


class TestFastCheck:
    def _fallback_lines(self, monkeypatch):
        """The lines that reach _line_fields, from now on."""
        lines = []
        line_fields = corpus_mod._line_fields

        def counted(line):
            lines.append(line)
            return line_fields(line)

        monkeypatch.setattr(corpus_mod, "_line_fields", counted)
        return lines

    def test_no_line_of_a_clean_corpus_reaches_line_fields(self, small_synth_jsonl,
                                                          monkeypatch):
        lines = self._fallback_lines(monkeypatch)
        corpus = ingest(small_synth_jsonl).corpus
        assert len(corpus.comments) > 10_000 and corpus.pages and corpus.posts
        assert lines == []

    def test_only_non_record_lines_reach_line_fields(self, mixed_jsonl, monkeypatch):
        # orphans, repeated ids and clock skew stay on the fast check
        lines = self._fallback_lines(monkeypatch)
        ingest(mixed_jsonl)
        assert sorted(line.removesuffix(b"\n") for line in lines) == sorted(_NON_RECORD_LINES)


class TestIdSharing:
    def test_references_share_the_parent_id_object(self, small_synth_jsonl):
        corpus = ingest(small_synth_jsonl).corpus
        for p in corpus.posts.values():
            assert p.page_id is corpus.pages[p.page_id].page_id
        for c in corpus.comments.values():
            assert c.post_id is corpus.posts[c.post_id].post_id

    def test_one_author_string_per_account(self, small_synth_jsonl):
        corpus = ingest(small_synth_jsonl).corpus
        first: dict[str, str] = {}
        records = [*corpus.posts.values(), *corpus.comments.values()]
        for rec in records:
            assert first.setdefault(rec.author_id, rec.author_id) is rec.author_id
        assert len(first) < len(records)  # some account has several records

    def test_table_keys_are_the_record_ids(self, small_synth_jsonl):
        corpus = ingest(small_synth_jsonl).corpus
        for table, name in ((corpus.pages, "page_id"), (corpus.posts, "post_id"),
                            (corpus.comments, "comment_id")):
            assert all(key is getattr(rec, name) for key, rec in table.items())

    def test_nothing_shared_across_ingests(self, small_synth_jsonl):
        one, two = ingest(small_synth_jsonl).corpus, ingest(small_synth_jsonl).corpus
        pid = next(iter(one.posts))
        assert one.posts[pid].post_id == two.posts[pid].post_id
        assert one.posts[pid].post_id is not two.posts[pid].post_id
        cid = next(cid for cid, c in one.comments.items() if c.url_tokens)
        assert one.comments[cid].url_tokens == two.comments[cid].url_tokens
        assert one.comments[cid].url_tokens is not two.comments[cid].url_tokens

    def test_equal_token_tuples_share_one_object(self, small_synth_jsonl):
        comments = ingest(small_synth_jsonl).corpus.comments.values()
        first: dict[tuple, tuple] = {}
        with_tokens = [c.url_tokens for c in comments if c.url_tokens]
        for tokens in with_tokens:
            assert first.setdefault(tokens, tokens) is tokens
        assert len(first) < len(with_tokens)  # campaigns repeat their links

    def test_both_paths_share_one_token_tuple(self, tmp_path):
        # a float number sends a comment line to json.loads
        records = [_page(), _post("p1"),
                   *(_comment(f"c{i}", "p1", 1010, text="go a.co/x") for i in range(3))]
        records[3]["created_ts"] = 1010.0
        records[4]["like_count"] = 0.0
        comments = ingest(_write(tmp_path, records)).corpus.comments
        one = comments["c0"].url_tokens
        assert one == ("a.co/x",)
        assert comments["c1"].url_tokens is one and comments["c2"].url_tokens is one

    def test_both_paths_tokenize_a_text_once(self, tmp_path, monkeypatch):
        # json.loads reads the text first, then orjson, then json.loads
        # again
        records = [_page(), _post("p1"),
                   *(_comment(f"c{i}", "p1", 1010, text="go a.co/x") for i in range(3))]
        records[2]["like_count"] = 0.0
        records[4]["like_count"] = 0.0
        texts = []
        tokenize = corpus_mod.url_tokens
        monkeypatch.setattr(corpus_mod, "url_tokens",
                            lambda text: texts.append(text) or tokenize(text))
        comments = ingest(_write(tmp_path, records)).corpus.comments
        assert texts == ["go a.co/x"]
        assert len({id(c.url_tokens) for c in comments.values()}) == 1


def _hosts(label_size):
    """Hosts of up to 253 characters: dotted labels, some starting with
    "-", and a last label of letters that may be too short; cut from the
    left, so that the last label stays."""
    label = st.text(st.sampled_from("ab1-\u212a"), min_size=label_size, max_size=63)
    return st.builds(lambda labels, last: ".".join([*labels, last])[-253:],
                     st.lists(label, max_size=6),
                     st.text(st.sampled_from("ab\u017f\u0130\u0131"), max_size=4))


# runs of host characters, each followed by a run of characters that are
# none, so that no host in the text is longer than 253 characters
_HOST_RUNS = (_hosts(1) | _hosts(40) | st.sampled_from(["http", "https", "HTTP\u017f"])
              | st.text(st.sampled_from("ab1-.hHtTpsS\u017f\u0130\u0131\u212a"),
                        max_size=253))
_NON_HOST = st.sampled_from(["/", "://"]) | st.lists(
    st.sampled_from([*" /:_\u00e9\"<>?#\u00b2\n'", "://"]),
    min_size=1, max_size=3).map("".join)
_HOSTS_TEXT = st.lists(st.tuples(_HOST_RUNS, _NON_HOST), max_size=8).map(
    lambda parts: "".join(run + gap for run, gap in parts))

# the shapes on which the oracle is quadratic, each with the end that
# leaves no token and the end that makes the whole text one token
_HOSTILE = [("a.", " /", "co/"), ("a-", " /", ".co/"), ("a-a.", " /", "co/")]
_MB = 1 << 20


def _hostile_texts():
    for shape, none, whole in _HOSTILE:
        run = shape * (_MB // len(shape))
        yield pytest.param(run + none, (), id=f"{shape}*n+{none!r}")
        yield pytest.param(run + whole, (run + whole,), id=f"{shape}*n+{whole!r}")


class TestUrlTokens:
    @settings(max_examples=500, deadline=None)
    @given(_HOSTS_TEXT)
    def test_matches_the_oracle(self, text):
        assert corpus_mod.url_tokens(text) == oracle_tokens(text)

    @pytest.mark.parametrize("text", [
        "see a.co/x", "_a.co/x", "\u00e9a.co/x", "\u00b2a.co/x", "-a.co/x", ".a.co/x",
        "a..b.co/x", "a.-b.co/x", "a-.b.co/x", "a.b..co/x", "a.b.c1/x", "a.b.c-/x",
        "a.b.c/x", "1.ab/x", "a.co/x.co/y z.co/", "x.http://a/", "http:/a.co/",
        "httpS://a", "http\u017f://a b", "http://", "http:// a.co/", "\u212a.co/x",
        "a.\u0130\u0131/x", "(http://x.io/p?q=1)", "<a.co/b>c", "a.co/'b'", "a/b.co/c"])
    def test_examples_match_the_oracle(self, text):
        assert corpus_mod.url_tokens(text) == oracle_tokens(text)

    @pytest.mark.parametrize("host", [
        "a" * 300 + ".com", "ab." * 200 + "org", ("a" * 63 + ".") * 20 + "net",
        "x_" + "a" * 1000 + ".co", "a" * 5000 + "..b.co"])
    def test_hosts_over_253_characters_match_the_oracle(self, host):
        # no such host resolves, but its token is kept all the same: it can
        # match only a blacklist key equal to it
        text = f"see {host}/path and http://{host}/x"
        assert corpus_mod.url_tokens(text) == oracle_tokens(text)

    def test_text_without_slash_has_none(self):
        assert corpus_mod.url_tokens("visit example.com or http:x") == ()

    @pytest.mark.parametrize("text, tokens", _hostile_texts())
    def test_hostile_comment_is_scanned_a_bounded_number_of_times(
            self, tokenizer_calls, text, tokens):
        assert corpus_mod.url_tokens(text) == tokens
        # each call scans on from where the last one stopped; the oracle
        # would try the run once per label, half a million times
        assert 0 < len(tokenizer_calls) <= 4

    @pytest.mark.parametrize("text, tokens", _hostile_texts())
    def test_hostile_comment_passes_through_ingest(self, tmp_path, tokenizer_calls,
                                                   text, tokens):
        records = [_page(), _post("p1"), _comment("c1", "p1", 1010, text=text)]
        path = _write(tmp_path, records)
        comments = ingest(path).corpus.comments
        assert comments["c1"].url_tokens == tokens
        assert 0 < len(tokenizer_calls) <= 4

    def test_ingest_tokenizes_each_text_with_a_slash_once(self, small_synth,
                                                          small_synth_jsonl, monkeypatch):
        texts = []
        tokenize = corpus_mod.url_tokens

        def counted(text):
            texts.append(text)
            return tokenize(text)

        monkeypatch.setattr(corpus_mod, "url_tokens", counted)
        ingest(small_synth_jsonl)
        want = {t for t in small_synth.comment_texts.values() if "/" in t}
        assert want and sorted(texts) == sorted(want)


def _peak_bytes(load, path):
    """Peak traced allocation while ``load(path)`` runs."""
    load(path)  # first-call caches stay out of the measurement
    gc.collect()
    tracemalloc.start()
    try:
        result = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_ingest_peak_memory_well_below_reference(small_synth_jsonl):
    ratio = _peak_bytes(ingest, small_synth_jsonl) / _peak_bytes(reference_ingest,
                                                                 small_synth_jsonl)
    assert ratio <= 0.85
