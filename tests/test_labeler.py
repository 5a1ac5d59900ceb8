import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

from threadwatch import cli, labeler, synthgen
from threadwatch.corpus import (Comment, Corpus, Page, Post, Region, build_threads,
                                url_tokens)
from threadwatch.labeler import (MAX_EXPANSION_HOPS, Category, LabelError,
                                 MaliciousLabel, ShortenerTable, UrlObservation,
                                 collect_observations, expand_url, extract_urls,
                                 join_blacklist, label_comments, label_threads,
                                 load_blacklist, normalize_url, registrable_domain,
                                 url_key)
from threadwatch.synthgen import BlacklistEntry
from blacklist_reader import read_blacklist, reference_key
from shortener_reader import shortener_table
from url_oracle import URL_RE


def brute_force_join(observations, blacklist):
    """Independent all-pairs oracle for the join over (key, category)
    entries."""
    out = {}
    for o in observations:
        for e in blacklist:
            key = reference_key(e.key)
            if "/" in key:
                hit = url_key(o.url) == key
            else:
                hit = o.domain == key
            if hit:
                out.setdefault((o.comment_id, e.category), key)
    return set(out)


def obs(url, comment_id="c1", account="u1"):
    return UrlObservation(url=url, domain=registrable_domain(url),
                          comment_id=comment_id, account_id=account)


def sort_obs(items):
    return sorted(items, key=lambda o: (o.domain, o.url))


def _check_sorted(keys, what):
    for i in range(1, len(keys)):
        if keys[i] < keys[i - 1]:
            raise LabelError(f"{what} not sorted at index {i}")


def _merge_matches(obs_keyed, entries):
    """Two-pointer merge over two key-sorted sequences, yielding
    (observation, entry) for every equal-key pair."""
    i = j = 0
    m, n = len(obs_keyed), len(entries)
    while i < m and j < n:
        key = obs_keyed[i][0]
        if key < entries[j].key:
            i += 1
        elif key > entries[j].key:
            j += 1
        else:
            i2 = i
            while i2 < m and obs_keyed[i2][0] == key:
                i2 += 1
            j2 = j
            while j2 < n and entries[j2].key == key:
                j2 += 1
            for k in range(i, i2):
                for l in range(j, j2):
                    yield obs_keyed[k][1], entries[l]
            i, j = i2, j2


def reference_join(observations, blacklist):
    """Sort-merge join, an oracle for full labels (matched key included).
    The observations must be sorted by (domain, url); the (key, category)
    entries of the blacklist are keyed by ``reference_key`` and sorted
    here."""
    _check_sorted([(o.domain, o.url) for o in observations], "observations")
    blacklist = sort_blacklist(BlacklistEntry(reference_key(e.key), e.category)
                               for e in blacklist)
    domain_entries = [e for e in blacklist if "/" not in e.key]
    url_entries = [e for e in blacklist if "/" in e.key]
    found = {}
    by_domain = [(o.domain, o) for o in observations]
    for o, entry in _merge_matches(by_domain, domain_entries):
        found.setdefault((o.comment_id, entry.category), entry.key)
    by_url = sorted(((url_key(o.url), o) for o in observations),
                    key=lambda kv: kv[0])
    for o, entry in _merge_matches(by_url, url_entries):
        found.setdefault((o.comment_id, entry.category), entry.key)
    labels = [MaliciousLabel(cid, cat, key) for (cid, cat), key in found.items()]
    labels.sort(key=lambda lab: (lab.comment_id, lab.category.value))
    return labels


def reference_collect_observations(corpus, table, texts):
    """The per-occurrence loop over each comment's text (texts: comment id
    -> text): every URL the one-regex oracle finds normalized, expanded
    and its domain computed again, an oracle for the memoized collection
    over the tokens ingest kept."""
    out = []
    for thread in build_threads(corpus):
        for comment in thread.comments:
            urls = map(normalize_url, URL_RE.findall(texts[comment.comment_id]))
            for url in filter(None, urls):
                resolved, flagged = expand_url(url, table)
                out.append(UrlObservation(
                    url=resolved,
                    domain=registrable_domain(resolved),
                    comment_id=comment.comment_id,
                    account_id=comment.author_id,
                    flagged=flagged,
                ))
    return out


def sort_blacklist(entries):
    return sorted(entries, key=lambda e: e.key)


def assert_matches_reference(observations, blacklist, rng):
    """The keyed join on shuffled input gives the reference's labels on
    sorted input, matched keys included."""
    want = reference_join(sort_obs(observations), blacklist)
    observations, blacklist = list(observations), list(blacklist)
    rng.shuffle(observations)
    rng.shuffle(blacklist)
    assert join_blacklist(observations, read_blacklist(blacklist)) == want
    return want


class TestExtractUrls:
    def test_no_url(self):
        assert extract_urls("hello world") == []

    def test_normalization(self):
        assert extract_urls("see HTTP://Evil.COM/x#frag now") == ["http://evil.com/x"]

    def test_schemeless_and_trailing_punctuation(self):
        assert extract_urls("go to bit.ly/abc, thanks") == ["http://bit.ly/abc"]

    def test_multiple_urls(self):
        text = "a http://a.com/1 and b.org/2; done"
        assert extract_urls(text) == ["http://a.com/1", "http://b.org/2"]

    def test_bare_domain_without_path_not_extracted(self):
        assert extract_urls("visit example.com today") == []

    def test_quotes_and_brackets_stripped(self):
        assert extract_urls('link (http://x.io/p?q=1)') == ["http://x.io/p?q=1"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.from_regex(r"(?i)[a-z0-9:@-]{1,8}([.\u3002][a-z0-9-]{1,8}){0,3}\W?",
                                  fullmatch=True) | st.text(max_size=5),
                    max_size=8).map(" ".join).filter(lambda t: "/" not in t))
    def test_text_without_slash_holds_no_url(self, text):
        # ingest tokenizes only text with a "/"; extracting bare domains
        # would break that, and must drop the prefilter too
        assert URL_RE.search(text) is None
        assert extract_urls(text) == []

    @pytest.mark.parametrize("token", ["http://[evil/x", "http://a]b.com/x",
                                       "http://a／b.com/x", "http://a＃b.com/x"])
    def test_token_urlsplit_rejects_is_skipped(self, token):
        # an unclosed IPv6 bracket, or a host character NFKC maps to a
        # delimiter, makes urlsplit raise
        assert extract_urls(f"see {token} http://ok.com/y") == ["http://ok.com/y"]

    # text over the characters of those tokens, with a scheme as one
    # piece so that most examples hold a URL, repeated up to a thousand
    # times; tokenizing is linear, so the length is not capped
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([*"htps:/.a[]@／＃？ ", "http://"])).map("".join),
           st.integers(1, 1000))
    def test_extraction_never_raises(self, text, repeat):
        text *= repeat
        observations = collect_observations(_tiny_corpus([text]), shortener_table())
        assert len(observations) == len(extract_urls(text))

    @pytest.mark.parametrize("shape, end", [("a.", " /"), ("a-", " /"), ("a-a.", " /"),
                                            ("a.", "co/"), ("a-", ".co/"), ("a-a.", "co/")])
    def test_hostile_comment_extracts_in_linear_time(self, tokenizer_calls, shape, end):
        # the oracle took 4.8 s on 16 KB of the first shape, and four times
        # as long for twice the text; the tokenizer scans it a bounded
        # number of times
        run = shape * ((1 << 20) // len(shape))
        urls = extract_urls(run + end)
        assert 0 < len(tokenizer_calls) <= 4
        assert urls == ([] if end == " /" else [f"http://{run}{end}"])


class TestRegistrableDomain:
    def test_simple(self):
        assert registrable_domain("http://www.evil.com/x") == "evil.com"

    def test_two_level_suffix(self):
        assert registrable_domain("http://news.bbc.co.uk/a") == "bbc.co.uk"

    def test_host_only(self):
        assert registrable_domain("sub.a.b.example.org") == "example.org"


class TestExpandUrl:
    def test_identity_for_non_shortener(self):
        table = shortener_table({"bit.ly"}, {})
        assert expand_url("http://example.com/a", table) == ("http://example.com/a", False)

    def test_table_lookup(self):
        table = shortener_table({"bit.ly"}, {"bit.ly/abc": "http://evil.com/p"})
        assert expand_url("http://bit.ly/abc", table) == ("http://evil.com/p", False)

    @pytest.mark.parametrize("target", ["http://[x/y", "http://LOCALHOST/X", "not a url"])
    def test_rejected_target_left_unmapped(self, target):
        table = shortener_table({"bit.ly"}, {"bit.ly/a": target})
        assert expand_url("http://bit.ly/a", table) == ("http://bit.ly/a", False)

    def test_self_loop_flagged(self):
        table = shortener_table({"t.co"}, {"t.co/1": "http://t.co/1"})
        url, flagged = expand_url("http://t.co/1", table)
        assert url == "http://t.co/1"
        assert flagged

    def test_chain_followed(self):
        table = shortener_table({"s.io"}, {"s.io/a": "http://s.io/b",
                                          "s.io/b": "http://real.com/x"})
        assert expand_url("http://s.io/a", table) == ("http://real.com/x", False)

    def test_chain_bound(self):
        mapping = {f"s.io/{i}": f"http://s.io/{i+1}" for i in range(10)}
        table = shortener_table({"s.io"}, mapping)
        url, flagged = expand_url("http://s.io/0", table)
        assert flagged
        assert url == "http://s.io/5"


class TestCollectObservations:
    def test_empty_for_urlless_corpus(self):
        corpus = _tiny_corpus(["no links here", "none here either"])
        assert collect_observations(corpus, shortener_table()) == []

    def test_two_urls_two_observations(self):
        corpus = _tiny_corpus(["see http://a.com/1 and http://b.com/2"])
        result = collect_observations(corpus, shortener_table())
        assert len(result) == 2

    def test_in_thread_order(self):
        corpus = _tiny_corpus(["x http://b.com/x", "y http://a.com/y http://a.com/b",
                               "z http://c.com/z", "w http://a.com/w"], n_posts=2)
        result = collect_observations(corpus, shortener_table())
        # post p0 holds c0 and c2, p1 holds c1 and c3; each comment's
        # observations in token order
        assert [(o.comment_id, o.url) for o in result] == [
            ("c0", "http://b.com/x"), ("c2", "http://c.com/z"),
            ("c1", "http://a.com/y"), ("c1", "http://a.com/b"),
            ("c3", "http://a.com/w")]


_JUNK = ".,;:!?)\"'’”]}>"


def _random_token(rng):
    """A raw URL token: repeats of a few links in case, scheme and
    trailing-junk variants, shortener links, and tokens normalize_url
    rejects."""
    kind = rng.random()
    if kind < 0.15:
        return rng.choice(["http://localhost/x", "https://nodot/p", "http:///x",
                           "http://)", "HTTPS://.", "a.b/"])
    if kind < 0.45:
        host = rng.choice(["s.io", "S.IO", "t.ly"])
    else:
        host = rng.choice(["a.com", "A.Com", "www.a.com", "b.org", "news.c.co.uk"])
    url = f"{rng.choice(['http://', 'https://', 'HTTP://', 'hTtPs://', ''])}{host}" \
          f"/{rng.choice(['p', 'P'])}{rng.randint(0, 9)}"
    if rng.random() < 0.2:
        url += rng.choice(["?q=1", "#frag", "?q=1#f"])
    return url + "".join(rng.choice(_JUNK) for _ in range(rng.choice([0, 0, 1, 2])))


def _random_table(rng):
    """Shortener hosts s.io and t.ly: random links between s.io paths
    (chains, cycles, self-loops), one t.ly chain past the hop bound, and
    a few targets that normalize_url rejects."""
    mapping = {}
    for i in range(10):
        r = rng.random()
        if r < 0.5:
            mapping[f"s.io/p{i}"] = f"http://s.io/p{rng.randint(0, 9)}"
        elif r < 0.8:
            mapping[f"S.io/p{i}"] = rng.choice(["http://a.com/p1", "https://b.org/P2",
                                                 "b.org/p3", "not a url"])
    chain = rng.randint(0, MAX_EXPANSION_HOPS + 3)
    for i in range(chain):
        mapping[f"http://t.ly/p{i}"] = f"http://t.ly/p{i + 1}"
    mapping[f"t.ly/p{chain}"] = "http://news.c.co.uk/end"
    return shortener_table({"s.io", "T.LY"}, mapping)


def _random_corpus(rng):
    pages = {"pg0": Page("pg0", "P", Region.ASIA), "pg1": Page("pg1", "Q", Region.OTHER)}
    n_posts = rng.randint(1, 4)
    posts = {f"p{j}": Post(f"p{j}", f"pg{j % 2}", "author", rng.randint(0, 50), 0, "post")
             for j in range(n_posts)}
    # campaigns repeat their links: most tokens come from a small pool
    pool = [_random_token(rng) for _ in range(rng.randint(1, 8))]
    comments, texts = {}, {}
    for i in range(rng.randint(0, 40)):
        words = [(rng.choice(pool) if rng.random() < 0.8 else _random_token(rng))
                 if rng.random() < 0.6 else "word"
                 for _ in range(rng.randint(0, 4))]
        text = rng.choice([" ", "\n", ", ", " see "]).join(words)
        cid = f"c{i}"
        comments[cid] = Comment(cid, f"p{rng.randrange(n_posts)}", f"u{rng.randint(0, 5)}",
                                rng.randint(0, 60), 0, url_tokens(text))
        texts[cid] = text
    return Corpus(pages=pages, posts=posts, comments=comments), texts


class TestCollectMatchesReference:
    """Full observation lists, in order and flagged included, against the
    per-occurrence loop."""

    def test_small_synth(self, small_synth, small_labels):
        table = shortener_table(set(small_synth.shortener_hosts), small_synth.shortener_map)
        observations, _ = small_labels
        assert observations == reference_collect_observations(
            small_synth.corpus, table, small_synth.comment_texts)

    def test_bench(self, bench_synth, bench_labels):
        table = shortener_table(set(bench_synth.shortener_hosts), bench_synth.shortener_map)
        observations, _ = bench_labels
        assert observations == reference_collect_observations(
            bench_synth.corpus, table, bench_synth.comment_texts)

    def test_random_corpora(self):
        rng = random.Random(2024)
        flagged = 0
        for trial in range(200):
            (corpus, texts), table = _random_corpus(rng), _random_table(rng)
            want = reference_collect_observations(corpus, table, texts)
            assert collect_observations(corpus, table) == want, f"trial {trial}"
            flagged += sum(o.flagged for o in want)
        assert flagged  # the mix reaches cycles and over-bound chains

    def test_memo_lasts_one_call(self):
        texts = ["go s.io/a now", "http://s.io/a again", "plain http://b.com/1"]
        corpus = _tiny_corpus(texts)
        for table in (shortener_table({"s.io"}, {"s.io/a": "http://good.com/1"}),
                      shortener_table({"s.io"}, {"s.io/a": "http://evil.com/1"}),
                      shortener_table()):
            want = reference_collect_observations(corpus, table, _by_id(texts))
            assert collect_observations(corpus, table) == want

    def test_each_distinct_token_normalized_once(self, monkeypatch):
        calls = []
        normalize = labeler.normalize_url
        monkeypatch.setattr(labeler, "normalize_url",
                            lambda token: calls.append(token) or normalize(token))
        corpus = _tiny_corpus(["http://a.com/x and http://localhost/y",
                               "http://a.com/x again, http://localhost/y",
                               "HTTP://A.com/x",
                               "http://localhost/y, http://a.com/x"])
        observations = collect_observations(corpus, shortener_table())
        # the memo is keyed by the raw token, trailing junk included
        assert sorted(calls) == ["HTTP://A.com/x", "http://a.com/x",
                                 "http://localhost/y", "http://localhost/y,"]
        assert [o.comment_id for o in observations] == ["c0", "c1", "c2", "c3"]


def _shuffled(corpus, rng):
    """The corpus with its comments dict rebuilt in a shuffled order."""
    comments = list(corpus.comments.items())
    rng.shuffle(comments)
    return Corpus(corpus.pages, corpus.posts, dict(comments))


class TestLabelStageMatchesCollectedJoin:
    """The label stage joins a stream of observations in comment order;
    its labels equal the join over the collected observations,
    whatever the order of the comments dict."""

    @staticmethod
    def _check(corpus, table, blacklist, tmp_path, rng):
        want = join_blacklist(collect_observations(corpus, table), blacklist)
        path = str(tmp_path / "labels.tsv")
        assert cli.label_stage(corpus, table, blacklist, path) == want
        assert cli.label_stage(_shuffled(corpus, rng), table, blacklist, path) == want
        return want

    def test_small_synth(self, small_synth, tmp_path):
        table = shortener_table(set(small_synth.shortener_hosts), small_synth.shortener_map)
        assert self._check(small_synth.corpus, table, read_blacklist(small_synth.blacklist),
                           tmp_path, random.Random(7))

    def test_bench(self, bench_synth, tmp_path):
        table = shortener_table(set(bench_synth.shortener_hosts), bench_synth.shortener_map)
        assert self._check(bench_synth.corpus, table, read_blacklist(bench_synth.blacklist),
                           tmp_path, random.Random(8))

    def test_random_corpora(self, tmp_path):
        rng = random.Random(2025)
        categories = list(Category)
        labelled = 0
        for trial in range(200):
            (corpus, _), table = _random_corpus(rng), _random_table(rng)
            # keys the corpus can match, and one it cannot
            keys = ["d.com"]
            for o in collect_observations(corpus, table):
                keys += [o.domain, url_key(o.url)]
            blacklist = read_blacklist((rng.choice(keys), rng.choice(categories))
                                       for _ in range(rng.randint(0, 6)))
            labelled += bool(self._check(corpus, table, blacklist, tmp_path, rng))
        assert labelled > 50

    def test_join_looks_each_distinct_pair_up_once(self, bench_synth, bench_labels,
                                                   monkeypatch):
        observations, labels = bench_labels
        shuffled = list(observations)
        random.Random(9).shuffle(shuffled)
        index = read_blacklist(bench_synth.blacklist)
        calls = []
        key = labeler.url_key
        monkeypatch.setattr(labeler, "url_key",
                            lambda url: calls.append(url) or key(url))
        assert join_blacklist(iter(shuffled), index) == labels
        pairs = {(o.url, o.domain) for o in observations}
        assert len(pairs) < len(observations)
        assert sorted(calls) == sorted(url for url, _ in pairs)

    def test_label_resolves_only_matches_twice(
            self, bench_synth, monkeypatch):
        corpus = bench_synth.corpus
        table = shortener_table(set(bench_synth.shortener_hosts), bench_synth.shortener_map)
        index = read_blacklist(bench_synth.blacklist)
        collected = collect_observations(corpus, table)
        hit = {pair: bool(join_blacklist([UrlObservation(*pair, "c", "u")], index))
               for pair in {(o.url, o.domain) for o in collected}}
        matching = [o for o in collected if hit[o.url, o.domain]]
        resolved, joined = [], []
        resolve, join = labeler._resolve, labeler.join_blacklist

        def resolve_spy(token, *rest):
            resolved.append(token)
            return resolve(token, *rest)

        def join_spy(observations, blacklist):
            joined.extend(observations)
            return join(joined, blacklist)

        monkeypatch.setattr(labeler, "_resolve", resolve_spy)
        monkeypatch.setattr(labeler, "join_blacklist", join_spy)
        labels = label_comments(corpus.comments.values(), table, index)
        tokens = [t for c in corpus.comments.values() for t in c.url_tokens]
        assert len(set(tokens)) < len(tokens)
        # every distinct token once; one whose URL matches a key once more,
        # for the hit that only a matching token keeps
        matched = {t for t in set(tokens)
                   if (h := resolve(t, table)) is not None and hit[h[0], h[1]]}
        assert 0 < len(matched) < len(set(tokens))
        assert sorted(resolved) == sorted([*set(tokens), *matched])
        assert 0 < len(matching) < len(collected)
        assert sorted(joined) == sorted(matching)
        assert labels == join(collected, index)


class TestJoinBlacklist:
    def test_empty_blacklist(self):
        assert join_blacklist(sort_obs([obs("http://a.com/x")]), read_blacklist([])) == []

    def test_domain_match(self):
        observations = sort_obs([obs("http://a.com/x", "c1"),
                                 obs("http://b.com/y", "c2")])
        blacklist = [BlacklistEntry("b.com", Category.PHISHING)]
        labels = join_blacklist(observations, read_blacklist(blacklist))
        assert [(l.comment_id, l.category) for l in labels] == [("c2", Category.PHISHING)]
        assert brute_force_join(observations, blacklist) == {("c2", Category.PHISHING)}

    def test_full_url_key_matches_exact_url_only(self):
        observations = sort_obs([obs("http://a.com/x", "c1"),
                                 obs("http://a.com/y", "c2")])
        blacklist = read_blacklist([("a.com/x", Category.MALWARE)])
        labels = join_blacklist(observations, blacklist)
        assert [(l.comment_id, l.matched_key) for l in labels] == [("c1", "a.com/x")]

    def test_unsorted_observations_give_sorted_labels(self):
        observations = [obs("http://b.com/x", "c1"), obs("http://a.com/x", "c2")]
        blacklist = read_blacklist([("a.com", Category.ADS), ("b.com", Category.ADS)])
        labels = join_blacklist(observations, blacklist)
        assert labels == join_blacklist(sort_obs(observations), blacklist)
        assert [l.comment_id for l in labels] == ["c1", "c2"]

    def test_unsorted_blacklist_gives_sorted_labels(self):
        observations = [obs("http://a.com/x", "c1"), obs("http://b.com/x", "c2")]
        blacklist = [BlacklistEntry("b.com", Category.ADS),
                     BlacklistEntry("a.com", Category.ADS)]
        labels = join_blacklist(observations, read_blacklist(blacklist))
        assert labels == join_blacklist(observations,
                                        read_blacklist(sort_blacklist(blacklist)))
        assert [l.comment_id for l in labels] == ["c1", "c2"]

    def test_each_observation_joined_on_its_own_domain(self):
        # the join looks keys up once per run of equal (url, domain); a
        # hand-built observation whose domain is not its URL's still
        # matches by the domain it carries
        observations = [UrlObservation("http://a.com/x", "a.com", "c1", "u1"),
                        UrlObservation("http://a.com/x", "b.com", "c2", "u1"),
                        UrlObservation("http://a.com/x", "a.com", "c3", "u1")]
        blacklist = [BlacklistEntry("b.com", Category.ADS)]
        labels = join_blacklist(observations, read_blacklist(blacklist))
        assert labels == [MaliciousLabel("c2", Category.ADS, "b.com")]
        assert brute_force_join(observations, blacklist) == {("c2", Category.ADS)}

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(1234)
        for trial in range(100):
            m = rng.randint(1, 60)
            n = rng.randint(1, 40)
            domains = [f"d{rng.randint(0, 25)}.com" for _ in range(m)]
            observations = sort_obs([
                obs(f"http://{d}/p{rng.randint(0, 3)}", f"c{i}")
                for i, d in enumerate(domains)])
            blacklist = sorted(
                (BlacklistEntry(
                    f"d{rng.randint(0, 25)}.com" + ("/p1" if rng.random() < 0.3 else ""),
                    rng.choice(list(Category)))
                 for _ in range(n)),
                key=lambda e: e.key)
            got = {(l.comment_id, l.category)
                   for l in join_blacklist(observations, read_blacklist(blacklist))}
            assert got == brute_force_join(observations, blacklist), f"trial {trial}"

    def test_shuffling_input_never_changes_labels(self):
        rng = random.Random(5)
        items = [obs(f"http://d{i % 7}.com/x", f"c{i}") for i in range(30)]
        blacklist = [BlacklistEntry("d1.com", Category.ADS),
                     BlacklistEntry("d3.com", Category.PORN),
                     BlacklistEntry("d3.com/x", Category.PORN),
                     BlacklistEntry("d5.com/x", Category.ADS)]
        expected = join_blacklist(sort_obs(items), read_blacklist(sort_blacklist(blacklist)))
        for _ in range(5):
            rng.shuffle(items)
            rng.shuffle(blacklist)
            assert join_blacklist(items, read_blacklist(blacklist)) == expected


class TestJoinMatchesReference:
    """Full labels, matched key included, against the sort-merge join."""

    def test_random_instances_with_scheme_variants(self):
        rng = random.Random(99)
        categories = list(Category)
        for trial in range(200):
            observations = [
                obs(f"{rng.choice(['http', 'https'])}://"
                    f"{rng.choice(['', 'www.'])}d{rng.randint(0, 6)}.com/p{rng.randint(0, 2)}",
                    f"c{rng.randint(0, 15)}")
                for _ in range(rng.randint(0, 40))]
            blacklist = [
                BlacklistEntry(f"{rng.choice(['', 'www.'])}d{rng.randint(0, 6)}.com"
                               f"/p{rng.randint(0, 2)}", rng.choice(categories))
                if rng.random() < 0.5 else
                BlacklistEntry(f"d{rng.randint(0, 6)}.com", rng.choice(categories))
                for _ in range(rng.randint(0, 20))]
            assert_matches_reference(observations, blacklist, rng)

    def test_several_keys_one_category(self):
        observations = [obs("http://z.com/1", "c1"), obs("https://b.com/2", "c1"),
                        obs("http://a.com/3", "c1"), obs("http://y.com/4", "c1")]
        blacklist = [BlacklistEntry("z.com", Category.ADS),
                     BlacklistEntry("b.com", Category.ADS),
                     BlacklistEntry("a.com/3", Category.ADS),
                     BlacklistEntry("y.com/4", Category.ADS)]
        want = assert_matches_reference(observations, blacklist, random.Random(1))
        assert want == [MaliciousLabel("c1", Category.ADS, "b.com")]

    def test_domain_key_wins_over_full_url_key(self):
        observations = [obs("https://b.com/x", "c1")]
        blacklist = [BlacklistEntry("b.com/x", Category.MALWARE),
                     BlacklistEntry("b.com", Category.MALWARE)]
        want = assert_matches_reference(observations, blacklist, random.Random(2))
        assert want == [MaliciousLabel("c1", Category.MALWARE, "b.com")]

    def test_smallest_full_url_key_without_domain_key(self):
        observations = [obs("http://a.com/2", "c1"), obs("https://a.com/1", "c1")]
        blacklist = [BlacklistEntry("a.com/2", Category.PORN),
                     BlacklistEntry("a.com/1", Category.PORN)]
        want = assert_matches_reference(observations, blacklist, random.Random(3))
        assert want == [MaliciousLabel("c1", Category.PORN, "a.com/1")]

    def test_key_repeated_with_two_categories(self):
        observations = [obs("http://a.com/x", "c1"), obs("http://a.com/y", "c2")]
        blacklist = [BlacklistEntry("a.com", Category.PHISHING),
                     BlacklistEntry("a.com", Category.ADS),
                     BlacklistEntry("a.com/y", Category.ADS)]
        want = assert_matches_reference(observations, blacklist, random.Random(4))
        assert want == [MaliciousLabel("c1", Category.ADS, "a.com"),
                        MaliciousLabel("c1", Category.PHISHING, "a.com"),
                        MaliciousLabel("c2", Category.ADS, "a.com"),
                        MaliciousLabel("c2", Category.PHISHING, "a.com")]

    def test_bench_labels(self, bench_synth, bench_labels):
        observations, labels = bench_labels
        want = assert_matches_reference(observations, bench_synth.blacklist,
                                        random.Random(5))
        assert want and labels == want


class TestLabelThreads:
    def test_no_labels(self):
        corpus = _tiny_corpus(["a", "b"])
        is_target, attackers = label_threads(corpus, [])
        assert all(not t for t in is_target.values())
        assert attackers == set()

    def test_single_label(self, small_synth, small_labels):
        _, labels = small_labels
        is_target, attackers = label_threads(small_synth.corpus, labels)
        lab = labels[0]
        comment = small_synth.corpus.comments[lab.comment_id]
        assert is_target[comment.post_id]
        assert comment.author_id in attackers

    def test_counts(self):
        corpus = _tiny_corpus(["x", "y", "z"], n_posts=2)
        labels = [MaliciousLabel("c0", Category.ADS, "k"),
                  MaliciousLabel("c1", Category.ADS, "k"),
                  MaliciousLabel("c2", Category.PORN, "k")]
        is_target, attackers = label_threads(corpus, labels)
        assert sum(is_target.values()) == 2
        assert len(attackers) == len({corpus.comments[f"c{i}"].author_id for i in range(3)})

    def test_unknown_comment_is_error(self):
        corpus = _tiny_corpus(["a"])
        with pytest.raises(LabelError, match="ghost"):
            label_threads(corpus, [MaliciousLabel("ghost", Category.ADS, "k")])


def test_labels_reproducible_from_text(small_synth, small_labels):
    # every label's comment re-run through extract+expand yields a URL
    # matching the recorded key
    _, labels = small_labels
    table = shortener_table(set(small_synth.shortener_hosts), small_synth.shortener_map)
    for lab in labels:
        text = small_synth.comment_texts[lab.comment_id]
        urls = [expand_url(u, table)[0] for u in extract_urls(text)]
        assert any(registrable_domain(u) == lab.matched_key
                   or url_key(u) == lab.matched_key for u in urls)


def reference_load(lines, path="bl.tsv"):
    """Entries of blacklist lines, one per line in file order, parsed
    field by field: an oracle for the loader's one-pass index. Each key
    is read by ``reference_key``. The first bad line raises the loader's
    LabelError, naming path and the line."""
    names = {c.value.lower(): c for c in Category}
    entries = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise LabelError(f"{path} line {lineno}: not key<TAB>category")
        key, cat = line.split("\t", 1)
        if cat.strip().lower() not in names:
            raise LabelError(f"{path} line {lineno}: unknown category {cat!r}")
        if not reference_key(key):
            raise LabelError(f"{path} line {lineno}: empty key")
        entries.append(BlacklistEntry(reference_key(key), names[cat.strip().lower()]))
    return entries


def reference_index(entries):
    """(domain keys, full-URL keys) of blacklist entries, each key mapped
    to its distinct categories in entry order."""
    domains, urls = {}, {}
    for key, category in entries:
        index = urls if "/" in key else domains
        if category not in index.setdefault(key, ()):
            index[key] += (category,)
    return domains, urls


def test_load_blacklist_case_insensitive_categories(tmp_path):
    path = tmp_path / "bl.tsv"
    path.write_text("Evil.COM\tPHISHING\nads.net\tads\n")
    blacklist = load_blacklist(str(path)).indexed()
    assert blacklist.domains == {"evil.com": (Category.PHISHING,),
                                 "ads.net": (Category.ADS,)}
    assert blacklist.urls == {}
    assert len(blacklist) == 2


def test_key_listed_once_shares_one_category_tuple(tmp_path, small_synth):
    path = str(tmp_path / "bl.tsv")
    synthgen.write_blacklist_tsv(small_synth, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("twice.com\tporn\nTwice.com\tads\nhttp://twice.com\tporn\n"
                 "twice.com/x\tmalware\nTWICE.com/x\tMalware\n")
    blacklist = load_blacklist(path).indexed()
    once = {e.key: e.category for e in small_synth.blacklist}
    assert len(blacklist) == len(once) + 5
    for index in (blacklist.domains, blacklist.urls):
        for key, categories in index.items():
            if key in once:
                assert categories is labeler._ONE_CATEGORY[once[key]]
    # a repeated key keeps its distinct categories in file order
    assert blacklist.domains["twice.com"] == (Category.PORN, Category.ADS)
    assert blacklist.urls["twice.com/x"] is labeler._ONE_CATEGORY[Category.MALWARE]


@pytest.mark.parametrize("line, message", [
    ("\tads", "blacklist line 2: empty key"),
    ("http://\tphishing", "blacklist line 2: empty key"),
    ("  HTTPS://  \tPorn", "blacklist line 2: empty key"),
    ("evil.com", "blacklist line 2: not key<TAB>category"),
    ("evil.com\tspam", "blacklist line 2: unknown category 'spam'"),
])
def test_bad_blacklist_line_names_the_line(tmp_path, monkeypatch, line, message):
    # the file's path is "blacklist", the text each message starts with
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blacklist").write_text(f"ok.com\tads\n{line}\nlater.com\tads\n")
    with pytest.raises(LabelError) as err:
        load_blacklist("blacklist")
    assert str(err.value) == message


_BL_KEYS = ["a.com", "A.Com", "www.a.com", "b.org", "B.ORG", "a.com/x", "A.com/X",
            "A.COM/x", "a.com/X", "b.org/x", "WWW.a.com/X", "www.a.com/x",
            "a.com/go?u=http://b.org/x", "a.com/GO?u=http://B.org/x"]
_BL_CATEGORIES = ["ads", "Ads", "ADS", "malware", "Malware", "phishing", "PHISHING",
                  "porn", "pOrN"]
_PAD = st.sampled_from(["", " ", "  "])
_BL_LINE = st.one_of(
    st.tuples(_PAD, st.sampled_from(["", "http://", "HTTPS://", "hTtP://"]),
              st.sampled_from(_BL_KEYS), _PAD, st.just("\t"), _PAD,
              st.sampled_from(_BL_CATEGORIES), _PAD).map("".join),
    st.sampled_from(["", " ", "  \t ", "\t"]))

_BL_OBSERVATIONS = [obs(f"{scheme}://{host}/{path}", f"c{i}")
                    for i, (scheme, host, path) in enumerate(itertools.product(
                        ("http", "https"), ("a.com", "www.a.com", "b.org", "c.net"),
                        ("x", "X", "y", "go?u=http://b.org/x", "GO?u=http://B.org/x")))]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_BL_LINE, max_size=30), st.booleans())
def test_loaded_index_joins_as_reference(tmp_path, lines, final_newline):
    path = tmp_path / "bl.tsv"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")
    entries = reference_load(lines)
    blacklist = load_blacklist(str(path))
    assert len(blacklist) == len(entries)
    assert join_blacklist(_BL_OBSERVATIONS, blacklist) == reference_join(
        sort_obs(_BL_OBSERVATIONS), entries)


# lines the reader rejects: no tab, an unknown category, an empty key,
# or any text at all
_BAD_BL_LINE = st.one_of(
    st.sampled_from(["evil.com", "evil.com ads", "evil.com\tspam", "evil.com\t",
                     "evil.com\tads\tads", "\tads", "http://\tphishing",
                     "  HTTPS://  \tPorn"]),
    st.text(st.characters(exclude_characters="\n"), max_size=20))
# lines it accepts: _BL_LINE's blank lines, repeated keys and scheme and
# host-case variants, and arbitrary keys
_GOOD_BL_LINE = st.one_of(
    _BL_LINE, _BL_LINE,
    st.tuples(st.text(st.characters(exclude_characters="\n\t"), min_size=1,
                      max_size=12),
              st.just("\t"), st.sampled_from(_BL_CATEGORIES)).map("".join))


@settings(max_examples=400, deadline=None)
@given(st.lists(_GOOD_BL_LINE, max_size=30),
       st.one_of(st.none(), st.tuples(st.integers(0, 30), _BAD_BL_LINE)),
       st.booleans())
def test_reader_builds_the_reference_index(lines, bad, final_newline):
    if bad is not None:
        lines.insert(bad[0], bad[1])
    lines = [line + "\n" for line in lines]
    if lines and not final_newline:
        lines[-1] = lines[-1][:-1]
    try:
        entries = reference_load(lines)
    except LabelError as exc:
        with pytest.raises(LabelError) as err:
            labeler._read_blacklist(lines, "bl.tsv")
        assert str(err.value) == str(exc)
        return
    blacklist = labeler._read_blacklist(lines, "bl.tsv")
    assert (blacklist.domains, blacklist.urls) == reference_index(entries)
    assert len(blacklist) == len(entries)


# pieces of blacklist lines: tabs, schemes, slashes, spaces and line
# breaks other than LF, categories, and letters whose case maps change
# their length
_BL_PIECES = st.sampled_from(["\t", "\tads", "://", "http://", "HTTPS:// ", "hTtP", " ", "\r",
                              "/", "a.com", "B.org/X", "Porn", "spam", "\x0c", "\u2028",
                              "\x85", "\u0130", "\u00df", "\u03a3"])
# keys that are, or are not, empty once their scheme is gone
_SCHEME_KEY = st.tuples(_PAD, st.sampled_from(["http://", "HTTPS://", "hTtP://", "http:/", "://"]),
                        _PAD, st.sampled_from(["", "a.com", "/x"]), st.just("\t"),
                        st.sampled_from(_BL_CATEGORIES)).map("".join)
_ANY_BL_LINE = st.one_of(_BL_LINE, _SCHEME_KEY, st.lists(_BL_PIECES, max_size=8).map("".join),
                         st.text(st.characters(exclude_characters="\n"), max_size=16))
_AT_LINE = re.compile(r"bl\.tsv line [1-9][0-9]*: ")


def _read_or_error(lines, wanted=None):
    """len() of what the reader builds from lines, or the text of the
    LabelError it raises; any other exception propagates."""
    try:
        return len(labeler._read_blacklist(lines, "bl.tsv", wanted))
    except LabelError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(_ANY_BL_LINE, max_size=12), st.booleans())
def test_reader_loads_or_names_the_line(lines, final_newline):
    lines = [line + "\n" for line in lines]
    if lines and not final_newline:
        lines[-1] = lines[-1][:-1]
    indexed = _read_or_error(lines)
    assert isinstance(indexed, int) or _AT_LINE.match(indexed), indexed
    # the check pass, which takes a url_key only for keys holding "://",
    # fails on the same line with the same message, or counts the same
    # entries; so does a read that indexes some keys
    assert _read_or_error(lines, ()) == indexed
    assert _read_or_error(lines, {"a.com", "b.org/X"}) == indexed


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.binary(max_size=12)
                | _ANY_BL_LINE.map(lambda line: line.encode("utf-8", "surrogatepass")),
                max_size=8))
def test_loader_loads_or_names_the_line_of_any_bytes(tmp_path, lines):
    path = tmp_path / "bl.tsv"
    path.write_bytes(b"\n".join(lines))
    try:
        blacklist = load_blacklist(str(path))
    except LabelError as exc:
        assert str(exc).startswith(f"{path} line "), str(exc)
        return
    assert len(blacklist.indexed()) == len(blacklist)


@pytest.mark.parametrize("line, message", [
    ("c2\tphishing", "line 2: bad row"),
    ("c2\tphishing\tevil.com\tx", "line 2: bad row"),
    ("c2\tspam\tevil.com", "line 2: unknown category 'spam'"),
])
def test_bad_labels_line_names_the_file_and_line(tmp_path, line, message):
    path = tmp_path / "labels.tsv"
    path.write_text(f"c1\tphishing\tevil.com\n{line}\n")
    with pytest.raises(LabelError) as err:
        labeler.read_labels(str(path))
    assert str(err.value) == f"{path} {message}"


def test_repeated_labels_line_is_read_once(tmp_path):
    # a repeat would make temporal count one attack twice
    path = tmp_path / "labels.tsv"
    path.write_text("c1\tphishing\tevil.com\nc2\tads\tb.com\nc1\tPhishing\tevil.com\n"
                    "c1\tads\tevil.com\n")
    assert labeler.read_labels(str(path)) == [
        MaliciousLabel("c1", Category.PHISHING, "evil.com"),
        MaliciousLabel("c2", Category.ADS, "b.com"),
        MaliciousLabel("c1", Category.ADS, "evil.com")]


def test_labels_line_with_another_key_names_both_lines(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("c1\tphishing\tevil.com\nc2\tads\tb.com\n\nc1\tphishing\tevil.com/x\n")
    with pytest.raises(LabelError) as err:
        labeler.read_labels(str(path))
    assert str(err.value) == f"{path} lines 1 and 4: two keys for comment c1, category phishing"


def test_shortener_map_line_without_tab_names_the_line(tmp_path):
    smap, hosts = tmp_path / "map.tsv", tmp_path / "hosts.txt"
    smap.write_text("sh-url.io/a\thttp://evil.com/1\n\nsh-url.io/zz\n")
    hosts.write_text("sh-url.io\n")
    with pytest.raises(LabelError) as err:
        ShortenerTable.load(str(smap), str(hosts))
    assert str(err.value) == f"{smap} line 3: not short<TAB>target"


@pytest.mark.parametrize("line", [
    "\thttp://evil.com/a", "http://\thttp://evil.com/b", "  HTTPS://  \thttp://evil.com/c"])
def test_shortener_map_empty_key_names_the_line(tmp_path, line):
    smap, hosts = tmp_path / "map.tsv", tmp_path / "hosts.txt"
    smap.write_text(f"sh-url.io/a\thttp://evil.com/1\n{line}\nsh-url.io/b\thttp://evil.com/2\n")
    hosts.write_text("sh-url.io\n")
    with pytest.raises(LabelError) as err:
        ShortenerTable.load(str(smap), str(hosts))
    assert str(err.value) == f"{smap} line 2: empty key"


def test_shortener_map_key_with_two_targets_names_both_lines(tmp_path):
    smap, hosts = tmp_path / "map.tsv", tmp_path / "hosts.txt"
    hosts.write_text("sh.io\n")
    # a line that repeats a key and its target, as read, is accepted
    smap.write_text("sh.io/a\thttp://x.com/1\nHTTP://SH.IO/a\t http://x.com/1\n")
    assert ShortenerTable.load(str(smap), str(hosts)).mapping == {"sh.io/a": "http://x.com/1"}
    smap.write_text("sh.io/a\thttp://x.com/1\nsh.io/b\thttp://x.com/2\n"
                    "HTTP://SH.IO/a\thttp://y.com/2\n")
    with pytest.raises(LabelError) as err:
        ShortenerTable.load(str(smap), str(hosts))
    assert str(err.value) == f"{smap} lines 1 and 3: two targets for sh.io/a"


def test_shortener_map_fields_are_stripped(tmp_path):
    smap, hosts = tmp_path / "map.tsv", tmp_path / "hosts.txt"
    smap.write_text("sh.io/a\t http://evil.com/x\nsh.io/b\thttp://evil.com/y \n"
                    " sh.io/c\thttp://evil.com/z\n")
    hosts.write_text("sh.io\n")
    table = ShortenerTable.load(str(smap), str(hosts))
    assert [table.lookup(f"http://sh.io/{p}") for p in "abc"] == [
        "http://evil.com/x", "http://evil.com/y", "http://evil.com/z"]
    blacklist = read_blacklist((f"evil.com/{p}", Category.MALWARE) for p in "xyz")
    corpus = _tiny_corpus(["see sh.io/a", "see http://sh.io/b", "see sh.io/c"])
    labels = label_comments(corpus.comments.values(), table, blacklist)
    assert [(lab.comment_id, lab.matched_key) for lab in labels] == [
        ("c0", "evil.com/x"), ("c1", "evil.com/y"), ("c2", "evil.com/z")]


def test_blacklist_key_keeps_its_path_case(tmp_path):
    path = tmp_path / "bl.tsv"
    path.write_text("evil.com/Phish\tphishing\n")
    blacklist = load_blacklist(str(path))
    observations = [obs("http://evil.com/Phish", "c1"), obs("HTTP://EVIL.COM/Phish", "c2"),
                    obs("http://evil.com/phish", "c3")]
    assert join_blacklist(observations, blacklist) == [
        MaliciousLabel("c1", Category.PHISHING, "evil.com/Phish"),
        MaliciousLabel("c2", Category.PHISHING, "evil.com/Phish")]


def test_shortener_keys_keep_their_path_case(tmp_path):
    smap, hosts = tmp_path / "map.tsv", tmp_path / "hosts.txt"
    smap.write_text("sh.io/AbC\thttp://evil.com/1\nsh.io/abc\thttp://good.com/2\n")
    hosts.write_text("sh.io\n")
    table = ShortenerTable.load(str(smap), str(hosts))
    assert table.lookup("http://sh.io/AbC") == "http://evil.com/1"
    assert table.lookup("HTTPS://SH.IO/AbC") == "http://evil.com/1"
    assert table.lookup("http://sh.io/abc") == "http://good.com/2"
    assert table.lookup("http://sh.io/ABC") is None


def _upper_scheme_and_host(url):
    scheme, rest = url.split("://", 1)
    host, slash, path = rest.partition("/")
    return f"{scheme.upper()}://{host.upper()}{slash}{path}"


_CASE_HOSTS = ["a.com", "www.a.com", "b.org"]
_CASE_PATHS = ["x", "X", "go?u=http://b.org/x"]
_CASE_KEYS = ["a.com", "b.org", *(f"{h}/{p}" for h in _CASE_HOSTS for p in _CASE_PATHS)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["http", "https"]), st.sampled_from(_CASE_HOSTS),
                          st.sampled_from(_CASE_PATHS), st.integers(0, 5)), max_size=20),
       st.lists(st.tuples(st.sampled_from(_CASE_KEYS), st.sampled_from(list(Category))),
                max_size=10))
def test_scheme_and_host_case_never_changes_labels(urls, keys):
    observations = [obs(f"{scheme}://{host}/{path}", f"c{c}")
                    for scheme, host, path, c in urls]
    upper = [o._replace(url=_upper_scheme_and_host(o.url)) for o in observations]
    blacklist = read_blacklist(keys)
    assert join_blacklist(upper, blacklist) == join_blacklist(observations, blacklist)


def _tiny_corpus(texts, n_posts=1):
    """One comment per text, with id c<i>, carrying the text's URL tokens."""
    pages = {"pg0": Page("pg0", "P", Region.ASIA)}
    posts = {f"p{j}": Post(f"p{j}", "pg0", "author", 1000, 0, "post")
             for j in range(n_posts)}
    comments = {}
    for i, text in enumerate(texts):
        pid = f"p{i % n_posts}"
        comments[f"c{i}"] = Comment(f"c{i}", pid, f"u{i}", 1000 + i, 0, url_tokens(text))
    return Corpus(pages=pages, posts=posts, comments=comments)


def _by_id(texts):
    """The texts of _tiny_corpus(texts) by comment id."""
    return {f"c{i}": text for i, text in enumerate(texts)}


def _upper_host(key):
    host, slash, path = key.partition("/")
    return host.upper() + slash + path


# keys under the reserved .invalid TLD (RFC 2606), which no URL reaches
_DECOY_KEYS = st.builds(lambda n, path: f"x{n:04d}.invalid{path}",
                        st.integers(0, 9999), st.sampled_from(["", "/offer1", "/Offer2"]))


class TestReachableIndex:
    """label indexes only the blacklist keys its corpus can reach, read
    from the file a second time, and labels as the join over every
    observation and every key does."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_labels_as_the_reference_join(self, tmp_path, seed, data):
        rng = random.Random(seed)
        (corpus, _), table = _random_corpus(rng), _random_table(rng)
        collected = collect_observations(corpus, table)
        reached = sorted({key for o in collected for key in (o.domain, url_key(o.url))})
        # keys the corpus reaches, in host-case and scheme variants and
        # repeated, and decoys
        key = (st.sampled_from(reached + ["d.com", "d.com/x"])
               .flatmap(lambda k: st.sampled_from([k, _upper_host(k)])) | _DECOY_KEYS)
        line = st.tuples(_PAD, st.sampled_from(["", "http://", "HTTPS://"]), key, _PAD,
                         st.just("\t"), st.sampled_from(_BL_CATEGORIES)).map("".join)
        lines = data.draw(st.lists(line, max_size=24))
        path = tmp_path / "bl.tsv"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        want = reference_join(sort_obs(collected), reference_load(lines))
        target(float(len(want)))
        blacklist = load_blacklist(str(path))
        assert label_comments(corpus.comments.values(), table, blacklist) == want
        assert len(blacklist) == len(lines)

    def test_unreachable_keys_cost_no_memory(self, tmp_path, small_synth):
        table = shortener_table(set(small_synth.shortener_hosts), small_synth.shortener_map)
        comments = small_synth.corpus.comments.values()
        base = tmp_path / "base.tsv"
        synthgen.write_blacklist_tsv(small_synth, str(base))
        padded = tmp_path / "padded.tsv"
        rng = random.Random(5)
        decoys = "".join(f"{rng.getrandbits(40):010x}{i:05d}.INVALID{'/x' * (i % 4 == 0)}"
                         f"\t{rng.choice(['ads', 'porn'])}\n" for i in range(20_000))
        padded.write_text(base.read_text(encoding="utf-8") + decoys, encoding="utf-8")

        def traced(path):
            """The labels, and the peak and retained traced memory of
            checking the file and labelling with it."""
            tracemalloc.start()
            try:
                blacklist = load_blacklist(str(path))
                labels = label_comments(comments, table, blacklist)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return labels, peak, retained

        traced(base)  # fills urlsplit's cache and the like, once
        labels, peak, retained = traced(base)
        padded_labels, padded_peak, padded_retained = traced(padded)
        assert labels and padded_labels == labels
        # an index of the 20k keys would take about 2 MB; the peaks differ
        # by the reader's 8 KB text buffer, which the short file leaves
        # part empty
        assert abs(padded_peak - peak) < 12_288
        assert abs(padded_retained - retained) < 1024
