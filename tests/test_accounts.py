import random
from collections import Counter

import numpy as np
import pytest

from threadwatch.accounts import (AccountError, AccountFootprint,
                                  campaign_scatter, cluster_campaigns,
                                  comments_by_author, footprint, response_stats,
                                  sample_normal_accounts, stats_from_times)
from threadwatch.corpus import Comment, Corpus, Page, Post, Region, rel_minutes
from threadwatch.labeler import Category, MaliciousLabel, label_threads

T0 = 1_400_000_000

# the duplicated-message commenting-time vector used as a worked example
RESPONSE_VECTOR = (6194, 5650, 1, 8, 9, 11, 12, 13, 14, 18)


def two_page_corpus():
    pages = {"pg0": Page("pg0", "A", Region.ASIA),
             "pg1": Page("pg1", "B", Region.EUROPE)}
    posts = {"p1": Post("p1", "pg0", "au", T0, 0, "x"),
             "p2": Post("p2", "pg1", "au", T0, 0, "x")}
    comments = {
        "c1": Comment("c1", "p1", "acct", T0 + 60, 0, ()),
        "c2": Comment("c2", "p1", "acct", T0 + 120, 1, ()),
        "c3": Comment("c3", "p2", "acct", T0 + 420, 2, ()),
        "c4": Comment("c4", "p2", "other", T0 + 500, 5, ()),
    }
    return Corpus(pages=pages, posts=posts, comments=comments)


def footprints_of(corpus, account_ids=None):
    """Footprints of the listed ids; of every commenting account, sorted,
    when none are listed."""
    if account_ids is None:
        account_ids = sorted({c.author_id for c in corpus.comments.values()})
    return footprint(corpus, comments_by_author(corpus, account_ids), account_ids)


def response_stats_of(corpus, account_ids):
    return response_stats(corpus, comments_by_author(corpus, account_ids), account_ids)


class TestFootprint:
    def test_unknown_account_zero(self):
        fp = footprints_of(two_page_corpus(), ["ghost"])[0]
        assert (fp.n_pages, fp.n_posts, fp.n_comments, fp.n_likes) == (0, 0, 0, 0)

    def test_hand_counted(self):
        fp = footprints_of(two_page_corpus(), ["acct"])[0]
        assert (fp.n_pages, fp.n_posts, fp.n_comments, fp.n_likes) == (2, 2, 3, 3)

    def test_totals_sum_to_corpus(self, small_synth):
        fps = footprints_of(small_synth.corpus)
        assert sum(f.n_comments for f in fps) == len(small_synth.corpus.comments)
        assert sum(f.n_likes for f in fps) == sum(
            c.like_count for c in small_synth.corpus.comments.values())

    def test_invariant_pages_le_posts_le_comments(self, small_synth):
        for f in footprints_of(small_synth.corpus):
            assert f.n_pages <= f.n_posts <= f.n_comments

    def test_attacker_accounts_mostly_zero_likes(self, small_synth, small_labels):
        _, labels = small_labels
        _, attackers = label_threads(small_synth.corpus, labels)
        fps = footprints_of(small_synth.corpus, sorted(attackers))
        zero = sum(1 for f in fps if f.n_likes == 0)
        assert zero / len(fps) >= 0.70


class TestResponseStats:
    def test_single_comment(self):
        corpus = two_page_corpus()
        [s] = response_stats_of(corpus, ["other"])
        assert s.mean == pytest.approx(500 / 60)
        assert s.std == 0.0

    def test_reference_vector(self):
        s = stats_from_times("acct", tuple(float(v) for v in RESPONSE_VECTOR))
        assert s.mean == 1193.0
        # independent two-pass recomputation
        expected_std = float(np.sqrt(np.mean(
            (np.array(RESPONSE_VECTOR, dtype=float) - 1193.0) ** 2)))
        assert s.std == pytest.approx(expected_std, abs=0.1)
        assert s.std == pytest.approx(2367.6, abs=0.1)

    def test_equal_times_zero_std(self):
        s = stats_from_times("a", (7.0, 7.0, 7.0))
        assert s.std == 0.0

    def test_no_comments_is_error(self):
        with pytest.raises(AccountError):
            response_stats_of(two_page_corpus(), ["nobody"])

    def test_two_pass_agreement(self, small_synth):
        corpus = small_synth.corpus
        authors = sorted({c.author_id for c in corpus.comments.values()})[:20]
        for s in response_stats_of(corpus, authors):
            arr = np.array(s.times)
            assert s.mean == pytest.approx(float(arr.mean()), rel=1e-9)
            assert s.std == pytest.approx(float(arr.std()), rel=1e-9, abs=1e-12)


def _ref_footprint(corpus, account_ids=None):
    """The footprint of four per-author dicts, kept as an oracle."""
    pages, posts, n_comments, n_likes = {}, {}, {}, {}
    for c in corpus.comments.values():
        post = corpus.posts[c.post_id]
        pages.setdefault(c.author_id, set()).add(post.page_id)
        posts.setdefault(c.author_id, set()).add(post.post_id)
        n_comments[c.author_id] = n_comments.get(c.author_id, 0) + 1
        n_likes[c.author_id] = n_likes.get(c.author_id, 0) + c.like_count
    if account_ids is None:
        account_ids = sorted(n_comments)
    out = []
    for aid in account_ids:
        if aid in n_comments:
            out.append(AccountFootprint(aid, len(pages[aid]), len(posts[aid]),
                                        n_comments[aid], n_likes[aid]))
        else:
            out.append(AccountFootprint(aid, 0, 0, 0, 0))
    return out


def _ref_response_stats(corpus, account_id):
    """The per-account scan of every comment, kept as an oracle."""
    rows = [c for c in corpus.comments.values() if c.author_id == account_id]
    if not rows:
        raise AccountError(f"account {account_id} has no comments")
    rows.sort(key=lambda c: (c.created_ts, c.comment_id))
    times = tuple(rel_minutes(corpus.posts[c.post_id], c) for c in rows)
    return stats_from_times(account_id, times)


class _CountingComments(dict):
    """A comment table that counts the passes over its values."""
    passes = 0

    def values(self):
        self.passes += 1
        return super().values()


class TestAuthorGroupingOracle:
    def _authors(self, corpus):
        return sorted({c.author_id for c in corpus.comments.values()})

    def test_every_author(self, small_synth):
        corpus = small_synth.corpus
        authors = self._authors(corpus)
        assert footprints_of(corpus) == _ref_footprint(corpus)
        assert footprints_of(corpus, authors) == _ref_footprint(corpus, authors)
        assert response_stats_of(corpus, authors) == [
            _ref_response_stats(corpus, aid) for aid in authors]

    def test_repeated_ids_keep_one_row_per_listing(self, small_synth):
        corpus = small_synth.corpus
        a = self._authors(corpus)
        [(busiest, _)] = Counter(
            c.author_id for c in corpus.comments.values()).most_common(1)
        ids = [busiest, a[0], busiest, a[-1], a[0], busiest]
        assert footprints_of(corpus, ids) == _ref_footprint(corpus, ids)
        assert response_stats_of(corpus, ids) == [
            _ref_response_stats(corpus, aid) for aid in ids]

    def test_footprint_unknown_ids(self, small_synth):
        corpus = small_synth.corpus
        a = self._authors(corpus)
        ids = ["ghost", a[1], "ghost", a[2], "nobody"]
        assert footprints_of(corpus, ids) == _ref_footprint(corpus, ids)

    def test_response_stats_names_the_account_without_comments(self, small_synth):
        ids = self._authors(small_synth.corpus)[:3] + ["ghost"]
        with pytest.raises(AccountError, match="account ghost has"):
            response_stats_of(small_synth.corpus, ids)

    def test_one_pass_over_the_comments_per_call(self, small_synth):
        corpus = small_synth.corpus
        counted = Corpus(corpus.pages, corpus.posts,
                         _CountingComments(corpus.comments))
        authors = self._authors(corpus)
        for ids in (authors[:3], authors):
            before = counted.comments.passes
            comments_by_author(counted, ids)
            assert counted.comments.passes == before + 1

    def test_one_grouping_serves_every_call(self, small_synth):
        corpus = small_synth.corpus
        counted = Corpus(corpus.pages, corpus.posts,
                         _CountingComments(corpus.comments))
        authors = self._authors(corpus)
        by_author = comments_by_author(counted, authors)
        before = counted.comments.passes
        # each group's rows match a grouping over that group alone
        for ids in (authors[::2], authors[1::2], authors):
            assert footprint(counted, by_author, ids) == _ref_footprint(corpus, ids)
            assert response_stats(counted, by_author, ids) == [
                _ref_response_stats(corpus, aid) for aid in ids]
        assert counted.comments.passes == before


class TestCampaigns:
    def test_empty(self):
        assert cluster_campaigns([], []) == []

    def test_grouping(self, small_synth, small_labels):
        observations, labels = small_labels
        clusters = cluster_campaigns(labels, observations)
        assert clusters
        # occurrences sorted descending and account bound holds
        occ = [c.occurrences for c in clusters]
        assert occ == sorted(occ, reverse=True)
        for c in clusters:
            assert 1 <= len(c.accounts) <= c.occurrences

    def test_occurrence_total_matches_labelled_comments(self, small_synth, small_labels):
        observations, labels = small_labels
        clusters = cluster_campaigns(labels, observations)
        assert sum(c.occurrences for c in clusters) == len(
            {lab.comment_id for lab in labels})

    def test_distinct_paths_distinct_clusters(self):
        from threadwatch.labeler import UrlObservation, registrable_domain
        obs = []
        for i, url in enumerate(["http://bad.com/a", "http://bad.com/b"]):
            obs.append(UrlObservation(url, registrable_domain(url), f"c{i}", "acct"))
        labels = [MaliciousLabel("c0", Category.ADS, "bad.com"),
                  MaliciousLabel("c1", Category.ADS, "bad.com")]
        assert len(cluster_campaigns(labels, obs)) == 2

    def test_clusters_ignore_observation_order(self, small_labels):
        from threadwatch.labeler import UrlObservation
        observations, labels = small_labels
        # a comment whose tokens give /b before /a; its label's URL is the
        # matching one with the smallest (domain, url)
        observations = [*observations,
                        UrlObservation("http://evil.com/b", "evil.com", "cx", "ux"),
                        UrlObservation("http://evil.com/a", "evil.com", "cx", "ux")]
        labels = [*labels, MaliciousLabel("cx", Category.PHISHING, "evil.com")]
        want = cluster_campaigns(labels, observations)
        assert [c.url for c in want if "ux" in c.accounts] == ["http://evil.com/a"]
        rng = random.Random(11)
        for _ in range(5):
            rng.shuffle(observations)
            rng.shuffle(labels)
            assert cluster_campaigns(labels, observations) == want


class TestScatter:
    def _cluster(self, url, occurrences, n_accounts):
        from threadwatch.accounts import CampaignCluster
        return CampaignCluster(url, occurrences,
                               frozenset(f"a{i}" for i in range(n_accounts)))

    def test_unflagged(self):
        pts = campaign_scatter([self._cluster("u", 3, 2)])
        assert pts == [("u", 2, 3, "")]

    def test_single_account_repetition(self):
        pts = campaign_scatter([self._cluster("u", 15, 1)])
        assert pts[0][3] == "single-account repetition"

    def test_synchronized_multi_account(self):
        pts = campaign_scatter([self._cluster("u", 12, 12)])
        assert pts[0][3] == "synchronized multi-account"


def test_sample_normal_excludes_attackers(small_synth, small_labels):
    _, labels = small_labels
    _, attackers = label_threads(small_synth.corpus, labels)
    sample = sample_normal_accounts(small_synth.corpus, attackers,
                                    per_page=50, seed=0)
    assert sample
    assert not set(sample) & attackers
    again = sample_normal_accounts(small_synth.corpus, attackers,
                                   per_page=50, seed=0)
    assert sample == again


def test_sample_normal_per_page_must_not_be_negative(small_synth):
    with pytest.raises(AccountError, match="per_page.*-3"):
        sample_normal_accounts(small_synth.corpus, set(), per_page=-3)
    assert sample_normal_accounts(small_synth.corpus, set(), per_page=0) == []


def test_sample_normal_seed_must_not_be_negative(small_synth):
    # random.Random seeds from abs(seed), so -5 would silently sample as 5
    with pytest.raises(AccountError, match="seed.*-5"):
        sample_normal_accounts(small_synth.corpus, set(), per_page=3, seed=-5)


def _pools_by_page(corpus, attackers):
    """Each page's commenters outside the attacker set."""
    pools = {}
    for c in corpus.comments.values():
        if c.author_id not in attackers:
            pools.setdefault(corpus.posts[c.post_id].page_id, set()).add(c.author_id)
    return pools


@pytest.mark.parametrize("per_page", [0, 1, 5, 50])
def test_sample_normal_per_page_properties(small_synth, small_labels, per_page):
    corpus = small_synth.corpus
    _, attackers = label_threads(corpus, small_labels[1])
    pools = _pools_by_page(corpus, attackers)
    assert any(len(pool) > per_page for pool in pools.values())
    samples = {seed: sample_normal_accounts(corpus, attackers, per_page, seed)
               for seed in (0, 1)}
    for seed, sample in samples.items():
        assert sample == sample_normal_accounts(corpus, attackers, per_page, seed)
        assert not set(sample) & attackers
        # the sample is the pages' picks, in sorted page order
        start = 0
        for page_id in sorted(pools):
            pool = pools[page_id]
            picked = sample[start:start + min(len(pool), per_page)]
            assert len(picked) == min(len(pool), per_page)
            assert picked == sorted(picked)
            assert set(picked) <= pool and len(set(picked)) == len(picked)
            start += len(picked)
        assert start == len(sample)
    if per_page:
        assert samples[0] != samples[1]
