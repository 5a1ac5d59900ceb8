import random

import pytest

from threadwatch.corpus import Comment, Post, PostThread
from threadwatch.features import (FeatureConfigError, apply_minmax,
                                  censor_thread, dav, fit_minmax,
                                  macro_features)

T0 = 1_400_000_000


def make_thread(offsets_s, likes=None, authors=None, post_likes=7):
    post = Post("p1", "pg0", "author", T0, post_likes, "post")
    likes = likes or [0] * len(offsets_s)
    authors = authors or [f"u{i}" for i in range(len(offsets_s))]
    comments = [Comment(f"c{i}", "p1", authors[i], T0 + off, likes[i], "t")
                for i, off in enumerate(offsets_s)]
    comments.sort(key=lambda c: (c.created_ts, c.comment_id))
    return PostThread(post, comments)


class TestMacroFeatures:
    def test_commentless_thread(self):
        m = macro_features(make_thread([], post_likes=7))
        assert (m.spanning_time_days, m.n_comments, m.n_participants,
                m.n_post_likes, m.n_comment_likes) == (0.0, 0, 0, 7, 0)

    def test_hand_computed(self):
        m = macro_features(make_thread([60, 120, 86400], likes=[1, 0, 2],
                                       authors=["A", "A", "B"]))
        assert m.spanning_time_days == 1.0
        assert m.n_comments == 3
        assert m.n_participants == 2
        assert m.n_post_likes == 7
        assert m.n_comment_likes == 3

    def test_comment_at_post_time(self):
        m = macro_features(make_thread([0]))
        assert m.spanning_time_days == 0.0
        assert m.n_comments == 1

    def test_order_invariance(self):
        offsets = [300, 60, 1200, 60, 900]
        base = macro_features(make_thread(offsets))
        shuffled = offsets[:]
        random.Random(3).shuffle(shuffled)
        assert macro_features(make_thread(shuffled)) == base


class TestDav:
    def test_empty_thread(self):
        assert dav(make_thread([]), 5, 60).bins == (0,) * 12

    def test_hand_binning(self):
        thread = make_thread([60, 120, 420, 3660])  # minutes 1, 2, 7, 61
        assert dav(thread, 5, 60).bins == (2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_default_length_twelve(self):
        assert len(dav(make_thread([]), 5, 60).bins) == 12

    def test_window_must_divide(self):
        with pytest.raises(FeatureConfigError):
            dav(make_thread([]), 7, 60)

    def test_comment_at_t_final_excluded(self):
        assert sum(dav(make_thread([3600]), 5, 60).bins) == 0

    def test_bin_sum_equals_direct_count(self):
        rng = random.Random(99)
        for _ in range(50):
            offsets = [rng.randint(0, 7200) for _ in range(rng.randint(0, 40))]
            thread = make_thread(offsets)
            v = dav(thread, 5, 60)
            assert sum(v.bins) == sum(1 for o in offsets if o < 3600)

    def test_fine_bins_regroup_to_coarse(self):
        rng = random.Random(7)
        offsets = [rng.randint(0, 4000) for _ in range(60)]
        thread = make_thread(offsets)
        coarse = dav(thread, 5, 60).bins
        fine = dav(thread, 1, 60).bins
        regrouped = tuple(sum(fine[i:i + 5]) for i in range(0, 60, 5))
        assert regrouped == coarse


class TestCensor:
    def test_everything_kept_within_horizon(self):
        thread = make_thread([10, 20, 50])
        assert censor_thread(thread, 60).comments == thread.comments

    def test_half_open_boundary(self):
        thread = make_thread([60, 540, 600, 3000])  # minutes 1, 9, 10, 50
        kept = censor_thread(thread, 10).comments
        assert [c.created_ts - T0 for c in kept] == [60, 540]

    def test_censor_then_dav_consistent(self):
        thread = make_thread([60, 540, 600, 3000])
        censored = censor_thread(thread, 10)
        assert sum(dav(censored, 5, 10).bins) == 2

    def test_composition_is_min(self):
        rng = random.Random(11)
        offsets = [rng.randint(0, 7200) for _ in range(30)]
        thread = make_thread(offsets)
        a = censor_thread(censor_thread(thread, 40), 15)
        b = censor_thread(censor_thread(thread, 15), 40)
        c = censor_thread(thread, 15)
        assert a.comments == b.comments == c.comments

    def test_original_untouched(self):
        thread = make_thread([60, 6000])
        censor_thread(thread, 10)
        assert len(thread.comments) == 2


class TestNormalize:
    def test_single_vector_all_zero(self):
        rows = [[3.0, 5.0]]
        assert apply_minmax(rows, fit_minmax(rows)).tolist() == [[0.0, 0.0]]

    def test_affine_map(self):
        rows = [[2.0], [4.0], [6.0]]
        stats = fit_minmax(rows)
        assert apply_minmax(rows, stats).tolist() == [[0.0], [0.5], [1.0]]
        assert stats.tolist() == [[2.0, 6.0]]

    def test_test_values_clamped(self):
        stats = fit_minmax([[2.0], [6.0]])
        assert apply_minmax([[8.0]], stats).tolist() == [[1.0]]
        assert apply_minmax([[0.0]], stats).tolist() == [[0.0]]
