import random
from dataclasses import dataclass

import pytest

from threadwatch.corpus import Comment, Post, PostThread, rel_seconds
from threadwatch.features import (MACRO_COLUMNS, FeatureConfigError,
                                  apply_minmax, featurize_threads, fit_minmax,
                                  read_feature_csv)

T0 = 1_400_000_000


def make_thread(offsets_s, likes=None, authors=None, post_likes=7):
    post = Post("p1", "pg0", "author", T0, post_likes, "post")
    likes = likes or [0] * len(offsets_s)
    authors = authors or [f"u{i}" for i in range(len(offsets_s))]
    comments = [Comment(f"c{i}", "p1", authors[i], T0 + off, likes[i], ())
                for i, off in enumerate(offsets_s)]
    comments.sort(key=lambda c: (c.created_ts, c.comment_id))
    return PostThread(post, comments)


def row_of(thread, window_minutes=5, t_final_minutes=60, macro_mode="full"):
    """The thread's feature row, featurized on its own."""
    [row] = featurize_threads([thread], window_minutes, t_final_minutes,
                              macro_mode=macro_mode)
    return row


def macro_of(thread):
    """The macro statistics of the thread's row."""
    return row_of(thread)[:len(MACRO_COLUMNS)]


def dav_of(thread, window_minutes, t_final_minutes):
    """The per-window counts of the thread's row."""
    return row_of(thread, window_minutes, t_final_minutes)[len(MACRO_COLUMNS):]


# The record-based row builders that the plain float rows replaced, kept
# as the reference the rows are checked against.

@dataclass(frozen=True)
class RefMacroFeatures:
    spanning_time_days: float
    n_comments: int
    n_participants: int
    n_post_likes: int
    n_comment_likes: int

    def as_list(self):
        return [self.spanning_time_days, float(self.n_comments),
                float(self.n_participants), float(self.n_post_likes),
                float(self.n_comment_likes)]


@dataclass(frozen=True)
class RefDavVector:
    window_minutes: int
    t_final_minutes: int
    bins: tuple

    def as_list(self):
        return [float(b) for b in self.bins]


@dataclass(frozen=True)
class RefFeatureVector:
    macro: RefMacroFeatures
    dav: RefDavVector

    def values(self):
        return self.macro.as_list() + self.dav.as_list()


def censor_thread(thread, horizon_minutes):
    """Copy of the thread keeping only comments before the horizon, as the
    censored macro statistics were once computed from."""
    t0 = thread.post.created_ts
    return PostThread(thread.post, [c for c in thread.comments
                                    if c.created_ts - t0 < horizon_minutes * 60])


def ref_macro_features(thread):
    post = thread.post
    if thread.comments:
        span_days = max(c.created_ts - post.created_ts for c in thread.comments)
        span_days = max(0, span_days) / 86400.0
    else:
        span_days = 0.0
    return RefMacroFeatures(
        spanning_time_days=span_days,
        n_comments=len(thread.comments),
        n_participants=len({c.author_id for c in thread.comments}),
        n_post_likes=post.like_count,
        n_comment_likes=sum(c.like_count for c in thread.comments),
    )


def ref_dav(thread, window_minutes, t_final_minutes):
    counts = [0] * (t_final_minutes // window_minutes)
    for c in thread.comments:
        offset = rel_seconds(thread.post, c)
        if offset < t_final_minutes * 60:
            counts[offset // (window_minutes * 60)] += 1
    return RefDavVector(window_minutes, t_final_minutes, tuple(counts))


def ref_featurize_threads(threads, window_minutes, t_final_minutes, macro_mode):
    out = []
    for thread in threads:
        src = thread if macro_mode == "full" else censor_thread(thread, t_final_minutes)
        out.append(RefFeatureVector(ref_macro_features(src),
                                    ref_dav(thread, window_minutes, t_final_minutes)))
    return out


def random_thread(rng, post_id):
    """A thread with a few repeated authors, some comments before the post
    (clock skew) and some exactly on a window edge or the horizon."""
    post = Post(post_id, "pg0", "author", T0, rng.randint(0, 50), "post")
    authors = [f"u{i}" for i in range(rng.randint(1, 6))]
    comments = []
    for i in range(rng.choice([0, 0, 1, 5, 40])):
        offset = rng.choice([rng.randint(-600, 7200), rng.randint(-600, 7200),
                             -rng.randint(1, 300), 300 * rng.randint(0, 24),
                             3600, 86400 * rng.randint(1, 3)])
        comments.append(Comment(f"{post_id}c{i}", post_id, rng.choice(authors),
                                T0 + offset, rng.randint(0, 9), ()))
    comments.sort(key=lambda c: (c.created_ts, c.comment_id))
    return PostThread(post, comments)


class TestRowsMatchReference:
    @pytest.mark.parametrize("window,t_final", [(5, 60), (1, 60), (5, 10),
                                                (10, 30), (60, 60)])
    # the ids also say that every row carries the macro statistics
    @pytest.mark.parametrize("macro_mode", ["full", "censored"],
                             ids=["full-True", "censored-True"])
    def test_rows_equal_reference(self, window, t_final, macro_mode):
        rng = random.Random(window * 1000 + t_final)
        threads = [random_thread(rng, f"p{i}") for i in range(60)]
        got = featurize_threads(threads, window, t_final, macro_mode=macro_mode)
        want = ref_featurize_threads(threads, window, t_final, macro_mode)
        assert got == [r.values() for r in want]
        # floats, not ints: the CSV writes each value with repr
        assert all(type(x) is float for row in got for x in row)
        width = len(MACRO_COLUMNS) + t_final // window
        assert all(len(row) == width for row in got)
        # the horizon is read from each comment's offset, not its place
        shuffled = [PostThread(t.post, rng.sample(t.comments, len(t.comments)))
                    for t in threads]
        assert featurize_threads(shuffled, window, t_final, macro_mode=macro_mode) == got


class TestMacroFeatures:
    def test_commentless_thread(self):
        m = macro_of(make_thread([], post_likes=7))
        assert tuple(m) == (0.0, 0, 0, 7, 0)

    def test_hand_computed(self):
        m = dict(zip(MACRO_COLUMNS, macro_of(
            make_thread([60, 120, 86400], likes=[1, 0, 2], authors=["A", "A", "B"]))))
        assert m["span_days"] == 1.0
        assert m["n_comments"] == 3
        assert m["n_participants"] == 2
        assert m["post_likes"] == 7
        assert m["comment_likes"] == 3

    def test_comment_at_post_time(self):
        m = dict(zip(MACRO_COLUMNS, macro_of(make_thread([0]))))
        assert m["span_days"] == 0.0
        assert m["n_comments"] == 1

    def test_order_invariance(self):
        thread = make_thread([300, 60, 1200, 60, 900])
        shuffled = thread.comments[:]
        random.Random(3).shuffle(shuffled)
        assert shuffled != thread.comments
        assert macro_of(PostThread(thread.post, shuffled)) == macro_of(thread)


class TestDav:
    def test_empty_thread(self):
        assert tuple(dav_of(make_thread([]), 5, 60)) == (0,) * 12

    def test_hand_binning(self):
        thread = make_thread([60, 120, 420, 3660])  # minutes 1, 2, 7, 61
        assert tuple(dav_of(thread, 5, 60)) == (2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_default_length_twelve(self):
        assert len(dav_of(make_thread([]), 5, 60)) == 12

    def test_window_must_divide(self):
        with pytest.raises(FeatureConfigError):
            dav_of(make_thread([]), 7, 60)

    def test_comment_at_t_final_excluded(self):
        assert sum(dav_of(make_thread([3600]), 5, 60)) == 0

    def test_bin_sum_equals_direct_count(self):
        rng = random.Random(99)
        for _ in range(50):
            offsets = [rng.randint(0, 7200) for _ in range(rng.randint(0, 40))]
            thread = make_thread(offsets)
            v = dav_of(thread, 5, 60)
            assert sum(v) == sum(1 for o in offsets if o < 3600)

    def test_censored_row_keeps_the_full_threads_counts(self):
        # the one pass over the censored thread counts the same comments
        rng = random.Random(5)
        for i in range(40):
            thread = random_thread(rng, f"p{i}")
            for window, t_final in ((5, 60), (10, 30), (1, 5)):
                full = row_of(thread, window, t_final)
                censored = row_of(thread, window, t_final, macro_mode="censored")
                assert censored[len(MACRO_COLUMNS):] == full[len(MACRO_COLUMNS):]
                assert censored[1] == sum(full[len(MACRO_COLUMNS):])

    def test_fine_bins_regroup_to_coarse(self):
        rng = random.Random(7)
        offsets = [rng.randint(0, 4000) for _ in range(60)]
        thread = make_thread(offsets)
        coarse = tuple(dav_of(thread, 5, 60))
        fine = dav_of(thread, 1, 60)
        regrouped = tuple(sum(fine[i:i + 5]) for i in range(0, 60, 5))
        assert regrouped == coarse


class TestWindowCheck:
    @pytest.mark.parametrize("window,t_final", [(7, 60), (0, 60), (5, 0), (-5, 60),
                                                (5, -60)])
    @pytest.mark.parametrize("macro_mode", ["full", "censored"])
    def test_checked_without_any_thread(self, window, t_final, macro_mode):
        with pytest.raises(FeatureConfigError):
            featurize_threads([], window_minutes=window, t_final_minutes=t_final,
                              macro_mode=macro_mode)

    def test_unknown_macro_mode(self):
        with pytest.raises(FeatureConfigError, match="unknown macro mode"):
            featurize_threads([], macro_mode="partial")


class TestCensor:
    N_COMMENTS = MACRO_COLUMNS.index("n_comments")

    def test_everything_kept_within_horizon(self):
        thread = make_thread([10, 20, 50])
        censored = row_of(thread, macro_mode="censored")
        assert censored[self.N_COMMENTS] == 3
        assert censored == row_of(thread)

    def test_half_open_boundary(self):
        thread = make_thread([60, 540, 600, 3000])  # minutes 1, 9, 10, 50
        censored = row_of(thread, 5, 10, macro_mode="censored")
        assert censored[self.N_COMMENTS] == 2
        assert censored[MACRO_COLUMNS.index("span_days")] == 540 / 86400

    def test_censor_then_dav_consistent(self):
        thread = make_thread([60, 540, 600, 3000])
        censored = row_of(thread, 5, 10, macro_mode="censored")
        assert censored[len(MACRO_COLUMNS):] == [1.0, 1.0]
        assert censored[self.N_COMMENTS] == 2


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


class TestReadFeatureCsv:
    def test_zero_and_one_read_as_labels(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("post_id,is_target,span_days\np1,1,0.5\np2,0,0.25\n")
        assert read_feature_csv(str(path)) == (["p1", "p2"], [[0.5], [0.25]],
                                               [True, False])

    @pytest.mark.parametrize("value", ["2", "-1", "x", "1.0"])
    def test_is_target_outside_zero_one_names_the_line(self, tmp_path, value):
        path = tmp_path / "features.csv"
        path.write_text(f"post_id,is_target,span_days\np1,1,0.5\np2,{value},0.1\n")
        with pytest.raises(FeatureConfigError) as err:
            read_feature_csv(str(path))
        assert str(err.value) == (f"{path} line 3: is_target must be 0 or 1, "
                                  f"got {value!r}")

    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_numeric_value_names_line_and_column(self, tmp_path, value):
        path = tmp_path / "features.csv"
        path.write_text("post_id,is_target,span_days,dav_1\n"
                        f"p1,1,0.5,1\np2,0,0.1,{value}\n")
        with pytest.raises(FeatureConfigError) as err:
            read_feature_csv(str(path))
        assert str(err.value) == (f"{path} line 3: non-numeric value {value!r} "
                                  "in column dav_1")
