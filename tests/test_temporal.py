from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwatch.corpus import (Comment, Corpus, Page, Post, Region,
                                build_threads)
from threadwatch.labeler import Category, LabelError, MaliciousLabel
from threadwatch.temporal import (AttackEvent, attack_events, ecdf,
                                  inter_attack_intervals, monthly_heatmap,
                                  page_gaps, relative_positions,
                                  time_since_post)

T0 = 1_391_212_800  # 2014-02-01T00:00:00Z


class TestEcdf:
    def test_hand_counted(self):
        assert ecdf([1, 2, 2, 4]) == [(1, 0.25), (2, 0.75), (4, 1.0)]

    def test_single_value(self):
        assert ecdf([3.5]) == [(3.5, 1.0)]

    def test_empty(self):
        assert ecdf([]) == []

    def test_terminal_one_and_monotone(self):
        import random
        rng = random.Random(0)
        values = [rng.uniform(0, 100) for _ in range(500)]
        table = ecdf(values)
        fs = [f for _, f in table]
        assert fs == sorted(fs)
        assert fs[-1] == 1.0


def build_corpus(comment_offsets, attack_ids, n_comments_likes=0):
    """One page/one post corpus; comment ids c0..cN at given minute offsets."""
    pages = {"pg0": Page("pg0", "Page", Region.EUROPE)}
    posts = {"p1": Post("p1", "pg0", "a", T0, 0, "post")}
    comments = {
        f"c{i}": Comment(f"c{i}", "p1", f"u{i}", T0 + int(off * 60),
                         n_comments_likes, ())
        for i, off in enumerate(comment_offsets)
    }
    corpus = Corpus(pages=pages, posts=posts, comments=comments)
    labels = [MaliciousLabel(cid, Category.ADS, "k") for cid in attack_ids]
    return corpus, labels


def reference_positions(corpus):
    """rank / (n - 1) of every comment in its thread's (created_ts,
    comment_id) order, ranking all comments as attack_events once did."""
    positions = {}
    for t in build_threads(corpus):
        n = len(t.comments)
        for rank, c in enumerate(t.comments):
            positions[c.comment_id] = rank / (n - 1) if n > 1 else 0.0
    return positions


def test_unknown_label_is_the_labeler_error():
    # the message every stage that reads labels gives
    corpus, labels = build_corpus([0, 1], ["c0", "ghost2", "c1", "ghost1"])
    with pytest.raises(LabelError) as err:
        attack_events(corpus, labels)
    assert str(err.value) == "labels reference unknown comments: ['ghost1', 'ghost2']"


class TestRelativePositions:
    def test_positions_match_full_rank_table(self, small_synth, small_labels):
        # twelve comments on three timestamps: ties break by comment id,
        # where "c10" sorts before "c2"
        tied = build_corpus([i % 3 for i in range(12)],
                            [f"c{i}" for i in range(12)])
        for corpus, labels in (tied, (small_synth.corpus, small_labels[1])):
            want = reference_positions(corpus)
            events = attack_events(corpus, labels)
            assert len(events) == len(labels)
            for e in events:
                assert e.relative_position == want[e.comment_id]

    def test_first_of_eleven(self):
        corpus, labels = build_corpus(range(11), ["c0"])
        events = attack_events(corpus, labels)
        assert events[0].relative_position == 0.0

    def test_middle_of_eleven(self):
        corpus, labels = build_corpus(range(11), ["c5"])
        events = attack_events(corpus, labels)
        assert events[0].relative_position == 0.5

    def test_single_comment_thread(self):
        corpus, labels = build_corpus([4], ["c0"])
        events = attack_events(corpus, labels)
        assert events[0].relative_position == 0.0

    def test_grouped_tables(self):
        corpus, labels = build_corpus(range(11), ["c0", "c10"])
        tables = relative_positions(attack_events(corpus, labels))
        assert "region:Europe" in tables
        assert "category:Ads" in tables
        assert tables["all"][-1][1] == 1.0


class TestTimeSincePost:
    def test_all_at_zero(self):
        corpus, labels = build_corpus([0, 0], ["c0", "c1"])
        tables, _ = time_since_post(attack_events(corpus, labels))
        assert tables["all"] == [(0.0, 1.0)]

    def test_fraction_within_day(self):
        corpus, labels = build_corpus([10, 50, 200, 2000],
                                      ["c0", "c1", "c2", "c3"])
        _, within = time_since_post(attack_events(corpus, labels))
        assert within["all"] == 0.75


class TestInterAttackIntervals:
    def test_single_attack_no_gap(self):
        corpus, labels = build_corpus([1, 2, 3], ["c1"])
        assert page_gaps(attack_events(corpus, labels)) == {"pg0": []}

    def test_gaps_by_subtraction(self):
        corpus, labels = build_corpus([0, 5, 30], ["c0", "c1", "c2"])
        gaps = page_gaps(attack_events(corpus, labels))
        assert gaps["pg0"] == [5.0, 25.0]

    def test_gap_count_is_attacks_minus_one(self, small_synth, small_labels):
        _, labels = small_labels
        events = attack_events(small_synth.corpus, labels)
        gaps = page_gaps(events)
        per_page_attacks = {}
        for e in events:
            per_page_attacks.setdefault(e.page_id, set()).add(e.comment_id)
        for pid, attacks in per_page_attacks.items():
            assert len(gaps[pid]) == len(attacks) - 1

    def test_multi_category_comment_counts_once_at_page_level(self):
        corpus, _ = build_corpus([0, 10], [])
        labels = [MaliciousLabel("c0", Category.ADS, "k"),
                  MaliciousLabel("c0", Category.PORN, "k2"),
                  MaliciousLabel("c1", Category.ADS, "k")]
        gaps = page_gaps(attack_events(corpus, labels))
        assert gaps["pg0"] == [10.0]
        tables = inter_attack_intervals(attack_events(corpus, labels))
        assert "category:Ads" in tables

    def test_page_without_gap_adds_no_group(self):
        corpus, _ = build_corpus([0, 5, 30], [])
        corpus.pages["pg1"] = Page("pg1", "Other", Region.ASIA)
        corpus.posts["p2"] = Post("p2", "pg1", "a", T0, 0, "post")
        corpus.comments["d0"] = Comment("d0", "p2", "v", T0 + 60, 0, ())
        labels = [MaliciousLabel(cid, Category.ADS, "k") for cid in ("c0", "c2", "d0")]
        tables = inter_attack_intervals(attack_events(corpus, labels))
        assert sorted(tables) == ["all", "category:Ads", "region:Europe"]
        assert tables["region:Europe"] == [(30.0, 1.0)]
        single, labels = build_corpus([1, 2, 3], ["c1"])
        assert inter_attack_intervals(attack_events(single, labels)) == {}


class TestMonthlyHeatmap:
    def test_no_attacks_zero_matrix(self):
        corpus, _ = build_corpus([1, 2], [])
        pages, months, matrix = monthly_heatmap([], corpus)
        assert pages == ["Page"]
        assert all(v == 0 for row in matrix for v in row)
        assert months  # zero-filled over the corpus date range

    def test_hand_bucketing(self):
        corpus, labels = build_corpus([0, 10, 20, 43200], # 43200 min = 30 days
                                      ["c0", "c1", "c2", "c3"])
        pages, months, matrix = monthly_heatmap(attack_events(corpus, labels), corpus)
        assert months == ["2014-02", "2014-03"]
        assert matrix == [[3, 1]]

    def test_row_sums_equal_page_totals(self, small_synth, small_labels):
        _, labels = small_labels
        events = attack_events(small_synth.corpus, labels)
        pages, months, matrix = monthly_heatmap(events, small_synth.corpus)
        unique = {(e.page_id, e.comment_id) for e in events}
        totals = {}
        for pid, cid in unique:
            totals[pid] = totals.get(pid, 0) + 1
        by_name = dict(zip(pages, [sum(r) for r in matrix]))
        name_of = {p.page_id: p.name for p in small_synth.corpus.pages.values()}
        for pid, n in totals.items():
            assert by_name[name_of[pid]] == n
        assert sum(sum(r) for r in matrix) == len(unique)


def test_all_emitted_ecdfs_valid(small_synth, small_labels):
    _, labels = small_labels
    events = attack_events(small_synth.corpus, labels)
    for tables in (relative_positions(events), time_since_post(events)[0],
                   inter_attack_intervals(events)):
        for name, table in tables.items():
            if not table:
                continue
            fs = [f for _, f in table]
            xs = [x for x, _ in table]
            assert xs == sorted(xs)
            assert fs == sorted(fs)
            assert fs[-1] == pytest.approx(1.0)


def test_positions_in_unit_interval(small_synth, small_labels):
    _, labels = small_labels
    for e in attack_events(small_synth.corpus, labels):
        assert 0.0 <= e.relative_position <= 1.0
        assert e.minutes_since_post >= 0.0


# References: the gap and dedupe rules as page_gaps, inter_attack_intervals
# and monthly_heatmap each once kept their own copy.

def reference_page_gaps(events):
    per_page = {}
    seen = set()
    for e in sorted(events, key=lambda e: (e.ts, e.comment_id)):
        if (e.page_id, e.comment_id) in seen:
            continue
        seen.add((e.page_id, e.comment_id))
        per_page.setdefault(e.page_id, []).append(e.ts)
    return {pid: [(b - a) / 60.0 for a, b in zip(ts, ts[1:])]
            for pid, ts in per_page.items()}


def reference_intervals(events):
    region = {e.page_id: e.region for e in events}
    groups = {}
    for page_id, gaps in reference_page_gaps(events).items():
        if gaps:
            groups.setdefault(f"region:{region[page_id]}", []).extend(gaps)
            groups.setdefault("all", []).extend(gaps)
    by_page_cat = {}
    for e in events:
        by_page_cat.setdefault((e.page_id, e.category), []).append(e)
    for (_, category), evs in by_page_cat.items():
        evs.sort(key=lambda e: (e.ts, e.comment_id))
        for prev, cur in zip(evs, evs[1:]):
            groups.setdefault(f"category:{category.value}", []).append(
                (cur.ts - prev.ts) / 60.0)
    return {name: ecdf(vals) for name, vals in sorted(groups.items())}


def reference_heatmap_cells(events, corpus):
    """Counts per (page name, YYYY-MM) of the first event of each (page,
    comment)."""
    unique = {}
    for e in events:
        unique.setdefault((e.page_id, e.comment_id), e)
    cells = Counter()
    for e in unique.values():
        dt = datetime.fromtimestamp(e.ts, tz=timezone.utc)
        cells[corpus.pages[e.page_id].name, f"{dt.year:04d}-{dt.month:02d}"] += 1
    return cells


# comment ids whose text order differs from their number order, and
# offsets in minutes that tie, differ by seconds, and cross month ends
_COMMENT_IDS = [f"c{i}" for i in (1, 2, 10, 11, 20)]
_OFFSETS = [0, 0.5, 1, 5, 60 * 24 * 27, 60 * 24 * 29, 60 * 24 * 58]


@st.composite
def _events(draw):
    """Attack events over up to three pages, the corpus that holds the
    pages, in shuffled order: each comment has one page and one time, and
    up to three labels, whose categories may repeat."""
    regions = list(Region)
    pages = {f"pg{i}": Page(f"pg{i}", f"Page {i}", draw(st.sampled_from(regions)))
             for i in range(draw(st.integers(1, 3)))}
    events = []
    for cid in draw(st.lists(st.sampled_from(_COMMENT_IDS), unique=True)):
        page = draw(st.sampled_from(sorted(pages)))
        ts = T0 + int(draw(st.sampled_from(_OFFSETS)) * 60)
        for category in draw(st.lists(st.sampled_from(list(Category)), min_size=1,
                                      max_size=3)):
            events.append(AttackEvent(cid, page, category, ts, 0.0, 0.0,
                                      pages[page].region.value))
    posts = {"p1": Post("p1", "pg0", "a", T0, 0, "post")}
    return Corpus(pages=pages, posts=posts, comments={}), draw(st.permutations(events))


@settings(max_examples=300, deadline=None)
@given(_events())
def test_tables_match_the_references(corpus_and_events):
    corpus, events = corpus_and_events
    assert page_gaps(events) == reference_page_gaps(events)
    assert inter_attack_intervals(events) == reference_intervals(events)
    names, months, matrix = monthly_heatmap(events, corpus)
    cells = {(name, month): n for name, row in zip(names, matrix)
             for month, n in zip(months, row) if n}
    want = reference_heatmap_cells(events, corpus)
    assert cells == want
    if want:
        assert (months[0], months[-1]) == (min(m for _, m in want), max(m for _, m in want))
