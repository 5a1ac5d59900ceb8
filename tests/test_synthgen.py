import numpy as np
import pytest

from threadwatch import synthgen
from threadwatch.corpus import build_threads, rel_minutes
from threadwatch.labeler import collect_observations, join_blacklist
from threadwatch.synthgen import (ConfigError, GeneratorConfig, generate,
                                  intensity, profile_config, verify_planted)
from blacklist_reader import read_blacklist
from shortener_reader import shortener_table


def run_labeler(result, blacklist=None):
    table = shortener_table(set(result.shortener_hosts), result.shortener_map)
    observations = collect_observations(result.corpus, table)
    return join_blacklist(observations, read_blacklist(
        blacklist if blacklist is not None else result.blacklist))


class TestConfig:
    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(target_fraction=1.5).validate()

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(strategy_mix={synthgen.EARLY_STAGE: 0.5}).validate()

    def test_profiles(self):
        cfg = profile_config("late", seed=1, n_threads=10)
        assert cfg.strategy_mix[synthgen.LATE_STAGE] == 1.0
        with pytest.raises(ConfigError):
            profile_config("bogus")


class TestDeterminism:
    def test_same_seed_identical_output(self, tmp_path):
        files = []
        for run in (0, 1):
            result = generate(GeneratorConfig(seed=9, n_threads=30))
            path = tmp_path / f"corpus{run}.jsonl"
            synthgen.write_corpus_jsonl(result, str(path))
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_different_seed_differs(self):
        a = generate(GeneratorConfig(seed=1, n_threads=20))
        b = generate(GeneratorConfig(seed=2, n_threads=20))
        assert a.corpus.comments != b.corpus.comments


class TestPlanting:
    def test_exact_target_count(self):
        result = generate(GeneratorConfig(seed=3, n_threads=1000,
                                          target_fraction=0.1))
        # planted truth covers exactly 100 distinct threads
        posts = {result.corpus.comments[p.comment_id].post_id
                 for p in result.planted}
        assert len(posts) == 100

    def test_early_stage_before_peak(self):
        result = generate(profile_config("early", seed=5, n_threads=60))
        for p in result.planted:
            comment = result.corpus.comments[p.comment_id]
            post = result.corpus.posts[comment.post_id]
            assert rel_minutes(post, comment) < synthgen.PEAK_MINUTE
            assert p.strategy == synthgen.EARLY_STAGE

    def test_zero_targets_zero_labels(self):
        result = generate(GeneratorConfig(seed=6, n_threads=20,
                                          target_fraction=0.001))
        assert result.planted == []
        assert run_labeler(result) == []


class TestVerifyPlanted:
    def test_untampered_pipeline_perfect(self, small_synth):
        labels = run_labeler(small_synth)
        report = verify_planted(labels, small_synth.planted)
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_truncated_blacklist_halves_recall(self, small_synth):
        half = small_synth.blacklist[: len(small_synth.blacklist) // 2]
        labels = run_labeler(small_synth, half)
        report = verify_planted(labels, small_synth.planted)
        assert report.precision == 1.0
        assert report.recall < 0.75  # roughly half the keys removed


class TestIntensityCalibration:
    def test_nontarget_bins_follow_intensity(self):
        result = generate(GeneratorConfig(seed=11, n_threads=600, target_fraction=0.01))
        target_posts = {result.corpus.comments[p.comment_id].post_id
                        for p in result.planted}
        threads = [t for t in build_threads(result.corpus)
                   if t.post.post_id not in target_posts]
        assert len(threads) >= 500
        grid = np.arange(60)
        expected = intensity(grid + 0.5, synthgen.PEAK_MINUTE,
                             synthgen.MEAN_FIRST_HOUR_COMMENTS /
                             float(intensity(np.arange(60) + 0.5,
                                             synthgen.PEAK_MINUTE, 1.0).sum()))
        counts = np.zeros((len(threads), 60))
        for i, t in enumerate(threads):
            for c in t.comments:
                minute = (c.created_ts - t.post.created_ts) // 60
                if 0 <= minute < 60:
                    counts[i, int(minute)] += 1
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / np.sqrt(len(threads))
        within = np.abs(mean - expected) <= 3 * np.maximum(se, 1e-9)
        # a handful of 3-sigma misses out of 60 bins is expected noise
        assert within.mean() >= 0.9

    def test_targets_busier_than_nontargets(self):
        cfg = GeneratorConfig(seed=13, n_threads=1000, target_fraction=0.5)
        result = generate(cfg)
        target_posts = {result.corpus.comments[p.comment_id].post_id
                        for p in result.planted}
        first_hour = {True: [], False: []}
        for t in build_threads(result.corpus):
            n = sum(1 for c in t.comments
                    if 0 <= c.created_ts - t.post.created_ts < 3600)
            first_hour[t.post.post_id in target_posts].append(n)
        assert len(first_hour[True]) >= 400
        assert np.mean(first_hour[True]) > np.mean(first_hour[False])


class TestStrategies:
    def test_sync_burst_within_span(self):
        result = generate(profile_config("burst", seed=17, n_threads=60))
        by_post = {}
        for p in result.planted:
            c = result.corpus.comments[p.comment_id]
            by_post.setdefault(c.post_id, []).append(c)
            assert p.strategy == synthgen.SYNC_BURST
        for post_id, cs in by_post.items():
            assert len({c.author_id for c in cs}) == synthgen.SYNC_BURST_ACCOUNTS
            ts = sorted(c.created_ts for c in cs)
            assert (ts[-1] - ts[0]) / 60.0 <= synthgen.SYNC_BURST_SPAN_MINUTES + 1

    def test_single_repeat_one_account_many_copies(self):
        result = generate(profile_config("repeat", seed=19, n_threads=40))
        by_post = {}
        for p in result.planted:
            by_post.setdefault(
                result.corpus.comments[p.comment_id].post_id, []).append(p)
        for post_id, planted in by_post.items():
            assert len(planted) == synthgen.SINGLE_REPEAT_COPIES
            assert len({p.account_id for p in planted}) == 1
            assert len({p.url for p in planted}) == 1


def test_file_round_trip(tmp_path, small_synth):
    corpus_path = tmp_path / "corpus.jsonl"
    synthgen.write_corpus_jsonl(small_synth, str(corpus_path))
    from threadwatch.corpus import ingest
    result = ingest(str(corpus_path))
    assert result.dropped == 0
    assert len(result.corpus.comments) == len(small_synth.corpus.comments)
    assert result.corpus.posts == small_synth.corpus.posts
    # the generator's comments carry the URL tokens ingest takes from the file
    assert result.corpus.comments == small_synth.corpus.comments
    assert any(c.url_tokens for c in small_synth.corpus.comments.values())

    planted_path = tmp_path / "planted.jsonl"
    synthgen.write_planted_jsonl(small_synth, str(planted_path))
    back = synthgen.read_planted_jsonl(str(planted_path))
    assert back == small_synth.planted
