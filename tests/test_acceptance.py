"""Desk-scale acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL
line (run with -s to see them as they happen). The benchmark corpus is
the seeded 2,000-thread synthetic corpus shared via conftest fixtures.
"""

import hashlib
import os
import random
import time

import numpy as np

from threadwatch import cli, features, learn, synthgen, temporal
from threadwatch.cli import main
from threadwatch.corpus import build_threads
from threadwatch.labeler import (Category, UrlObservation,
                                 collect_observations, join_blacklist, label_threads,
                                 url_key)
from threadwatch.synthgen import BlacklistEntry
from blacklist_reader import read_blacklist, reference_key
from shortener_reader import shortener_table

CATEGORIES = list(Category)


def report(number, name, ok, detail=""):
    line = f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def allpairs_oracle(observations, blacklist, block=500):
    """Independent all-pairs join oracle over (key, category) entries,
    each key read by ``reference_key``.

    Every (observation, entry) pair is compared; strings are interned to
    integer codes first so the pairwise comparison can be vectorized
    without changing its all-pairs semantics.
    """
    vocab = {}

    def code(s):
        return vocab.setdefault(s, len(vocab))

    dom = np.array([code(o.domain) for o in observations])
    url = np.array([code(url_key(o.url)) for o in observations])
    keys = [reference_key(e.key) for e in blacklist]
    full = np.array(["/" in key for key in keys])
    keys = np.array([code(key) for key in keys])
    out = set()
    for lo in range(0, len(observations), block):
        hi = lo + block
        hit = np.where(full[None, :],
                       url[lo:hi, None] == keys[None, :],
                       dom[lo:hi, None] == keys[None, :])
        for i, j in zip(*np.nonzero(hit)):
            out.add((observations[lo + int(i)].comment_id,
                     blacklist[int(j)].category))
    return out


def random_instance(rng, m, n, domain_pool):
    observations = []
    for i in range(m):
        d = f"d{rng.randint(0, domain_pool)}.com"
        observations.append(UrlObservation(
            url=f"http://{d}/p{rng.randint(0, 3)}", domain=d,
            comment_id=f"c{i}", account_id="u"))
    observations.sort(key=lambda o: (o.domain, o.url))
    blacklist = sorted(
        (BlacklistEntry(
            f"d{rng.randint(0, domain_pool)}.com"
            + (f"/p{rng.randint(0, 3)}" if rng.random() < 0.3 else ""),
            rng.choice(CATEGORIES))
         for _ in range(n)),
        key=lambda e: e.key)
    return observations, blacklist


def test_criterion_1_join_oracle_equivalence():
    rng = random.Random(20260823)
    started = time.time()
    mismatches = 0
    for _ in range(100):
        m, n = rng.randint(1, 1000), rng.randint(1, 1000)
        observations, blacklist = random_instance(rng, m, n, domain_pool=400)
        got = {(lab.comment_id, lab.category)
               for lab in join_blacklist(observations, read_blacklist(blacklist))}
        if got != allpairs_oracle(observations, blacklist):
            mismatches += 1
    elapsed = time.time() - started
    report(1, "join oracle equivalence",
           mismatches == 0 and elapsed < 5.0,
           f"{mismatches} mismatches over 100 trials, {elapsed:.2f}s")


def test_criterion_2_labeling_at_scale():
    rng = np.random.default_rng(7)
    n_obs, n_keys, pool = 1_000_000, 100_000, 200_000
    domains = [f"b{k}.com" for k in range(pool)]
    paths = [f"/p{k}" for k in range(8)]

    key_idx = np.sort(rng.choice(pool, size=n_keys, replace=False))
    blacklist = []
    for rank, k in enumerate(key_idx):
        if rank % 10 == 0:
            blacklist.append(BlacklistEntry(f"{domains[k]}/p0",
                                            CATEGORIES[rank % 4]))
        else:
            blacklist.append(BlacklistEntry(domains[k], CATEGORIES[rank % 4]))
    blacklist.sort(key=lambda e: e.key)

    d_idx = rng.integers(0, pool, size=n_obs)
    p_idx = rng.integers(0, len(paths), size=n_obs)
    observations = [
        UrlObservation(url="http://" + domains[d] + paths[p],
                       domain=domains[d], comment_id=f"c{i}", account_id="u")
        for i, (d, p) in enumerate(zip(d_idx, p_idx))]
    observations.sort(key=lambda o: (o.domain, o.url))

    started = time.time()  # the blacklist read as label reads it, and the join
    index = read_blacklist(blacklist)
    labels = join_blacklist(observations, index)
    elapsed = time.time() - started

    sub = observations[::100]  # sorted subsample of 10,000 rows
    sub_got = {(lab.comment_id, lab.category)
               for lab in join_blacklist(sub, index)}
    sub_want = allpairs_oracle(sub, blacklist)
    report(2, "labeling at scale",
           elapsed < 60.0 and sub_got == sub_want and len(labels) > 0,
           f"1M x 100k joined in {elapsed:.1f}s, "
           f"subsample {'matches' if sub_got == sub_want else 'differs'}")


def test_criterion_3_planted_truth_recovery(bench_synth, bench_labels):
    _, labels = bench_labels
    verdict = synthgen.verify_planted(labels, bench_synth.planted)
    report(3, "pipeline soundness on planted truth",
           verdict.precision == 1.0 and verdict.recall == 1.0,
           f"precision={verdict.precision:.4f} recall={verdict.recall:.4f} "
           f"over {len(bench_synth.planted)} planted attacks")


def _benchmark_dataset(bench_synth, bench_labels, **kwargs):
    _, labels = bench_labels
    is_target, _ = label_threads(bench_synth.corpus, labels)
    threads = build_threads(bench_synth.corpus)
    return learn.Dataset(features.featurize_threads(threads, **kwargs),
                         [is_target[t.post.post_id] for t in threads])


def test_criterion_4_classifier_ordering(bench_synth, bench_labels):
    started = time.time()
    dataset = _benchmark_dataset(bench_synth, bench_labels)
    dt, nb = learn.evaluate_split(dataset, ["decision_tree", "naive_bayes"], seed=42)
    elapsed = time.time() - started
    report(4, "classification benchmark",
           dt.f1 >= 0.95 and dt.f1 >= nb.f1 and elapsed < 120.0,
           f"tree F1={dt.f1:.4f} >= bayes F1={nb.f1:.4f}, {elapsed:.1f}s")


def test_criterion_5_horizon_sweep(bench_synth, bench_labels):
    _, labels = bench_labels
    dataset = learn.Dataset(*cli.featurize_stage(bench_synth.corpus, labels, None))
    results = dict(
        (h, m.f1) for h, m in learn.sweep_horizon(
            dataset, algorithm="decision_tree", seed=42))
    report(5, "horizon sweep",
           results[10] >= 0.8 and results[60] >= results[5],
           f"F1@10={results[10]:.3f} F1@5={results[5]:.3f} "
           f"F1@60={results[60]:.3f}")


def _profile_events(profile, seed, n_threads=400):
    result = synthgen.generate(
        synthgen.profile_config(profile, seed=seed, n_threads=n_threads))
    table = shortener_table(set(result.shortener_hosts), result.shortener_map)
    labels = join_blacklist(collect_observations(result.corpus, table),
                            read_blacklist(result.blacklist))
    return temporal.attack_events(result.corpus, labels)


def test_criterion_6_temporal_mirrors():
    late = _profile_events("late", seed=42)
    late_frac = sum(1 for e in late if e.relative_position > 0.5) / len(late)

    burst = _profile_events("burst", seed=42)
    gaps = [g for gs in temporal.page_gaps(burst).values() for g in gs]
    f10 = sum(1 for g in gaps if g <= 10.0) / len(gaps)

    early = _profile_events("early", seed=42)
    _, within = temporal.time_since_post(early)

    ok = late_frac >= 0.55 and f10 >= 0.35 and within["all"] >= 0.85
    report(6, "temporal strategy mirrors", ok,
           f"late mass>0.5: {late_frac:.2f} (>=0.55), "
           f"burst gap F(10)={f10:.2f} (>=0.35), "
           f"early within-day {within['all']:.2f} (>=0.85)")


def _hash_tree(root):
    digests = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return digests


def _run_all_subcommands(root, capsys):
    data = os.path.join(root, "data")
    assert main(["synth", "--out", data, "--seed", "5",
                 "--threads", "80", "--pages", "3"]) == 0
    corpus = os.path.join(data, "corpus.jsonl")
    blacklist = os.path.join(data, "blacklist.tsv")
    smap = os.path.join(data, "shorteners.tsv")
    hosts = os.path.join(data, "shortener_hosts.txt")

    capsys.readouterr()
    assert main(["ingest", "--corpus", corpus]) == 0
    stats_line = capsys.readouterr().out.splitlines()[0]
    with open(os.path.join(root, "ingest_stats.txt"), "w") as fh:
        fh.write(stats_line + "\n")

    labels = os.path.join(root, "labels.tsv")
    assert main(["label", "--corpus", corpus, "--blacklist", blacklist,
                 "--shortener-map", smap, "--shortener-hosts", hosts,
                 "--out", labels]) == 0
    feats = os.path.join(root, "features.csv")
    assert main(["featurize", "--corpus", corpus, "--labels", labels,
                 "--out", feats]) == 0
    assert main(["eval", "--features", feats, "--algorithm", "decision_tree",
                 "--seed", "0", "--out", os.path.join(root, "eval.csv")]) == 0
    assert main(["sweep", "--corpus", corpus, "--labels", labels,
                 "--seed", "0", "--out", os.path.join(root, "sweep.csv")]) == 0
    assert main(["temporal", "--corpus", corpus, "--labels", labels,
                 "--out", os.path.join(root, "temporal")]) == 0
    assert main(["accounts", "--corpus", corpus, "--labels", labels,
                 "--shortener-map", smap, "--shortener-hosts", hosts,
                 "--seed", "0", "--sample-per-page", "25",
                 "--out", os.path.join(root, "accounts")]) == 0
    assert main(["report", "--corpus", corpus, "--blacklist", blacklist,
                 "--shortener-map", smap, "--shortener-hosts", hosts,
                 "--seed", "0", "--out", os.path.join(root, "report")]) == 0
    return _hash_tree(root)


def test_criterion_7_deterministic_reruns(tmp_path, capsys):
    runs = []
    for r in range(3):
        root = str(tmp_path / f"run{r}")
        os.makedirs(root)
        runs.append(_run_all_subcommands(root, capsys))
    n_files = len(runs[0])
    with capsys.disabled():
        report(7, "deterministic reruns",
               runs[0] == runs[1] == runs[2] and n_files > 20,
               f"{n_files} output files byte-identical across 3 runs")

    # report writes each file through the same stage code as the
    # single-stage subcommands
    digests = runs[0]
    same = [("labels.tsv", "labels.tsv"), ("features.csv", "features.csv"),
            ("campaign_scatter.csv", os.path.join("accounts", "campaign_scatter.csv"))]
    same += [(name, os.path.join("temporal", name))
             for name in ("relative_positions.csv", "time_since_post.csv",
                          "within_one_day.csv", "inter_attack_intervals.csv",
                          "monthly_heatmap.csv")]
    for name, single in same:
        assert digests[os.path.join("report", name)] == digests[single], name
    root = str(tmp_path / "run0")
    with open(os.path.join(root, "report", "metrics.csv")) as fh:
        report_rows = fh.read().splitlines()
    with open(os.path.join(root, "eval.csv")) as fh:
        eval_rows = fh.read().splitlines()
    assert report_rows[0] == eval_rows[0]
    assert [r for r in report_rows if r.startswith("decision_tree,")] == eval_rows[1:]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "report_80.sha256")


def test_golden_report_80(tmp_path, capsys):
    """Every file of the criterion-7 tree keeps the sha256 pinned in
    tests/golden/report_80.sha256 (``sha256sum`` format), so a refactor
    that changes any output byte fails here."""
    digests = _run_all_subcommands(str(tmp_path), capsys)
    expected = {}
    with open(GOLDEN, encoding="utf-8") as fh:
        for line in fh:
            digest, rel = line.rstrip("\n").split("  ", 1)
            expected[rel] = digest
    changed = sorted(rel for rel in expected.keys() | digests.keys()
                     if expected.get(rel) != digests.get(rel))
    assert not changed, f"outputs differ from {GOLDEN}: {changed}"


def test_criterion_8_unit_exactness(bench_synth, bench_labels):
    problems = []

    # per-window counts sum to the censored comment count
    threads = build_threads(bench_synth.corpus)
    rng = random.Random(0)
    for thread in rng.sample(threads, 1000):
        horizon = rng.choice(range(5, 65, 5))
        [row] = features.featurize_threads([thread], 5, horizon)
        total = sum(row[len(features.MACRO_COLUMNS):])
        censored = sum(1 for c in thread.comments
                       if c.created_ts - thread.post.created_ts < horizon * 60)
        if total != censored:
            problems.append(f"dav sum {total} != censored {censored}")
            break

    # every emitted ECDF is monotone and ends at 1
    _, labels = bench_labels
    events = temporal.attack_events(bench_synth.corpus, labels)
    for tables in (temporal.relative_positions(events),
                   temporal.time_since_post(events)[0],
                   temporal.inter_attack_intervals(events)):
        for group, table in tables.items():
            fs = [f for _, f in table]
            if fs != sorted(fs) or (fs and abs(fs[-1] - 1.0) > 1e-12):
                problems.append(f"bad ECDF for {group}")

    # every oversampled point lies on a minority nearest-neighbor segment
    minority = np.random.default_rng(21).normal(size=(40, 4))
    synthetic = learn.smote(minority, k=5, amount_pct=300, seed=3)
    d = np.linalg.norm(minority[:, None] - minority[None, :], axis=2)
    np.fill_diagonal(d, np.inf)
    nn = np.argsort(d, axis=1)[:, :5]
    for s in synthetic:
        if not any(
                -1e-9 <= ((s - minority[i]) @ seg) / (seg @ seg) <= 1 + 1e-9
                and np.allclose(minority[i] + ((s - minority[i]) @ seg)
                                / (seg @ seg) * seg, s, atol=1e-8)
                for i in range(len(minority))
                for seg in (minority[j] - minority[i] for j in nn[i])):
            problems.append("synthetic point off segment")
            break

    # the duplicated-message commenting-time vector
    from threadwatch.accounts import stats_from_times
    vector = (6194.0, 5650.0, 1.0, 8.0, 9.0, 11.0, 12.0, 13.0, 14.0, 18.0)
    stats = stats_from_times("a", vector)
    arr = np.array(vector)
    if stats.mean != 1193.0:
        problems.append(f"mean {stats.mean} != 1193.0")
    if abs(stats.std - float(np.sqrt(np.mean((arr - arr.mean()) ** 2)))) > 0.1:
        problems.append(f"std {stats.std} off")

    report(8, "unit-level exactness", not problems, "; ".join(problems))
