"""Self-tests of the benchmark: span self time, the speed probe's scaling,
output checks, count repeatability and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_checks  # noqa: E402
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from threadwatch import corpus, labeler, learn, models, synthgen  # noqa: E402


def _span(name, parent, start, end):
    return [name, parent, float(start), float(end)]


def test_self_time_on_hand_built_tree():
    spans = [
        _span("cli.main", -1, 0, 20),
        _span("labeler.collect_observations", 0, 1, 6),
        _span("corpus.build_threads", 1, 2, 4),              # other layer: own stage
        _span("features.featurize_threads", 0, 7, 12),
        _span("features.dav", 3, 8, 9),                       # same layer: parent's stage
        _span("learn.evaluate_split", 0, 13, 18),
        _span("models.decision_tree.fit", 5, 14, 17),
        _span("features.fit_minmax", 5, 17, 17.5),            # no same-layer ancestor
        _span("labeler.write_labels", 0, 18, 19),
    ]
    assert bench_trace.self_times(spans) == [4, 3, 2, 4, 1, 1.5, 3, 0.5, 1]
    m = bench_trace.layer_metrics(spans, {})
    assert m["labeler.collect_observations_s"] == 3
    assert m["corpus.build_threads_s"] == 2
    assert m["corpus.build_threads_calls"] == 1
    assert m["features.featurize_threads_s"] == 5
    assert m["features.self_s"] == 5.5
    assert m["learn.evaluate_split_s"] == 1.5
    assert m["models.decision_tree.fit_s"] == 3
    assert m["cli.write_s"] == 1
    assert m["cli.self_s"] == 4
    assert m["trace.wall_s"] == 20
    assert bench_trace.partition_error(m) == 0


def test_speed_probe_scale():
    probe = run.SpeedProbe(run.Probe(lambda offset: None, 0.001))
    # a sample every 20 ms; the CPU is twice as slow until 0.48 s
    probe.samples = [(k / 50, 0.002 if k <= 24 else 0.001) for k in range(1, 51)]
    assert probe.scale(0.5, 1.0) == pytest.approx(1.0)
    assert probe.scale(0.0, 0.48) == pytest.approx(0.5)
    # fewer than ten samples inside: the ten up to the end of the run
    assert probe.mean_sample(0.55, 0.6) == pytest.approx((4 * 0.002 + 6 * 0.001) / 10)


def _small_inputs(tmp_path):
    inputs = str(tmp_path / "inputs")
    bench_inputs.prepare(synthgen.GeneratorConfig(seed=3, n_threads=120), inputs,
                         blacklist_keys=2000)
    return inputs


def test_label_check_counts_corrupted_labels_as_failure(tmp_path):
    inputs = _small_inputs(tmp_path)
    with open(os.path.join(inputs, "blacklist.tsv"), encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 2000
    out = str(tmp_path / "out")
    os.makedirs(out)
    table = labeler.ShortenerTable.load(os.path.join(inputs, "shorteners.tsv"),
                                        os.path.join(inputs, "shortener_hosts.txt"))
    corp = corpus.ingest(os.path.join(inputs, "corpus.jsonl")).corpus
    labels = labeler.join_blacklist(
        labeler.collect_observations(corp, table),
        labeler.load_blacklist(os.path.join(inputs, "blacklist.tsv")))
    labels_path = os.path.join(out, "labels.tsv")
    labeler.write_labels(labels, labels_path)
    assert bench_checks.check_label_dense(inputs, out) == ([], 1.0)

    with open(labels_path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    cid, category, key = rows[0].split("\t")
    other = "porn" if category != "porn" else "ads"
    corrupted = [f"{cid}\t{other}\t{key}"] + rows[1:]
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(corrupted) + "\n")
    problems, f1 = bench_checks.check_label_dense(inputs, out)
    assert problems and f1 < 1.0


def _traced_report(inputs, out):
    recorder = bench_trace.Recorder()
    code = bench_trace.traced_main(
        run.WORKLOADS["report"].argv(inputs, out), recorder)
    assert code == 0
    return bench_trace.layer_metrics(recorder.spans, recorder.counts)


def test_traced_counts_repeat_exactly(tmp_path):
    inputs = _small_inputs(tmp_path)
    first = _traced_report(inputs, str(tmp_path / "run0"))
    second = _traced_report(inputs, str(tmp_path / "run1"))
    counts = [name for name in first if bench_trace.unit(name) in ("count", "ratio")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["corpus.build_threads_calls"] == 3
    assert first["labeler.blacklist_keys"] == 2000
    assert first["models.decision_tree.nodes"] > 0
    assert bench_trace.partition_error(first) < 1e-9
    assert bench_checks.check_labels(str(tmp_path / "run1" / "labels.tsv"),
                                     os.path.join(inputs, "planted.jsonl")) == ([], 1.0)
    # the recorder put every original function back
    assert labeler.build_threads is corpus.build_threads
    assert learn.smote.__module__ == "threadwatch.learn"
    assert not hasattr(learn.smote, "__wrapped__")
    assert not hasattr(models.DecisionTree.fit, "__wrapped__")


def test_benchmark_json_names_match_the_output():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    per_layer = list(bench_trace.layer_metrics([], {})) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    for m in spec["end_to_end"]:
        assert m["unit"] == run.E2E_UNITS[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == bench_trace.unit(m["name"])
