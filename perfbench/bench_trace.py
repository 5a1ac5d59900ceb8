"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each threadwatch layer module,
and the ``fit``/``predict_scores`` methods of its classes, in place: every
module attribute that names a wrapped function is replaced, so functions
re-exported into other modules (``labeler.build_threads``,
``learn.featurize_threads``, ``cli.build_threads``) are timed as nested
spans of their caller. Spans stay in memory; the caller writes them out
once the run has ended.

Run as a script it is the traced child process:

    python3 perfbench/bench_trace.py SPANS.json -- <threadwatch argv>

It calls ``threadwatch.cli.main(argv)`` under the recorder and writes the
spans and counts to SPANS.json. The exit code is the one ``main`` returned.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
import tracemalloc
import types

LAYERS = ("corpus", "labeler", "features", "learn", "models", "temporal",
          "accounts")

# Helpers called once per comment or per URL. A span around each call would
# cost about as much as the work inside it, so their time stays with the
# caller's span.
UNWRAPPED = frozenset({"extract_urls", "registrable_domain", "rel_seconds",
                       "rel_minutes", "normalize_url", "expand_url"})

METHODS = ("fit", "predict_scores")

ROOT = "cli.main"

# Span name -> per-layer metric that takes its self time. A span not listed
# here adds to the metric of its nearest ancestor in the same layer, if any.
STAGES = {
    "corpus.ingest": "corpus.ingest_s",
    "corpus.build_threads": "corpus.build_threads_s",
    "labeler.load_blacklist": "labeler.load_blacklist_s",
    "labeler.collect_observations": "labeler.collect_observations_s",
    "labeler.join_blacklist": "labeler.join_blacklist_s",
    "features.featurize_threads": "features.featurize_threads_s",
    "learn.evaluate_split": "learn.evaluate_split_s",
    "learn.smote": "learn.smote_s",
    "models.decision_tree.fit": "models.decision_tree.fit_s",
    "models.adaboost.fit": "models.adaboost.fit_s",
    "models.naive_bayes.fit": "models.naive_bayes.fit_s",
    "models.decision_tree.predict_scores": "models.predict_s",
    "models.adaboost.predict_scores": "models.predict_s",
    "models.naive_bayes.predict_scores": "models.predict_s",
    "temporal.attack_events": "temporal.attack_events_s",
    "temporal.relative_positions": "temporal.tables_s",
    "temporal.time_since_post": "temporal.tables_s",
    "temporal.inter_attack_intervals": "temporal.tables_s",
    "temporal.monthly_heatmap": "temporal.tables_s",
    "accounts.response_stats": "accounts.response_stats_s",
    "accounts.footprint": "accounts.footprint_s",
    "accounts.sample_normal_accounts": "accounts.sample_normal_accounts_s",
    "accounts.cluster_campaigns": "accounts.cluster_campaigns_s",
}

# Spans counted by number of calls.
CALL_COUNTS = {
    "corpus.build_threads": "corpus.build_threads_calls",
    "accounts.response_stats": "accounts.response_stats_calls",
}

# Counts read from stage outputs, set by the hooks below.
OUTPUT_COUNTS = (
    "corpus.ingest_records", "labeler.blacklist_keys", "labeler.observations",
    "labeler.flagged", "labeler.labels", "features.threads", "learn.smote_rows",
    "models.decision_tree.nodes", "models.adaboost.rounds", "temporal.events",
    "accounts.clusters",
)

# Measured quantities recorded at stage boundaries; not exact counts.
MEASURED = ("corpus.rss_after_ingest_mb", "learn.smote_peak_alloc_mb")

LAYER_TOTALS = tuple(f"{layer}.self_s" for layer in LAYERS)

TIME_METRICS = (tuple(sorted(set(STAGES.values()))) + LAYER_TOTALS
                + ("cli.write_s", "cli.self_s", "trace.wall_s"))


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name.endswith("_ratio") else "count"


def _tree_nodes(node: dict) -> int:
    if node["leaf"]:
        return 1
    return 1 + _tree_nodes(node["left"]) + _tree_nodes(node["right"])


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set(key, value_of):
    def hook(counts, result):
        counts[key] = value_of(result)
    return hook


def _add(key, value_of):
    def hook(counts, result):
        counts[key] = counts.get(key, 0) + value_of(result)
    return hook


def _observations(counts, result):
    counts["labeler.observations"] = len(result)
    counts["labeler.flagged"] = sum(1 for o in result if o.flagged)


def _ingest(counts, result):
    counts["corpus.ingest_records"] = result.kept
    counts["corpus.rss_after_ingest_mb"] = _max_rss_mb()


HOOKS = {
    "corpus.ingest": _ingest,
    "labeler.load_blacklist": _set("labeler.blacklist_keys", len),
    "labeler.collect_observations": _observations,
    "labeler.join_blacklist": _set("labeler.labels", len),
    "labeler.read_labels": _set("labeler.labels", len),
    "features.featurize_threads": _set("features.threads", len),
    "learn.smote": _add("learn.smote_rows", len),
    "models.decision_tree.fit": _add("models.decision_tree.nodes",
                                     lambda m: _tree_nodes(m.root)),
    "models.adaboost.fit": _add("models.adaboost.rounds", lambda m: len(m.stumps)),
    "temporal.attack_events": _set("temporal.events", len),
    "accounts.cluster_campaigns": _set("accounts.clusters", len),
}


class Recorder:
    """Spans as [name, parent index, start, end], in order of start."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if name == "learn.smote":
            fn = self._with_alloc_peak(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self.counts, result)
            return result
        return traced

    def _with_alloc_peak(self, fn):
        """tracemalloc runs only inside this call, so its cost lands in
        the smote span and nowhere else."""
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
                tracemalloc.stop()
                key = "learn.smote_peak_alloc_mb"
                self.counts[key] = max(self.counts.get(key, 0.0), peak)
        return measured

    def install(self) -> None:
        """Wrap every layer's public functions and model methods, and
        point every module attribute that names one at its wrapper."""
        modules = {layer: importlib.import_module(f"threadwatch.{layer}")
                   for layer in (*LAYERS, "cli")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            # models are named as the CLI names them (naive_bayes, not
            # gaussian_naive_bayes)
            algorithms = {cls: name for name, cls in getattr(mod, "ALGORITHMS", {}).items()}
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and attr not in UNWRAPPED:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type):
                    label = algorithms.get(obj, attr)
                    for method in METHODS:
                        if method in vars(obj):
                            orig = vars(obj)[method]
                            self._replace(obj, method,
                                          self.wrap(f"{layer}.{label}.{method}", orig))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._replace(mod, attr, wrappers[id(obj)])

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a child lies inside its parent and
    children do not overlap; the children's sum is the covered part."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _layer(name: str) -> str:
    layer, _, rest = name.partition(".")
    if rest.rsplit(".", 1)[-1].startswith("write_"):
        return "cli"
    return layer


def layer_metrics(spans, counts: dict) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    The seven layer totals, ``cli.write_s`` and ``cli.self_s`` partition
    the root span, so they sum to ``trace.wall_s``."""
    out = {name: 0.0 for name in TIME_METRICS}
    out.update({name: 0 for name in CALL_COUNTS.values()})
    out.update({name: 0 for name in OUTPUT_COUNTS})
    out.update({name: 0.0 for name in MEASURED})
    selfs = self_times(spans)
    bucket: list[str | None] = []
    for (name, parent, _, _), own in zip(spans, selfs):
        layer = _layer(name)
        if name == ROOT:
            metric = "cli.self_s"
        elif layer == "cli":
            metric = "cli.write_s"
        else:
            metric = STAGES.get(name)
            if metric is None and parent >= 0 and _layer(spans[parent][0]) == layer:
                metric = bucket[parent]
            out[f"{layer}.self_s"] += own
        bucket.append(metric)
        if metric is not None:
            out[metric] += own
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] += 1
    out["trace.wall_s"] = sum(end - start for _, parent, start, end in spans
                              if parent < 0)
    out.update(counts)
    obs = out["labeler.observations"]
    out["labeler.join_hit_ratio"] = out["labeler.labels"] / obs if obs else 0.0
    return out


def partition_error(metrics: dict) -> float:
    """How far the layer totals plus cli miss the traced wall time."""
    parts = sum(metrics[name] for name in LAYER_TOTALS)
    parts += metrics["cli.write_s"] + metrics["cli.self_s"]
    return abs(parts - metrics["trace.wall_s"])


def traced_main(argv: list[str], recorder: Recorder) -> int:
    """Run threadwatch's CLI under the recorder; the root span covers the
    import of the CLI, the wrapping and the run."""
    root = recorder.open(ROOT)
    try:
        cli = importlib.import_module("threadwatch.cli")
        recorder.install()
        try:
            return cli.main(argv)
        finally:
            recorder.uninstall()
    finally:
        recorder.close(root)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: bench_trace.py SPANS.json -- ARGV...", file=sys.stderr)
        return 2
    recorder = Recorder()
    code = traced_main(sys.argv[3:], recorder)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "counts": recorder.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
