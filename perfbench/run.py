"""Seeded end-to-end benchmark of the threadwatch CLI.

    python3 perfbench/run.py --workload {report,accounts,label_dense} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``. One invocation prepares the workload's inputs from the seed,
times fresh ``threadwatch`` processes one after another for S seconds
(at least one round: one run on each prepared corpus), checks every run's outputs and prints each metric by
name and unit. The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, the per-layer
metrics of one extra run under the span recorder in bench_trace.py.

The benchmark and every process it starts run on one CPU, beside a speed
probe: a thread that times a fixed piece of Python work every few
milliseconds. A shared host runs the same code up to twice as slowly at
some moments as at others, so each run's wall time is also reported
scaled to the probe's reference speed (the ``norm_`` metrics and
``setup_s``), which removes most of that drift.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# Every invocation must end within 180 s; stop starting runs before that.
DEADLINE_S = 165.0
# setup_s probes before each timed run, so that the median spans the
# whole measurement rather than one moment of a shared machine
SETUP_PROBES_PER_RUN = 2

# generator seed step between the corpora of one invocation
CORPUS_SEED_STEP = 100_003

# What a fresh process pays before any work: interpreter start, the import
# of threadwatch.cli and its dependencies, and argument parsing.
SETUP_PROBE = ("import sys\n"
               "from threadwatch import cli\n"
               "cli.build_parser().parse_args(sys.argv[1:])\n")


class BenchError(Exception):
    pass


# The speed probe times one piece of fixed work every PROBE_GAP_S seconds.
# A run's normalised time is its wall time * ref_s / (mean probe sample
# during the run): the time it would take on a CPU that does one sample
# in ref_s, about the sample's time on a 2.0 GHz Xeon guest at its
# fastest. Contention slows kinds of work unequally, so each workload's
# probe mixes the kinds of work that dominate it: dict and string work
# for accounts and label_dense; for report, also the many small numpy
# calls of the decision-tree fit and a pure interpreter loop. The scaling
# takes out most, not all, of the host's drift: under the heaviest
# contention seen, raw runs slowed by 1.7-2.2x and normalised ones by
# 1.2-1.5x.
PROBE_GAP_S = 0.02
# Children run at the lowest priority, so that a probe sample, once woken,
# is never preempted by the child and times the CPU alone.
CHILD_NICE = 19
# fewest probe samples a run's speed is taken from; a shorter run also
# uses the samples just before it
PROBE_MIN_SAMPLES = 10

PROBE_WORDS = [f"{i * 2654435761 % 2**32:08x}/{i % 977}" for i in range(60_000)]
PROBE_INDEX = {word: i for i, word in enumerate(PROBE_WORDS)}


def _words(offset: int, n: int) -> int:
    """Copies the table from a moving offset on (touching up to 60,000
    objects, about 30,000 on average), then does dict lookups, string
    splitting and a sort on n of its words."""
    rest = PROBE_WORDS[offset % (len(PROBE_WORDS) - n):]
    total, tails = 0, []
    for word in rest[:n]:
        head, _, tail = word.partition("/")
        total += PROBE_INDEX[word] + len(head)
        tails.append(tail)
    tails.sort()
    return total


def _small_numpy(n: int) -> float:
    """numpy calls on two-element arrays, as in a Gini split search"""
    total = 0.0
    for i in range(n):
        counts = np.array([i + 1, 7])
        p = counts / np.sum(counts)
        total += 1.0 - float(np.sum(p * p))
    return total


def _int_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += (i * 7919) % 101
    return total


@dataclass(frozen=True)
class Probe:
    work: Callable[[int], object]  # one sample's work, given a moving offset
    ref_s: float


PROBES = {
    "dict": Probe(lambda offset: _words(offset, 1000), 0.0007),
    "mixed": Probe(lambda offset: (_words(offset, 500), _small_numpy(60),
                                   _int_loop(6000)), 0.0016),
}


class SpeedProbe(threading.Thread):
    """Times a probe's work every PROBE_GAP_S on the benchmark's CPU. The
    waking thread preempts the child running there, so the samples follow
    the speed the child gets from moment to moment."""

    def __init__(self, probe: Probe):
        super().__init__(name="speed-probe", daemon=True)
        self.probe = probe
        self.samples: list[tuple[float, float]] = []  # (end, duration)
        self.halt = threading.Event()

    def run(self) -> None:
        offset = 0
        while not self.halt.wait(PROBE_GAP_S):
            started = time.perf_counter()
            self.probe.work(offset)
            ended = time.perf_counter()
            self.samples.append((ended, ended - started))
            offset += 7919

    def scale(self, start: float, end: float) -> float:
        """Normalised time per second of wall time over [start, end]."""
        return self.probe.ref_s / self.mean_sample(start, end)

    def mean_sample(self, start: float, end: float) -> float:
        """Mean probe duration over [start, end], widened backwards to at
        least PROBE_MIN_SAMPLES samples."""
        upto = [d for t, d in self.samples if t <= end]
        inside = [d for t, d in self.samples if start <= t <= end]
        return statistics.fmean(inside if len(inside) >= PROBE_MIN_SAMPLES
                                else upto[-PROBE_MIN_SAMPLES:])

    def stop(self) -> None:
        self.halt.set()
        self.join()


@dataclass(frozen=True)
class Workload:
    inputs: str  # bench_inputs kind
    why: str
    argv: Callable[[str, str], list[str]]  # (inputs dir, output dir) -> CLI argv
    check: str  # name of the bench_checks function for one run's outputs
    probe: str  # PROBES key
    needs_labels: bool = False
    # Corpora generated from one seed; each round of timed runs runs the
    # command once on each. report's work varies by about +-15% from corpus
    # to corpus (decision-tree size), so it takes three.
    corpora: int = 1


def _shared(inp: str) -> list[str]:
    return ["--corpus", os.path.join(inp, "corpus.jsonl"),
            "--shortener-map", os.path.join(inp, "shorteners.tsv"),
            "--shortener-hosts", os.path.join(inp, "shortener_hosts.txt")]


def _label_argv(inp: str, out: str) -> list[str]:
    return ["label", *_shared(inp), "--blacklist", os.path.join(inp, "blacklist.tsv"),
            "--out", os.path.join(out, "labels.tsv")]


WORKLOADS = {
    "report": Workload(
        "threads2k",
        "the paper's full pipeline on three 2k-thread corpora; the decision-tree "
        "fit in models dominates, the join is trivial",
        lambda inp, out: ["report", *_shared(inp),
                          "--blacklist", os.path.join(inp, "blacklist.tsv"),
                          "--seed", "0", "--out", out],
        "check_report", "mixed", corpora=3),
    "accounts": Workload(
        "threads2k",
        "per-account response_stats scans every comment (~3/4 of wall time); "
        "models unused; reads the corpus by account",
        lambda inp, out: ["accounts", *_shared(inp),
                          "--labels", os.path.join(inp, "labels.tsv"),
                          "--seed", "0", "--sample-per-page", "100", "--out", out],
        "check_accounts", "dict", needs_labels=True),
    "label_dense": Workload(
        "dense5k",
        "ingest, URL extraction and a 200k-key blacklist join do all the work; "
        "models, features, temporal and accounts unused",
        _label_argv,
        "check_label_dense", "dict"),
}

E2E_UNITS = {"norm_wall_s": "s", "norm_comments_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s", "f1_min": "ratio"}


@dataclass
class Spawned:
    code: int
    wall_s: float
    norm_wall_s: float  # wall_s at the probe's reference speed
    peak_rss_mb: float


class Bench:
    def __init__(self, name: str, seed: int, work: str, deadline: float, checks,
                 probe: SpeedProbe):
        self.name = name
        self.probe = probe
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.checks = checks  # the bench_checks module, importable once SRC is on sys.path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        self.env = env
        self.log = os.path.join(work, "children.log")

    def spawn(self, argv: list[str]) -> Spawned:
        """Run one child to completion; wall time from spawn to exit, also
        scaled by the probe's speed meanwhile, and the child's own peak RSS
        from wait4. Past the deadline it is killed."""
        with open(self.log, "ab") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(["nice", "-n", str(CHILD_NICE), sys.executable, *argv],
                                    cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = ended - started
        norm = wall * self.probe.scale(started, ended)
        return Spawned(proc.returncode, wall, norm, usage.ru_maxrss / 1024.0)

    def prepare(self) -> list[tuple[str, dict]]:
        """Inputs directory and meta.json of each corpus; corpus j comes
        from generator seed seed + j * CORPUS_SEED_STEP."""
        wl = self.workload
        prepared = []
        for j in range(wl.corpora):
            inputs = os.path.join(self.work, f"inputs{j}")
            if self.spawn([os.path.join(HERE, "bench_inputs.py"), wl.inputs,
                           str(self.seed + j * CORPUS_SEED_STEP), inputs]).code:
                raise BenchError("input preparation failed")
            if wl.needs_labels:
                if self.spawn(["-m", "threadwatch.cli", *_label_argv(inputs, inputs)]).code:
                    raise BenchError("labeling the inputs failed")
                problems, _ = self.checks.check_labels(
                    os.path.join(inputs, "labels.tsv"), os.path.join(inputs, "planted.jsonl"))
                if problems:
                    raise BenchError(f"labeling the inputs: {problems}")
            with open(os.path.join(inputs, "meta.json"), encoding="utf-8") as fh:
                prepared.append((inputs, json.load(fh)))
        return prepared

    def setup_probes(self, inputs: str) -> list[Spawned]:
        runs = []
        for _ in range(SETUP_PROBES_PER_RUN):
            run = self.spawn(["-c", SETUP_PROBE,
                              *self.workload.argv(inputs, os.path.join(self.work, "probe"))])
            if run.code:
                raise BenchError("the setup probe failed to parse the workload's argv")
            runs.append(run)
        return runs

    def run_once(self, inputs: str, index: int, prefix: list[str], first: dict | None):
        """One run of the workload's CLI command; returns the spawn result,
        the problems found in its outputs, its F1 and its output digests."""
        out = os.path.join(self.work, f"run{index}")
        os.makedirs(out)
        run = self.spawn([*prefix, *self.workload.argv(inputs, out)])
        problems, f1 = [], 0.0
        if run.code:
            problems.append(f"exit code {run.code}")
        else:
            problems, f1 = getattr(self.checks, self.workload.check)(inputs, out)
        digests = self.checks.tree_digests(out)
        if first is not None and digests != first:
            problems.append("output files differ from the first run")
        shutil.rmtree(out)
        return run, problems, f1, digests


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    prepared = bench.prepare()
    for inputs, meta in prepared:
        print(f"inputs {os.path.basename(inputs)}: {meta['threads']} threads, "
              f"{meta['comments']} comments")
    print(f"prep {time.perf_counter() - started:.2f} s (not part of any metric)")

    # runs[j]: the timed runs on corpus j; first[j]: its first outputs
    runs = [[] for _ in prepared]
    first = [None for _ in prepared]
    setups, f1s, attempted, failed, rounds = [], [], 0, 0, 0
    loop_start = time.perf_counter()
    while True:
        for j, (inputs, _) in enumerate(prepared):
            setups += bench.setup_probes(inputs)
            run, problems, f1, digests = bench.run_once(
                inputs, attempted, ["-m", "threadwatch.cli"], first[j])
            first[j] = first[j] or digests
            attempted += 1
            runs[j].append(run)
            f1s.append(f1)
            print(f"run {attempted - 1} (inputs{j}): wall {run.wall_s:.3f} s, normalised "
                  f"{run.norm_wall_s:.3f} s, peak RSS {run.peak_rss_mb:.1f} MB")
            if problems:
                failed += 1
                print(f"run {attempted - 1} failed: {'; '.join(problems)}", file=sys.stderr)
        rounds += 1
        # start another round only if it should end within the measurement
        # window and, with the traced run after it, before the deadline
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed / rounds
        reserve = per_round * 1.5 + (per_round / len(prepared) * 1.5 if trace else 0)
        if elapsed + per_round > seconds or time.monotonic() + reserve > bench.deadline:
            break

    # times: the mean over corpora of each corpus's median over rounds, so
    # that every corpus weighs the same
    def per_corpus(value: Callable[[dict, Spawned], float]) -> float:
        return statistics.fmean(statistics.median(value(meta, r) for r in corpus_runs)
                                for (_, meta), corpus_runs in zip(prepared, runs))

    timed = [r for corpus_runs in runs for r in corpus_runs]
    e2e = {
        "norm_wall_s": per_corpus(lambda meta, r: r.norm_wall_s),
        "norm_comments_per_s": per_corpus(lambda meta, r: meta["comments"] / r.norm_wall_s),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
        "setup_s": statistics.median(r.norm_wall_s for r in setups),
        "f1_min": min(f1s),
    }
    # as measured, without the probe's scaling; not gated
    raw = {"wall_s": ("s", per_corpus(lambda meta, r: r.wall_s)),
           "comments_per_s": ("1/s", per_corpus(lambda meta, r: meta["comments"] / r.wall_s)),
           "raw_setup_s": ("s", statistics.median(r.wall_s for r in setups))}
    walls = [r.wall_s for r in timed]
    print(f"workload {bench.name}: {len(timed)} timed runs in {rounds} rounds "
          f"(wall {min(walls):.3f}..{max(walls):.3f} s)")
    for name, value in e2e.items():
        print(f"  {name:<20} {_fmt(value):>12} {E2E_UNITS[name]}")
    for name, (unit, value) in raw.items():
        print(f"  {name:<20} {_fmt(value):>12} {unit}")
    print(f"  {'error_rate':<20} {_fmt(failed / attempted):>12} ratio "
          f"({failed} of {attempted} runs failed)")
    metrics = e2e
    if trace:
        metrics, traced_failed = traced(bench, prepared[0][0], attempted, first[0],
                                        statistics.median(r.wall_s for r in runs[0]))
        attempted += 1
        failed += traced_failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value,
                               "unit": E2E_UNITS.get(name) or bench_trace.unit(name)}
                        for name, value in metrics.items()}}


def traced(bench: Bench, inputs: str, index: int, first: dict, untraced_wall: float):
    """One run under the span recorder; its outputs must equal the untraced
    runs', and its layer self times must add up to its traced wall time."""
    spans_path = os.path.join(bench.work, "spans.json")
    run, problems, _, _ = bench.run_once(
        inputs, index, [os.path.join(HERE, "bench_trace.py"), spans_path, "--"], first)
    doc = {"spans": [], "counts": {}}
    if os.path.isfile(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        problems.append("the traced run wrote no spans")
    metrics = bench_trace.layer_metrics(doc["spans"], doc["counts"])
    gap = bench_trace.partition_error(metrics)
    if gap > 1e-6:
        problems.append(f"layer self times miss the traced wall time by {gap:.3g} s")
    metrics["trace.overhead_s"] = run.wall_s - untraced_wall
    if problems:
        print(f"traced run failed: {'; '.join(problems)}", file=sys.stderr)
    print("per-layer (traced run):")
    for name, value in metrics.items():
        print(f"  {name:<36} {_fmt(value):>12} {bench_trace.unit(name)}")
    return metrics, int(bool(problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "threadwatch", "cli.py")):
        print(f"error: no threadwatch sources under {SRC}; "
              "run from the root of a threadwatch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    checks = importlib.import_module("bench_checks")

    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind: kill the running child and remove the scratch files
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    # one CPU for this process, its probe thread and every child
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    probe = SpeedProbe(PROBES[WORKLOADS[args.workload].probe])
    probe.start()
    try:
        bench = Bench(args.workload, args.seed, work, deadline, checks, probe)
        print(f"why {args.workload}: {bench.workload.why}")
        result = measure(bench, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
