"""Command surface tying the pipeline together.

Subcommands: synth, ingest, label, featurize, train, eval, sweep,
temporal, accounts, report. Exit codes: 0 success, 1 validation error
(every module's error class is a ValueError), 2 I/O error or unreadable
corpus; any other exception propagates with its traceback (the
interpreter also exits 1). All randomness is seeded through flags/config, so reruns
with identical inputs produce byte-identical output files.

Each subcommand imports the layers it runs when it starts, so ``ingest``,
``label``, ``temporal`` and ``accounts`` run without loading numpy.
``main`` pauses the cyclic garbage collector for the whole command, since
the records it builds hold no reference cycles, and leaves it as it found
it. A reader of stdout that leaves early (``threadwatch eval ... | head -1``)
is not an error: the rest of stdout goes to devnull and the command
finishes. A broken pipe on an output file is an I/O error like any other.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from . import labeler
from .corpus import (Corpus, CorpusError, IngestResult, at_line, build_threads, ingest,
                     open_text, write_lines)

# the names of models.ALGORITHMS, here so that parsing loads no models
ALGORITHMS = ("adaboost", "decision_tree", "naive_bayes")


def _load_config(path: str) -> dict[str, str]:
    config = {}
    with open_text(path, ValueError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(at_line(path, "expected key = value", lineno))
            key, value = line.split("=", 1)
            config[key.strip().replace("-", "_")] = value.strip()
    return config


def _with_config(parser: argparse.ArgumentParser, argv: list[str],
                 args: argparse.Namespace) -> list[str]:
    """argv with each config entry inserted as ``--flag value`` right after
    the subcommand name: the user's later flags win, and config values get
    the flags' types and choices. A key no subcommand defines is an error;
    one that only other subcommands define is skipped."""
    subparsers = next(a for a in parser._actions if a.dest == "subcommand")
    known = {a.dest for p in subparsers.choices.values() for a in p._actions} - {"help"}
    tokens = []
    for key, value in _load_config(args.config).items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if key in vars(args):  # a flag of this subcommand
            tokens += ["--" + key.replace("_", "-"), value]
    # only --config options (one token with "=", else two) precede the
    # subcommand name
    at = 0
    while argv[at] != args.subcommand:
        at += 1 if "=" in argv[at] else 2
    return argv[:at + 1] + tokens + argv[at + 1:]


def _say(line: str) -> None:
    """Print a line to stdout. Once its reader has left, stdout is pointed
    at devnull, so this and every later write, the flush at exit too,
    succeed."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _ingest(path: str) -> IngestResult:
    result = ingest(path)
    for lineno, msg in result.line_errors:
        print(f"warning: {at_line(path, msg, lineno)}", file=sys.stderr)
    if result.dropped:
        print(f"warning: dropped {result.dropped} records", file=sys.stderr)
    return result


# Stages: each output file is computed and written by one function below.
# Single-stage subcommands call one; report calls them all on the same
# in-memory values. A command reads its operator files (blacklist,
# shortener map, labels) before the corpus, so that a bad line in one
# aborts before the ingest. Commands and stages import the layers they run
# at their top, so a command that ingests loads them before the ingest.

def label_stage(corpus: Corpus, table, blacklist, path: str):
    """Malicious-comment labels; writes the labels."""
    labels = labeler.label_comments(corpus.comments.values(), table, blacklist)
    labeler.write_labels(labels, path)
    return labels


def featurize_stage(corpus: Corpus, labels, path: str | None, **options):
    """One feature row and one label per thread, as two lists; writes the
    feature CSV when a path is given."""
    from . import features
    threads = build_threads(corpus)
    is_target = labeler.label_threads(corpus, labels)[0]
    post_ids = [thread.post.post_id for thread in threads]
    rows = features.featurize_threads(threads, **options)
    targets = [is_target.get(post_id, False) for post_id in post_ids]
    if path:
        features.write_feature_csv(post_ids, rows, targets, path)
    return rows, targets


def metrics_stage(dataset, algorithms: list[str], path: str | None, **split):
    """Split evaluation of a learn.Dataset per algorithm, as a list of
    learn.Metrics; writes one CSV row each when a path is given."""
    from . import learn
    results = learn.evaluate_split(dataset, algorithms, **split)
    if path:
        write_lines(path, ["algorithm,precision,recall,f1"] + [
            f"{algorithm},{m.precision:.6f},{m.recall:.6f},{m.f1:.6f}"
            for algorithm, m in zip(algorithms, results)])
    return results


def temporal_stage(corpus: Corpus, labels, out: str):
    """Attack events; writes the three ECDF tables, the within-one-day
    fractions and the monthly heatmap into the directory out."""
    from . import temporal
    events = temporal.attack_events(corpus, labels)
    os.makedirs(out, exist_ok=True)
    temporal.write_ecdf_csv(temporal.relative_positions(events),
                            os.path.join(out, "relative_positions.csv"))
    tables, within_day = temporal.time_since_post(events)
    temporal.write_ecdf_csv(tables, os.path.join(out, "time_since_post.csv"))
    write_lines(os.path.join(out, "within_one_day.csv"), ["group,fraction_within_day"] + [
        f"{group},{within_day[group]:.6f}" for group in sorted(within_day)])
    temporal.write_ecdf_csv(temporal.inter_attack_intervals(events),
                            os.path.join(out, "inter_attack_intervals.csv"))
    pages, months, matrix = temporal.monthly_heatmap(events, corpus)
    temporal.write_heatmap_csv(pages, months, matrix,
                               os.path.join(out, "monthly_heatmap.csv"))
    return events


def campaign_stage(corpus: Corpus, table, labels, out: str):
    """Campaign clusters by exact URL; writes the scatter into the
    directory out. Clusters read only the observations of labelled
    comments, so only those comments are observed."""
    from . import accounts
    labelled = Corpus(corpus.pages, corpus.posts, labeler.labelled_comments(corpus, labels))
    clusters = accounts.cluster_campaigns(
        labels, labeler.collect_observations(labelled, table))
    accounts.write_scatter_csv(accounts.campaign_scatter(clusters),
                               os.path.join(out, "campaign_scatter.csv"))
    return clusters


def cmd_synth(args) -> tuple[int, int]:
    from . import synthgen
    config = synthgen.profile_config(
        args.profile, seed=args.seed, n_threads=args.threads,
        n_pages=args.pages, target_fraction=args.target_fraction)
    result = synthgen.generate(config)
    os.makedirs(args.out, exist_ok=True)
    synthgen.write_corpus_jsonl(result, os.path.join(args.out, "corpus.jsonl"))
    synthgen.write_blacklist_tsv(result, os.path.join(args.out, "blacklist.tsv"))
    synthgen.write_shortener_files(result,
                                   os.path.join(args.out, "shorteners.tsv"),
                                   os.path.join(args.out, "shortener_hosts.txt"))
    synthgen.write_planted_jsonl(result, os.path.join(args.out, "planted.jsonl"))
    return config.n_threads, len(result.corpus.comments) + len(result.corpus.posts)


def cmd_ingest(args) -> tuple[int, int]:
    result = _ingest(args.corpus)
    corpus = result.corpus
    _say(f"pages={len(corpus.pages)} posts={len(corpus.posts)} "
         f"comments={len(corpus.comments)} dropped={result.dropped} "
         f"skew_clamped={corpus.skew_clamped}")
    return result.kept + result.dropped, result.kept


def cmd_label(args) -> tuple[int, int]:
    table = labeler.ShortenerTable.load(args.shortener_map, args.shortener_hosts)
    blacklist = labeler.load_blacklist(args.blacklist)
    corpus = _ingest(args.corpus).corpus
    labels = label_stage(corpus, table, blacklist, args.out)
    return len(corpus.comments), len(labels)


def cmd_featurize(args) -> tuple[int, int]:
    from . import features
    labels = labeler.read_labels(args.labels)
    corpus = _ingest(args.corpus).corpus
    rows, _ = featurize_stage(corpus, labels, args.out,
                              window_minutes=args.window, t_final_minutes=args.t_final,
                              macro_mode=args.macro_mode)
    return len(corpus.posts), len(rows)


def _load_dataset(path: str):
    """The learn.Dataset of a feature CSV."""
    from . import features, learn
    _, rows, labels = features.read_feature_csv(path)
    return learn.Dataset(rows, labels)


def cmd_train(args) -> tuple[int, int]:
    from . import features, learn, models
    dataset = _load_dataset(args.features)
    stats = features.fit_minmax(dataset.X)
    scaled = learn.Dataset(features.apply_minmax(dataset.X, stats), dataset.y)
    models.save_model(learn.train(args.algorithm, scaled), args.out,
                      scaling=stats.tolist())
    return len(dataset.y), 1


def cmd_eval(args) -> tuple[int, int]:
    dataset = _load_dataset(args.features)
    [metrics] = metrics_stage(dataset, [args.algorithm], args.out,
                              train_frac=args.train_frac,
                              balance=args.smote == "on", seed=args.seed)
    _say(f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} "
         f"f1={metrics.f1:.4f}")
    return len(dataset.y), 1


def cmd_sweep(args) -> tuple[int, int]:
    from . import learn
    labels = labeler.read_labels(args.labels)
    corpus = _ingest(args.corpus).corpus
    rows, targets = featurize_stage(corpus, labels, None)
    results = learn.sweep_horizon(learn.Dataset(rows, targets), algorithm=args.algorithm,
                                  seed=args.seed)
    learn.write_sweep_csv(results, args.out)
    return len(corpus.posts), len(results)


def cmd_temporal(args) -> tuple[int, int]:
    from . import temporal
    labels = labeler.read_labels(args.labels)
    corpus = _ingest(args.corpus).corpus
    events = temporal_stage(corpus, labels, args.out)
    return len(events), 5


def cmd_accounts(args) -> tuple[int, int]:
    from . import accounts
    accounts.check_sample_options(args.sample_per_page, args.seed)
    table = labeler.ShortenerTable.load(args.shortener_map, args.shortener_hosts)
    labels = labeler.read_labels(args.labels)
    corpus = _ingest(args.corpus).corpus
    _, attackers = labeler.label_threads(corpus, labels)
    normals = accounts.sample_normal_accounts(
        corpus, attackers, per_page=args.sample_per_page, seed=args.seed)
    groups = {"attacker": sorted(attackers), "normal": normals}
    by_author = accounts.comments_by_author(
        corpus, [aid for ids in groups.values() for aid in ids])
    os.makedirs(args.out, exist_ok=True)
    accounts.write_footprint_csv(
        {grp: accounts.footprint(corpus, by_author, ids) for grp, ids in groups.items()},
        os.path.join(args.out, "footprints.csv"))
    accounts.write_response_csv(
        {grp: accounts.response_stats(corpus, by_author, ids)
         for grp, ids in groups.items()},
        os.path.join(args.out, "response_stats.csv"))
    clusters = campaign_stage(corpus, table, labels, args.out)
    return len(labels), len(clusters)


def cmd_report(args) -> tuple[int, int]:
    from . import accounts, features, learn, models, temporal
    os.makedirs(args.out, exist_ok=True)
    table = labeler.ShortenerTable.load(args.shortener_map, args.shortener_hosts)
    blacklist = labeler.load_blacklist(args.blacklist)
    corpus = _ingest(args.corpus).corpus
    labels = label_stage(corpus, table, blacklist, os.path.join(args.out, "labels.tsv"))
    rows, targets = featurize_stage(corpus, labels, os.path.join(args.out, "features.csv"))
    metrics_stage(learn.Dataset(rows, targets), sorted(models.ALGORITHMS),
                  os.path.join(args.out, "metrics.csv"), seed=args.seed)
    temporal_stage(corpus, labels, args.out)
    campaign_stage(corpus, table, labels, args.out)
    return len(corpus.posts), len(labels)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadwatch",
        description="Malicious-URL campaign analysis over discussion-thread corpora")
    parser.add_argument("--config", help="key = value config file; flags override it")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, summary: str, func, *paths: str,
                seed: int | None = None) -> argparse.ArgumentParser:
        """A subcommand with a required --PATH flag per name in paths, and
        a --seed flag when seed gives its default."""
        p = sub.add_parser(name, help=summary,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        for path in paths:
            p.add_argument(f"--{path}", required=True)
        if seed is not None:
            p.add_argument("--seed", type=int, default=seed, help="random seed")
        return p

    p = command("synth", "generate a synthetic corpus", cmd_synth, "out", seed=42)
    p.add_argument("--threads", type=int, default=2000, help="number of threads")
    p.add_argument("--pages", type=int, default=10, help="number of pages")
    p.add_argument("--target-fraction", type=float, default=0.1, help="attacked share")
    p.add_argument("--profile", default="default", help="attack strategy",
                   choices=["default", "early", "late", "burst", "repeat"])

    command("ingest", "load and validate a corpus file", cmd_ingest, "corpus")
    command("label", "produce malicious-comment labels", cmd_label,
            "corpus", "blacklist", "shortener-map", "shortener-hosts", "out")

    p = command("featurize", "emit the feature matrix CSV", cmd_featurize,
                "corpus", "labels", "out")
    p.add_argument("--window", type=int, default=5, help="window width in minutes")
    p.add_argument("--t-final", type=int, default=60, help="horizon in minutes")
    p.add_argument("--macro-mode", choices=["full", "censored"], default="full",
                   help="macro statistics over the whole thread or up to --t-final")

    p = command("train", "train a classifier and save it as JSON", cmd_train,
                "features", "out")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)

    p = command("eval", "75/25 split evaluation", cmd_eval, "features", seed=0)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--train-frac", type=float, default=0.75, help="training share")
    p.add_argument("--smote", choices=["on", "off"], default="on",
                   help="balance the training portion with SMOTE")
    p.add_argument("--out")

    p = command("sweep", "F1 versus observation horizon", cmd_sweep,
                "corpus", "labels", "out", seed=0)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="decision_tree", help="model")

    command("temporal", "temporal analyses of labeled attacks", cmd_temporal,
            "corpus", "labels", "out")

    p = command("accounts", "attacker vs normal account analyses", cmd_accounts,
                "corpus", "labels", "shortener-map", "shortener-hosts", "out", seed=0)
    p.add_argument("--sample-per-page", type=int, default=1000, help="normals per page")

    command("report", "end-to-end pipeline into one directory", cmd_report,
            "corpus", "blacklist", "shortener-map", "shortener-hosts", "out", seed=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command's records (one tracked tuple each, about 100k for 2k
    # threads) form no reference cycles and live until it ends, so every
    # cyclic collection during the command would walk them all and free
    # nothing. The collector is paused for the whole command and left as
    # it was found.
    enabled = gc.isenabled()
    gc.disable()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(_with_config(parser, argv, args))
        started = time.perf_counter()
        n_in, n_out = args.func(args)
        _say(f"{args.subcommand} ok: {n_in} in, {n_out} out, "
             f"{time.perf_counter() - started:.2f}s")
        return 0
    except SystemExit as exc:  # argparse: --help, or a usage error
        return 0 if exc.code == 0 else 1
    except (OSError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # every module's validation error is one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
