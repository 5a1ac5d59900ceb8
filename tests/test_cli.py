import gc
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import threadwatch
from threadwatch import accounts, cli, corpus, features, labeler, learn, models, synthgen
from threadwatch.cli import main
from threadwatch.synthgen import read_planted_jsonl

SYNTH_ARGS = ["--seed", "7", "--threads", "120", "--pages", "4"]


def _error_classes():
    """Every Exception subclass a threadwatch module defines, with
    whether main should exit 1 on it: all but CorpusError."""
    found = {}
    for info in pkgutil.iter_modules(threadwatch.__path__):
        module = importlib.import_module(f"threadwatch.{info.name}")
        found.update((obj.__name__, obj) for obj in vars(module).values()
                     if isinstance(obj, type) and issubclass(obj, Exception)
                     and obj.__module__ == module.__name__)
    return [(error, name != "CorpusError") for name, error in sorted(found.items())]


def synth_inputs(root):
    data = os.path.join(root, "data")
    assert main(["synth", "--out", data] + SYNTH_ARGS) == 0
    return {
        "corpus": os.path.join(data, "corpus.jsonl"),
        "blacklist": os.path.join(data, "blacklist.tsv"),
        "map": os.path.join(data, "shorteners.tsv"),
        "hosts": os.path.join(data, "shortener_hosts.txt"),
        "planted": os.path.join(data, "planted.jsonl"),
        "dir": data,
    }


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One synth corpus plus labels/features shared by the CLI tests."""
    root = str(tmp_path_factory.mktemp("cli"))
    paths = synth_inputs(root)
    paths["labels"] = os.path.join(root, "labels.tsv")
    assert main(["label", "--corpus", paths["corpus"],
                 "--blacklist", paths["blacklist"],
                 "--shortener-map", paths["map"],
                 "--shortener-hosts", paths["hosts"],
                 "--out", paths["labels"]]) == 0
    paths["features"] = os.path.join(root, "features.csv")
    assert main(["featurize", "--corpus", paths["corpus"],
                 "--labels", paths["labels"],
                 "--out", paths["features"]]) == 0
    paths["root"] = root
    return paths


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestBasics:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["label", "--help"]) == 0

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["ingest", "--corpus", str(tmp_path / "nope.jsonl")]) == 2

    def test_bad_corpus_line_warning_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "pg0", "kind": "page", "name": "P", "region": "Asia"}\n'
                        '{"id": "pg1", "kind": "page", "name": "Q", "region": "Mars"}\n')
        assert main(["ingest", "--corpus", str(path)]) == 0
        assert capsys.readouterr().err.splitlines()[0] == (
            f"warning: {path} line 2: unknown region 'Mars'")

    def test_collector_left_as_found(self, pipeline, tmp_path):
        # main pauses the collector for the command and freezes nothing; an
        # in-process caller gets it back, on success and on an unreadable
        # corpus
        runs = [(pipeline["corpus"], 0), (str(tmp_path / "nope.jsonl"), 2)]
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        try:
            for enabled in (True, False):
                (gc.enable if enabled else gc.disable)()
                for corpus, code in runs:
                    assert main(["ingest", "--corpus", corpus]) == code
                    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_bad_config_value_exit_one(self, pipeline, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"),
                     "--target-fraction", "2.0"]) == 1

    def _label_with_broken_join(self, pipeline, tmp_path, monkeypatch, error):
        def broken_join(observations, blacklist):
            raise error
        monkeypatch.setattr(labeler, "join_blacklist", broken_join)
        return main(["label", "--corpus", pipeline["corpus"],
                     "--blacklist", pipeline["blacklist"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     "--out", str(tmp_path / "labels.tsv")])

    def test_package_error_exit_one(self, pipeline, tmp_path, monkeypatch, capsys):
        error = labeler.LabelError("bad blacklist")
        assert self._label_with_broken_join(pipeline, tmp_path, monkeypatch, error) == 1
        assert "error: bad blacklist" in capsys.readouterr().err

    @pytest.mark.parametrize("error, exits_one", _error_classes())
    def test_module_errors_are_value_errors(self, error, exits_one):
        # main maps ValueError to exit 1; an unreadable corpus exits 2
        assert issubclass(error, ValueError) is exits_one

    def test_algorithm_names_are_the_models(self):
        assert list(cli.ALGORITHMS) == sorted(models.ALGORITHMS)

    def test_internal_error_raises(self, pipeline, tmp_path, monkeypatch):
        with pytest.raises(KeyError, match="internal"):
            self._label_with_broken_join(pipeline, tmp_path, monkeypatch,
                                         KeyError("internal"))

    def test_summary_line(self, pipeline, capsys):
        assert main(["ingest", "--corpus", pipeline["corpus"]]) == 0
        out = capsys.readouterr().out
        assert "ingest ok: " in out and " in, " in out and out.rstrip().endswith("s")


def _refuse_ingest(monkeypatch):
    def refused(path):
        raise AssertionError("the corpus was read")
    monkeypatch.setattr(cli, "ingest", refused)


# a file with a bad line 2, and the error it gives after the file's path,
# per flag
BAD_LINES = {
    "blacklist": ("evil.com/a\tphishing\nhttp://\tphishing\n", "line 2: empty key"),
    "shortener-map": ("bit.ly/a\thttp://evil.com/a\nbit.ly/b\n",
                      "line 2: not short<TAB>target"),
    "labels": ("c1\tphishing\tevil.com\nc2\tphishing\n", "line 2: bad row"),
}
# the file flags besides --corpus of each command that reads a corpus
FILE_FLAGS = {
    "label": ["blacklist", "shortener-map", "shortener-hosts", "out"],
    "report": ["blacklist", "shortener-map", "shortener-hosts", "out"],
    "accounts": ["labels", "shortener-map", "shortener-hosts", "out"],
    "featurize": ["labels", "out"],
    "sweep": ["labels", "out"],
    "temporal": ["labels", "out"],
}


@pytest.mark.parametrize("command", ["featurize", "sweep", "temporal", "accounts"])
def test_unknown_label_comment_exits_one(pipeline, tmp_path, capsys, command):
    # every command that reads labels checks them by one rule, and writes nothing
    labels = tmp_path / "labels.tsv"
    labels.write_bytes(read(pipeline["labels"]) + b"ghost1\tphishing\tevil.com\n")
    files = {"labels": str(labels), "shortener-map": pipeline["map"],
             "shortener-hosts": pipeline["hosts"], "out": str(tmp_path / "out")}
    argv = [command, "--corpus", pipeline["corpus"]]
    for flag in FILE_FLAGS[command]:
        argv += [f"--{flag}", files[flag]]
    assert main(argv) == 1
    assert "error: labels reference unknown comments: ['ghost1']\n" in capsys.readouterr().err
    assert not os.path.exists(files["out"])


class TestOperatorFilesFirst:
    """A bad line in a blacklist, shortener map or labels file aborts the
    run before the corpus is read."""

    @pytest.mark.parametrize("command, bad", [
        (command, bad) for command, flags in FILE_FLAGS.items()
        for bad in flags if bad in BAD_LINES])
    def test_bad_line_aborts_before_ingest(self, pipeline, tmp_path, monkeypatch,
                                           capsys, command, bad):
        files = {"blacklist": pipeline["blacklist"], "shortener-map": pipeline["map"],
                 "shortener-hosts": pipeline["hosts"], "labels": pipeline["labels"],
                 "out": str(tmp_path / "out")}
        text, message = BAD_LINES[bad]
        files[bad] = str(tmp_path / "bad.txt")
        with open(files[bad], "w", encoding="utf-8") as fh:
            fh.write(text)
        _refuse_ingest(monkeypatch)
        argv = [command, "--corpus", pipeline["corpus"]]
        for flag in FILE_FLAGS[command]:
            argv += [f"--{flag}", files[flag]]
        assert main(argv) == 1
        assert f"error: {files[bad]} {message}\n" in capsys.readouterr().err

    def test_bad_algorithm_in_config_aborts_sweep_before_ingest(
            self, pipeline, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algorithm = bogus\n")
        _refuse_ingest(monkeypatch)
        assert main(["--config", str(cfg), "sweep", "--corpus", pipeline["corpus"],
                     "--labels", pipeline["labels"], "--out", str(tmp_path / "s")]) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


# per operator file, by the flag that names it: a command that reads it
# and a well-formed first line
NOT_UTF8 = {
    "blacklist": ("label", b"evil.com\tphishing\n"),
    "shortener-map": ("label", b"bit.ly/a\thttp://evil.com/a\n"),
    "shortener-hosts": ("label", b"bit.ly\n"),
    "labels": ("temporal", b"c1\tphishing\tevil.com\n"),
    "features": ("eval", b"post_id,is_target,span_days\n"),
    "config": ("ingest", b"# settings\n"),
}


@pytest.mark.parametrize("bad", NOT_UTF8)
def test_operator_file_not_utf8_names_the_line(pipeline, tmp_path, monkeypatch, capsys,
                                               bad):
    command, first = NOT_UTF8[bad]
    files = {"blacklist": pipeline["blacklist"], "shortener-map": pipeline["map"],
             "shortener-hosts": pipeline["hosts"], "labels": pipeline["labels"],
             "out": str(tmp_path / "out")}
    files[bad] = str(tmp_path / "bad.txt")
    with open(files[bad], "wb") as fh:
        fh.write(first + b"bad\xff line\n" + first)
    _refuse_ingest(monkeypatch)
    if command == "eval":
        argv = ["eval", "--features", files[bad], "--algorithm", "decision_tree",
                "--out", files["out"]]
    elif command == "ingest":
        argv = ["--config", files[bad], "ingest", "--corpus", pipeline["corpus"]]
    else:
        argv = [command, "--corpus", pipeline["corpus"]]
        for flag in FILE_FLAGS[command]:
            argv += [f"--{flag}", files[flag]]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == (f"error: {files[bad]} line 2: 'utf-8' codec can't decode byte 0xff "
                   "in position 3: invalid start byte\n")
    assert out == ""
    assert not os.path.exists(files["out"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("piped, bad", [("blacklist", "blacklist"), ("labels", "labels"),
                                        ("shortener-map", "shortener-hosts")])
def test_pipe_not_utf8_exits_one(pipeline, tmp_path, piped, bad):
    # a pipe cannot be read again to find the line of a byte that is not
    # UTF-8, so that error names the pipe alone, and the fault of a file
    # read beside a pipe is that file's own; the command runs in a child,
    # so that one that waits for a second writer fails the test instead of
    # hanging it
    command, first = NOT_UTF8[bad]
    fifo, bad_file = tmp_path / "piped.fifo", tmp_path / "bad.txt"
    os.mkfifo(fifo)
    files = {"blacklist": pipeline["blacklist"], "shortener-map": pipeline["map"],
             "shortener-hosts": pipeline["hosts"], "labels": pipeline["labels"],
             "out": str(tmp_path / "out"), bad: str(bad_file), piped: str(fifo)}
    text = NOT_UTF8[piped][1]
    if piped == bad:
        text += b"bad\xff line\n"
    else:
        bad_file.write_bytes(first + b"bad\xff line\n")
    argv = [command, "--corpus", pipeline["corpus"]]
    for flag in FILE_FLAGS[command]:
        argv += [f"--{flag}", files[flag]]

    def writer():
        try:
            with open(fifo, "wb") as fh:  # waits for a reader
                fh.write(text)
        except BrokenPipeError:
            pass  # the pipe was not read
    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        done = subprocess.run([sys.executable, "-m", "threadwatch.cli", *argv],
                              env=_child_env(), capture_output=True, text=True, timeout=30)
    finally:
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a waiting writer
        thread.join(10)
    assert not thread.is_alive()
    assert done.returncode == 1
    assert done.stdout == ""
    if piped == bad:
        assert done.stderr.startswith(
            f"error: {fifo}: 'utf-8' codec can't decode byte 0xff in position "), done.stderr
    else:
        assert done.stderr == (f"error: {bad_file} line 2: 'utf-8' codec can't decode "
                               "byte 0xff in position 3: invalid start byte\n")
    assert not os.path.exists(files["out"])


# Run in a fresh interpreter: parses each subcommand's argv (a JSON list
# of lists) or runs main on it, then prints the names of the loaded modules.
_PROBE = """\
import json, sys
from threadwatch import cli
mode, runs = sys.argv[1], json.loads(sys.argv[2])
for argv in runs:
    if mode == "parse":
        cli.build_parser().parse_args(argv)
    elif cli.main(argv):
        sys.exit("exit code not 0")
print(json.dumps(sorted(sys.modules)))
"""


def _child_env(**changes):
    """The environment of a child interpreter that imports this threadwatch;
    a change to None removes the variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(threadwatch.__file__))
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _loaded_after(mode, runs):
    """Whether numpy was loaded, and the threadwatch modules loaded."""
    done = subprocess.run([sys.executable, "-c", _PROBE, mode, json.dumps(runs)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules = json.loads(done.stdout.splitlines()[-1])
    return "numpy" in modules, {m for m in modules if m.startswith("threadwatch.")}


# Run in a fresh interpreter: collects the garbage left by the imports,
# runs main on argv and prints how many unreachable objects the collector
# then finds.
_GARBAGE_PROBE = """\
import gc, sys
from threadwatch import cli
gc.collect()
if cli.main(sys.argv[1:]):
    sys.exit("exit code not 0")
print(gc.collect())
"""


class TestCollector:
    """main pauses the cyclic collector for the whole command."""

    def test_paused_while_the_command_runs(self, pipeline, tmp_path, monkeypatch):
        # label_comments runs after the ingest
        states = []
        label = labeler.label_comments
        monkeypatch.setattr(labeler, "label_comments",
                            lambda *args: states.append(gc.isenabled()) or label(*args))
        enabled = gc.isenabled()
        gc.enable()
        try:
            assert main(["label", "--corpus", pipeline["corpus"],
                         "--blacklist", pipeline["blacklist"],
                         "--shortener-map", pipeline["map"],
                         "--shortener-hosts", pipeline["hosts"],
                         "--out", str(tmp_path / "labels.tsv")]) == 0
            assert gc.isenabled()
        finally:
            (gc.enable if enabled else gc.disable)()
        assert states == [False]

    def test_report_leaves_no_cyclic_garbage_per_record(self, small_synth, bench_synth,
                                                        tmp_path):
        # what a run leaves for the collector comes from parsing and
        # imports; if records formed cycles, ten times the threads would
        # leave more
        left = []
        for result in (small_synth, bench_synth):
            data = tmp_path / str(len(result.corpus.posts))
            data.mkdir()
            paths = {name: str(data / name) for name in
                     ("corpus.jsonl", "blacklist.tsv", "map.tsv", "hosts.txt")}
            synthgen.write_corpus_jsonl(result, paths["corpus.jsonl"])
            synthgen.write_blacklist_tsv(result, paths["blacklist.tsv"])
            synthgen.write_shortener_files(result, paths["map.tsv"], paths["hosts.txt"])
            argv = ["report", "--corpus", paths["corpus.jsonl"],
                    "--blacklist", paths["blacklist.tsv"], "--shortener-map",
                    paths["map.tsv"], "--shortener-hosts", paths["hosts.txt"],
                    "--out", str(data / "report")]
            done = subprocess.run([sys.executable, "-c", _GARBAGE_PROBE, *argv],
                                  env=_child_env(), capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            left.append(int(done.stdout.splitlines()[-1]))
        assert [len(small_synth.corpus.posts), len(bench_synth.corpus.posts)] == [200, 2000]
        assert left[0] == left[1]


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_reader_leaving_early_is_not_an_error(self, pipeline, tmp_path, unbuffered):
        # as in ``threadwatch eval ... | head -1`` once head has exited
        out = tmp_path / "metrics.csv"
        proc = subprocess.Popen(
            [sys.executable, "-m", "threadwatch.cli", "eval",
             "--features", pipeline["features"], "--algorithm", "decision_tree",
             "--out", str(out)],
            env=_child_env(PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # before the interpreter has even started
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        assert out.read_text().startswith("algorithm,precision,recall,f1\n")

    def test_output_file_reader_leaving_early_is_an_error(self, tmp_path, capsys):
        # the corpus, near 1 MB, overfills the pipe, so the write fails
        # whenever the reader closes
        data = tmp_path / "data"
        data.mkdir()
        fifo = data / "corpus.jsonl"
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: os.close(os.open(fifo, os.O_RDONLY)),
                                  daemon=True)
        reader.start()
        assert main(["synth", "--out", str(data)] + SYNTH_ARGS) == 2
        reader.join(timeout=60)
        assert "error: [Errno 32] Broken pipe" in capsys.readouterr().err


class TestLayersLoaded:
    """Each subcommand imports only the layers it runs."""

    def test_parsing_loads_no_numpy(self):
        runs = []
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "subcommand")
        for name, sub in subparsers.choices.items():
            argv = [name]
            for action in sub._actions:
                if action.required:
                    argv += [action.option_strings[0],
                             action.choices[0] if action.choices else "x"]
            runs.append(argv)
        numpy, layers = _loaded_after("parse", runs)
        assert not numpy
        assert layers == {"threadwatch.cli", "threadwatch.corpus", "threadwatch.labeler"}

    @pytest.mark.parametrize("command, extra", [
        ("ingest", set()), ("label", set()), ("temporal", {"threadwatch.temporal"}),
        ("accounts", {"threadwatch.accounts"})])
    def test_run_loads_no_numpy(self, pipeline, tmp_path, command, extra):
        out = str(tmp_path / "out")
        argv = {
            "ingest": ["ingest", "--corpus", pipeline["corpus"]],
            "label": ["label", "--corpus", pipeline["corpus"],
                      "--blacklist", pipeline["blacklist"],
                      "--shortener-map", pipeline["map"],
                      "--shortener-hosts", pipeline["hosts"], "--out", out],
            "temporal": ["temporal", "--corpus", pipeline["corpus"],
                         "--labels", pipeline["labels"], "--out", out],
            "accounts": ["accounts", "--corpus", pipeline["corpus"],
                         "--labels", pipeline["labels"],
                         "--shortener-map", pipeline["map"],
                         "--shortener-hosts", pipeline["hosts"],
                         "--sample-per-page", "30", "--out", out],
        }[command]
        numpy, layers = _loaded_after("run", [argv])
        assert not numpy
        assert layers == {"threadwatch.cli", "threadwatch.corpus",
                          "threadwatch.labeler"} | extra
        if command == "label":
            assert read(out) == read(pipeline["labels"])


class TestLabel:
    def test_label_count_matches_planted(self, pipeline):
        planted = read_planted_jsonl(pipeline["planted"])
        with open(pipeline["labels"], encoding="utf-8") as fh:
            rows = [l for l in fh if l.strip()]
        assert len(rows) == len(planted)

    @staticmethod
    def _with_comments(pipeline, tmp_path, texts):
        """The pipeline corpus plus one attacker comment per text on its
        first post, written under tmp_path; returns the file's path."""
        with open(pipeline["corpus"], encoding="utf-8") as fh:
            text = fh.read()
        post = next(r for r in map(json.loads, text.splitlines()) if r["kind"] == "post")
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            for i, comment in enumerate(texts):
                fh.write(json.dumps({
                    "kind": "comment", "id": f"hostile{i}", "post_id": post["id"],
                    "author_id": "attacker", "created_ts": post["created_ts"] + 60,
                    "like_count": 0, "text": comment}) + "\n")
        return str(path)

    def test_url_tokens_urlsplit_rejects_are_skipped(self, pipeline, tmp_path):
        corpus = self._with_comments(pipeline, tmp_path,
                                     ["see http://[evil/x", "http://a\uff0fb.com/x"])
        out = tmp_path / "labels.tsv"
        assert main(["label", "--corpus", corpus,
                     "--blacklist", pipeline["blacklist"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     "--out", str(out)]) == 0
        assert read(out) == read(pipeline["labels"])

    def test_rejected_shortener_targets_leave_links_unexpanded(self, pipeline, tmp_path):
        corpus = self._with_comments(pipeline, tmp_path,
                                     ["see http://bit.ly/a", "and http://bit.ly/b"])
        shorteners = tmp_path / "shorteners.tsv"
        shorteners.write_bytes(read(pipeline["map"])
                               + b"bit.ly/a\thttp://[x/y\nbit.ly/b\thttp://LOCALHOST/X\n")
        hosts = tmp_path / "shortener_hosts.txt"
        hosts.write_bytes(read(pipeline["hosts"]) + b"bit.ly\n")
        out = tmp_path / "labels.tsv"
        assert main(["label", "--corpus", corpus,
                     "--blacklist", pipeline["blacklist"],
                     "--shortener-map", str(shorteners),
                     "--shortener-hosts", str(hosts),
                     "--out", str(out)]) == 0
        assert read(out) == read(pipeline["labels"])


class TestBlacklistReadTwice:
    """label checks the blacklist before the ingest and indexes the keys
    the corpus reaches after it. A file that changed in between exits 1
    naming it; one that cannot be read twice labels as a regular file
    does; neither ever labels from an empty second read."""

    @staticmethod
    def _label(pipeline, tmp_path, blacklist):
        out = tmp_path / "labels.tsv"
        code = main(["label", "--corpus", pipeline["corpus"], "--blacklist", blacklist,
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"], "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("change", ["appended", "replaced", "same size and time"])
    def test_changed_file_exits_one(self, pipeline, tmp_path, monkeypatch, capsys, change):
        path = tmp_path / "blacklist.tsv"
        text = read(pipeline["blacklist"])
        path.write_bytes(text)
        ingest = cli.ingest

        def changing(corpus_path):
            if change == "appended":
                with open(path, "ab") as fh:
                    fh.write(b"late.com\tads\n")
            elif change == "replaced":  # the same text in a new file
                other = tmp_path / "other.tsv"
                other.write_bytes(text)
                os.replace(other, path)
            else:  # one entry fewer, on the same inode, size and mtime
                before = os.stat(path)
                first, rest = text.split(b"\n", 1)
                path.write_bytes(b" " * len(first) + b"\n" + rest)
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            return ingest(corpus_path)
        monkeypatch.setattr(cli, "ingest", changing)
        code, out = self._label(pipeline, tmp_path, str(path))
        assert code == 1
        assert f"error: {path}: changed between its two reads\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_labels_as_a_file(self, pipeline, tmp_path):
        fifo = tmp_path / "blacklist.fifo"
        os.mkfifo(fifo)
        done = threading.Event()

        def writer():
            # the first reader gets the blacklist, any later one nothing
            text = read(pipeline["blacklist"])
            while not done.is_set():
                with open(fifo, "wb") as fh:  # waits for a reader
                    fh.write(text)
                text = b""
        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            code, out = self._label(pipeline, tmp_path, str(fifo))
        finally:
            done.set()
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a waiting writer
            thread.join(10)
        assert not thread.is_alive()
        assert code == 0
        assert read(out) == read(pipeline["labels"])


class TestObservations:
    """label joins a stream of observations and keeps none; report and
    accounts collect observations once, for the labelled comments only."""

    def test_label_collects_no_observations_and_builds_no_threads(
            self, pipeline, tmp_path, monkeypatch):
        def refused(*args):
            raise AssertionError("label collected observations or built threads")
        monkeypatch.setattr(labeler, "collect_observations", refused)
        for owner in (labeler, cli, corpus):
            monkeypatch.setattr(owner, "build_threads", refused)
        out = tmp_path / "labels.tsv"
        assert main(["label", "--corpus", pipeline["corpus"],
                     "--blacklist", pipeline["blacklist"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     "--out", str(out)]) == 0
        assert read(out) == read(pipeline["labels"])

    @pytest.mark.parametrize("command, source", [
        ("report", ["--blacklist", "blacklist"]), ("accounts", ["--labels", "labels"])])
    def test_campaigns_observe_only_labelled_comments(self, pipeline, tmp_path,
                                                      monkeypatch, command, source):
        observed, collect = [], labeler.collect_observations

        def spy(corp, table):
            observed.append(set(corp.comments))
            return collect(corp, table)
        monkeypatch.setattr(labeler, "collect_observations", spy)
        assert main([command, "--corpus", pipeline["corpus"],
                     source[0], pipeline[source[1]],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     "--out", str(tmp_path / "out")]) == 0
        labelled = {lab.comment_id for lab in labeler.read_labels(pipeline["labels"])}
        assert labelled and observed == [labelled]


class TestFeaturize:
    def test_row_per_thread(self, pipeline):
        with open(pipeline["features"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("post_id,is_target,span_days")
        assert len(lines) - 1 == 120
        assert lines[0].count("dav_") == 12
        # the rows follow the threads, each labelled by whether its post
        # has a labelled comment
        corp = corpus.ingest(pipeline["corpus"]).corpus
        is_target, _ = labeler.label_threads(corp, labeler.read_labels(pipeline["labels"]))
        ids, _, labels = features.read_feature_csv(pipeline["features"])
        assert ids == [thread.post.post_id for thread in corpus.build_threads(corp)]
        assert labels == [is_target[post_id] for post_id in ids] and any(labels)


    @pytest.mark.parametrize("window, t_final, message", [
        ("7", "60", "window 7 does not divide t_final 60"),
        ("0", "60", "window and t_final must be positive"),
        ("5", "-5", "window and t_final must be positive"),
    ])
    def test_bad_window_exit_one_before_any_read(self, tmp_path, capsys, window, t_final,
                                                 message):
        # neither file exists, so reading either would exit 2
        out = tmp_path / "features.csv"
        assert main(["featurize", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--labels", str(tmp_path / "labels.tsv"), "--out", str(out),
                     "--window", window, "--t-final", t_final]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["synth", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["report", "--seed", "-1", "--blacklist", "bl.tsv", "--shortener-map", "map.tsv",
      "--shortener-hosts", "hosts.txt"], "seed must be >= 0, got -1"),
    (["sweep", "--seed", "-3", "--labels", "labels.tsv"], "seed must be >= 0, got -3"),
    (["sweep", "--seed", "-10", "--labels", "labels.tsv"], "seed must be >= 0, got -10"),
    (["accounts", "--seed", "-1", "--labels", "labels.tsv", "--shortener-map", "map.tsv",
      "--shortener-hosts", "hosts.txt"], "seed must be >= 0, got -1"),
    (["eval", "--features", "nope.csv", "--algorithm", "decision_tree", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["eval", "--features", "nope.csv", "--algorithm", "decision_tree",
      "--train-frac", "1.5"], "train_frac must be in (0,1)"),
    (["eval", "--features", "nope.csv", "--algorithm", "decision_tree",
      "--train-frac", "0"], "train_frac must be in (0,1)"),
    (["eval", "--features", "nope.csv", "--algorithm", "decision_tree",
      "--train-frac", "nan"], "train_frac must be in (0,1)"),
], ids=["synth", "report", "sweep-3", "sweep-10", "accounts", "eval-seed", "eval-frac-1.5",
        "eval-frac-0", "eval-frac-nan"])
def test_bad_seed_or_train_frac_exit_one_before_any_read(tmp_path, monkeypatch, capsys,
                                                         argv, message):
    # no input file exists, so reading one would exit 2
    monkeypatch.chdir(tmp_path)
    command, flags = argv[0], argv[1:]
    if command not in ("synth", "eval"):
        flags += ["--corpus", "corpus.jsonl"]
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


class TestTrainEval:
    def test_eval_prints_metrics(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "metrics.csv")
        assert main(["eval", "--features", pipeline["features"],
                     "--algorithm", "decision_tree", "--seed", "0",
                     "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "precision=" in stdout and "f1=" in stdout
        lines = read(out).decode().splitlines()
        assert lines[0] == "algorithm,precision,recall,f1"
        assert lines[1].startswith("decision_tree,")

    def test_eval_empty_test_portion_exit_one(self, pipeline, capsys):
        assert main(["eval", "--features", pipeline["features"],
                     "--algorithm", "decision_tree", "--train-frac", "0.999"]) == 1
        assert "error: train_frac 0.999 leaves" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "unexpected feature CSV header"),
        ("post_id,is_target,span_days\np1,1,2.0\np2\n", "line 3: expected"),
        ("post_id,is_target,span_days,dav_1\np1,1,2.0,3.0\np2,0,1.0\n",
         "features.csv line 3: expected 4 columns as in the header, got 3"),
        ("post_id,is_target,span_days\np1,1,abc\n",
         "features.csv line 2: non-numeric value 'abc' in column span_days"),
    ])
    def test_eval_bad_feature_csv_exit_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "features.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--features", str(path),
                     "--algorithm", "decision_tree"]) == 1
        assert message in capsys.readouterr().err

    def test_eval_is_target_outside_zero_one_exit_one(self, pipeline, tmp_path, capsys):
        lines = read(pipeline["features"]).decode().splitlines()
        post_id, _, *rest = lines[2].split(",")
        lines[2] = ",".join([post_id, "2", *rest])
        path = tmp_path / "features.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "eval.csv"
        assert main(["eval", "--features", str(path), "--algorithm", "decision_tree",
                     "--out", str(out)]) == 1
        assert ("features.csv line 3: is_target must be 0 or 1, got '2'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exit_one(self, pipeline, tmp_path, capsys, command, value):
        lines = read(pipeline["features"]).decode().splitlines()
        post_id, label, _, *rest = lines[2].split(",")
        lines[2] = ",".join([post_id, label, value, *rest])
        path = tmp_path / "features.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--features", str(path), "--algorithm", "naive_bayes",
                     "--out", str(out)]) == 1
        column = lines[0].split(",")[2]
        assert (f"features.csv line 3: non-finite value '{value}' in column {column}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestSweep:
    def test_twelve_horizons(self, pipeline, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--corpus", pipeline["corpus"],
                     "--labels", pipeline["labels"],
                     "--seed", "0", "--out", out]) == 0
        lines = read(out).decode().splitlines()
        assert len(lines) - 1 == 12
        horizons = [int(l.split(",")[0]) for l in lines[1:]]
        assert horizons == list(range(5, 65, 5))

    @pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
    def test_evaluates_the_table_featurize_writes(self, pipeline, tmp_path, algorithm):
        # the rows of featurize's defaults, read back from its CSV, sweep as
        # the command sweeps, and the command writes no table of its own
        out = tmp_path / "sweep"
        out.mkdir()
        assert main(["sweep", "--corpus", pipeline["corpus"], "--labels", pipeline["labels"],
                     "--algorithm", algorithm, "--seed", "7",
                     "--out", str(out / "sweep.csv")]) == 0
        assert os.listdir(out) == ["sweep.csv"]
        _, rows, labels = features.read_feature_csv(pipeline["features"])
        want = tmp_path / "want.csv"
        learn.write_sweep_csv(learn.sweep_horizon(learn.Dataset(rows, labels),
                                                  algorithm=algorithm, seed=7), str(want))
        assert read(out / "sweep.csv") == read(want)


class TestAnalyses:
    def test_temporal_outputs(self, pipeline, tmp_path):
        out = str(tmp_path / "temporal")
        assert main(["temporal", "--corpus", pipeline["corpus"],
                     "--labels", pipeline["labels"], "--out", out]) == 0
        for name in ("relative_positions.csv", "time_since_post.csv",
                     "within_one_day.csv", "inter_attack_intervals.csv",
                     "monthly_heatmap.csv"):
            assert os.path.exists(os.path.join(out, name))

    def test_accounts_outputs(self, pipeline, tmp_path):
        out = str(tmp_path / "accounts")
        assert main(["accounts", "--corpus", pipeline["corpus"],
                     "--labels", pipeline["labels"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     "--seed", "0", "--sample-per-page", "30",
                     "--out", out]) == 0
        for name in ("footprints.csv", "response_stats.csv",
                     "campaign_scatter.csv"):
            assert os.path.exists(os.path.join(out, name))

    def test_accounts_negative_seed_exit_one(self, pipeline, tmp_path, capsys):
        assert main(["accounts", "--corpus", pipeline["corpus"],
                     "--labels", pipeline["labels"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     "--seed", "-1", "--out", str(tmp_path / "accounts")]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--seed", "seed must be >= 0, got -1"),
        ("--sample-per-page", "per_page must be >= 0, got -1")])
    def test_accounts_negative_sample_option_exits_before_ingest(
            self, pipeline, tmp_path, monkeypatch, capsys, flag, message):
        _refuse_ingest(monkeypatch)
        assert main(["accounts", "--corpus", pipeline["corpus"],
                     "--labels", pipeline["labels"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     flag, "-1", "--out", str(tmp_path / "accounts")]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_accounts_groups_authors_once(self, pipeline, tmp_path, monkeypatch):
        calls, group = [], accounts.comments_by_author

        def counted(corpus, account_ids=None):
            calls.append(account_ids)
            return group(corpus, account_ids)
        monkeypatch.setattr(accounts, "comments_by_author", counted)
        out = str(tmp_path / "accounts")
        assert main(["accounts", "--corpus", pipeline["corpus"],
                     "--labels", pipeline["labels"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"],
                     "--seed", "0", "--sample-per-page", "30",
                     "--out", out]) == 0
        [grouped] = calls
        with open(os.path.join(out, "footprints.csv"), encoding="utf-8") as fh:
            listed = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
        assert sorted(grouped) == sorted(listed)


class TestTimestampRange:
    """A created_ts that datetime cannot hold in UTC is a line error at
    ingest, so temporal never aborts on one without naming its line."""

    def test_labelled_comment_out_of_range(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        assert main(["synth", "--out", data, "--seed", "5", "--threads", "80",
                     "--pages", "3"]) == 0
        flags = ["--blacklist", os.path.join(data, "blacklist.tsv"),
                 "--shortener-map", os.path.join(data, "shorteners.tsv"),
                 "--shortener-hosts", os.path.join(data, "shortener_hosts.txt")]
        labels = str(tmp_path / "labels.tsv")
        assert main(["label", "--corpus", os.path.join(data, "corpus.jsonl"), *flags,
                     "--out", labels]) == 0
        target = labeler.read_labels(labels)[0].comment_id
        with open(os.path.join(data, "corpus.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        lineno = next(i for i, r in enumerate(records, start=1)
                      if r["kind"] == "comment" and r["id"] == target)
        records[lineno - 1]["created_ts"] = -10**12
        corpus = str(tmp_path / "skewed.jsonl")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        warning = f"warning: {corpus} line {lineno}: created_ts out of range\n"
        capsys.readouterr()

        # the labels of the unchanged corpus name a comment ingest refused
        assert main(["temporal", "--corpus", corpus, "--labels", labels,
                     "--out", str(tmp_path / "t0")]) == 1
        err = capsys.readouterr().err
        assert warning in err
        assert f"error: labels reference unknown comments: ['{target}']\n" in err

        relabelled = str(tmp_path / "relabelled.tsv")
        assert main(["label", "--corpus", corpus, *flags, "--out", relabelled]) == 0
        assert warning in capsys.readouterr().err
        assert main(["temporal", "--corpus", corpus, "--labels", relabelled,
                     "--out", str(tmp_path / "t1")]) == 0
        err = capsys.readouterr().err
        assert warning in err and "error" not in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\nseed = 3\nthreads = 10\n")
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        out_c = str(tmp_path / "c")
        assert main(["--config", str(cfg), "synth", "--out", out_a]) == 0
        assert main(["synth", "--out", out_b, "--seed", "3", "--threads", "10"]) == 0
        assert read(os.path.join(out_a, "corpus.jsonl")) == \
            read(os.path.join(out_b, "corpus.jsonl"))
        # an explicit flag wins over the config value
        assert main(["--config", str(cfg), "synth", "--out", out_c,
                     "--seed", "4"]) == 0
        assert read(os.path.join(out_c, "corpus.jsonl")) != \
            read(os.path.join(out_a, "corpus.jsonl"))

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# a comment\n\njust words\n")
        assert main(["--config", str(cfg), "synth",
                     "--out", str(tmp_path / "x")]) == 1
        assert f"error: {cfg} line 3: expected key = value\n" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("profile = bogus", "invalid choice: 'bogus'"),
        ("threads = ten", "invalid int value: 'ten'"),
    ])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg), "synth",
                     "--out", str(tmp_path / "x")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_choices_apply(self, pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("smote = maybe\n")
        assert main(["--config", str(cfg), "eval", "--features", pipeline["features"],
                     "--algorithm", "decision_tree"]) == 1

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\ncolour = red\n")
        assert main(["--config", str(cfg), "synth",
                     "--out", str(tmp_path / "x")]) == 1
        assert "colour" in capsys.readouterr().err

    def test_other_subcommands_keys_skipped(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 10\nseed = 0\n")
        out = str(tmp_path / "report")
        assert main(["--config", str(cfg), "report", "--corpus", pipeline["corpus"],
                     "--blacklist", pipeline["blacklist"],
                     "--shortener-map", pipeline["map"],
                     "--shortener-hosts", pipeline["hosts"], "--out", out]) == 0
        assert "report ok: 120 in" in capsys.readouterr().out


# pieces of config lines: keys, "=", comments, spaces, a NUL, line breaks
# other than LF, a byte order mark, and bytes that are not UTF-8
_CONFIG_PIECES = st.sampled_from([
    b"seed", b"t-final", b"=", b" = ", b"3", b"#", b" ", b"\t", b"\r", b"\x0c", b"\x00",
    "\u2028\ufeff".encode(), b"\xff", b"\xc3", b"\xed\xa0\x80"])
_ANY_CONFIG_LINE = (st.binary(max_size=12)
                    | st.lists(_CONFIG_PIECES, max_size=8).map(b"".join))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_ANY_CONFIG_LINE, max_size=8))
def test_config_reader_loads_or_names_the_line_of_any_bytes(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\n".join(lines))
    try:
        config = cli._load_config(str(path))
    except ValueError as exc:
        assert re.match(re.escape(str(path)) + r" line [1-9][0-9]*: ", str(exc)), str(exc)
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in config.items())


class TestDeterminism:
    def test_rerun_byte_identical(self, pipeline, tmp_path):
        snapshots = []
        for run in ("r0", "r1"):
            root = str(tmp_path / run)
            paths = synth_inputs(root)
            labels = os.path.join(root, "labels.tsv")
            assert main(["label", "--corpus", paths["corpus"],
                         "--blacklist", paths["blacklist"],
                         "--shortener-map", paths["map"],
                         "--shortener-hosts", paths["hosts"],
                         "--out", labels]) == 0
            sweep = os.path.join(root, "sweep.csv")
            assert main(["sweep", "--corpus", paths["corpus"],
                         "--labels", labels, "--seed", "0",
                         "--out", sweep]) == 0
            snapshots.append((read(paths["corpus"]), read(paths["blacklist"]),
                              read(labels), read(sweep)))
        assert snapshots[0] == snapshots[1]


def test_report_end_to_end(pipeline, tmp_path):
    out = str(tmp_path / "report")
    assert main(["report", "--corpus", pipeline["corpus"],
                 "--blacklist", pipeline["blacklist"],
                 "--shortener-map", pipeline["map"],
                 "--shortener-hosts", pipeline["hosts"],
                 "--seed", "0", "--out", out]) == 0
    for name in ("labels.tsv", "features.csv", "metrics.csv",
                 "relative_positions.csv", "time_since_post.csv",
                 "inter_attack_intervals.csv", "monthly_heatmap.csv",
                 "campaign_scatter.csv"):
        assert os.path.exists(os.path.join(out, name))
    lines = read(os.path.join(out, "metrics.csv")).decode().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == \
        ["adaboost", "decision_tree", "naive_bayes"]
