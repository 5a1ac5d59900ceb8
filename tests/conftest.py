import pytest

from threadwatch import corpus, labeler, synthgen
from blacklist_reader import read_blacklist


@pytest.fixture(scope="session")
def small_synth():
    """200-thread corpus with the default mixed strategy blend."""
    return synthgen.generate(synthgen.GeneratorConfig(seed=42, n_threads=200))


@pytest.fixture(scope="session")
def bench_synth():
    """The full 2,000-thread benchmark used by the acceptance suite."""
    return synthgen.generate(synthgen.GeneratorConfig(seed=42, n_threads=2000))


@pytest.fixture(scope="session")
def small_labels(small_synth):
    table = labeler.ShortenerTable(set(small_synth.shortener_hosts),
                                   small_synth.shortener_map)
    observations = labeler.collect_observations(small_synth.corpus, table)
    labels = labeler.join_blacklist(observations, read_blacklist(small_synth.blacklist))
    return observations, labels


@pytest.fixture(scope="session")
def bench_labels(bench_synth):
    table = labeler.ShortenerTable(set(bench_synth.shortener_hosts),
                                   bench_synth.shortener_map)
    observations = labeler.collect_observations(bench_synth.corpus, table)
    labels = labeler.join_blacklist(observations, read_blacklist(bench_synth.blacklist))
    return observations, labels


class _Counted:
    """A compiled pattern whose method calls are recorded in calls."""

    def __init__(self, pattern, calls):
        self._pattern, self._calls = pattern, calls

    def __getattr__(self, name):
        method = getattr(self._pattern, name)

        def counted(*args):
            self._calls.append(name)
            return method(*args)
        return counted


@pytest.fixture
def tokenizer_calls(monkeypatch):
    """The URL tokenizer's calls into its patterns, from now on: a count
    of scans, where a wall-clock bound would depend on the machine."""
    calls = []
    for name in ("_CANDIDATE", "_PATH", "_LABEL_START"):
        monkeypatch.setattr(corpus, name, _Counted(getattr(corpus, name), calls))
    return calls
