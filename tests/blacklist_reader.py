"""Blacklists for the tests, read by the rule ``load_blacklist`` reads a
file by, and the independent key rule the join oracles apply to the
(key, category) entries they compare against."""

import re

from threadwatch.labeler import _read_blacklist


def read_blacklist(entries):
    """The Blacklist ``load_blacklist`` gives for a file of the (key,
    category) entries in order, one line each, as
    ``synthgen.write_blacklist_tsv`` writes them."""
    return _read_blacklist((f"{key}\t{category.value.lower()}\n"
                            for key, category in entries), "<entries>")


def reference_key(key):
    """A blacklist key as the reader indexes it, by a rule of its own: the
    key loses its spaces and scheme, and only its host is lowercased."""
    key = re.sub(r"(?i)^https?://", "", key.strip())
    host, slash, path = key.partition("/")
    return host.lower() + slash + path
