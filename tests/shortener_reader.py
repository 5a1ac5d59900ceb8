"""Shortener tables for the tests, read by the rule ``ShortenerTable.load``
reads its two files by."""

from threadwatch.labeler import _read_shortener_table


def shortener_table(hosts=(), mapping=None):
    """The ShortenerTable ``ShortenerTable.load`` gives for a hosts file of
    the hosts and a map file of the (short, target) pairs in order, one
    line each, as ``synthgen.write_shortener_files`` writes them."""
    lines = (f"{short}\t{target}\n" for short, target in (mapping or {}).items())
    return _read_shortener_table(hosts, lines, "<map>")
