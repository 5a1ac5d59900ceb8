"""Thread feature extraction: five macro popularity statistics and the
fixed-length vector of per-window comment counts (the discussion
atmosphere vector, DAV), plus min-max scaling.

A feature row is a list of floats: the macro statistics in
MACRO_COLUMNS order, then the DAV bins dav_1..dav_k. The feature CSV
holds post id, label, MACRO_COLUMNS, dav_1..dav_k.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .corpus import PostThread, at_line, open_text, write_csv

MacroMode = str  # "full" | "censored"

MACRO_COLUMNS = ("span_days", "n_comments", "n_participants", "post_likes",
                 "comment_likes")


class FeatureConfigError(ValueError):
    pass


def n_bins(window_minutes: int, t_final_minutes: int) -> int:
    """The number of DAV bins of a window width and a horizon, both
    checked. A command checks them before it reads any file."""
    if window_minutes <= 0 or t_final_minutes <= 0:
        raise FeatureConfigError("window and t_final must be positive")
    if t_final_minutes % window_minutes:
        raise FeatureConfigError(
            f"window {window_minutes} does not divide t_final {t_final_minutes}")
    return t_final_minutes // window_minutes


def _row(thread: PostThread, window_s: int, final_s: int, n_bins: int,
         censored: bool) -> list[float]:
    """The thread's feature row, from one pass over its comments: the
    macro statistics in MACRO_COLUMNS order, then the DAV.

    DAV bin i (1-based) counts the comments whose offset from the post,
    clamped at zero for clock skew, lies in [(i-1)*window_s, i*window_s)
    seconds; a comment exactly at final_s is excluded. When censored, a
    comment at or after final_s adds to no macro statistic either,
    whatever its place in the list.
    """
    post = thread.post
    t0 = post.created_ts
    last = t0
    authors = set()
    likes = 0
    counts = [0] * n_bins
    for _, _, author, ts, like, _ in thread.comments:
        offset = ts - t0
        if offset < final_s:
            counts[offset // window_s if offset > 0 else 0] += 1
        elif censored:
            continue
        authors.add(author)
        likes += like
        if ts > last:
            last = ts
    # the counts hold exactly the comments before final_s
    n_comments = sum(counts) if censored else len(thread.comments)
    return [(last - t0) / 86400.0, float(n_comments), float(len(authors)),
            float(post.like_count), float(likes), *map(float, counts)]


def fit_minmax(rows) -> np.ndarray:
    """Per-dimension (min, max) over the given rows (training portion),
    as a (d, 2) array."""
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        raise FeatureConfigError("cannot fit scaling on an empty dataset")
    return np.column_stack([rows.min(axis=0), rows.max(axis=0)])


def apply_minmax(rows, stats: np.ndarray) -> np.ndarray:
    """Scale rows to [0,1] with the given stats; constant dimensions map
    to 0 and out-of-range values are clamped."""
    lo, hi = stats[:, 0], stats[:, 1]
    constant = hi == lo
    scaled = (np.asarray(rows, dtype=float) - lo) / np.where(constant, 1.0, hi - lo)
    return np.where(constant, 0.0, np.clip(scaled, 0.0, 1.0))


def featurize_threads(threads: list[PostThread], window_minutes: int = 5,
                      t_final_minutes: int = 60,
                      macro_mode: MacroMode = "full") -> list[list[float]]:
    """One feature row per thread, in thread order.

    macro_mode "censored" computes the macro statistics on the comments
    before t_final, which is the honest near-real-time setting; "full"
    uses the whole thread life.
    """
    if macro_mode not in ("full", "censored"):
        raise FeatureConfigError(f"unknown macro mode {macro_mode!r}")
    bins = n_bins(window_minutes, t_final_minutes)
    window_s, final_s = window_minutes * 60, t_final_minutes * 60
    censored = macro_mode == "censored"
    return [_row(thread, window_s, final_s, bins, censored) for thread in threads]


def write_feature_csv(post_ids: list[str], rows: list[list[float]],
                      labels: list[bool], path: str) -> None:
    """Write one line per post id, with its label and row, under the
    header post_id, is_target, MACRO_COLUMNS, dav_1..dav_k: what
    read_feature_csv reads."""
    if not rows:
        raise FeatureConfigError("no feature rows to write")
    k = len(rows[0]) - len(MACRO_COLUMNS)
    header = ["post_id", "is_target", *MACRO_COLUMNS]
    header += [f"dav_{i}" for i in range(1, k + 1)]
    write_csv(path, header, ([post_id, int(label), *map(repr, row)]
                             for post_id, row, label in zip(post_ids, rows, labels)))


def read_feature_csv(path: str) -> tuple[list[str], list[list[float]], list[bool]]:
    """Returns (post_ids, feature rows, labels). A file with no rows, or a
    row that csv cannot read, whose is_target is not 0 or 1, whose width
    differs from the header's, or that holds a non-numeric or non-finite
    value, raises FeatureConfigError naming the file, and the line and
    column of the fault."""
    with open_text(path, FeatureConfigError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header[:2] != ["post_id", "is_target"]:
                raise FeatureConfigError(f"unexpected feature CSV header in {path}")
            ids, rows, labels = [], [], []
            for rec in reader:
                if len(rec) != len(header):
                    raise FeatureConfigError(at_line(
                        path, f"expected {len(header)} columns as in the header, "
                        f"got {len(rec)}", reader.line_num))
                if rec[1] not in ("0", "1"):
                    raise FeatureConfigError(at_line(
                        path, f"is_target must be 0 or 1, got {rec[1]!r}",
                        reader.line_num))
                try:
                    row = [float(x) for x in rec[2:]]
                except ValueError:
                    for col in range(2, len(rec)):
                        try:
                            float(rec[col])
                        except ValueError:
                            raise FeatureConfigError(at_line(
                                path, f"non-numeric value {rec[col]!r} in column "
                                f"{header[col]}", reader.line_num)) from None
                if not all(map(math.isfinite, row)):
                    col = next(j for j, v in enumerate(row, 2) if not math.isfinite(v))
                    raise FeatureConfigError(at_line(
                        path, f"non-finite value {rec[col]!r} in column {header[col]}",
                        reader.line_num))
                ids.append(rec[0])
                labels.append(rec[1] == "1")
                rows.append(row)
        except csv.Error as exc:
            raise FeatureConfigError(at_line(path, str(exc), reader.line_num)) from None
    if not ids:
        raise FeatureConfigError(f"no feature rows in {path}")
    return ids, rows, labels
