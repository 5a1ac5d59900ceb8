"""Output checks for each benchmark workload.

Each check reads the files one run wrote and returns (problems, f1): a
list of human-readable failures, empty when the run is correct, and the
lowest F1 among the workload's quality checks.
"""

from __future__ import annotations

import csv
import hashlib
import os

from threadwatch import labeler, synthgen

ALGORITHMS = ("adaboost", "decision_tree", "naive_bayes")

# acceptance criterion 4: the decision tree reaches F1 >= 0.95 at 2k threads
MIN_TREE_F1 = 0.95

REPORT_FILES = ("campaign_scatter.csv", "features.csv", "inter_attack_intervals.csv",
                "labels.tsv", "metrics.csv", "monthly_heatmap.csv",
                "relative_positions.csv", "time_since_post.csv")

ACCOUNTS_FILES = ("campaign_scatter.csv", "footprints.csv", "response_stats.csv")


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _missing(out: str, names) -> list[str]:
    return [f"missing output {name}" for name in names
            if not os.path.isfile(os.path.join(out, name))]


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_labels(labels_path: str, planted_path: str) -> tuple[list[str], float]:
    """Labels must match the planted attacks exactly (precision = recall =
    1). With decoy blacklist keys this also proves no decoy matched."""
    try:
        labels = labeler.read_labels(labels_path)
    except (OSError, labeler.LabelError) as exc:
        return [f"unreadable labels: {exc}"], 0.0
    rep = synthgen.verify_planted(labels, synthgen.read_planted_jsonl(planted_path))
    problems = []
    if rep.precision != 1.0 or rep.recall != 1.0:
        problems.append(f"labels vs planted truth: precision {rep.precision:.4f}, "
                        f"recall {rep.recall:.4f}")
    return problems, _f1(rep.precision, rep.recall)


def check_report(inputs: str, out: str) -> tuple[list[str], float]:
    problems = _missing(out, REPORT_FILES)
    if problems:
        return problems, 0.0
    problems, _ = check_labels(os.path.join(out, "labels.tsv"),
                               os.path.join(inputs, "planted.jsonl"))
    f1 = {row["algorithm"]: float(row["f1"])
          for row in _rows(os.path.join(out, "metrics.csv"))}
    if sorted(f1) != list(ALGORITHMS):
        problems.append(f"metrics.csv rows {sorted(f1)}, expected {list(ALGORITHMS)}")
        return problems, 0.0
    if f1["decision_tree"] < MIN_TREE_F1:
        problems.append(f"decision_tree F1 {f1['decision_tree']:.6f} < {MIN_TREE_F1}")
    return problems, min(f1.values())


def check_accounts(inputs: str, out: str) -> tuple[list[str], float]:
    """Attacker rows equal the planted attacker accounts, and every
    sampled account has exactly one response-stats row."""
    problems = _missing(out, ACCOUNTS_FILES)
    if problems:
        return problems, 0.0
    planted = {p.account_id
               for p in synthgen.read_planted_jsonl(os.path.join(inputs, "planted.jsonl"))}
    footprints = [(r["account_id"], r["group"])
                  for r in _rows(os.path.join(out, "footprints.csv"))]
    responses = [(r["account_id"], r["group"])
                 for r in _rows(os.path.join(out, "response_stats.csv"))]
    attackers = [aid for aid, group in footprints if group == "attacker"]
    normals = [aid for aid, group in footprints if group == "normal"]
    if sorted(attackers) != sorted(planted):
        problems.append(f"{len(attackers)} attacker rows, {len(planted)} planted attackers")
    if planted & set(normals):
        problems.append("planted attackers sampled as normal accounts")
    if len(set(footprints)) != len(footprints):
        problems.append("duplicate account rows in footprints.csv")
    if responses != footprints:
        problems.append(f"{len(responses)} response_stats rows for "
                        f"{len(footprints)} sampled accounts")
    hit = len(planted & set(attackers))
    precision = hit / len(attackers) if attackers else 0.0
    recall = hit / len(planted) if planted else 0.0
    return problems, _f1(precision, recall)


def check_label_dense(inputs: str, out: str) -> tuple[list[str], float]:
    return check_labels(os.path.join(out, "labels.tsv"),
                        os.path.join(inputs, "planted.jsonl"))


def tree_digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out
