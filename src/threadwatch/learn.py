"""Training and evaluation: SMOTE balancing, the 75/25 split protocol,
weighted precision/recall/F1, and the F1-vs-horizon sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import models
from .corpus import write_csv
from .features import MACRO_COLUMNS, apply_minmax, fit_minmax


class LearnError(ValueError):
    pass


@dataclass
class Dataset:
    X: np.ndarray  # (n, d)
    y: np.ndarray  # (n,) bool

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=bool)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise LearnError("X and y shapes are inconsistent")


@dataclass
class Metrics:
    precision: float
    recall: float
    f1: float
    per_class: dict  # class -> precision, recall, f1 and support


def smote(minority: np.ndarray, k: int = 5, amount_pct: int = 100,
          seed: int = 0) -> np.ndarray:
    """Synthetic minority samples by interpolating toward k-NN neighbors.

    amount_pct=100 emits as many synthetic points as there are minority
    points; each synthetic point is x + u*(nn - x) with u ~ Uniform(0,1).
    """
    minority = np.asarray(minority, dtype=float)
    n = len(minority)
    if k < 1:
        raise LearnError("k must be >= 1")
    if n <= k:
        raise LearnError(
            f"minority size {n} must exceed k={k}; use a smaller k")
    rng = np.random.default_rng(seed)
    total = int(round(n * amount_pct / 100.0))
    # one row of distances at a time; neighbor lists exclude the point
    # itself, and equal distances keep the lower index
    neighbors = np.empty((n, k), dtype=int)
    for i in range(n):
        dist = np.sqrt(((minority - minority[i]) ** 2).sum(axis=1))
        dist[i] = np.inf
        neighbors[i] = np.argsort(dist, kind="stable")[:k]
    out = np.empty((total, minority.shape[1]))
    for s in range(total):
        i = s % n
        nn = minority[neighbors[i][rng.integers(0, k)]]
        lam = rng.uniform(0.0, 1.0)
        out[s] = minority[i] + lam * (nn - minority[i])
    return out


def train(algorithm: str, data: Dataset):
    """Fit one of the three classifier variants. All three are
    deterministic, so no seed is needed."""
    try:
        cls = models.ALGORITHMS[algorithm]
    except KeyError:
        raise LearnError(f"unknown algorithm {algorithm!r}; "
                         f"choose from {sorted(models.ALGORITHMS)}") from None
    return cls().fit(data.X, data.y)


def metrics_from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> Metrics:
    """Weighted-average precision/recall/F1 across the two classes.

    Undefined precision/recall (empty denominator) is taken as 0 with a
    warning, matching the single-class-test convention."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    tp = int(np.sum(y_true & y_pred))
    fn = int(np.sum(y_true & ~y_pred))
    fp = int(np.sum(~y_true & y_pred))
    tn = int(np.sum(~y_true & ~y_pred))
    per_class = {}
    for cls, (tp_c, fp_c, fn_c) in {True: (tp, fp, fn), False: (tn, fn, fp)}.items():
        support = tp_c + fn_c
        if tp_c + fp_c == 0:
            if support:
                warnings.warn(f"precision undefined for class {cls}; using 0")
            prec = 0.0
        else:
            prec = tp_c / (tp_c + fp_c)
        rec = tp_c / support if support else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_class[cls] = {"precision": prec, "recall": rec, "f1": f1,
                          "support": support}
    n = len(y_true)
    weighted = {m: sum(per_class[c][m] * per_class[c]["support"] / n
                       for c in (False, True))
                for m in ("precision", "recall", "f1")}
    return Metrics(precision=weighted["precision"], recall=weighted["recall"],
                   f1=weighted["f1"], per_class=per_class)


def _balance_with_smote(X: np.ndarray, y: np.ndarray,
                        seed: int) -> tuple[np.ndarray, np.ndarray]:
    n_pos, n_neg = int(np.sum(y)), int(np.sum(~y))
    if n_pos == n_neg or min(n_pos, n_neg) == 0:
        return X, y
    minority_is_pos = n_pos < n_neg
    minority = X[y] if minority_is_pos else X[~y]
    need = abs(n_neg - n_pos)
    k_eff = min(5, len(minority) - 1)
    if k_eff < 1:
        warnings.warn("minority class too small for SMOTE; skipping balancing")
        return X, y
    amount_pct = int(round(100.0 * need / len(minority)))
    if amount_pct == 0:
        return X, y
    synth = smote(minority, k=k_eff, amount_pct=amount_pct, seed=seed)
    X_out = np.vstack([X, synth])
    y_out = np.concatenate([y, np.full(len(synth), minority_is_pos)])
    return X_out, y_out


def evaluate_split(dataset: Dataset, algorithms: list[str],
                   train_frac: float = 0.75, balance: bool = True,
                   seed: int = 0) -> list[Metrics]:
    """Seeded shuffle-split evaluation, one Metrics per algorithm, all
    on the same split.

    SMOTE (when enabled) and the min-max scaling statistics touch only
    the training portion; the test portion is scaled with the training
    statistics and left otherwise untouched.
    """
    n = len(dataset.y)
    if n < 8:
        raise LearnError("dataset too small to split (need >= 8 rows)")
    if not 0.0 < train_frac < 1.0:
        raise LearnError("train_frac must be in (0,1)")
    n_train = int(round(n * train_frac))
    if not 0 < n_train < n:
        raise LearnError(f"train_frac {train_frac} leaves the train or test "
                         f"portion of {n} rows empty")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    train_idx, test_idx = order[:n_train], order[n_train:]

    stats = fit_minmax(dataset.X[train_idx])
    X_train = apply_minmax(dataset.X[train_idx], stats)
    X_test = apply_minmax(dataset.X[test_idx], stats)
    y_train, y_test = dataset.y[train_idx], dataset.y[test_idx]

    if y_test.all() or not y_test.any():
        warnings.warn("test portion contains a single class; "
                      "undefined precision reported as 0")
    if balance:
        X_train, y_train = _balance_with_smote(X_train, y_train, seed)

    train_set = Dataset(X_train, y_train)
    return [metrics_from_predictions(
                y_test, train(algorithm, train_set).predict_scores(X_test) >= 0.5)
            for algorithm in algorithms]


def sweep_horizon(dataset: Dataset, algorithm: str = "decision_tree",
                  seed: int = 0) -> list[tuple[int, Metrics]]:
    """Evaluate the per-window counts alone at each horizon from 5 to 60
    minutes in steps of 5, with the default split and balancing.

    The rows are those ``featurize`` writes by default (5-minute windows up
    to 60 minutes); the counts up to a horizon h are their first h // 5 DAV
    columns. Each horizon uses an independently derived seed (seed +
    horizon) so results do not depend on evaluation order.
    """
    counts = dataset.X[:, len(MACRO_COLUMNS):]
    if counts.shape[1] < 12:
        raise LearnError(f"the sweep needs at least 12 DAV columns, got {counts.shape[1]}")
    results = []
    for horizon in range(5, 65, 5):
        [metrics] = evaluate_split(Dataset(counts[:, :horizon // 5], dataset.y),
                                   [algorithm], seed=seed + horizon)
        results.append((horizon, metrics))
    return results


def write_sweep_csv(results: list[tuple[int, Metrics]], path: str) -> None:
    write_csv(path, ["horizon_min", "precision", "recall", "f1"],
              ([horizon, f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f1:.6f}"]
               for horizon, m in results))
