"""Three from-scratch classifiers sharing a predict contract:
Gaussian naive Bayes, a CART-style decision tree, and AdaBoost over
depth-1 stumps. Models serialize to self-describing JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np

VARIANCE_FLOOR = 1e-9


class ModelError(Exception):
    pass


def _check_two_classes(y: np.ndarray) -> None:
    if len(np.unique(y)) < 2:
        raise ModelError("training data must contain both classes")


class GaussianNaiveBayes:
    """Per-class, per-dimension Gaussian likelihoods with class priors."""

    variant = "gaussian_naive_bayes"

    def __init__(self):
        self.means = None       # (2, d)
        self.variances = None   # (2, d), floored
        self.priors = None      # (2,)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        _check_two_classes(y)
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=bool)
        self.means = np.vstack([X[~y].mean(axis=0), X[y].mean(axis=0)])
        self.variances = np.vstack([X[~y].var(axis=0), X[y].var(axis=0)])
        self.variances = np.maximum(self.variances, VARIANCE_FLOOR)
        self.priors = np.array([np.mean(~y), np.mean(y)])
        return self

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], 2))
        for cls in (0, 1):
            mu, var = self.means[cls], self.variances[cls]
            ll = -0.5 * (np.log(2 * np.pi * var) + (X - mu) ** 2 / var)
            out[:, cls] = ll.sum(axis=1) + math.log(self.priors[cls] + 1e-300)
        return out

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Posterior probability of the positive class."""
        lj = self._log_joint(X)
        lj -= lj.max(axis=1, keepdims=True)
        p = np.exp(lj)
        return p[:, 1] / p.sum(axis=1)

    def to_dict(self) -> dict:
        return {"variant": self.variant,
                "means": self.means.tolist(),
                "variances": self.variances.tolist(),
                "priors": self.priors.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianNaiveBayes":
        m = cls()
        m.means = np.array(d["means"])
        m.variances = np.array(d["variances"])
        m.priors = np.array(d["priors"])
        return m


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p * p))


class DecisionTree:
    """CART-style binary tree: greedy Gini splits at midpoints between
    sorted distinct values; stops at pure nodes, max depth, or when no
    split reduces the weighted impurity. Equal gains resolve to the
    lowest dimension, then the lowest threshold."""

    variant = "decision_tree"

    def __init__(self, max_depth: int = 20, min_leaf: int = 1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        _check_two_classes(y)
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=bool)
        self.root = self._grow(X, y, depth=0)
        return self

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n, d = X.shape
        parent = _gini(np.array([np.sum(~y), np.sum(y)]))
        best = None  # (impurity, dim, threshold)
        y_int = y.astype(int)
        for dim in range(d):
            order = np.argsort(X[:, dim], kind="stable")
            xs = X[order, dim]
            ys = y_int[order]
            pos_left = np.cumsum(ys)
            total_pos = pos_left[-1]
            # candidate cuts between adjacent distinct values
            cut_idx = np.nonzero(xs[1:] > xs[:-1])[0]
            for i in cut_idx:
                nl = i + 1
                nr = n - nl
                if nl < self.min_leaf or nr < self.min_leaf:
                    continue
                pl = pos_left[i]
                left = _gini(np.array([nl - pl, pl]))
                right = _gini(np.array([nr - (total_pos - pl), total_pos - pl]))
                w = (nl * left + nr * right) / n
                if w < parent - 1e-12:
                    thr = (xs[i] + xs[i + 1]) / 2.0
                    if best is None or w < best[0] - 1e-12:
                        best = (w, dim, thr)
                    # ties: keep the earlier (lower dim, lower threshold)
        return best

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> dict:
        n_pos = int(np.sum(y))
        n = len(y)
        purity_pos = n_pos / n
        if n_pos == 0 or n_pos == n or depth >= self.max_depth:
            return {"leaf": True, "cls": purity_pos >= 0.5, "score": purity_pos}
        split = self._best_split(X, y)
        if split is None:
            return {"leaf": True, "cls": purity_pos >= 0.5, "score": purity_pos}
        _, dim, thr = split
        mask = X[:, dim] <= thr
        return {
            "leaf": False, "dim": dim, "threshold": thr,
            "left": self._grow(X[mask], y[mask], depth + 1),
            "right": self._grow(X[~mask], y[~mask], depth + 1),
        }

    def _leaf(self, x: np.ndarray) -> dict:
        node = self.root
        while not node["leaf"]:
            node = node["left"] if x[node["dim"]] <= node["threshold"] else node["right"]
        return node

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Positive-class fraction of the reached leaf."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self._leaf(x)["score"] for x in X])

    def to_dict(self) -> dict:
        return {"variant": self.variant, "max_depth": self.max_depth,
                "min_leaf": self.min_leaf, "root": self.root}

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTree":
        m = cls(d["max_depth"], d["min_leaf"])
        m.root = d["root"]
        return m


class AdaBoost:
    """Boosted depth-1 stumps with exponential reweighting.

    Stops early when the best stump's weighted error reaches 0.5 or
    hits 0 (the perfect stump is kept)."""

    variant = "adaboost"

    def __init__(self, n_rounds: int = 50):
        self.n_rounds = n_rounds
        self.stumps: list[tuple[int, float, int]] = []  # (dim, threshold, polarity)
        self.alphas: list[float] = []

    @staticmethod
    def _best_stump(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray):
        """Minimum weighted error stump. polarity +1 predicts positive
        for values > threshold; -1 the reverse."""
        n, d = X.shape
        best = (np.inf, 0, 0.0, 1)  # err, dim, thr, polarity
        for dim in range(d):
            order = np.argsort(X[:, dim], kind="stable")
            xs = X[order, dim]
            wo = w[order]
            pos = y_pm[order] > 0
            cum_w = np.cumsum(wo)
            cum_pos = np.cumsum(wo * pos)
            total_w = cum_w[-1]
            total_pos = cum_pos[-1]
            cut_idx = np.nonzero(xs[1:] > xs[:-1])[0]
            if cut_idx.size == 0:
                continue
            # polarity +1 predicts positive strictly above the threshold,
            # so it misses positives on the left and negatives on the right
            pos_left = cum_pos[cut_idx]
            neg_left = cum_w[cut_idx] - pos_left
            err_plus = pos_left + ((total_w - total_pos) - neg_left)
            err_minus = total_w - err_plus
            for errs, pol in ((err_plus, 1), (err_minus, -1)):
                i = int(np.argmin(errs))  # first minimum = lowest threshold
                if errs[i] < best[0] - 1e-15:
                    thr = (xs[cut_idx[i]] + xs[cut_idx[i] + 1]) / 2.0
                    best = (float(errs[i]), dim, float(thr), pol)
        return best

    @staticmethod
    def _stump_predict(X: np.ndarray, dim: int, thr: float, polarity: int) -> np.ndarray:
        raw = np.where(X[:, dim] > thr, 1, -1)
        return raw * polarity

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaBoost":
        _check_two_classes(y)
        X = np.asarray(X, dtype=float)
        y_pm = np.where(np.asarray(y, dtype=bool), 1, -1)
        n = len(y_pm)
        w = np.full(n, 1.0 / n)
        self.stumps, self.alphas = [], []
        for _ in range(self.n_rounds):
            err, dim, thr, pol = self._best_stump(X, y_pm, w)
            if err >= 0.5:
                break
            err = max(err, 1e-12)
            alpha = 0.5 * math.log((1 - err) / err)
            self.stumps.append((dim, float(thr), pol))
            self.alphas.append(alpha)
            if err <= 1e-12:
                break
            pred = self._stump_predict(X, dim, thr, pol)
            w *= np.exp(-alpha * y_pm * pred)
            w /= w.sum()
        if not self.stumps:
            raise ModelError("no stump achieved weighted error below 0.5")
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Normalized margin mapped into [0,1]: (sum(a*h) + sum(a)) / (2*sum(a))."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        margin = np.zeros(X.shape[0])
        for (dim, thr, pol), alpha in zip(self.stumps, self.alphas):
            margin += alpha * self._stump_predict(X, dim, thr, pol)
        total = sum(self.alphas)
        return (margin + total) / (2 * total)

    def to_dict(self) -> dict:
        return {"variant": self.variant, "n_rounds": self.n_rounds,
                "stumps": [list(s) for s in self.stumps],
                "alphas": self.alphas}

    @classmethod
    def from_dict(cls, d: dict) -> "AdaBoost":
        m = cls(d["n_rounds"])
        m.stumps = [(int(s[0]), float(s[1]), int(s[2])) for s in d["stumps"]]
        m.alphas = [float(a) for a in d["alphas"]]
        return m


_VARIANTS = {c.variant: c for c in (GaussianNaiveBayes, DecisionTree, AdaBoost)}

ALGORITHMS = {
    "naive_bayes": GaussianNaiveBayes,
    "decision_tree": DecisionTree,
    "adaboost": AdaBoost,
}


def predict(model, x) -> tuple[bool, float]:
    """Predicted class and positive-class score in [0,1] for one vector."""
    x = np.asarray(x, dtype=float)
    expected = _model_dim(model)
    if expected is not None and x.shape[-1] != expected:
        raise ModelError(f"dimension mismatch: model expects {expected}, got {x.shape[-1]}")
    score = float(model.predict_scores(x.reshape(1, -1))[0])
    return score >= 0.5, score


def _model_dim(model) -> int | None:
    if isinstance(model, GaussianNaiveBayes) and model.means is not None:
        return model.means.shape[1]
    return None


def save_model(model, path: str, **extra) -> None:
    """Write the model's JSON, with any extra top-level entries."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**model.to_dict(), **extra}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    try:
        return _VARIANTS[d["variant"]].from_dict(d)
    except KeyError as exc:
        raise ModelError(f"unknown model variant in {path}") from exc
