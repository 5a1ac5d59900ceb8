"""Three from-scratch classifiers sharing one contract: Gaussian naive
Bayes, a CART-style decision tree, and AdaBoost over depth-1 stumps.
Each has ``fit`` and ``predict_scores``, which rejects rows of any
width but the training width.

Both tree learners sort each feature column once per fit, as in SLIQ
(Mehta, Agrawal & Rissanen, EDBT 1996): AdaBoost reuses the orders in
every round, and the decision tree filters them down to each node's
rows, which keeps them the stable sort of that node's column.
"""

from __future__ import annotations

import math

import numpy as np

VARIANCE_FLOOR = 1e-9


class ModelError(ValueError):
    pass


def _labels(y) -> np.ndarray:
    """The training labels as a bool array. Each label must be 0 or 1
    (False or True), and both classes must occur."""
    y = np.asarray(y)
    binary = (y == 0) | (y == 1)
    if not binary.all():
        raise ModelError(f"labels must be 0 or 1, got {y[~binary][0].item()!r}")
    y = y.astype(bool)
    if y.all() or not y.any():
        raise ModelError("training data must contain both classes")
    return y


def _rows(X, width: int) -> np.ndarray:
    """X as a 2-D float array of width-wide rows; a single vector is one row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != width:
        raise ModelError(f"dimension mismatch: model expects {width}, got {X.shape[1]}")
    return X


class GaussianNaiveBayes:
    """Per-class, per-dimension Gaussian likelihoods with class priors."""

    def __init__(self):
        self.means = None       # (2, d)
        self.variances = None   # (2, d), floored
        self.priors = None      # (2,)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        y = _labels(y)
        X = np.asarray(X, dtype=float)
        self.means = np.vstack([X[~y].mean(axis=0), X[y].mean(axis=0)])
        self.variances = np.vstack([X[~y].var(axis=0), X[y].var(axis=0)])
        self.variances = np.maximum(self.variances, VARIANCE_FLOOR)
        self.priors = np.array([np.mean(~y), np.mean(y)])
        return self

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0], 2))
        for cls in (0, 1):
            mu, var = self.means[cls], self.variances[cls]
            ll = -0.5 * (np.log(2 * np.pi * var) + (X - mu) ** 2 / var)
            out[:, cls] = ll.sum(axis=1) + math.log(self.priors[cls] + 1e-300)
        return out

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Posterior probability of the positive class."""
        lj = self._log_joint(_rows(X, self.means.shape[1]))
        lj -= lj.max(axis=1, keepdims=True)
        p = np.exp(lj)
        return p[:, 1] / p.sum(axis=1)


def _gini(neg, pos, n):
    """Gini impurity of a node with neg negatives and pos positives out
    of n > 0 rows; elementwise over arrays."""
    p0, p1 = neg / n, pos / n
    return 1.0 - (p0 * p0 + p1 * p1)


def _column_orders(X: np.ndarray) -> np.ndarray:
    """(d, n) array whose row j is the stable sort order of column j;
    the one sort of each column in a fit."""
    orders = np.empty(X.shape[::-1], dtype=np.intp)
    for j, column in enumerate(X.T):
        orders[j] = np.argsort(column, kind="stable")
    return orders


def _cuts(x: np.ndarray, order: np.ndarray):
    """Candidate cuts of column x, given the stable sort order of the
    rows in question (a row of ``_column_orders``, or one filtered to a
    subset of rows, which is the subset's own stable sort order): the
    midpoints between adjacent distinct values, and for each cut the
    position in ``order`` of the last row left of it."""
    xs = x[order]
    idx = np.nonzero(xs[1:] > xs[:-1])[0]
    return (xs[idx] + xs[idx + 1]) / 2.0, idx


def _keep(orders: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of ``orders`` filtered to the row indices where the
    boolean ``rows`` holds. Each row of ``orders`` lists the same
    indices, so each keeps the same number, and filtering keeps each
    the stable sort order of its column over the rows kept."""
    return orders[rows[orders]].reshape(len(orders), -1)


class DecisionTree:
    """CART-style binary tree: greedy Gini splits at midpoints between
    sorted distinct values; stops at pure nodes, max depth, or when no
    split reduces the weighted impurity. Equal gains resolve to the
    lowest dimension, then the lowest threshold."""

    max_depth = 20

    def __init__(self):
        self.root = None
        self.n_features = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        y = _labels(y)
        X = np.asarray(X, dtype=float)
        self.n_features = X.shape[1]
        self.root = self._grow(X, y, _column_orders(X), depth=0)
        return self

    def _best_split(self, X: np.ndarray, y: np.ndarray, orders: np.ndarray, n_pos: int):
        """Best cut of the node whose rows each row of ``orders`` lists
        in its column's stable sort order; y holds bool labels."""
        n = orders.shape[1]
        # a cut must beat the parent, then each later cut the best so far,
        # by 1e-12; ties keep the earlier (lower dim, lower threshold)
        limit = _gini(n - n_pos, n_pos, n) - 1e-12
        best = None  # (impurity, dim, threshold)
        for dim, order in enumerate(orders):
            thresholds, idx = _cuts(X[:, dim], order)
            pos = np.cumsum(y[order])
            nl, pl = idx + 1, pos[idx]
            nr, pr = n - nl, pos[-1] - pl
            w = (nl * _gini(nl - pl, pl, nl) + nr * _gini(nr - pr, pr, nr)) / n
            for i in np.nonzero(w < limit)[0]:
                if w[i] < limit:
                    best, limit = (w[i], dim, thresholds[i]), w[i] - 1e-12
        return best

    def _grow(self, X: np.ndarray, y: np.ndarray, orders: np.ndarray, depth: int) -> dict:
        n = orders.shape[1]
        n_pos = int(np.sum(y[orders[0]]))
        purity_pos = n_pos / n
        split = None
        if 0 < n_pos < n and depth < self.max_depth:
            split = self._best_split(X, y, orders, n_pos)
        if split is None:
            return {"leaf": True, "score": purity_pos}
        _, dim, thr = split
        go_left = X[:, dim] <= thr
        return {
            "leaf": False, "dim": dim, "threshold": thr,
            "left": self._grow(X, y, _keep(orders, go_left), depth + 1),
            "right": self._grow(X, y, _keep(orders, ~go_left), depth + 1),
        }

    def _leaf(self, x: np.ndarray) -> dict:
        node = self.root
        while not node["leaf"]:
            node = node["left"] if x[node["dim"]] <= node["threshold"] else node["right"]
        return node

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Positive-class fraction of the reached leaf."""
        return np.array([self._leaf(x)["score"] for x in _rows(X, self.n_features)])


class AdaBoost:
    """Boosted depth-1 stumps with exponential reweighting.

    Stops early when the best stump's weighted error reaches 0.5 or
    hits 0 (the perfect stump is kept)."""

    n_rounds = 50

    def __init__(self):
        self.stumps: list[tuple[int, float, int]] = []  # (dim, threshold, polarity)
        self.alphas: list[float] = []
        self.n_features = None

    @staticmethod
    def _best_stump(columns: list, w_pos: np.ndarray, w: np.ndarray):
        """Minimum weighted error stump over ``columns``, one
        ``(dim, order, thresholds, idx)`` per column with a cut, where
        ``thresholds, idx = _cuts(X[:, dim], order)``. polarity +1
        predicts positive for values > threshold; -1 the reverse."""
        best = (np.inf, 0, 0.0, 1)  # err, dim, thr, polarity
        for dim, order, thresholds, idx in columns:
            cum_pos, cum_w = np.cumsum(w_pos[order]), np.cumsum(w[order])
            pos_left, total_pos = cum_pos[idx], cum_pos[-1]
            w_left, total_w = cum_w[idx], cum_w[-1]
            # polarity +1 predicts positive strictly above the threshold,
            # so it misses positives on the left and negatives on the right
            neg_left = w_left - pos_left
            err_plus = pos_left + ((total_w - total_pos) - neg_left)
            err_minus = total_w - err_plus
            for errs, pol in ((err_plus, 1), (err_minus, -1)):
                i = int(np.argmin(errs))  # first minimum = lowest threshold
                if errs[i] < best[0] - 1e-15:
                    best = (float(errs[i]), dim, float(thresholds[i]), pol)
        return best

    @staticmethod
    def _stump_predict(X: np.ndarray, dim: int, thr: float, polarity: int) -> np.ndarray:
        raw = np.where(X[:, dim] > thr, 1, -1)
        return raw * polarity

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaBoost":
        y_pm = np.where(_labels(y), 1, -1)
        X = np.asarray(X, dtype=float)
        self.n_features = X.shape[1]
        n = len(y_pm)
        w = np.full(n, 1.0 / n)
        # the cuts depend on the values only; each round reweighs them
        columns = []
        for dim, order in enumerate(_column_orders(X)):
            thresholds, idx = _cuts(X[:, dim], order)
            if idx.size:
                columns.append((dim, order, thresholds, idx))
        self.stumps, self.alphas = [], []
        for _ in range(self.n_rounds):
            err, dim, thr, pol = self._best_stump(columns, w * (y_pm > 0), w)
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
        X = _rows(X, self.n_features)
        margin = np.zeros(X.shape[0])
        for (dim, thr, pol), alpha in zip(self.stumps, self.alphas):
            margin += alpha * self._stump_predict(X, dim, thr, pol)
        total = sum(self.alphas)
        return (margin + total) / (2 * total)


ALGORITHMS = {
    "naive_bayes": GaussianNaiveBayes,
    "decision_tree": DecisionTree,
    "adaboost": AdaBoost,
}
