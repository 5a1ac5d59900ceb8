import math

import numpy as np
import pytest

from threadwatch import cli, features, learn, models
from threadwatch.corpus import build_threads
from threadwatch.labeler import label_threads
from threadwatch.learn import (Dataset, LearnError, evaluate_split,
                               metrics_from_predictions, smote, train)
from threadwatch.models import AdaBoost, DecisionTree, ModelError


def planted_separable(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, 3))
    y = X[:, 1] > 0.0
    return Dataset(X, y)


def fit_state(model):
    """What predict_scores reads of a fitted model, as values that
    compare with ==."""
    if isinstance(model, DecisionTree):
        return model.root
    if isinstance(model, AdaBoost):
        return model.stumps, model.alphas
    return model.means.tolist(), model.variances.tolist(), model.priors.tolist()


class TestSmote:
    def test_forced_midpoint(self, monkeypatch):
        class FakeRng:
            def integers(self, lo, hi):
                return 0

            def uniform(self, lo, hi):
                return 0.5

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FakeRng())
        out = smote(np.array([[0.0, 0.0], [1.0, 1.0]]), k=1, amount_pct=50, seed=0)
        assert out.shape == (1, 2)
        assert np.allclose(out[0], [0.5, 0.5])

    def test_amount_pct(self):
        minority = np.random.default_rng(0).normal(size=(50, 2))
        assert smote(minority, k=3, amount_pct=200, seed=1).shape == (100, 2)
        assert smote(minority, k=3, amount_pct=100, seed=1).shape == (50, 2)

    def test_small_minority_rejected(self):
        with pytest.raises(LearnError, match="smaller k"):
            smote(np.zeros((3, 2)), k=5)

    def test_synthetic_points_on_neighbor_segments(self):
        rng = np.random.default_rng(3)
        minority = rng.normal(size=(30, 4))
        out = smote(minority, k=5, amount_pct=300, seed=7)
        # each synthetic point must lie on a segment from some minority
        # point to one of its 5 nearest neighbors
        d = np.linalg.norm(minority[:, None] - minority[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        nn = np.argsort(d, axis=1)[:, :5]
        for s in out:
            on_segment = False
            for i in range(len(minority)):
                for j in nn[i]:
                    a, b = minority[i], minority[j]
                    seg = b - a
                    denom = seg @ seg
                    lam = (s - a) @ seg / denom
                    if -1e-9 <= lam <= 1 + 1e-9 and np.allclose(a + lam * seg, s, atol=1e-8):
                        on_segment = True
                        break
                if on_segment:
                    break
            assert on_segment

    def test_determinism(self):
        minority = np.random.default_rng(5).normal(size=(20, 2))
        a = smote(minority, k=3, amount_pct=150, seed=11)
        b = smote(minority, k=3, amount_pct=150, seed=11)
        assert np.array_equal(a, b)


class TestTrain:
    def test_tree_memorizes_consistent_data(self):
        data = planted_separable()
        model = train("decision_tree", data)
        pred = model.predict_scores(data.X) >= 0.5
        assert np.array_equal(pred, data.y)

    def test_nb_boundary_between_separated_gaussians(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(0, np.sqrt(0.1), 100),
                            rng.normal(10, np.sqrt(0.1), 100)]).reshape(-1, 1)
        y = np.array([False] * 100 + [True] * 100)
        model = train("naive_bayes", Dataset(X, y))
        grid = np.linspace(0, 10, 2001).reshape(-1, 1)
        scores = model.predict_scores(grid)
        crossing = grid[np.argmax(scores >= 0.5)][0]
        assert 2 < crossing < 8
        assert not (model.predict_scores(np.array([[-1.0]]))[0] >= 0.5)
        assert model.predict_scores(np.array([[11.0]]))[0] >= 0.5

    def test_adaboost_perfect_on_separable_first_round(self):
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        y = X[:, 0] > 0.5
        model = train("adaboost", Dataset(X, y))
        assert len(model.stumps) == 1
        assert np.array_equal(model.predict_scores(X) >= 0.5, y)

    def test_one_class_rejected(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=bool)
        for algorithm in ("naive_bayes", "decision_tree", "adaboost"):
            with pytest.raises(ModelError):
                train(algorithm, Dataset(X, y))

    def test_unknown_algorithm(self):
        with pytest.raises(LearnError):
            train("svm", planted_separable())

    @pytest.mark.parametrize("algorithm", sorted(models.ALGORITHMS))
    @pytest.mark.parametrize("labels", [[0, 2, 0, 2], [1, 2, 1, 2], [0, 1, -1, 1],
                                        [0.0, 0.5, 1.0, 1.0], [0, 1, math.nan, 1]])
    def test_labels_outside_zero_one_rejected(self, algorithm, labels):
        X = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ModelError, match="labels must be 0 or 1"):
            models.ALGORITHMS[algorithm]().fit(X, np.array(labels))

    @pytest.mark.parametrize("algorithm", sorted(models.ALGORITHMS))
    @pytest.mark.parametrize("labels", [[0, 0, 0, 0], [1, 1, 1, 1], [True] * 4, []])
    def test_single_class_rejected(self, algorithm, labels):
        X = np.arange(2.0 * len(labels)).reshape(len(labels), 2)
        with pytest.raises(ModelError, match="both classes"):
            models.ALGORITHMS[algorithm]().fit(X, np.array(labels))

    @pytest.mark.parametrize("algorithm", sorted(models.ALGORITHMS))
    def test_bool_and_zero_one_labels_fit_the_same_model(self, algorithm):
        data = planted_separable(80, seed=6)
        fit = models.ALGORITHMS[algorithm]
        want = fit_state(fit().fit(data.X, data.y))
        for y in (data.y.astype(int), data.y.astype(float), data.y.astype(np.uint8),
                  data.y.tolist()):
            assert fit_state(fit().fit(data.X, y)) == want


class TestPredict:
    def test_training_point_label_under_tree(self):
        data = planted_separable()
        model = train("decision_tree", data)
        for i in (0, 5, 17):
            assert (model.predict_scores(data.X[i:i + 1])[0] >= 0.5) == bool(data.y[i])

    def test_nb_class_mean_scores_above_half(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(0, 1, (50, 2)), rng.normal(6, 1, (50, 2))])
        y = np.array([False] * 50 + [True] * 50)
        model = train("naive_bayes", Dataset(X, y))
        assert model.predict_scores(model.means[1:2])[0] > 0.5
        assert model.predict_scores(model.means[0:1])[0] < 0.5

    def test_adaboost_zero_margin_scores_half(self):
        model = AdaBoost()
        model.stumps = [(0, 0.5, 1), (0, 0.5, -1)]
        model.alphas = [1.0, 1.0]
        model.n_features = 1
        assert model.predict_scores(np.array([[0.9]]))[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("algorithm", sorted(models.ALGORITHMS))
    def test_dimension_mismatch(self, algorithm):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 1, (20, 3)), rng.normal(5, 1, (20, 3))])
        y = np.array([False] * 20 + [True] * 20)
        model = train(algorithm, Dataset(X, y))
        for width in (2, 4):
            with pytest.raises(ModelError, match="dimension"):
                model.predict_scores(np.ones((1, width)))


class TestMetrics:
    def test_all_negative_on_balanced_test(self):
        y_true = np.array([True] * 50 + [False] * 50)
        y_pred = np.zeros(100, dtype=bool)
        with pytest.warns(UserWarning):
            m = metrics_from_predictions(y_true, y_pred)
        assert m.f1 == pytest.approx(1 / 3, abs=1e-9)
        assert m.per_class[True]["f1"] == 0.0
        assert m.per_class[False]["f1"] == pytest.approx(2 / 3, abs=1e-9)

    def test_supports_sum_to_test_size(self):
        rng = np.random.default_rng(0)
        y_true = rng.uniform(size=200) > 0.5
        y_pred = rng.uniform(size=200) > 0.5
        m = metrics_from_predictions(y_true, y_pred)
        assert sum(c["support"] for c in m.per_class.values()) == 200
        for v in (m.precision, m.recall, m.f1):
            assert 0.0 <= v <= 1.0


class TestEvaluateSplit:
    def test_separable_dataset_perfect_f1(self):
        [m] = evaluate_split(planted_separable(400), ["decision_tree"], seed=0)
        assert m.f1 == 1.0

    def test_determinism(self):
        data = planted_separable(200, seed=4)
        [a] = evaluate_split(data, ["adaboost"], seed=9)
        [b] = evaluate_split(data, ["adaboost"], seed=9)
        assert a == b

    @pytest.mark.parametrize("test_class", [False, True])
    def test_single_class_test_portion_warns(self, test_class):
        # the 0.75 split of 8 rows puts the last two of the permutation in test
        order = np.random.default_rng(0).permutation(8)
        y = np.full(8, test_class)
        y[order[:3]] = not test_class
        X = np.arange(16.0).reshape(8, 2)
        with pytest.warns(UserWarning, match="single class"):
            evaluate_split(Dataset(X, y), ["decision_tree"], balance=False, seed=0)

    def test_too_small_dataset(self):
        with pytest.raises(LearnError):
            evaluate_split(planted_separable(6), ["decision_tree"], seed=0)

    @pytest.mark.parametrize("train_frac", [0.001, 0.999])
    def test_empty_split_side(self, train_frac):
        with pytest.raises(LearnError, match="portion of 100 rows empty"):
            evaluate_split(planted_separable(100), ["decision_tree"],
                           train_frac=train_frac, seed=0)

    def test_one_split_and_smote_pass_for_all_algorithms(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, size=(200, 3))
        data = Dataset(X, X[:, 1] > 1.0)  # about one positive in six
        algorithms = sorted(models.ALGORITHMS)
        separate = [evaluate_split(data, [a], seed=3)[0] for a in algorithms]
        calls = []
        real_smote = learn.smote

        def spy(*args, **kwargs):
            calls.append(real_smote(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(learn, "smote", spy)
        assert cli.metrics_stage(data, algorithms, None, seed=3) == separate
        assert len(calls) == 1 and len(calls[0]) > 0


def test_gini_split_reduces_impurity():
    # no informative split -> the tree must refuse to split
    X = np.ones((20, 2))
    y = np.array([True] * 10 + [False] * 10)
    tree = DecisionTree().fit(X, y)
    assert tree.root["leaf"]


def test_adaboost_round_errors_below_half():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(150, 4))
    y = (X[:, 0] + 0.5 * X[:, 2] + rng.normal(0, 0.4, 150)) > 0
    model = AdaBoost().fit(X, y)
    y_pm = np.where(y, 1, -1)
    n = len(y)
    w = np.full(n, 1.0 / n)
    for (dim, thr, pol), alpha in zip(model.stumps, model.alphas):
        pred = AdaBoost._stump_predict(X, dim, thr, pol)
        err = float(np.sum(w[pred != y_pm]))
        assert err < 0.5
        w *= np.exp(-alpha * y_pm * pred)
        w /= w.sum()


def test_smote_stays_in_convex_hull_coordinatewise():
    rng = np.random.default_rng(12)
    minority = rng.normal(size=(25, 3))
    out = smote(minority, k=4, amount_pct=400, seed=0)
    lo, hi = minority.min(axis=0), minority.max(axis=0)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


# Reference copies of the split searches and of SMOTE's neighbour lists as
# they were before both tree learners shared one cut scan and SMOTE
# stopped building the n x n x d difference tensor, and of the fits as
# they were before each column was sorted once per fit. The new code must
# reproduce them exactly, ties included.

def _ref_gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p * p))


def _ref_best_split(X: np.ndarray, y: np.ndarray):
    n, d = X.shape
    parent = _ref_gini(np.array([np.sum(~y), np.sum(y)]))
    best = None  # (impurity, dim, threshold)
    y_int = y.astype(int)
    for dim in range(d):
        order = np.argsort(X[:, dim], kind="stable")
        xs = X[order, dim]
        ys = y_int[order]
        pos_left = np.cumsum(ys)
        total_pos = pos_left[-1]
        cut_idx = np.nonzero(xs[1:] > xs[:-1])[0]
        for i in cut_idx:
            nl = i + 1
            nr = n - nl
            pl = pos_left[i]
            left = _ref_gini(np.array([nl - pl, pl]))
            right = _ref_gini(np.array([nr - (total_pos - pl), total_pos - pl]))
            w = (nl * left + nr * right) / n
            if w < parent - 1e-12:
                thr = (xs[i] + xs[i + 1]) / 2.0
                if best is None or w < best[0] - 1e-12:
                    best = (w, dim, thr)
    return best


def _ref_best_stump(X: np.ndarray, y_pm: np.ndarray, w: np.ndarray):
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
        pos_left = cum_pos[cut_idx]
        neg_left = cum_w[cut_idx] - pos_left
        err_plus = pos_left + ((total_w - total_pos) - neg_left)
        err_minus = total_w - err_plus
        for errs, pol in ((err_plus, 1), (err_minus, -1)):
            i = int(np.argmin(errs))
            if errs[i] < best[0] - 1e-15:
                thr = (xs[cut_idx[i]] + xs[cut_idx[i] + 1]) / 2.0
                best = (float(errs[i]), dim, float(thr), pol)
    return best


def _ref_smote_neighbors(minority: np.ndarray, k: int) -> np.ndarray:
    diff = minority[:, None, :] - minority[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


class _RefTree(DecisionTree):
    """The tree fit as it was before the column orders were shared:
    each node slices its rows and every split search sorts again."""

    def fit(self, X, y):
        X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=bool)
        self.n_features = X.shape[1]
        self.root = self._ref_grow(X, y, depth=0)
        return self

    def _ref_grow(self, X, y, depth):
        n_pos = int(np.sum(y))
        purity_pos = n_pos / len(y)
        split = None
        if 0 < n_pos < len(y) and depth < self.max_depth:
            split = _ref_best_split(X, y)
        if split is None:
            return {"leaf": True, "score": purity_pos}
        _, dim, thr = split
        mask = X[:, dim] <= thr
        return {
            "leaf": False, "dim": dim, "threshold": thr,
            "left": self._ref_grow(X[mask], y[mask], depth + 1),
            "right": self._ref_grow(X[~mask], y[~mask], depth + 1),
        }


class _RefBoost(AdaBoost):
    """The boosting loop as it was before the column orders were
    shared: every round sorts every column again."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y_pm = np.where(np.asarray(y, dtype=bool), 1, -1)
        self.n_features = X.shape[1]
        n = len(y_pm)
        w = np.full(n, 1.0 / n)
        self.stumps, self.alphas = [], []
        for _ in range(self.n_rounds):
            err, dim, thr, pol = _ref_best_stump(X, y_pm, w)
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
        return self


def _tie_heavy_dataset(seed: int):
    """Small integer grids or normals rounded to 1-2 digits, so that
    equal values and equal impurities are common; n from 8 to 300."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(8, 301)), int(rng.integers(1, 5))
    if seed % 3 == 0:
        X = rng.integers(0, int(rng.integers(2, 6)), size=(n, d)).astype(float)
    else:
        X = np.round(rng.normal(size=(n, d)), seed % 3)
    y = X.sum(axis=1) + rng.normal(0, 1, n) > 0
    y[:2] = False, True
    return X, y


def test_shared_cut_scan_matches_reference_learners():
    for seed in range(300):
        X, y = _tie_heavy_dataset(seed)
        assert DecisionTree().fit(X, y).root == _RefTree().fit(X, y).root, seed
        boost, ref = AdaBoost().fit(X, y), _RefBoost().fit(X, y)
        assert (boost.stumps, boost.alphas) == (ref.stumps, ref.alphas), seed


def test_shared_cut_scan_matches_reference_learners_on_bench(
        bench_synth, bench_labels, monkeypatch):
    # the seed-42 training split of the 2k benchmark, after SMOTE
    is_target, _ = label_threads(bench_synth.corpus, bench_labels[1])
    threads = build_threads(bench_synth.corpus)
    dataset = Dataset(features.featurize_threads(threads),
                      [is_target[t.post.post_id] for t in threads])
    algorithms = ["adaboost", "decision_tree"]
    fitted = []
    real_train = learn.train

    def keep_model(algorithm, data):
        fitted.append(real_train(algorithm, data))
        return fitted[-1]

    monkeypatch.setattr(learn, "train", keep_model)
    new = evaluate_split(dataset, algorithms, seed=42)
    monkeypatch.setitem(models.ALGORITHMS, "adaboost", _RefBoost)
    monkeypatch.setitem(models.ALGORITHMS, "decision_tree", _RefTree)
    ref = evaluate_split(dataset, algorithms, seed=42)
    assert new == ref
    assert [type(m) for m in fitted] == [AdaBoost, DecisionTree, _RefBoost, _RefTree]
    for got, want in zip(fitted[:2], fitted[2:]):
        assert fit_state(got) == fit_state(want)


def _splits(node: dict) -> int:
    return 0 if node["leaf"] else 1 + _splits(node["left"]) + _splits(node["right"])


@pytest.mark.parametrize("learner", [AdaBoost, DecisionTree])
def test_one_sort_per_column_per_fit(learner, monkeypatch):
    X, y = _tie_heavy_dataset(4)
    sorts = []
    real_argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        sorts.append(1)
        return real_argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    model = learner().fit(X, y)
    searches = len(model.stumps) if learner is AdaBoost else _splits(model.root)
    assert searches > 10 and len(sorts) == X.shape[1]


def test_smote_matches_full_tensor_neighbors_with_duplicate_rows():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        minority = rng.integers(0, 3, size=(int(rng.integers(6, 60)), 3)).astype(float)
        minority = np.vstack([minority, minority[: len(minority) // 3]])
        k = min(5, len(minority) - 1)
        neighbors = _ref_smote_neighbors(minority, k)
        out = smote(minority, k=k, amount_pct=250, seed=seed)
        # replay SMOTE's draws against the reference neighbour lists
        rng = np.random.default_rng(seed)
        for s, point in enumerate(out):
            i = s % len(minority)
            nn = minority[neighbors[i][rng.integers(0, k)]]
            lam = rng.uniform(0.0, 1.0)
            assert np.array_equal(point, minority[i] + lam * (nn - minority[i]))


def test_sweep_matches_per_horizon_featurization(small_synth, small_labels):
    # the reference counts each horizon's windows from the threads again,
    # as the sweep did before it sliced one 60-minute featurization
    is_target, _ = label_threads(small_synth.corpus, small_labels[1])
    threads = build_threads(small_synth.corpus)
    y = [is_target.get(t.post.post_id, False) for t in threads]
    # the tree predicts no positives at some horizon on this corpus
    with pytest.warns(UserWarning, match="precision undefined for class True"):
        want = []
        for horizon in range(5, 65, 5):
            data = Dataset([row[len(features.MACRO_COLUMNS):]
                            for row in features.featurize_threads(threads, 5, horizon)], y)
            want.append((horizon, evaluate_split(data, ["decision_tree"], seed=3 + horizon)[0]))
        dataset = Dataset(*cli.featurize_stage(small_synth.corpus, small_labels[1], None))
        assert learn.sweep_horizon(dataset, seed=3) == want


def test_sweep_rejects_rows_without_twelve_five_minute_counts(small_synth, small_labels):
    # 10-minute windows up to 60 minutes give six counts, too few to slice
    rows, targets = cli.featurize_stage(small_synth.corpus, small_labels[1], None,
                                        window_minutes=10)
    with pytest.raises(LearnError, match="needs at least 12 DAV columns, got 6"):
        learn.sweep_horizon(Dataset(rows, targets))
