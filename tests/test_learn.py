import hashlib
import math
import operator
import random
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from newsstyle import learn
from newsstyle import matrix as ft
from newsstyle.cli import PRESETS, main
from newsstyle.learn import (
    CvReport,
    LearnError,
    Standardizer,
    SvmModel,
    cross_validate,
    fit_standardizer,
    majority_baseline,
    shuffle,
    stratified_kfold,
    train_svm,
)


def _two_blobs(n=40, shift=3.0, seed=0, d=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n, d))
    b = rng.normal(shift, 1.0, size=(n, d))
    X = np.vstack([a, b])
    y = np.array([-1.0] * n + [1.0] * n)
    return X, y


class TestStandardizer:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        X = rng.normal(5.0, 2.0, size=(200, 3))
        Z = np.asarray(fit_standardizer(X).transform(X))
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        Z = np.asarray(fit_standardizer(X).transform(X))
        assert np.all(Z[:, 1] == 0.0)

    def test_nan_cells_imputed_with_training_mean(self):
        X = np.array([[1.0], [3.0], [np.nan]])
        s = fit_standardizer(X)
        assert s.mean[0] == 2.0
        Z = np.asarray(s.transform(X))
        assert Z[2, 0] == 0.0  # imputed to the mean, then centered

    def test_all_nan_column(self):
        X = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        Z = fit_standardizer(X).transform(X)
        assert np.all(np.isfinite(Z))

    def test_empty_rejected(self):
        with pytest.raises(LearnError):
            fit_standardizer(np.empty((0, 3)))

    def test_overflowing_column_maps_to_zero(self):
        # the variance of the first column overflows, so its std is inf
        X = np.array([[1e308, 1.0], [-1e308, 2.0], [0.0, 4.0]])
        s = fit_standardizer(X)
        assert s.std[0] == np.inf
        assert np.all(np.asarray(s.transform(X))[:, 0] == 0.0)

    def test_column_whose_sum_overflows_keeps_a_finite_mean(self):
        # the float sum of the first column passes the float range, its
        # mean does not; its squared deviations overflow, so it maps to 0
        # and the second column separates the classes
        rng = random.Random(40)
        labels = ["fake", "real"] * 20
        X = [[1.7e308 if l == "real" else 1.53e308, (l == "real") + rng.uniform(0, 0.1)]
             for l in labels]
        s = fit_standardizer(X)
        assert all(map(math.isfinite, s.mean))
        assert s.std[0] == math.inf
        rep = cross_validate(X, labels, k=5, C=1.0)
        assert rep.fold_accuracies == [1.0] * 5


def _na_matrix(seed):
    """Columns whose means sit well away from 0, about 15% NA cells."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 200)), int(rng.integers(1, 6))
    loc = rng.choice([-1.0, 1.0], d) * rng.uniform(2, 6, d)
    X = rng.normal(loc, rng.uniform(0.1, 1.0, d), size=(n, d))
    X[rng.random((n, d)) < 0.15] = np.nan
    return X


def _hex(values):
    return [float(v).hex() for v in values]


class TestStandardizerOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numpy_nanmean_nanstd(self, seed):
        X = _na_matrix(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NA columns
            mean = np.nanmean(X, axis=0)
            std = np.nanstd(X, axis=0)
        mean = np.where(np.isnan(mean), 0.0, mean)
        std = np.where(np.isnan(std) | (std < 1e-12), 1e-12, std)
        s = fit_standardizer(X)
        np.testing.assert_allclose(s.mean, mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(s.std, std, rtol=1e-12, atol=0)
        Z = (np.where(np.isnan(X), mean, X) - mean) / std
        np.testing.assert_allclose(s.transform(X), Z, rtol=1e-12, atol=1e-12)

    # column -> (mean, std, transform of the column): the bits numpy's
    # nanmean/nanstd gave, but for [1e308, 1e308]. fsum raises on an inf with
    # a -inf (ValueError), where numpy's sum gave nan. The float sum of
    # [1e308, 1e308] overflows, where numpy's mean is inf; float_mean keeps
    # a mean of finite values finite
    @pytest.mark.parametrize("column, mean, std, z", [
        ([7.0, 7.0, 7.0], 7.0, 1e-12, [0.0, 0.0, 0.0]),
        ([math.nan, math.nan], 0.0, 1e-12, [0.0, 0.0]),
        ([5.0], 5.0, 1e-12, [0.0]),
        ([math.inf, 1.0, 2.0], math.inf, 1e-12, [math.nan, -math.inf, -math.inf]),
        ([-math.inf, 1.0, 2.0], -math.inf, 1e-12, [math.nan, math.inf, math.inf]),
        ([math.inf, -math.inf], 0.0, 1e-12, [math.inf, -math.inf]),
        ([math.inf, -math.inf, 1.0], 0.0, 1e-12, [math.inf, -math.inf, 1e12]),
        ([1e308, 1e308], 1e308, 1e-12, [0.0, 0.0]),
        ([1e308, -1e308, 0.0], 0.0, math.inf, [0.0, -0.0, 0.0]),
    ])
    def test_edge_column(self, column, mean, std, z):
        s = fit_standardizer([[v] for v in column])
        assert _hex(s.mean + s.std) == _hex([mean, std])
        assert _hex(row[0] for row in s.transform([[v] for v in column])) == _hex(z)


class TestShuffle:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 208])
    def test_permutation_and_same_orders_for_a_seed(self, n):
        for seed in range(5):
            a, b = list(range(n)), list(range(n))
            rand_a, rand_b = random.Random(seed).random, random.Random(seed).random
            for _ in range(4):
                shuffle(a, rand_a)
                shuffle(b, rand_b)
                assert sorted(a) == list(range(n))
                assert a == b

    def test_seed_0_orders_pinned(self):
        # random.Random(0).random() starts 0.844, 0.758, 0.421, ...: j = 6, 5, 2, ...
        rand = random.Random(0).random
        order = list(range(8))
        orders = []
        for _ in range(3):
            shuffle(order, rand)
            orders.append(list(order))
        assert orders == [[0, 3, 4, 7, 1, 2, 5, 6], [2, 3, 0, 6, 1, 5, 7, 4],
                          [7, 2, 0, 6, 4, 5, 3, 1]]

    def test_stratified_folds_pinned_for_seed_0(self):
        assert stratified_kfold(["a"] * 5 + ["b"] * 5, 2, seed=0) == [[1, 2, 4, 7, 8, 9],
                                                                     [0, 3, 5, 6]]


class TestTrainSvm:
    def test_separable_data_perfect_fit(self):
        X, y = _two_blobs(shift=6.0, seed=1)
        model = train_svm(X, y, C=1.0, seed=0)
        pred = np.where(np.asarray(model.decision_values(X)) >= 0, 1.0, -1.0)
        assert np.mean(pred == y) == 1.0

    def test_xor_not_linearly_separable(self):
        X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]] * 10, dtype=float)
        y = np.array([-1.0, -1.0, 1.0, 1.0] * 10)
        model = train_svm(X, y, C=1.0, seed=0)
        pred = np.where(np.asarray(model.decision_values(X)) >= 0, 1.0, -1.0)
        assert np.mean(pred == y) <= 0.75

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_C_rejected(self, C):
        X, y = _two_blobs(seed=3)
        with pytest.raises(LearnError, match="C must be finite and > 0"):
            train_svm(X, y, C=C)

    def test_deterministic_for_seed(self):
        X, y = _two_blobs(seed=2)
        m1 = train_svm(X, y, seed=5)
        m2 = train_svm(X, y, seed=5)
        assert np.array_equal(m1.weights, m2.weights)

    def test_single_class_rejected(self):
        X = np.ones((5, 2))
        with pytest.raises(LearnError):
            train_svm(X, np.ones(5))

    def test_dual_objective_non_increasing(self):
        X, y = _two_blobs(shift=1.0, seed=4)
        hist = train_svm(X, y, C=1.0, seed=0).dual_objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_alpha_in_box(self):
        X, y = _two_blobs(shift=0.5, seed=5)
        model = train_svm(X, y, C=0.7, seed=0)
        assert np.all(np.asarray(model.alpha) >= -1e-12)
        assert np.all(np.asarray(model.alpha) <= 0.7 + 1e-12)

    def test_kkt_residual_random_problems(self):
        rng = np.random.default_rng(9)
        tol = 1e-4
        for _ in range(20):
            n, d = rng.integers(10, 40), rng.integers(2, 6)
            X = rng.normal(size=(n, d))
            y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            if len(set(y)) < 2:
                y[0] = -y[0]
            model = train_svm(X, y, C=1.0, tol=tol, seed=0)
            Z = model.standardizer.transform(X)
            Zb = np.hstack([Z, np.ones((n, 1))])
            g = y * (Zb @ np.asarray(model.weights)) - 1.0
            alpha = np.asarray(model.alpha)
            pg = np.where(alpha <= 0, np.minimum(g, 0),
                          np.where(alpha >= 1.0, np.maximum(g, 0), g))
            assert np.max(np.abs(pg)) < 10 * tol


class TestInputShapes:
    def test_ragged_rows_rejected_by_train_svm(self):
        with pytest.raises(LearnError, match="row 1 has 1 values, expected 2"):
            train_svm([[1, 2], [3], [0.5, 1], [2, 5]], [1, -1, 1, -1])

    def test_ragged_rows_rejected_by_fit_standardizer(self):
        with pytest.raises(LearnError, match="row 2 has 3 values, expected 2"):
            fit_standardizer([[1, 2], [3, 4], [5, 6, 7]])

    def test_transform_rejects_a_row_of_another_length(self):
        model = train_svm([[1, 2], [3, 1], [0.5, 1], [2, 5]], [1, -1, 1, -1])
        with pytest.raises(LearnError, match="row 1 has 3 values, expected 2"):
            model.decision_values([[1, 2], [1, 2, 3]])
        with pytest.raises(LearnError, match="row 0 has 1 values, expected 2"):
            model.standardizer.transform([[1]])

    def test_train_svm_rows_and_labels_must_match(self):
        X, y = _two_blobs(n=3)
        with pytest.raises(LearnError, match="train_svm got 5 rows and 4 labels"):
            train_svm(X[:5], [-1, -1, -1, 1])

    def test_cross_validate_rows_and_labels_must_match(self):
        X, _ = _two_blobs(n=6)
        with pytest.raises(LearnError, match="cross_validate got 12 rows and 10 labels"):
            cross_validate(X, ["a"] * 5 + ["b"] * 5, k=2)

    def test_cross_validate_names_the_ragged_row(self):
        X = _two_blobs(n=6)[0].tolist()
        X[7] = X[7][:2]
        with pytest.raises(LearnError, match="row 7 has 2 values, expected 4"):
            cross_validate(X, ["a"] * 6 + ["b"] * 6, k=2)


class TestPredict:
    """A held-out row goes to the positive class (the second label in
    sorted order) when its decision value is >= 0."""

    def test_labels_and_sign(self):
        X, y = _two_blobs(shift=6.0, seed=6)
        model = train_svm(X, y, seed=0)
        values = model.decision_values(X[[0, -1]])
        assert values[0] < 0 < values[1]

    def test_zero_decision_goes_positive(self, monkeypatch):
        monkeypatch.setattr(SvmModel, "decision_values", lambda self, X: np.zeros(len(X)))
        # each fold holds out one "a" and four "b": all "b" scores 0.8, all "a" 0.2
        report = cross_validate(np.arange(20.0).reshape(10, 2), ["a"] * 2 + ["b"] * 8, k=2)
        assert report.fold_accuracies == [0.8, 0.8]

    def test_negated_weights_flip_prediction(self):
        X, y = _two_blobs(shift=6.0, seed=7)
        model = train_svm(X, y, seed=0)
        flipped = SvmModel(weights=[-v for v in model.weights], standardizer=model.standardizer)
        v1, v2 = model.decision_values(X[:1])[0], flipped.decision_values(X[:1])[0]
        assert v2 == -v1 and (v1 >= 0) != (v2 >= 0)


class TestStratifiedKfold:
    def test_balanced_150(self):
        labels = ["real"] * 75 + ["fake"] * 75
        folds = stratified_kfold(labels, 5, seed=0)
        for f in folds:
            assert len(f) == 30
            assert sum(1 for i in f if labels[i] == "real") == 15

    def test_partition(self):
        labels = ["a"] * 13 + ["b"] * 9
        folds = stratified_kfold(labels, 4, seed=1)
        all_idx = sorted(i for f in folds for i in f)
        assert all_idx == list(range(22))

    def test_per_class_counts_within_one(self):
        labels = ["a"] * 13 + ["b"] * 9
        folds = stratified_kfold(labels, 4, seed=2)
        for cls in ("a", "b"):
            counts = [sum(1 for i in f if labels[i] == cls) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_k_too_small(self):
        with pytest.raises(LearnError):
            stratified_kfold(["a", "b"], 1)

    def test_deterministic(self):
        labels = ["a"] * 20 + ["b"] * 20
        assert stratified_kfold(labels, 5, seed=9) == stratified_kfold(labels, 5, seed=9)


class TestMajorityBaseline:
    def test_even_split(self):
        assert majority_baseline(["a", "b"] * 10) == 0.5

    def test_skewed(self):
        assert majority_baseline(["real"] * 36 + ["fake"] * 35) == pytest.approx(36 / 71)

    def test_single_class(self):
        assert majority_baseline(["x"] * 5) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(LearnError):
            majority_baseline([])


class TestCrossValidate:
    def test_shifted_gaussians_learnable(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(0, 1, (75, 4)), rng.normal(1.0, 1, (75, 4))])
        labels = ["real"] * 75 + ["fake"] * 75
        report = cross_validate(X, labels, k=5, seed=0)
        assert report.mean_accuracy >= 0.75
        assert len(report.fold_accuracies) == 5

    def test_permutation_null_near_chance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, 5))
        labels = list(rng.permutation(["a"] * 60 + ["b"] * 60))
        report = cross_validate(X, labels, k=5, seed=0)
        assert 0.35 <= report.mean_accuracy <= 0.65

    def test_three_classes_rejected(self):
        X = np.zeros((30, 2))
        labels = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
        with pytest.raises(LearnError):
            cross_validate(X, labels, k=2)

    def test_too_few_per_class(self):
        X = np.zeros((7, 2))
        labels = ["a"] * 4 + ["b"] * 3
        with pytest.raises(LearnError, match="^need at least k=5 samples per class; "
                                             "class 'b' has 3$"):
            cross_validate(X, labels, k=5)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 3))
        labels = ["a"] * 30 + ["b"] * 30
        r1 = cross_validate(X, labels, k=5, seed=4)
        r2 = cross_validate(X, labels, k=5, seed=4)
        assert r1.fold_accuracies == r2.fold_accuracies


class TestPipelineInvariances:
    def _accuracy(self, X, y):
        model = train_svm(X, y, C=1.0, seed=0)
        pred = np.where(np.asarray(model.decision_values(X)) >= 0, 1.0, -1.0)
        return np.mean(pred == y)

    @settings(max_examples=25, deadline=None)
    @given(hs.floats(-100, 100), hs.floats(0.1, 50), hs.integers(0, 1000))
    def test_affine_feature_invariance(self, shift, scale, seed):
        X, y = _two_blobs(n=20, shift=2.0, seed=seed)
        a1 = self._accuracy(X, y)
        a2 = self._accuracy(X * scale + shift, y)
        assert a1 == a2

    def test_column_permutation_invariance(self):
        X, y = _two_blobs(n=25, shift=2.0, seed=13)
        a1 = self._accuracy(X, y)
        a2 = self._accuracy(X[:, ::-1], y)
        assert a1 == a2


class TestPresets:
    def test_named_presets(self):
        assert PRESETS["body4"] == ("NN", "TTR", "WC", "quotes")
        assert PRESETS["title4"] == ("per_stop", "NN", "avg_wlen", "FK")

    def test_presets_are_catalog_features(self):
        from newsstyle.matrix import CATALOG
        for names in PRESETS.values():
            assert set(names) <= set(CATALOG)


def _reference_train(X, y, C, tol, max_epochs, seed):
    """The per-element numpy loop train_svm used before it ran on Python
    floats; the update rule and the sweep order (``shuffle`` over one
    ``random.Random(seed)`` stream) are the same."""
    standardizer = fit_standardizer(X)
    Z = np.asarray(standardizer.transform(X))
    Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
    n, d = Zb.shape
    q = np.einsum("ij,ij->i", Zb, Zb)
    q = np.where(q <= 0, 1.0, q)
    alpha = np.zeros(n)
    w = np.zeros(d)
    rand = random.Random(seed).random
    epochs = 0
    order = list(range(n))
    for _ in range(max_epochs):
        shuffle(order, rand)
        max_violation = 0.0
        for i in order:
            g = y[i] * (Zb[i] @ w) - 1.0
            if alpha[i] <= 0.0:
                pg = min(g, 0.0)
            elif alpha[i] >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            max_violation = max(max_violation, abs(pg))
            if pg != 0.0:
                new = min(max(alpha[i] - g / q[i], 0.0), C)
                if new != alpha[i]:
                    w += (new - alpha[i]) * y[i] * Zb[i]
                    alpha[i] = new
        epochs += 1
        if max_violation < tol:
            break
    return w, alpha, epochs, standardizer


def _overlapping(seed, n=60, d=4, shift=0.7):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n, d)), rng.normal(shift, 1.0, (n, d))])
    y = np.array([-1.0] * n + [1.0] * n)
    perm = rng.permutation(2 * n)
    return X[perm], y[perm]


def _phase1(X, y, C, tol, max_epochs, seed, standardizer=None):
    """train_svm's sweep alone, run to tol or max_epochs whether or not
    the bound pattern settles: w, alpha, history, max_violation and
    whether tol was met, as ``_per_call_train`` returns them."""
    fsum, mul = math.fsum, operator.mul
    if standardizer is None:
        standardizer = fit_standardizer(X)
    rows = learn._signed_rows(standardizer.transform(X), [float(v) for v in y])
    w, alpha, history, max_violation = [0.0] * len(rows[0]), [0.0] * len(rows), [], math.inf
    for w, alpha, max_violation, _ in learn._sweep(rows, C, max_epochs, seed):
        history.append(0.5 * fsum(map(mul, w, w)) - fsum(alpha))
        if max_violation < tol:
            break
    return w, alpha, history, max_violation, max_violation < tol


class TestPythonFloatSolver:
    # the sweep alone: once the bound pattern settles, train_svm leaves the
    # reference loop for its exact finish
    @pytest.mark.parametrize("C", [0.01, 1.0, 10.0])
    def test_matches_numpy_reference_loop(self, C):
        for seed in range(4):
            X, y = _overlapping(seed)
            train, test = slice(0, 90), slice(90, None)
            w_ref, a_ref, epochs_ref, std = _reference_train(
                X[train], y[train], C=C, tol=1e-4, max_epochs=40, seed=seed)
            w, alpha, history, _, _ = _phase1(X[train], y[train], C=C, tol=1e-4, max_epochs=40,
                                              seed=seed)
            assert len(history) == epochs_ref
            model = SvmModel(weights=w, standardizer=std)
            Zt = np.hstack([std.transform(X[test]), np.ones((30, 1))])
            assert np.array_equal(np.sign(model.decision_values(X[test])), np.sign(Zt @ w_ref))
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
            assert np.max(np.abs(alpha - a_ref)) <= 1e-12 * C

    def test_golden_weights(self):
        # integer features and an identity standardizer: every input to the
        # sweep is exact, so these bits hold on any IEEE-754 host. The
        # pattern settles within the 25 epochs, so the exact finish runs
        X = np.array([[3, -1, 2], [1, 0, -2], [-2, 4, 1], [0, 2, 3], [5, 1, -1], [-1, -3, 0],
                      [2, 2, 2], [-4, 1, 3], [1, -2, 4], [3, 3, -3], [-2, -2, -1], [0, 5, 1]],
                     dtype=float)
        y = np.array([1, -1, -1, 1, 1, -1, 1, -1, 1, 1, -1, -1], dtype=float)
        model = train_svm(X, y, C=1.0, seed=7, max_epochs=25,
                          standardizer=Standardizer(np.zeros(3), np.ones(3)))
        assert [float(v).hex() for v in model.weights] == [
            "0x1.57abd5eaf57adp+0", "-0x1.f8fc7e3f1f8fdp-3",
            "0x1.42a150a8542a3p-1", "-0x1.96cb65b2d96e7p-2",
        ]
        assert model.converged and len(model.dual_objective_history) == 16

    def test_converged_flag(self):
        X, y = _two_blobs(shift=6.0, seed=1)
        model = train_svm(X, y, C=1.0, tol=1e-4, seed=0)
        assert model.converged
        assert model.max_violation < 1e-4
        assert len(model.dual_objective_history) < 1000

    def test_unconverged_flag(self):
        X, y = _overlapping(0)
        model = train_svm(X, y, C=10.0, tol=1e-4, max_epochs=3, seed=0)
        assert not model.converged
        assert model.max_violation >= 1e-4
        assert len(model.dual_objective_history) == 3

    def test_cv_report_carries_fold_convergence(self):
        X, y = _overlapping(1)
        labels = ["a" if v < 0 else "b" for v in y]
        assert cross_validate(X, labels, k=3, C=0.01).fold_converged == [True] * 3
        report = cross_validate(X, labels, k=3, C=10.0, max_epochs=2)
        assert report.fold_converged == [False] * 3
        assert len(report.fold_gaps) == 3 and all(gap > 1e-3 for gap in report.fold_gaps)


def _per_call_train(X, y, C, tol, max_epochs, seed):
    """The independent oracle of train_svm's sweep: the same rows, update
    rule and stopping rule, written out plainly, with the orders drawn
    here from a fresh ``random.Random(seed)`` stream."""
    fsum, mul = math.fsum, operator.mul
    standardizer = fit_standardizer(X)
    rows = [tuple([yi * v for v in z] + [yi]) for z, yi in zip(standardizer.transform(X), y)]
    q = [fsum(map(mul, row, row)) for row in rows]
    n = len(rows)
    alpha = [0.0] * n
    w = [0.0] * len(rows[0])
    rand = random.Random(seed).random
    history = []
    order = list(range(n))
    max_violation = math.inf
    for _ in range(max_epochs):
        shuffle(order, rand)
        max_violation = 0.0
        for i in order:
            row = rows[i]
            a = alpha[i]
            g = fsum(map(mul, row, w)) - 1.0
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                max_violation = max(max_violation, abs(pg))
                new = min(max(a - g / q[i], 0.0), C)
                if new != a:
                    w = [wj + (new - a) * rj for wj, rj in zip(w, row)]
                    alpha[i] = new
        history.append(0.5 * fsum(map(mul, w, w)) - fsum(alpha))
        if max_violation < tol:
            break
    return w, alpha, history, max_violation, max_violation < tol


def _fold_problems(n_per_class, k=5):
    """Training rows of each stratified fold of seeded overlapping data, in
    the order cross_validate trains them."""
    for seed in range(2):
        X, y = _overlapping(seed, n=n_per_class)
        X, y = X.tolist(), y.tolist()
        for fold in stratified_kfold(y, k, seed=seed):
            held_out = set(fold)
            train = [i for i in range(len(y)) if i not in held_out]
            yield [X[i] for i in train], [y[i] for i in train], seed


def _integer_problem(seed, n=40, d=3):
    """Rows of small integers, half of them repeated, with random labels.

    With an identity standardizer every product in the sweep is exact at
    first, and a repeat of a row just stepped on can land its g exactly on
    0 at a bound."""
    rng = random.Random(seed)
    X = [[float(rng.choice((-1, 0, 1, 1, 2))) for _ in range(d)] for _ in range(n)]
    y = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    y[0], y[1] = -1.0, 1.0
    return X + X[: n // 2], y + y[: n // 2]


def _identity(d):
    return Standardizer([0.0] * d, [1.0] * d)


def _outcome(train):
    """The hex bits of a training result, or the exception it raised."""
    try:
        w, alpha, history, max_violation, converged = train()
    except (ArithmeticError, ValueError) as e:
        return type(e).__name__
    return _hex(w), _hex(alpha), _hex(history), _hex([max_violation]), converged


class TestScreenDifferential:
    """train_svm's sweep, checked bit for bit against the independent
    ``_per_call_train`` oracle, epoch after epoch, also past the point
    where the bound pattern settles and train_svm would leave the sweep:
    on integer rows with ties, rows scaled by 1e+-150 and 1e-170, nan and
    +-inf cells, and 400-epoch runs."""

    C_VALUES = [1e-6, 0.01, 1.0, 10.0, 1e6]

    def _assert_same_as_oracle(self, X, y, C, max_epochs, seed, standardizer=None):
        def sweep():
            return _phase1(X, y, C=C, tol=1e-4, max_epochs=max_epochs, seed=seed,
                           standardizer=standardizer)

        def oracle():
            with pytest.MonkeyPatch.context() as m:
                if standardizer is not None:
                    # the oracle fits its own standardizer: hand it this one
                    m.setattr(sys.modules[__name__], "fit_standardizer", lambda rows: standardizer)
                return _per_call_train(X, y, C=C, tol=1e-4, max_epochs=max_epochs, seed=seed)

        assert _outcome(sweep) == _outcome(oracle)

    @pytest.mark.parametrize("C", C_VALUES)
    def test_integer_rows_identity_standardizer(self, C):
        for seed in range(3):
            X, y = _integer_problem(seed)
            self._assert_same_as_oracle(X, y, C, 300, seed, _identity(3))

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-170])
    @pytest.mark.parametrize("C", C_VALUES)
    def test_scaled_rows(self, C, scale):
        # 1e-170 makes products underflow into subnormals and to 0
        for seed in range(2):
            X, y = _integer_problem(seed)
            X = [[v * scale for v in row] for row in X]
            self._assert_same_as_oracle(X, y, C, 300, seed, _identity(3))
            self._assert_same_as_oracle(X, y, C, 300, seed)

    @pytest.mark.parametrize("C", C_VALUES)
    def test_rows_with_nan_and_inf(self, C):
        for seed, bad in enumerate([math.nan, math.inf, -math.inf]):
            X, y = _integer_problem(seed)
            X[5] = [X[5][0], bad, X[5][2]]
            X[17][0] = -bad
            self._assert_same_as_oracle(X, y, C, 50, seed, _identity(3))
            self._assert_same_as_oracle(X, y, C, 50, seed)

    @pytest.mark.parametrize("C", C_VALUES)
    def test_overlapping_long_runs(self, C):
        # 400 epochs: rows go on sitting at a bound long after the bound
        # pattern settles
        for seed in range(2):
            X, y = _overlapping(seed, n=30, shift=1.5)
            self._assert_same_as_oracle(X.tolist(), y.tolist(), C, 400, seed)

    # 30 rows per class: five training folds of 48; 32 per class: 50, 50,
    # 52, 52, 52, so the training size changes inside one cross-validation
    @pytest.mark.parametrize("n_per_class", [30, 32])
    @pytest.mark.parametrize("C", [0.01, 1.0, 10.0])
    def test_cross_validation_folds(self, C, n_per_class):
        for X, y, seed in _fold_problems(n_per_class):
            self._assert_same_as_oracle(X, y, C, 30, seed)


def test_two_threads_fit_the_same_bits():
    # a fit keeps no state between calls, so two threads fitting one
    # problem with one seed at once each get the single-threaded bits, even
    # when the interpreter switches threads every microsecond
    X, y = _overlapping(0, n=60)
    X, y = X.tolist(), y.tolist()
    seeds = range(10)
    expected = {seed: _hex(train_svm(X, y, C=10.0, max_epochs=60, seed=seed).weights)
                for seed in seeds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in seeds:
            start = threading.Barrier(2)
            results = []

            def fit():
                start.wait()
                results.append(_hex(train_svm(X, y, C=10.0, max_epochs=60, seed=seed).weights))

            threads = [threading.Thread(target=fit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == [expected[seed]] * 2
    finally:
        sys.setswitchinterval(interval)


def _signed(model, X, y):
    """The signed rows r_i = y_i [z_i, 1] a model was trained on."""
    return [[yi * v for v in z] + [yi] for z, yi in zip(model.standardizer.transform(X), y)]


def _record_folds(monkeypatch):
    """Collects (X, y, C, tol, max_epochs, model) of every train_svm call."""
    folds = []
    original = learn.train_svm

    def recorded(X, y, **kwargs):
        model = original(X, y, **kwargs)
        folds.append((X, [float(v) for v in y], kwargs["C"], kwargs["tol"],
                      kwargs["max_epochs"], model))
        return model

    monkeypatch.setattr(learn, "train_svm", recorded)
    return folds


def _primal_dual(rows, C, w, alpha):
    """P(w) and D(alpha), each sum an fsum; D is taken at the exactly
    rounded sum_i alpha_i r_i, not at w."""
    fsum, mul = math.fsum, operator.mul
    v = [fsum(a * r[m] for a, r in zip(alpha, rows)) for m in range(len(w))]
    hinge = fsum(max(0.0, 1.0 - fsum(map(mul, r, w))) for r in rows)
    return 0.5 * fsum(x * x for x in w) + C * hinge, fsum(alpha) - 0.5 * fsum(x * x for x in v)


class TestOptimalityCertificate:
    """Every fold of a cross-validation ends at a certified optimum of the
    dual: alpha in the box, w = sum_i alpha_i r_i, no projected gradient
    at tol, and a relative duality gap of at most 1e-9."""

    def _assert_certified(self, X, y, C, tol, max_epochs, model):
        fsum, mul = math.fsum, operator.mul
        rows = _signed(model, X, y)
        w, alpha = model.weights, model.alpha
        assert all(0.0 <= a <= C for a in alpha)
        assert _hex(w) == _hex(fsum(a * r[m] for a, r in zip(alpha, rows)) for m in range(len(w)))
        g = [fsum(map(mul, r, w)) - 1.0 for r in rows]
        pg = [min(v, 0.0) if a <= 0.0 else max(v, 0.0) if a >= C else v for a, v in zip(alpha, g)]
        assert model.converged and max(map(abs, pg)) == model.max_violation < tol
        # generic rows: the optimum has at most d free alpha
        assert sum(0.0 < a < C for a in alpha) <= len(w)
        primal, dual = _primal_dual(rows, C, w, alpha)
        assert abs(primal - dual) <= 1e-9 * primal
        assert abs(model.gap) <= 1e-9
        assert len(model.dual_objective_history) <= max_epochs

    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0, 100.0])
    def test_every_fold_of_seeded_overlapping_data(self, monkeypatch, C):
        folds = _record_folds(monkeypatch)
        for seed in range(3):
            X, y = _overlapping(seed, n=40)
            report = cross_validate(X.tolist(), ["a" if v < 0 else "b" for v in y], k=5, C=C,
                                    seed=seed)
            assert report.fold_converged == [True] * 5
            assert report.fold_gaps == [model.gap for *_, model in folds[-5:]]
        assert len(folds) == 15
        for fold in folds:
            self._assert_certified(*fold)

    def test_every_fold_of_a_bench_like_matrix(self, monkeypatch, tmp_path, capsys):
        # 130 rows per class, as many as a bench matrix-large pair, at the
        # bench's --C 10
        _write_overlapping_matrix(tmp_path / "m.csv", per_class=130)
        folds = _record_folds(monkeypatch)
        assert main(["classify", "--matrix", str(tmp_path / "m.csv"), "--pair", "fake:real",
                     "--preset", "body4", "--C", "10", "--out", str(tmp_path / "cv.tsv")]) == 0
        assert capsys.readouterr().err == ""
        assert len(folds) == 5
        for fold in folds:
            self._assert_certified(*fold)

    @pytest.mark.parametrize("n, d, C, seed", [
        (12, 3, 1.0, 0), (12, 3, 10.0, 1), (15, 3, 10.0, 2), (20, 4, 1.0, 3),
        (20, 2, 100.0, 4), (25, 4, 10.0, 5),
    ])
    def test_weights_near_a_long_sweep(self, n, d, C, seed):
        # the primal is 1-strongly convex, so ||w - w*||**2 <= 2 (P(w) - D(alpha))
        # for any w and feasible alpha; the sweep runs to a projected gradient
        # of 1e-12, at most 50,000 epochs. Each bound takes 2**-46 of |P| + |D|
        # for the rounding of its own evaluation
        X, y = _overlapping(seed, n=n, d=d)
        X, y = X.tolist(), y.tolist()
        w_ref, alpha_ref, _, _, converged = _per_call_train(X, y, C=C, tol=1e-12,
                                                            max_epochs=50_000, seed=seed)
        assert converged
        model = train_svm(X, y, C=C, seed=seed)
        assert model.converged
        rows = _signed(model, X, y)
        bound = 0.0
        for w, alpha in ((w_ref, alpha_ref), (model.weights, model.alpha)):
            primal, dual = _primal_dual(rows, C, w, alpha)
            assert primal - dual <= 1e-9 * primal
            bound += math.sqrt(2.0 * max(0.0, primal - dual + 2.0 ** -46 * (primal + abs(dual))))
        distance = math.sqrt(math.fsum((u - v) ** 2 for u, v in zip(model.weights, w_ref)))
        assert distance <= bound


def _degenerate(case, seed):
    """Overlapping rows made rank-deficient, repeated, tied or separable."""
    X, y = _overlapping(seed, n=30, d=3)
    X, y = X.tolist(), y.tolist()
    if case == "constant column":
        X = [row + [7.0] for row in X]
    elif case == "all-NA column":
        X = [row[:1] + [math.nan] + row[1:] for row in X]
    elif case == "duplicates, same label":
        X, y = X + X[:30], y + y[:30]
    elif case == "duplicates, opposite labels":
        X, y = X + X[:30], y + [-v for v in y[:30]]
    elif case == "collinear columns":
        # in exact arithmetic the z-scored rows span 3 of their 5 dimensions;
        # the rounding of the standardizer leaves them barely independent
        X = [row + [0.3 * row[0] + 1.7 * row[1], row[0] - row[2]] for row in X]
    elif case == "integer ties":
        X = [[float(round(v)) for v in row] for row in X]
    elif case == "separating feature":
        # one feature splits the classes, the others are tied noise
        X = [[0.0 if v < 0 else 1.0] + [float(round(u)) for u in row[1:]]
             for row, v in zip(X, y)]
    return X, y


class TestDegenerateInputs:
    CASES = ["constant column", "all-NA column", "collinear columns", "duplicates, same label",
             "duplicates, opposite labels", "integer ties", "separating feature"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("C", [0.01, 1.0, 10.0, 1000.0])
    def test_ends_in_the_box_within_max_epochs(self, case, C):
        for seed in range(3):
            X, y = _degenerate(case, seed)
            for max_epochs in (30, 1000):
                model = train_svm(X, y, C=C, max_epochs=max_epochs, seed=seed)
                history = model.dual_objective_history
                assert len(history) <= max_epochs
                assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
                assert all(0.0 <= a <= C for a in model.alpha)
                assert all(map(math.isfinite, model.weights))
            # the 1000-epoch model
            assert model.converged and model.max_violation < 1e-4

    @pytest.mark.parametrize("case", CASES)
    def test_cross_validate_at_the_bench_C(self, monkeypatch, case):
        folds = _record_folds(monkeypatch)
        X, y = _degenerate(case, 0)
        report = cross_validate(X, ["a" if v < 0 else "b" for v in y], k=5, C=10.0)
        assert report.fold_converged == [True] * 5
        for _, _, C, _, _, model in folds:
            assert all(0.0 <= a <= C for a in model.alpha)


def _pattern(alpha, C):
    return [0 if a <= 0.0 else 2 if a >= C else 1 for a in alpha]


class TestSwitchRule:
    """train_svm leaves the sweep after the first epoch that moves no
    alpha between 0, (0, C) and C, unless that epoch met tol."""

    @pytest.mark.parametrize("C", [0.1, 1.0, 10.0, 100.0])
    def test_finish_starts_after_the_first_settled_epoch(self, C):
        fsum, mul = math.fsum, operator.mul
        switched = 0
        for seed in range(4):
            X, y = _overlapping(seed, n=30)
            X, y = X.tolist(), y.tolist()
            rows = learn._signed_rows(fit_standardizer(X).transform(X), y)
            history, before = [], _pattern([0.0] * len(rows), C)
            for w, alpha, max_violation, _ in learn._sweep(rows, C, 1000, seed):
                history.append(0.5 * fsum(map(mul, w, w)) - fsum(alpha))
                after = _pattern(alpha, C)
                if max_violation < 1e-4 or after == before:
                    break
                before = after
            model = train_svm(X, y, C=C, seed=seed)
            epochs = len(history)
            assert _hex(model.dual_objective_history[:epochs]) == _hex(history)
            if max_violation < 1e-4:
                assert len(model.dual_objective_history) == epochs
            else:
                switched += 1
                assert len(model.dual_objective_history) > epochs
                assert model.converged and abs(model.gap) <= 1e-9
        assert switched

    def test_finish_ends_at_the_optimum_not_at_tol(self, monkeypatch):
        # at C = 0.03 the finish of some folds brings every violation below
        # tol well before the optimum; it still goes on to the optimum
        finished = []
        original = learn._finish

        def recorded(*args):
            finished.append(original(*args))
            return finished[-1]

        monkeypatch.setattr(learn, "_finish", recorded)
        for seed in range(6):
            X, y = _overlapping(seed, n=40)
            cross_validate(X.tolist(), ["a" if v < 0 else "b" for v in y], k=5, C=0.03,
                           seed=seed)
        assert len(finished) >= 10
        for w, alpha, g, max_violation in finished:
            assert max_violation < 1e-4 and abs(learn._relative_gap(w, alpha, g, 0.03)) <= 1e-9

    def test_sweep_result_kept_when_tol_comes_first(self):
        # at C = 0.01 these folds meet tol before their bound pattern settles
        for X, y, seed in _fold_problems(30):
            model = train_svm(X, y, C=0.01, tol=1e-4, seed=seed)
            w, alpha, history, max_violation, converged = _per_call_train(
                X, y, C=0.01, tol=1e-4, max_epochs=1000, seed=seed)
            assert converged
            assert _hex(model.weights) == _hex(w) and _hex(model.alpha) == _hex(alpha)
            assert _hex(model.dual_objective_history) == _hex(history)


def _write_overlapping_matrix(path, per_class=20):
    rng = np.random.default_rng(20170103)
    rows, labels = [], []
    for label, shift in (("fake", 0.0), ("real", 0.6)):
        for _ in range(per_class):
            nn, ttr, wc, quotes = rng.normal(shift, 1.0, 4)
            rows.append([float(nn), float(ttr), float(round(300 + 80 * wc)), float(quotes)])
            labels.append(label)
    rows[3][1] = None
    ft.write_matrix(ft.FeatureMatrix(
        feature_names=("NN", "TTR", "WC", "quotes"),
        doc_ids=tuple(f"d{i:02d}" for i in range(len(rows))),
        labels=tuple(labels), part="body", rows=rows,
    ), path)


class TestClassifyCli:
    def test_golden_cv_tsv(self, tmp_path, capsys):
        # recorded with the Fisher-Yates folds and sweep orders over
        # random.Random(seed); every fold ends converged in the exact
        # finish, and no held-out row changes side, so the bytes are those
        # the sweep alone wrote
        _write_overlapping_matrix(tmp_path / "m.csv")
        out = tmp_path / "cv.tsv"
        assert main(["classify", "--matrix", str(tmp_path / "m.csv"), "--pair", "fake:real",
                     "--preset", "body4", "--C", "10", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "f9abea304a07286ffc9d0a77719565dbb1839bc40176579e928db428cd2f56c2")
        assert capsys.readouterr().err == ""

    def test_too_few_rows_per_class_for_the_folds_exit_1(self, tmp_path, capsys):
        _write_overlapping_matrix(tmp_path / "m.csv", per_class=6)
        out = tmp_path / "cv.tsv"
        assert main(["classify", "--matrix", str(tmp_path / "m.csv"), "--pair", "fake:real",
                     "--preset", "body4", "--folds", "7", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: need at least k=7 samples per class; class 'fake' has 6\n")
        assert not out.exists()

    @pytest.mark.parametrize("C", ["0", "-1", "nan", "inf"])
    def test_invalid_C_exit_1(self, tmp_path, capsys, C):
        _write_overlapping_matrix(tmp_path / "m.csv")
        out = tmp_path / "cv.tsv"
        assert main(["classify", "--matrix", str(tmp_path / "m.csv"), "--pair", "fake:real",
                     "--preset", "body4", "--C", C, "--out", str(out)]) == 1
        assert "C must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_each_unconverged_fold_named_with_its_gap(self, tmp_path, capsys, monkeypatch):
        original = learn.cross_validate
        monkeypatch.setattr(learn, "cross_validate",
                            lambda *args, **kwargs: original(*args, max_epochs=3, **kwargs))
        _write_overlapping_matrix(tmp_path / "m.csv")
        out = tmp_path / "cv.tsv"
        assert main(["classify", "--matrix", str(tmp_path / "m.csv"), "--pair", "fake:real",
                     "--preset", "body4", "--C", "10", "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            f"fold {i} did not converge to tol within max_epochs" for i in range(5)]
        for line in lines:
            gap = float(line.split("relative duality gap ")[1].rstrip(")"))
            assert 0.0 < gap < 1.0
        assert out.read_text().splitlines()[-6] == "fold\taccuracy"

    def test_no_warning_when_every_fold_converges(self, tmp_path, capsys):
        _write_overlapping_matrix(tmp_path / "m.csv")
        assert main(["classify", "--matrix", str(tmp_path / "m.csv"), "--pair", "fake:real",
                     "--preset", "body4", "--C", "0.01", "--out", str(tmp_path / "cv.tsv")]) == 0
        assert capsys.readouterr().err == ""
