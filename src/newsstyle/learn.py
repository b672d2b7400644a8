"""Linear SVM classification protocol: standardization, dual coordinate
descent training, stratified k-fold cross-validation, and the named
top-4 feature presets.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .matrix import PRESETS  # noqa: F401  (re-exported)

_STD_FLOOR = 1e-12


class LearnError(ValueError):
    pass


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        X = np.where(np.isnan(X), self.mean, X)  # NA -> training mean
        return (X - self.mean) / self.std


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Per-feature z-scoring fitted on training rows only; NaN cells are
    ignored when estimating, constant features collapse to zero."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise LearnError("cannot fit standardizer on empty matrix")
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
        mean = np.nanmean(X, axis=0)
        std = np.nanstd(X, axis=0)
    mean = np.where(np.isnan(mean), 0.0, mean)
    # constant feature: values equal the mean exactly, so 0 / floor == 0
    std = np.where(np.isnan(std) | (std < _STD_FLOOR), _STD_FLOOR, std)
    return Standardizer(mean=mean, std=std)


@dataclass
class SvmModel:
    weights: np.ndarray  # includes appended bias weight as last entry
    standardizer: Standardizer
    dual_objective_history: list[float] = field(default_factory=list)
    alpha: np.ndarray | None = None
    converged: bool = False  # set by train_svm: the last epoch met tol
    max_violation: float = math.nan  # largest projected-gradient violation in the last epoch

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        Z = self.standardizer.transform(np.atleast_2d(np.asarray(X, dtype=float)))
        Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
        return Zb @ self.weights


def train_svm(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    tol: float = 1e-4,
    max_epochs: int = 1000,
    seed: int = 0,
    standardizer: Standardizer | None = None,
) -> SvmModel:
    """L1-loss linear SVM by dual coordinate descent (Hsieh et al. 2008).

    The bias is an appended constant feature, so the dual has simple box
    constraints alpha_i in [0, C]. Sweep order is seeded-shuffled per
    epoch; training stops when the largest projected-gradient violation
    falls below tol, or after max_epochs (then ``converged`` is False).

    The sweep runs on Python floats. Each gradient is the correctly
    rounded sum (``math.fsum``) of correctly rounded products, and each
    update is a rounded product and a rounded sum per weight. No BLAS
    kernel is involved, so the weights are the same bits on any IEEE-754
    host.
    """
    if not (math.isfinite(C) and C > 0):
        raise LearnError(f"C must be finite and > 0, got {C!r}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise LearnError("train_svm requires both classes (-1 and +1) present")
    if standardizer is None:
        standardizer = fit_standardizer(X)
    Z = standardizer.transform(X)
    Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
    n, d = Zb.shape
    q = np.einsum("ij,ij->i", Zb, Zb)  # diagonal of the Gram matrix
    q = np.where(q <= 0, 1.0, q).tolist()

    # y is +-1, so y_i * z_i is exact and the label folds into each row
    rows = [tuple(r) for r in (y[:, None] * Zb).tolist()]
    alpha = [0.0] * n
    w = [0.0] * d
    fsum, mul = math.fsum, operator.mul
    rng = np.random.default_rng(seed)
    history: list[float] = []
    order = np.arange(n)
    max_violation = math.inf  # max_epochs == 0 leaves the model unconverged
    for _ in range(max_epochs):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order.tolist():
            row = rows[i]
            a = alpha[i]
            g = fsum(map(mul, row, w)) - 1.0
            # min/max and the clamps are spelled out as the same comparisons,
            # without the cost of a builtin call
            if a <= 0.0:
                pg = 0.0 if g > 0.0 else g
            elif a >= C:
                pg = 0.0 if g < 0.0 else g
            else:
                pg = g
            if pg != 0.0:
                if abs(pg) > max_violation:
                    max_violation = abs(pg)
                new = a - g / q[i]
                if new < 0.0:
                    new = 0.0
                if new > C:
                    new = C
                if new != a:
                    delta = new - a
                    w = [wj + delta * rj for wj, rj in zip(w, row)]
                    alpha[i] = new
        history.append(0.5 * fsum(map(mul, w, w)) - fsum(alpha))
        if max_violation < tol:
            break
    return SvmModel(
        weights=np.array(w), standardizer=standardizer,
        dual_objective_history=history, alpha=np.array(alpha),
        converged=max_violation < tol, max_violation=max_violation,
    )


def stratified_kfold(labels, k: int, seed: int = 0) -> list[list[int]]:
    """k disjoint index folds; per-class counts differ by at most 1."""
    labels = list(labels)
    if k < 2:
        raise LearnError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == cls]
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % k].append(i)
    return [sorted(f) for f in folds]


def majority_baseline(labels) -> float:
    labels = list(labels)
    if not labels:
        raise LearnError("empty label list")
    counts = {l: labels.count(l) for l in set(labels)}
    return max(counts.values()) / len(labels)


@dataclass
class CvReport:
    fold_accuracies: list[float]
    mean_accuracy: float
    baseline: float
    k: int
    seed: int
    fold_converged: list[bool] = field(default_factory=list)


def cross_validate(
    X: np.ndarray,
    labels,
    k: int = 5,
    C: float = 1.0,
    seed: int = 0,
    tol: float = 1e-4,
    max_epochs: int = 1000,
) -> CvReport:
    """Stratified k-fold CV of the linear SVM; the standardizer is refit
    on each fold's training rows only."""
    X = np.asarray(X, dtype=float)
    labels = list(labels)
    classes = sorted(set(labels))
    if len(classes) != 2:
        raise LearnError(f"cross_validate expects a binary task, got {classes}")
    if min(labels.count(c) for c in classes) < k:
        raise LearnError("need at least k samples per class")
    y = np.array([1.0 if l == classes[1] else -1.0 for l in labels])

    folds = stratified_kfold(labels, k, seed)
    accuracies, converged = [], []
    for fold in folds:
        test = np.array(fold, dtype=int)
        held_out = set(fold)
        train = np.array([i for i in range(len(labels)) if i not in held_out], dtype=int)
        model = train_svm(X[train], y[train], C=C, tol=tol, max_epochs=max_epochs, seed=seed)
        values = model.decision_values(X[test])
        # an exact zero decision value goes to the positive class
        pred = np.where(values >= 0, 1.0, -1.0)
        accuracies.append(float(np.mean(pred == y[test])))
        converged.append(model.converged)
    return CvReport(
        fold_accuracies=accuracies,
        mean_accuracy=float(np.mean(accuracies)),
        baseline=majority_baseline(labels),
        k=k, seed=seed, fold_converged=converged,
    )
