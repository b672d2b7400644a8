"""Linear SVM classification protocol: standardization, dual coordinate
descent training, stratified k-fold cross-validation, and the named
top-4 feature presets.

Everything runs on plain Python floats. A row is a sequence of floats,
with NA as ``math.nan``. Every sum over a column or a row is
``math.fsum``, which is exactly rounded, so no result depends on the
order of a reduction or on the host. Every random order comes from
``shuffle``, a Fisher-Yates over ``random.Random(seed).random()``; the
sweep orders of ``train_svm`` are drawn once per (n, seed) and kept in a
bounded memo, so the folds of one cross-validation share them.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache, reduce

from .matrix import PRESETS  # noqa: F401  (re-exported)

_STD_FLOOR = 1e-12
# most row indices the sweep-order memo holds: 2**19 tuple slots, ~4 MiB
ORDER_MEMO_CAP = 2 ** 19

Rows = Sequence[Sequence[float]]  # one row per sample, NA as math.nan


class LearnError(ValueError):
    pass


def shuffle(items: list, rand) -> None:
    """Fisher-Yates in place, with ``j = int(rand() * (i + 1))`` for i from
    the last index down to 1.

    ``rand`` is ``random.Random(seed).random``: Python keeps that sequence
    the same for a seed across versions, which it does not promise for
    ``random.shuffle`` or ``randrange``. The relative bias of each draw is
    below n / 2**53.
    """
    for i in range(len(items) - 1, 0, -1):
        j = int(rand() * (i + 1))
        items[i], items[j] = items[j], items[i]


class _SweepOrders:
    """The per-epoch sweep orders of ``train_svm`` for one (n, seed).

    Epoch e's order is the e-th ``shuffle`` of ``range(n)`` over one
    ``random.Random(seed).random`` stream. The first ``ORDER_MEMO_CAP // n``
    orders are drawn on first use and stored as tuples. An epoch past them
    goes on from a copy of the frontier, the last stored order and the
    stream's state, which no later draw moves.
    """

    def __init__(self, n: int, seed: int) -> None:
        self.n = n
        self.stored = ORDER_MEMO_CAP // n  # epochs held
        self.rng = random.Random(seed)
        self.orders: list[tuple[int, ...]] = []
        self.frontier_state: tuple | None = None

    def epochs(self, count: int):
        """The first ``count`` orders, lazily, one per epoch."""
        orders = self.orders
        for e in range(min(count, self.stored)):
            if e == len(orders):
                order = list(orders[-1] if orders else range(self.n))
                shuffle(order, self.rng.random)
                orders.append(tuple(order))
            yield orders[e]
        if count <= self.stored:
            return
        if self.frontier_state is None:
            self.frontier_state = self.rng.getstate()
        rng = random.Random()
        rng.setstate(self.frontier_state)
        order = list(orders[-1] if orders else range(self.n))
        for _ in range(count - self.stored):
            shuffle(order, rng.random)
            yield order


# the folds of one stratified cross-validation that share a training size
# run one after another, so a single slot serves every fold that can reuse
# orders, and the memo never holds more than ORDER_MEMO_CAP indices
@lru_cache(maxsize=1)
def _sweep_orders(n: int, seed: int) -> _SweepOrders:
    return _SweepOrders(n, seed)


def _sum(values: list[float]) -> float:
    """``math.fsum``, except where it raises: an inf with a -inf, or a total
    past the float range, gives the left-to-right float sum (nan or +-inf)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return reduce(operator.add, values, 0.0)


@dataclass
class Standardizer:
    mean: list[float]
    std: list[float]

    def transform(self, X: Rows) -> list[list[float]]:
        """z-scored rows; an NA cell becomes the training mean, so its z is 0."""
        return [
            [((m if v != v else v) - m) / s for v, m, s in zip(map(float, row), self.mean, self.std)]
            for row in X
        ]


def fit_standardizer(X: Rows) -> Standardizer:
    """Per-feature z-scoring fitted on training rows only.

    A column's mean and population std are exactly rounded sums over its
    non-NA cells. A column with no such cell gets mean 0. A std below 1e-12
    or undefined gets that floor, so a constant column maps to 0; an
    infinite std maps the column to 0 as well.
    """
    rows = [list(map(float, row)) for row in X]
    if not rows or not rows[0]:
        raise LearnError("cannot fit standardizer on empty matrix")
    mean, std = [], []
    for column in zip(*rows):
        cells = [v for v in column if v == v]
        if cells:
            m = _sum(cells) / len(cells)
            s = math.sqrt(_sum([(v - m) * (v - m) for v in cells]) / len(cells))
        else:
            m = s = math.nan
        mean.append(0.0 if m != m else m)
        # constant feature: values equal the mean exactly, so 0 / floor == 0
        std.append(s if s >= _STD_FLOOR else _STD_FLOOR)
    return Standardizer(mean=mean, std=std)


@dataclass
class SvmModel:
    weights: list[float]  # includes appended bias weight as last entry
    standardizer: Standardizer
    dual_objective_history: list[float] = field(default_factory=list)
    alpha: list[float] | None = None
    converged: bool = False  # set by train_svm: the last epoch met tol
    max_violation: float = math.nan  # largest projected-gradient violation in the last epoch

    def decision_values(self, X: Rows) -> list[float]:
        """One exactly rounded w . [z, 1] per row of X."""
        w, mul = self.weights, operator.mul
        return [_sum([*map(mul, z, w), w[-1]]) for z in self.standardizer.transform(X)]


def train_svm(
    X: Rows,
    y: Sequence[float],
    C: float = 1.0,
    tol: float = 1e-4,
    max_epochs: int = 1000,
    seed: int = 0,
    standardizer: Standardizer | None = None,
) -> SvmModel:
    """L1-loss linear SVM by dual coordinate descent (Hsieh et al. 2008).

    The bias is an appended constant feature, so the dual has simple box
    constraints alpha_i in [0, C]. Each epoch sweeps the rows in a new
    order: one ``random.Random(seed)`` stream reshuffles the same index
    list with ``shuffle``. Those orders depend only on (n, seed), so they
    are drawn once and shared by every call with the same n and seed (see
    ``_SweepOrders``); the result is the same bits as a call that shuffles
    its own list. Training stops when the largest projected-gradient
    violation falls below tol, or after max_epochs (then ``converged`` is
    False).

    Each gradient and each entry of the Gram diagonal is the correctly
    rounded sum (``math.fsum``) of correctly rounded products, and each
    update is a rounded product and a rounded sum per weight. So the
    weights are the same bits on any IEEE-754 host.
    """
    if not (math.isfinite(C) and C > 0):
        raise LearnError(f"C must be finite and > 0, got {C!r}")
    y = [float(v) for v in y]
    if set(y) != {-1.0, 1.0}:
        raise LearnError("train_svm requires both classes (-1 and +1) present")
    if standardizer is None:
        standardizer = fit_standardizer(X)
    fsum, mul = math.fsum, operator.mul
    # y is +-1, so y_i * z_i is exact and the label folds into each row; the
    # row ends with the bias feature y_i, so every q_i >= 1 and none is 0
    rows = [tuple([yi * v for v in z] + [yi]) for z, yi in zip(standardizer.transform(X), y)]
    q = [fsum(map(mul, row, row)) for row in rows]  # diagonal of the Gram matrix
    n = len(rows)
    alpha = [0.0] * n
    w = [0.0] * len(rows[0])
    history: list[float] = []
    max_violation = math.inf  # max_epochs == 0 leaves the model unconverged
    for order in _sweep_orders(n, seed).epochs(max_epochs):
        max_violation = 0.0
        for i in order:
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
        weights=w, standardizer=standardizer,
        dual_objective_history=history, alpha=alpha,
        converged=max_violation < tol, max_violation=max_violation,
    )


def stratified_kfold(labels, k: int, seed: int = 0) -> list[list[int]]:
    """k disjoint index folds; per-class counts differ by at most 1. One
    ``random.Random(seed)`` stream shuffles each class in sorted order."""
    labels = list(labels)
    if k < 2:
        raise LearnError("k must be >= 2")
    rand = random.Random(seed).random
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == cls]
        shuffle(idx, rand)
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
    X: Rows,
    labels,
    k: int = 5,
    C: float = 1.0,
    seed: int = 0,
    tol: float = 1e-4,
    max_epochs: int = 1000,
) -> CvReport:
    """Stratified k-fold CV of the linear SVM; the standardizer is refit
    on each fold's training rows only."""
    labels = list(labels)
    classes = sorted(set(labels))
    if len(classes) != 2:
        raise LearnError(f"cross_validate expects a binary task, got {classes}")
    if min(labels.count(c) for c in classes) < k:
        raise LearnError("need at least k samples per class")
    y = [1.0 if l == classes[1] else -1.0 for l in labels]

    folds = stratified_kfold(labels, k, seed)
    accuracies, converged = [], []
    for fold in folds:
        held_out = set(fold)
        train = [i for i in range(len(labels)) if i not in held_out]
        model = train_svm([X[i] for i in train], [y[i] for i in train],
                          C=C, tol=tol, max_epochs=max_epochs, seed=seed)
        values = model.decision_values([X[i] for i in fold])
        # an exact zero decision value goes to the positive class
        hits = sum((v >= 0.0) == (y[i] > 0.0) for v, i in zip(values, fold))
        accuracies.append(hits / len(fold))
        converged.append(model.converged)
    return CvReport(
        fold_accuracies=accuracies,
        mean_accuracy=math.fsum(accuracies) / k,
        baseline=majority_baseline(labels),
        k=k, seed=seed, fold_converged=converged,
    )
