"""Linear SVM classification protocol: standardization, SVM training and
stratified k-fold cross-validation.

Everything runs on plain Python floats. A row is a sequence of floats,
with NA as ``math.nan``. Every sum over a column or a row is
``math.fsum``, which is exactly rounded, so no result depends on the
order of a reduction or on the host, and every mean is ``float_mean``,
as in ``stats`` and the fluency features. Every random order comes from
``shuffle``, a Fisher-Yates over ``random.Random(seed).random()``.

``train_svm`` solves the dual in two phases: dual coordinate descent
until the set of dual variables at 0 and at C stops changing, then an
exact active-set solve from there. The module keeps no state between
calls: a fit is a function of its arguments alone.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Sequence

from . import InputError, Record, float_mean, float_sum

_STD_FLOOR = 1e-12

Rows = Sequence[Sequence[float]]  # one row per sample, NA as math.nan


class LearnError(ValueError, InputError):
    pass


def _check_width(X: Rows, width: int) -> None:
    """Raise LearnError naming the first row of X without ``width`` values."""
    for index, row in enumerate(X):
        if len(row) != width:
            raise LearnError(f"row {index} has {len(row)} values, expected {width}")


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


class Standardizer(Record):
    __slots__ = _fields = ("mean", "std")

    def __init__(self, mean: list[float], std: list[float]):
        self.mean = mean
        self.std = std

    def transform(self, X: Rows) -> list[list[float]]:
        """z-scored rows; an NA cell becomes the training mean, so its z is 0.
        A row whose length is not the standardizer's raises LearnError."""
        _check_width(X, len(self.mean))
        return [
            [((m if v != v else v) - m) / s for v, m, s in zip(map(float, row), self.mean, self.std)]
            for row in X
        ]


def fit_standardizer(X: Rows) -> Standardizer:
    """Per-feature z-scoring fitted on training rows only.

    A column's mean and population std are ``float_mean``s over its
    non-NA cells, so finite cells whose sum passes the float range keep a
    finite mean. A column with no such cell gets mean 0. A std below 1e-12
    or undefined gets that floor, so a constant column maps to 0; an
    infinite std maps the column to 0 as well. Rows of unequal length raise
    LearnError.
    """
    rows = [list(map(float, row)) for row in X]
    if not rows or not rows[0]:
        raise LearnError("cannot fit standardizer on empty matrix")
    _check_width(rows, len(rows[0]))
    mean, std = [], []
    for column in zip(*rows):
        cells = [v for v in column if v == v]
        if cells:
            m = float_mean(cells)
            s = math.sqrt(float_mean([(v - m) * (v - m) for v in cells]))
        else:
            m = s = math.nan
        mean.append(0.0 if m != m else m)
        # constant feature: values equal the mean exactly, so 0 / floor == 0
        std.append(s if s >= _STD_FLOOR else _STD_FLOOR)
    return Standardizer(mean=mean, std=std)


class SvmModel(Record):
    __slots__ = _fields = ("weights", "standardizer", "dual_objective_history", "alpha",
                           "converged", "max_violation", "gap")

    def __init__(self, weights: list[float], standardizer: Standardizer,
                 dual_objective_history: list[float] | None = None,
                 alpha: list[float] | None = None, converged: bool = False,
                 max_violation: float = math.nan, gap: float = math.nan):
        self.weights = weights  # includes appended bias weight as last entry
        self.standardizer = standardizer
        self.dual_objective_history = (
            [] if dual_objective_history is None else dual_objective_history)
        self.alpha = alpha
        self.converged = converged  # set by train_svm: max_violation < tol
        self.max_violation = max_violation  # largest projected gradient of the returned alpha
        self.gap = gap  # relative duality gap (P - D) / P of the returned w and alpha

    def decision_values(self, X: Rows) -> list[float]:
        """One exactly rounded w . [z, 1] per row of X."""
        w, mul = self.weights, operator.mul
        return [float_sum([*map(mul, z, w), w[-1]]) for z in self.standardizer.transform(X)]


def train_svm(
    X: Rows,
    y: Sequence[float],
    C: float = 1.0,
    tol: float = 1e-4,
    max_epochs: int = 1000,
    seed: int = 0,
    standardizer: Standardizer | None = None,
) -> SvmModel:
    """L1-loss linear SVM: dual coordinate descent (Hsieh et al. 2008)
    until the bound pattern settles, then an exact active-set solve.

    The bias is an appended constant feature, so the dual
    min 1/2 ||sum_i alpha_i r_i||**2 - sum_i alpha_i has simple box
    constraints alpha_i in [0, C], with r_i the signed row.

    Phase 1 (``_sweep``) sweeps the rows in a new order each epoch. It
    stops when the largest projected-gradient violation falls below tol,
    and the result is then the sweep's own. It also stops at the first
    epoch that moves no alpha between 0, (0, C) and C: coordinate descent
    finds which alpha sit at a bound quickly, but closes in on the
    optimum slowly. Phase 2 (``_finish``) then solves the dual exactly,
    from the sweep's alpha, with at most d = len(r_i) free alpha (Moré &
    Toraldo 1991). Sweep epochs and phase-2 steps together number at most
    max_epochs, and each adds the dual objective to the history. If the
    budget runs out first, ``converged`` is False.

    Every sum is an fsum of correctly rounded products, and the small
    linear solves of phase 2 are plain IEEE-754 arithmetic in a fixed
    order. So the weights are the same bits on any IEEE-754 host.
    ``gap`` is (P - D) / P at the returned weights and alpha.
    """
    if not (math.isfinite(C) and C > 0):
        raise LearnError(f"C must be finite and > 0, got {C!r}")
    y = [float(v) for v in y]
    if len(X) != len(y):
        raise LearnError(f"train_svm got {len(X)} rows and {len(y)} labels")
    if set(y) != {-1.0, 1.0}:
        raise LearnError("train_svm requires both classes (-1 and +1) present")
    if standardizer is None:
        standardizer = fit_standardizer(X)
    fsum, mul = math.fsum, operator.mul
    rows = _signed_rows(standardizer.transform(X), y)
    w, alpha = [0.0] * len(rows[0]), [0.0] * len(rows)
    history: list[float] = []
    max_violation, settled = math.inf, False  # max_epochs == 0 leaves the model unconverged
    for w, alpha, max_violation, settled in _sweep(rows, C, max_epochs, seed):
        history.append(0.5 * fsum(map(mul, w, w)) - fsum(alpha))
        if max_violation < tol or settled:
            break
    if settled and not max_violation < tol and len(history) < max_epochs:
        w, alpha, g, max_violation = _finish(rows, C, tol, alpha, max_epochs - len(history), history)
    else:
        g = _gradients(rows, w)
    return SvmModel(
        weights=w, standardizer=standardizer,
        dual_objective_history=history, alpha=alpha,
        converged=max_violation < tol, max_violation=max_violation,
        gap=_relative_gap(w, alpha, g, C),
    )


def _signed_rows(Z: Rows, y: list[float]) -> list[tuple[float, ...]]:
    """Each z-scored row times its label, with the label appended as the
    bias feature. y is +-1, so every product is exact, and every row has
    a squared norm of at least 1."""
    return [tuple([yi * v for v in z] + [yi]) for z, yi in zip(Z, y)]


def _gradients(rows, w) -> list[float]:
    """The dual gradient g_i = r_i . w - 1 of every row."""
    fsum, mul = math.fsum, operator.mul
    return [fsum(map(mul, row, w)) - 1.0 for row in rows]


def _relative_gap(w, alpha, g, C) -> float:
    """(P - D) / P for P = ||w||**2 / 2 + C sum_i max(0, -g_i) and
    D = sum_i alpha_i - ||w||**2 / 2, each sum an fsum."""
    fsum = math.fsum
    half_sq = 0.5 * fsum([v * v for v in w])
    primal = half_sq + C * fsum([-v for v in g if v < 0.0])
    return (primal - (fsum(alpha) - half_sq)) / primal


def _sweep(rows, C: float, max_epochs: int, seed: int):
    """Phase 1 of ``train_svm``: dual coordinate descent from alpha = 0.

    Yields after each of at most max_epochs epochs: w, alpha (one list,
    updated in place), the epoch's largest projected-gradient violation,
    and whether the epoch moved no alpha between 0, (0, C) and C.

    Each epoch sweeps the rows in a new order: one ``random.Random(seed)``
    stream, drawn by this call alone, reshuffles the same index list with
    ``shuffle``. Each gradient and each entry of the Gram diagonal is the
    correctly rounded sum (``math.fsum``) of correctly rounded products,
    and each update is a rounded product and a rounded sum per weight.
    """
    fsum, mul = math.fsum, operator.mul
    q = [fsum(map(mul, row, row)) for row in rows]  # diagonal of the Gram matrix
    n = len(rows)
    alpha = [0.0] * n
    w = [0.0] * len(rows[0])
    rand = random.Random(seed).random
    order = list(range(n))
    for _ in range(max_epochs):
        shuffle(order, rand)
        max_violation = 0.0
        settled = True
        for i in order:
            row = rows[i]
            a = alpha[i]
            g = fsum(map(mul, row, w)) - 1.0
            # a projected gradient of 0 ends the visit: g pointing out of
            # the box at a bound, or g == 0
            if g > 0.0:
                if a <= 0.0:
                    continue
            elif g < 0.0:
                if a >= C:
                    continue
            elif g == 0.0:
                continue
            # the projected gradient is g (a nan g included); the clamps are
            # spelled out as comparisons, without the cost of a builtin call
            if abs(g) > max_violation:
                max_violation = abs(g)
            new = a - g / q[i]
            if new < 0.0:
                new = 0.0
            if new > C:
                new = C
            if new != a:
                # a step from or to a bound (or nan) moves the row between
                # 0, (0, C) and C; one inside (0, C) does not
                if settled and not (0.0 < a < C and 0.0 < new < C):
                    settled = False
                delta = new - a
                w = [wj + delta * rj for wj, rj in zip(w, row)]
                alpha[i] = new
        yield w, alpha, max_violation, settled


def _finish(rows, C: float, tol: float, alpha: list[float], budget: int, history: list[float]):
    """Phase 2 of ``train_svm``: an active-set solve of the dual from the
    sweep's alpha, in at most ``budget`` steps, each adding the dual
    objective to ``history``.

    ``free`` is a list of linearly independent rows whose alpha the solve
    moves; every other alpha stays where it is. Each step either takes
    the Newton step of the dual restricted to ``free`` (its Gram matrix is
    positive definite), or, once the free gradients are 0, moves one more
    row j: the sweep's rows in (0, C) first, then the row with the
    largest projected gradient. Row j moves along the line that keeps the
    free gradients at 0, to the dual's minimum on that line. A step stops
    at the first alpha to reach 0 or C, and that row leaves ``free``; row
    j joins it otherwise. If row j lies in the span of the free rows, the
    dual is linear on its line, so some alpha always stops the step, and
    j can only take the place of a free row. (A row whose residual against
    that span is a rounding error has its line minimum far past the box.)
    So ``free`` never gains a dependent row and has at most d rows, its
    Gram matrix stays regular, and each step moves one row between 0,
    (0, C) and C.

    The solve ends when no gradient exceeds ``tol * 2**-20`` against the
    box, after ``budget`` steps, or on a pivot of 0. That threshold lies
    far below tol, so the solve stops at the optimum, up to rounding, and
    not at the first alpha whose violations tol would accept. w is the
    exactly rounded sum_i alpha_i r_i throughout.

    Returns w, alpha, the gradients and their largest violation.
    """
    fsum, mul = math.fsum, operator.mul
    columns = list(zip(*rows))
    threshold = tol * 2.0 ** -20
    alpha = list(alpha)
    w = [fsum(map(mul, alpha, col)) for col in columns]
    free: list[int] = []
    pending = [j for j in range(len(alpha) - 1, -1, -1) if 0.0 < alpha[j] < C]  # next one last
    g = None
    for _ in range(budget):
        gram = [[fsum(map(mul, rows[a], rows[b])) for b in free] for a in free]
        g_free = [fsum(map(mul, rows[k], w)) - 1.0 for k in free]
        if any(abs(v) > threshold for v in g_free):
            p = _solve(gram, [-v for v in g_free])
            move, limit = free, 1.0
        else:
            j, g_j = -1, 0.0
            while pending:
                k = pending.pop()
                g_k = fsum(map(mul, rows[k], w)) - 1.0
                if abs(g_k) > threshold:
                    j, g_j = k, g_k
                    break
            if j < 0:
                g = _gradients(rows, w)
                members = set(free)
                worst = threshold
                for i, (a, v) in enumerate(zip(alpha, g)):
                    if (v < -worst and a < C or v > worst and a > 0.0) and i not in members:
                        j, g_j, worst = i, v, abs(v)
                if j < 0:
                    break
            row = rows[j]
            c = _solve(gram, [fsum(map(mul, rows[k], row)) for k in free])
            if c is None:
                break
            # the squared norm of row j's residual against the free rows
            s = fsum([fsum([row[m], *(-v * rows[k][m] for v, k in zip(c, free))]) ** 2
                      for m in range(len(row))])
            sign = -1.0 if g_j > 0.0 else 1.0
            p = [-v * sign for v in c] + [sign]
            move = free + [j]
            limit = abs(g_j) / s if s > 0.0 else math.inf
        if p is None:
            break
        # the ratio test: the first alpha of the step to reach 0 or C
        t, blocker, end = limit, -1, 0.0
        for k, v in zip(move, p):
            if v > 0.0:
                tk, bound = (C - alpha[k]) / v, C
            elif v < 0.0:
                tk, bound = alpha[k] / -v, 0.0
            else:
                continue
            if tk < t:
                t, blocker, end = tk, k, bound
        for k, v in zip(move, p):
            a = alpha[k] + t * v
            alpha[k] = 0.0 if a < 0.0 else C if a > C else a
        if blocker >= 0:
            alpha[blocker] = end
        free = [k for k in move if k != blocker]
        w = [fsum(map(mul, alpha, col)) for col in columns]
        history.append(0.5 * fsum(map(mul, w, w)) - fsum(alpha))
        g = None
    if g is None:
        g = _gradients(rows, w)
    max_violation = max(abs(min(v, 0.0) if a <= 0.0 else max(v, 0.0) if a >= C else v)
                        for a, v in zip(alpha, g))
    return w, alpha, g, max_violation


def _solve(A: list[list[float]], b: list[float]) -> list[float] | None:
    """x with A x = b, by Gaussian elimination with partial pivoting (the
    first largest pivot); None when a pivot is 0 or not finite. Each back
    substitution is an fsum."""
    m = len(b)
    M = [[*row, v] for row, v in zip(A, b)]
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(M[i][k]))
        M[k], M[p] = M[p], M[k]
        pivot = M[k][k]
        if not (pivot != 0.0 and math.isfinite(pivot)):
            return None
        for i in range(k + 1, m):
            f = M[i][k] / pivot
            M[i] = [u - f * v for u, v in zip(M[i], M[k])]
    x = [0.0] * m
    for k in range(m - 1, -1, -1):
        x[k] = math.fsum([M[k][m], *(-M[k][j] * x[j] for j in range(k + 1, m))]) / M[k][k]
    return x


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


class CvReport(Record):
    __slots__ = _fields = ("fold_accuracies", "mean_accuracy", "baseline", "fold_converged",
                           "fold_gaps")

    def __init__(self, fold_accuracies: list[float], mean_accuracy: float, baseline: float,
                 fold_converged: list[bool], fold_gaps: list[float]):
        self.fold_accuracies = fold_accuracies
        self.mean_accuracy = mean_accuracy
        self.baseline = baseline
        self.fold_converged = fold_converged
        self.fold_gaps = fold_gaps  # each fold's SvmModel.gap


def cross_validate(X: Rows, labels, k: int = 5, C: float = 1.0, seed: int = 0) -> CvReport:
    """Stratified k-fold CV of the linear SVM, each fold trained with
    ``train_svm``'s defaults; the standardizer is refit on each fold's
    training rows only. X must have one row per label, all of one length."""
    labels = list(labels)
    if len(X) != len(labels):
        raise LearnError(f"cross_validate got {len(X)} rows and {len(labels)} labels")
    classes = sorted(set(labels))
    if len(classes) != 2:
        raise LearnError(f"cross_validate expects a binary task, got {classes}")
    smallest = min(classes, key=labels.count)
    if (n := labels.count(smallest)) < k:
        raise LearnError(f"need at least k={k} samples per class; class {smallest!r} has {n}")
    _check_width(X, len(X[0]))
    y = [1.0 if l == classes[1] else -1.0 for l in labels]

    folds = stratified_kfold(labels, k, seed)
    accuracies, converged, gaps = [], [], []
    for fold in folds:
        held_out = set(fold)
        train = [i for i in range(len(labels)) if i not in held_out]
        model = train_svm([X[i] for i in train], [y[i] for i in train], C=C, seed=seed)
        values = model.decision_values([X[i] for i in fold])
        # an exact zero decision value goes to the positive class
        hits = sum((v >= 0.0) == (y[i] > 0.0) for v, i in zip(values, fold))
        accuracies.append(hits / len(fold))
        converged.append(model.converged)
        gaps.append(model.gap)
    return CvReport(
        fold_accuracies=accuracies,
        mean_accuracy=float_mean(accuracies),
        baseline=majority_baseline(labels),
        fold_converged=converged, fold_gaps=gaps,
    )
