"""
Linear SVM cross-validation
===========================

Trains the from-scratch dual coordinate descent SVM on two shifted
Gaussian clouds and reports stratified 5-fold accuracy against the
majority baseline, plus the named preset feature sets used for real
corpora.
"""

import random

from newsstyle.cli import PRESETS
from newsstyle.learn import cross_validate, train_svm

rng = random.Random(0)

# two classes, 75 articles each, four features shifted by one sigma; a row
# is a list of floats
X = [[rng.gauss(mu, 1.0) for _ in range(4)] for mu in [0.0] * 75 + [1.0] * 75]
labels = ["real"] * 75 + ["fake"] * 75

report = cross_validate(X, labels, k=5, C=1.0, seed=0)
print(f"5-fold accuracies: {[f'{a:.2f}' for a in report.fold_accuracies]}")
print(f"mean accuracy:     {report.mean_accuracy:.1%}")
print(f"majority baseline: {report.baseline:.1%}")

# a single trained model exposes its optimizer trace and weights: the dual
# objective after each coordinate descent epoch and each step of the exact
# finish, and the relative duality gap where training ended
y = [-1.0] * 75 + [1.0] * 75
model = train_svm(X, y, C=1.0, seed=0)
print(f"dual objective over epochs and steps: {model.dual_objective_history[:3]} ...")
print(f"relative duality gap: {model.gap:.1e}")
print(f"bias weight: {model.weights[-1]:.3f}")
value = model.decision_values(X[:1])[0]
label = "fake" if value >= 0 else "real"  # y = +1 is fake; zero goes to +1
print(f"first article -> {label} (decision value {value:.3f})")

# the preset top-4 feature sets used when classifying real articles
for name, features in PRESETS.items():
    print(f"preset {name}: {features}")
