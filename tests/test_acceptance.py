"""Release gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with the tolerance it enforces.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import string
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import write_synthetic_corpus
from newsstyle.cli import main
from newsstyle.corpus import Document, load_corpus
from newsstyle.features import extract_all
from newsstyle.learn import cross_validate, train_svm
from newsstyle.matrix import CATALOG, FeatureMatrix
from newsstyle.stats import (
    anova_oneway,
    kruskal_wallis,
    ln_gamma,
    normal_cdf,
    ranksum,
    reg_incomplete_beta,
    reg_incomplete_gamma_p,
)
from newsstyle.textseg import tokenize

RELEASED_CORPORA = Path(__file__).parent.parent / "data"


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_special_function_accuracy():
    """Four special functions within 1e-8 absolute of the reference on
    1,000 random domain points each."""
    rng = random.Random(20160101)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        x = math.exp(rng.uniform(math.log(0.5), math.log(1e6)))
        worst = max(worst, abs(ln_gamma(x) - scipy.special.gammaln(x)))
    for _ in range(1000):
        a, b = rng.uniform(0.5, 60), rng.uniform(0.5, 60)
        u = rng.random()
        worst = max(worst, abs(reg_incomplete_beta(u, a, b) - scipy.special.betainc(a, b, u)))
    for _ in range(1000):
        a = rng.uniform(0.5, 60)
        x = rng.uniform(0.0, 150.0)
        worst = max(worst, abs(reg_incomplete_gamma_p(a, x) - scipy.special.gammainc(a, x)))
    for _ in range(1000):
        z = rng.uniform(-8, 8)
        worst = max(worst, abs(normal_cdf(z) - scipy.stats.norm.cdf(z)))
    elapsed = time.time() - start
    _report("criterion 1 (special functions, 1e-8 abs, 1000 pts each)",
            worst < 1e-8 and elapsed < 1.0,
            f"max abs error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_test_statistic_oracle():
    """anova/ranksum/kruskal match the reference on 200 random samples
    (sizes 5-100, with and without ties): 1e-6 stats, 1e-4 p-values."""
    rng = random.Random(20160102)
    start = time.time()
    worst_stat = worst_p = 0.0

    def draw(n):
        if rng.random() < 0.5:  # heavy ties
            return [float(rng.randint(0, 8)) for _ in range(n)]
        return [rng.gauss(rng.uniform(-1, 1), 1.0) for _ in range(n)]

    for _ in range(200):
        a, b, c = (draw(rng.randint(5, 100)) for _ in range(3))

        f, p = anova_oneway([a, b])
        ref = scipy.stats.f_oneway(a, b)
        if math.isfinite(f):
            worst_stat = max(worst_stat, abs(f - ref.statistic))
            worst_p = max(worst_p, abs(p - ref.pvalue))

        z, p = ranksum(a, b)
        if len(set(a + b)) == len(a) + len(b):
            ref_z, ref_p = scipy.stats.ranksums(a, b)
            worst_stat = max(worst_stat, abs(z - ref_z))
        else:
            # scipy.ranksums skips tie correction; the tie-corrected
            # asymptotic Mann-Whitney p is the equivalent reference
            ref_p = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", use_continuity=False,
                method="asymptotic").pvalue
            ref_z = math.copysign(scipy.stats.norm.isf(min(ref_p, 1.0) / 2.0), z)
            worst_stat = max(worst_stat, abs(abs(z) - abs(ref_z)))
        worst_p = max(worst_p, abs(p - ref_p))

        h, p = kruskal_wallis([a, b, c])
        try:
            ref = scipy.stats.kruskal(a, b, c)
        except ValueError:  # all values identical
            continue
        worst_stat = max(worst_stat, abs(h - ref.statistic))
        worst_p = max(worst_p, abs(p - ref.pvalue))
    elapsed = time.time() - start
    _report("criterion 2 (test statistics vs reference, 200 samples)",
            worst_stat < 1e-6 and worst_p < 1e-4 and elapsed < 10.0,
            f"max stat err {worst_stat:.2e}, max p err {worst_p:.2e}, {elapsed:.2f}s")


def test_criterion_3_hand_computed_anchors():
    f, _ = anova_oneway([[1, 2, 3, 4], [3, 4, 5, 6]])
    z, _ = ranksum([1, 2, 3], [4, 5, 6])
    ok = f == 4.8 and abs(z - (-1.9640)) <= 1e-4
    _report("criterion 3 (anchors: F = 4.8 exact, z = -1.9640 +/- 1e-4)",
            ok, f"F = {f}, z = {z:.6f}")


def test_criterion_4_golden_titles(resources):
    fake = (
        '"BREAKING BOMBSHELL: NYPD Blows Whistle on New Hillary Emails: '
        "Money Laundering, Sex Crimes with Children, Child Exploitation, "
        'Pay to Play, Perjury"'
    )
    real = "Preexisting Conditions and Republican Plans to Replace Obamacare"

    def vec(title):
        doc = Document(id="g", source="", label="real", title=title, body="x.")
        return extract_all(doc, "title", resources)

    vf, vr = vec(fake), vec(real)
    ok = (vf["all_caps"] == 3 and vr["all_caps"] == 0
          and vf["WC"] == 21 and vr["WC"] == 8
          and vf["NNP"] > vr["NNP"]
          and vf["per_stop"] < vr["per_stop"])
    _report("criterion 4 (golden titles: all_caps 3/0, WC 21/8, NNP and per_stop contrasts)",
            ok,
            f"all_caps {vf['all_caps']}/{vr['all_caps']}, WC {vf['WC']}/{vr['WC']}, "
            f"NNP {vf['NNP']}/{vr['NNP']}, per_stop {vf['per_stop']:.1f}/{vr['per_stop']:.1f}")


def _directional_checks(root: Path, dataset_id: int, resources) -> list:
    """Criterion 5's four checks on one corpus, each (name, ok, p): body WC
    Real > Fake, body TTR Fake > Real, title NNP Fake > Real and title
    per_stop Real > Fake, with the rank-sum p of each pair of groups. The
    matrices hold the rows ``extract`` writes."""
    corpus, _ = load_corpus(root, dataset_id)
    matrices = {}
    for part in ("body", "title"):
        docs = [doc for doc in corpus.documents if part == "body" or doc.title.strip()]
        matrices[part] = FeatureMatrix(
            feature_names=CATALOG, doc_ids=tuple(doc.id for doc in docs),
            labels=tuple(doc.label for doc in docs), part=part,
            rows=[list(extract_all(doc, part, resources).values()) for doc in docs])
    checks = []
    for part, feature, hi, lo in (("body", "WC", "real", "fake"),
                                  ("body", "TTR", "fake", "real"),
                                  ("title", "NNP", "fake", "real"),
                                  ("title", "per_stop", "real", "fake")):
        m = matrices[part]
        a = [v for v in m.group_column(feature, hi) if v is not None]
        b = [v for v in m.group_column(feature, lo) if v is not None]
        _, p = ranksum(a, b)
        mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
        checks.append((f"ds{dataset_id} {part} {feature} {hi}>{lo}",
                       mean_a > mean_b and p < 0.05, p))
    return checks


def test_directional_checks_run_on_a_synthetic_corpus(tmp_path, resources):
    # criterion 5 runs only where the released corpora are; its checks run
    # here on every host, their directions unasserted
    root = write_synthetic_corpus(tmp_path / "corpus", {"real": 10, "fake": 10}, seed=4)
    checks = _directional_checks(root, 2, resources)
    assert len(checks) == 4
    for name, ok, p in checks:
        assert isinstance(name, str) and isinstance(ok, bool)
        assert 0.0 <= p <= 1.0, name


@pytest.mark.skipif(not RELEASED_CORPORA.exists(),
                    reason="released corpora not present under data/")
def test_criterion_5_directional_reproduction(resources):
    """Ordering directions on the released corpora (only when fetched):
    body WC Real > Fake, body TTR Fake > Real, title NNP Fake > Real,
    title per_stop Real > Fake, each with p < 0.05."""
    checks = []
    for dataset_id, sub in ((1, "dataset1"), (2, "dataset2")):
        root = RELEASED_CORPORA / sub
        if root.exists():
            checks += _directional_checks(root, dataset_id, resources)
    ok = bool(checks) and all(c[1] for c in checks)
    _report("criterion 5 (directional reproduction on released corpora)", ok,
            "; ".join(f"{name} p={p:.3g} {'ok' if good else 'WRONG'}"
                      for name, good, p in checks))


def test_criterion_6_classification_reproduction():
    """Released corpora are not available here, so the stated substitute
    applies: synthetic two-class data whose class-conditional feature
    means differ by 1 sigma must reach >= 85% 5-fold CV accuracy."""
    rng = np.random.default_rng(20160103)
    X = np.vstack([rng.normal(0.0, 1.0, (75, 8)), rng.normal(1.0, 1.0, (75, 8))])
    labels = ["real"] * 75 + ["fake"] * 75
    report = cross_validate(X, labels, k=5, seed=0)
    ok = report.mean_accuracy >= 0.85
    _report("criterion 6 (synthetic 1-sigma shift, 5-fold CV >= 85%)",
            ok, f"mean accuracy {report.mean_accuracy:.1%}")


def test_criterion_7_svm_optimizer_properties():
    """Dual objective non-increasing, alpha in [0, C], KKT residuals
    < 10*tol, over 50 random problems."""
    rng = np.random.default_rng(20160104)
    tol, C = 1e-4, 1.0
    start = time.time()
    ok = True
    detail = ""
    for trial in range(50):
        n, d = int(rng.integers(10, 60)), int(rng.integers(2, 8))
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if len(set(y)) < 2:
            y[0] = -y[0]
        model = train_svm(X, y, C=C, tol=tol, seed=trial)
        hist = model.dual_objective_history
        if not all(b <= a + 1e-9 for a, b in zip(hist, hist[1:])):
            ok, detail = False, f"trial {trial}: dual objective increased"
            break
        if not (np.all(np.asarray(model.alpha) >= -1e-12)
                and np.all(np.asarray(model.alpha) <= C + 1e-12)):
            ok, detail = False, f"trial {trial}: alpha out of box"
            break
        Z = model.standardizer.transform(X)
        Zb = np.hstack([Z, np.ones((n, 1))])
        g = y * (Zb @ np.asarray(model.weights)) - 1.0
        pg = np.where(np.asarray(model.alpha) <= 0, np.minimum(g, 0),
                      np.where(np.asarray(model.alpha) >= C, np.maximum(g, 0), g))
        if np.max(np.abs(pg)) >= 10 * tol:
            ok, detail = False, f"trial {trial}: KKT residual {np.max(np.abs(pg)):.2e}"
            break
    elapsed = time.time() - start
    _report("criterion 7 (SVM optimizer properties, 50 problems)",
            ok and elapsed < 10.0, detail or f"all clean, {elapsed:.2f}s")


def test_criterion_8_pipeline_determinism(tmp_path):
    """ingest -> extract -> analyze -> classify run twice with the same
    seed must produce byte-identical artifacts."""
    corpus = write_synthetic_corpus(tmp_path / "corpus",
                                    {"real": 12, "fake": 12, "satire": 12}, seed=3)

    def run(out):
        out.mkdir()
        assert main(["ingest", "--corpus", str(corpus), "--dataset-id", "2",
                     "--out", str(out / "ingest")]) == 0
        assert main(["extract", "--corpus", str(corpus), "--dataset-id", "2",
                     "--part", "body", "--out", str(out / "body.csv")]) == 0
        assert main(["analyze", "--matrix", str(out / "body.csv"),
                     "--out", str(out / "analysis")]) == 0
        assert main(["classify", "--matrix", str(out / "body.csv"),
                     "--pair", "real:fake", "--preset", "body4", "--seed", "11",
                     "--out", str(out / "cv.tsv")]) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    files = ["ingest/manifest.txt", "ingest/validation.txt", "body.csv",
             "analysis/ordering.tsv", "analysis/ordering.txt", "cv.tsv"]
    diffs = [f for f in files
             if (tmp_path / "run1" / f).read_bytes() != (tmp_path / "run2" / f).read_bytes()]
    _report("criterion 8 (pipeline determinism, byte-identical artifacts)",
            not diffs, f"differing files: {diffs or 'none'}")


def test_criterion_9_property_suites():
    """Six module invariants, 1,000 randomized trials each."""
    rng = random.Random(20160105)
    failures = []

    alphabet = string.ascii_letters + string.digits + " .,!?'\"-"
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        toks = tokenize(text)
        if any(text[start:end] != t.text for t, (start, end) in toks):
            failures.append("tokenizer round-trip")
            break

    for _ in range(1000):
        n = rng.randint(1, 30)
        words = ["".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
                 for _ in range(n)]
        toks = [t for t, _ in tokenize(" ".join(words))]
        types = len({t.lower for t in toks})
        ttr = types / len(toks)
        stop_frac = 100.0 * sum(1 for t in toks if t.lower in ("the", "a")) / len(toks)
        if not (0.0 < ttr <= 1.0 and 0.0 <= stop_frac <= 100.0):
            failures.append("TTR/per_stop ranges")
            break

    for _ in range(1000):
        gs = [[rng.gauss(0, 1) for _ in range(rng.randint(3, 12))] for _ in range(3)]
        scale, shift = rng.uniform(0.1, 10), rng.uniform(-50, 50)
        f1, _ = anova_oneway(gs)
        f2, _ = anova_oneway([[scale * x + shift for x in g] for g in gs])
        if not math.isclose(f1, f2, rel_tol=1e-8, abs_tol=1e-8):
            failures.append("ANOVA shift/scale invariance")
            break

    for _ in range(1000):
        a = [rng.uniform(0, 4) for _ in range(rng.randint(3, 20))]
        b = [rng.uniform(1, 5) for _ in range(rng.randint(3, 20))]
        z1, _ = ranksum(a, b)
        z2, _ = ranksum([math.exp(x) for x in a], [math.exp(x) for x in b])
        if not math.isclose(z1, z2, rel_tol=1e-9, abs_tol=1e-9):
            failures.append("ranksum monotone-transform invariance")
            break

    for _ in range(1000):
        x = rng.uniform(0.001, 0.999)
        a, b = rng.uniform(0.5, 40), rng.uniform(0.5, 40)
        s = reg_incomplete_beta(x, a, b) + reg_incomplete_beta(1 - x, b, a)
        if abs(s - 1.0) > 1e-9:
            failures.append("incomplete-beta symmetry")
            break

    nprng = np.random.default_rng(20160106)
    for _ in range(1000):
        n, d = int(nprng.integers(6, 20)), int(nprng.integers(2, 5))
        X = nprng.normal(size=(n, d))
        y = np.where(nprng.random(n) < 0.5, -1.0, 1.0)
        if len(set(y)) < 2:
            y[0] = -y[0]
        scale = float(nprng.uniform(0.1, 10))
        shift = float(nprng.uniform(-100, 100))
        m1 = train_svm(X, y, seed=0, max_epochs=50)
        m2 = train_svm(X * scale + shift, y, seed=0, max_epochs=50)
        p1 = np.sign(m1.decision_values(X))
        p2 = np.sign(m2.decision_values(X * scale + shift))
        if not np.array_equal(p1, p2):
            failures.append("standardization pipeline invariance")
            break

    _report("criterion 9 (property suites, 1000 trials each)",
            not failures, f"failed: {failures or 'none'}")
