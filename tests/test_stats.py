import itertools
import math
import random

import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hs

from newsstyle import float_mean, float_quotient, float_sum
from newsstyle.stats import (
    DomainError,
    Ranking,
    _rank_sums,
    _tie_sum,
    anova_oneway,
    chi2_sf,
    compare_feature,
    confidence_interval,
    derive_ordering,
    f_sf,
    kruskal_wallis,
    ln_gamma,
    normal_cdf,
    normality_test,
    rank_features,
    ranksum,
    reg_incomplete_beta,
    reg_incomplete_gamma_p,
    sorted_rows,
    t_ppf,
)
from newsstyle.stats import TestResult as StatRow


class TestSpecialFunctionAnchors:
    def test_ln_gamma(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-12)
        assert ln_gamma(0.5) == pytest.approx(0.5723649429, abs=1e-9)
        assert ln_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-9)

    def test_ln_gamma_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            ln_gamma(-1.5)

    def test_incomplete_beta(self):
        assert reg_incomplete_beta(0.5, 3.0, 3.0) == pytest.approx(0.5, abs=1e-12)
        for x in (0.1, 0.33, 0.7, 0.95):
            assert reg_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-12)
        assert reg_incomplete_beta(0.25, 2.0, 2.0) == pytest.approx(0.15625, abs=1e-10)
        assert reg_incomplete_beta(0.0, 2.0, 5.0) == 0.0
        assert reg_incomplete_beta(1.0, 2.0, 5.0) == 1.0

    def test_incomplete_gamma(self):
        for x in (0.1, 1.0, 2.5, 10.0):
            assert reg_incomplete_gamma_p(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-10)
        assert reg_incomplete_gamma_p(3.0, 0.0) == 0.0

    def test_chi2_sf(self):
        assert chi2_sf(2.0, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_normal_cdf(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
        assert normal_cdf(-1.959963984540054) == pytest.approx(0.025, abs=1e-9)

    def test_t_ppf(self):
        assert t_ppf(0.975, 10) == pytest.approx(2.2281388519, abs=1e-6)
        assert t_ppf(0.5, 7) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 30, 149, 500, 1000, 2739])
    def test_t_ppf_early_stop_matches_full_bisection(self, df):
        # t_ppf stops once the bracket cannot shrink; the full 200 steps
        # must give the same float
        def full(q, df):
            def cdf(t):
                if t == 0.0:
                    return 0.5
                p = 0.5 * reg_incomplete_beta(df / (df + t * t), df / 2.0, 0.5)
                return p if t < 0 else 1.0 - p

            lo, hi = -1e6, 1e6
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if cdf(mid) < q:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for q in (1e-12, 1e-6, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1 - 1e-6, 1 - 1e-12):
            assert t_ppf(q, df) == full(q, df), (q, df)


class TestSpecialFunctionsAgainstScipy:
    def test_ln_gamma_sweep(self):
        rng = random.Random(101)
        for _ in range(500):
            x = math.exp(rng.uniform(math.log(0.5), math.log(1e6)))
            assert ln_gamma(x) == pytest.approx(scipy.special.gammaln(x), abs=1e-8)

    def test_beta_sweep(self):
        rng = random.Random(102)
        for _ in range(500):
            a, b = rng.uniform(0.5, 50), rng.uniform(0.5, 50)
            x = rng.random()
            assert reg_incomplete_beta(x, a, b) == pytest.approx(
                scipy.special.betainc(a, b, x), abs=1e-10)

    def test_gamma_sweep(self):
        rng = random.Random(103)
        for _ in range(500):
            a = rng.uniform(0.5, 50)
            x = rng.uniform(0.0, 100.0)
            assert reg_incomplete_gamma_p(a, x) == pytest.approx(
                scipy.special.gammainc(a, x), abs=1e-10)

    def test_f_sf_sweep(self):
        rng = random.Random(104)
        for _ in range(200):
            f = rng.uniform(0.01, 20)
            d1, d2 = rng.randint(1, 10), rng.randint(2, 200)
            assert f_sf(f, d1, d2) == pytest.approx(scipy.stats.f.sf(f, d1, d2), abs=1e-10)

    def test_t_ppf_sweep(self):
        rng = random.Random(105)
        for _ in range(100):
            q = rng.uniform(0.51, 0.999)
            df = rng.randint(2, 120)
            assert t_ppf(q, df) == pytest.approx(scipy.stats.t.ppf(q, df), abs=1e-6)


class TestNormalityTest:
    def test_matches_scipy_on_large_samples(self):
        rng = random.Random(42)
        for _ in range(20):
            xs = [rng.gauss(0, 1) for _ in range(rng.randint(25, 300))]
            k2, p, _ = normality_test(xs)
            ref_k2, ref_p = scipy.stats.normaltest(xs)
            assert k2 == pytest.approx(ref_k2, abs=1e-8)
            assert p == pytest.approx(ref_p, abs=1e-8)

    def test_small_sample_auto_nonnormal(self):
        assert normality_test([1.0, 2.0, 3.0])[2] is False
        assert normality_test([float(i) for i in range(19)])[2] is False

    def test_constant_sample_nonnormal(self):
        assert normality_test([5.0] * 40)[2] is False

    def test_gaussian_usually_passes(self):
        rng = random.Random(7)
        xs = [rng.gauss(10, 2) for _ in range(200)]
        assert normality_test(xs)[2] is True

    def test_exponential_fails(self):
        rng = random.Random(8)
        xs = [rng.expovariate(1.0) for _ in range(200)]
        assert normality_test(xs)[2] is False

    @pytest.mark.parametrize("big", [2e77, 1e200, -1e300, 1.7e308])
    def test_overflowing_moments_are_not_normal(self, big):
        # (x - m) ** 4 passes the float range once |x - m| is past ~1.2e77;
        # that used to raise OverflowError out of analyze
        xs = [float(i) for i in range(30)] + [big]
        assert normality_test(xs) == (math.inf, 0.0, False)

    def test_samples_that_pass_keep_anova_finite(self):
        rng = random.Random(9)
        xs = [rng.gauss(0, 1e76) for _ in range(200)]
        assert normality_test(xs)[2] is True
        f, p = anova_oneway([xs, [x + 1e75 for x in xs]])
        assert math.isfinite(f) and 0.0 <= p <= 1.0


class TestAnova:
    def test_anchor(self):
        f, p = anova_oneway([[1, 2, 3, 4], [3, 4, 5, 6]])
        assert f == pytest.approx(4.8, abs=1e-12)
        assert p == pytest.approx(scipy.stats.f_oneway([1, 2, 3, 4], [3, 4, 5, 6]).pvalue,
                                  abs=1e-10)

    def test_identical_groups(self):
        assert anova_oneway([[2.0, 2.0], [2.0, 2.0]]) == (0.0, 1.0)

    def test_zero_within_variance(self):
        f, p = anova_oneway([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(f) and p == 0.0

    def test_too_small(self):
        with pytest.raises(DomainError):
            anova_oneway([[1.0], [2.0, 3.0]])
        with pytest.raises(DomainError):
            anova_oneway([[1.0, 2.0]])

    def test_matches_scipy_random(self):
        rng = random.Random(55)
        for _ in range(50):
            gs = [[rng.gauss(rng.uniform(-1, 1), 1) for _ in range(rng.randint(5, 40))]
                  for _ in range(rng.randint(2, 4))]
            f, p = anova_oneway(gs)
            ref = scipy.stats.f_oneway(*gs)
            assert f == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-4)

    def test_same_bits_as_per_element_mean_formula(self):
        def old_anova(groups):  # the formula that recomputed each group mean per element
            k = len(groups)
            n_total = sum(len(g) for g in groups)
            grand = math.fsum(x for g in groups for x in g) / n_total
            mean = lambda g: math.fsum(g) / len(g)
            ss_between = math.fsum(len(g) * (mean(g) - grand) ** 2 for g in groups)
            ss_within = math.fsum((x - mean(g)) ** 2 for g in groups for x in g)
            f = (ss_between / (k - 1)) / (ss_within / (n_total - k))
            return f, f_sf(f, k - 1, n_total - k)

        rng = random.Random(56)
        for _ in range(30):
            gs = [[rng.lognormvariate(rng.uniform(-1, 3), 1.5) for _ in range(rng.randint(2, 120))]
                  for _ in range(rng.randint(2, 4))]
            assert anova_oneway(gs) == old_anova(gs)

    def test_matches_scipy_unequal_sizes(self):
        rng = random.Random(57)
        for sizes in ((3, 17, 400), (150, 110, 2740), (2, 2, 9, 60), (1000, 5)):
            gs = [[rng.gauss(0.1 * j, 1 + j) for _ in range(n)] for j, n in enumerate(sizes)]
            f, p = anova_oneway(gs)
            ref = scipy.stats.f_oneway(*gs)
            assert f == pytest.approx(ref.statistic, rel=1e-9)
            assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(hs.floats(-50, 50), hs.floats(0.01, 10), hs.integers(0, 10_000))
    def test_shift_scale_invariance(self, shift, scale, seed):
        rng = random.Random(seed)
        gs = [[rng.gauss(0, 1) for _ in range(10)] for _ in range(3)]
        f1, _ = anova_oneway(gs)
        f2, _ = anova_oneway([[scale * x + shift for x in g] for g in gs])
        assert f2 == pytest.approx(f1, rel=1e-9, abs=1e-9)


class TestRanksum:
    def test_anchor(self):
        z, p = ranksum([1, 2, 3], [4, 5, 6])
        assert z == pytest.approx(-1.9640, abs=1e-4)
        assert p == pytest.approx(2 * (1 - normal_cdf(abs(z))), abs=1e-12)

    def test_all_tied(self):
        assert ranksum([3.0, 3.0], [3.0, 3.0, 3.0]) == (0.0, 1.0)

    def test_empty_sample(self):
        with pytest.raises(DomainError):
            ranksum([], [1.0])

    def test_matches_scipy_random(self):
        rng = random.Random(66)
        for _ in range(50):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(5, 40))]
            b = [rng.gauss(0.5, 1.2) for _ in range(rng.randint(5, 40))]
            z, p = ranksum(a, b)
            ref_z, ref_p = scipy.stats.ranksums(a, b)
            assert z == pytest.approx(ref_z, abs=1e-6)
            assert p == pytest.approx(ref_p, abs=1e-4)

    def test_tie_correction_matches_mannwhitney(self):
        a = [1, 2, 2, 3, 3, 3, 4]
        b = [2, 3, 3, 4, 4, 5, 5, 6]
        z, p = ranksum(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       use_continuity=False, method="asymptotic")
        assert p == pytest.approx(ref.pvalue, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(hs.integers(0, 10_000))
    def test_monotone_transform_invariance(self, seed):
        rng = random.Random(seed)
        a = [rng.uniform(0, 5) for _ in range(12)]
        b = [rng.uniform(1, 6) for _ in range(9)]
        z1, p1 = ranksum(a, b)
        z2, p2 = ranksum([math.exp(x) for x in a], [math.exp(x) for x in b])
        assert z2 == pytest.approx(z1, abs=1e-9)
        assert p2 == pytest.approx(p1, abs=1e-9)

    @pytest.mark.parametrize("a", [[1.0, 5.0, math.nan], [math.nan, 1.0, 5.0]])
    def test_nan_raises_wherever_it_sits(self, a):
        with pytest.raises(DomainError, match="nan"):
            ranksum(a, [2.0, 3.0])
        with pytest.raises(DomainError, match="nan"):
            ranksum([2.0, 3.0], a)

    def test_ranked_samples_give_the_same_bits(self):
        rng = random.Random(21)
        a = [float(rng.randint(0, 6)) for _ in range(40)]
        b = [float(rng.randint(1, 8)) for _ in range(25)]
        expected = ranksum(a, b)
        for x, y in ((Ranking(a), b), (a, Ranking(b)), (Ranking(a), Ranking(b))):
            assert _bits(ranksum(x, y)) == _bits(expected)


class TestKruskal:
    def test_anchor(self):
        h, p = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert h == pytest.approx(7.2, abs=1e-10)
        ref = scipy.stats.kruskal([1, 2, 3], [4, 5, 6], [7, 8, 9])
        assert p == pytest.approx(ref.pvalue, abs=1e-10)

    def test_requires_three_groups(self):
        with pytest.raises(DomainError):
            kruskal_wallis([[1, 2], [3, 4]])

    def test_matches_scipy_random(self):
        rng = random.Random(77)
        for _ in range(50):
            gs = [[rng.gauss(rng.uniform(-1, 1), 1) for _ in range(rng.randint(5, 30))]
                  for _ in range(3)]
            h, p = kruskal_wallis(gs)
            ref = scipy.stats.kruskal(*gs)
            assert h == pytest.approx(ref.statistic, abs=1e-6)
            assert p == pytest.approx(ref.pvalue, abs=1e-4)

    def test_all_tied(self):
        assert kruskal_wallis([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]) == (0.0, 1.0)

    @pytest.mark.parametrize("groups", [[[], [1.0], [2.0]], [[1.0, 2.0], [3.0], []]])
    def test_empty_sample(self, groups):
        with pytest.raises(DomainError):
            kruskal_wallis(groups)

    @pytest.mark.parametrize("position", range(3))
    def test_nan_raises_in_any_group(self, position):
        groups = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        groups[position] = groups[position] + [math.nan]
        with pytest.raises(DomainError, match="nan"):
            kruskal_wallis(groups)

    def test_ranked_groups_give_the_same_bits(self):
        rng = random.Random(22)
        gs = [[rng.choice((-0.0, 0.0, 1.0, 2.5)) for _ in range(rng.randint(3, 30))]
              for _ in range(4)]
        expected = kruskal_wallis(gs)
        assert _bits(kruskal_wallis([Ranking(g) for g in gs])) == _bits(expected)
        assert _bits(kruskal_wallis([Ranking(gs[0])] + gs[1:])) == _bits(expected)


class TestBetaSymmetryProperty:
    @settings(max_examples=200, deadline=None)
    @given(hs.floats(0.001, 0.999), hs.floats(0.5, 40), hs.floats(0.5, 40))
    def test_complement_identity(self, x, a, b):
        lhs = reg_incomplete_beta(x, a, b) + reg_incomplete_beta(1.0 - x, b, a)
        assert lhs == pytest.approx(1.0, abs=1e-9)


class TestCompareFeature:
    def _gaussians(self, seed, means, n=60):
        rng = random.Random(seed)
        return {label: [rng.gauss(mu, 1.0) for _ in range(n)]
                for label, mu in means.items()}

    def test_routes_to_anova_when_normal(self):
        groups = self._gaussians(1, {"real": 0.0, "fake": 1.0})
        res = compare_feature("x", groups)
        assert res.test_used == "anova"
        assert res.significant

    def test_routes_to_ranksum_when_nonnormal(self):
        rng = random.Random(2)
        groups = {"real": [rng.expovariate(1.0) for _ in range(60)],
                  "fake": [rng.expovariate(0.4) for _ in range(60)]}
        res = compare_feature("x", groups)
        assert res.test_used == "ranksum"

    def test_routes_to_kruskal_three_groups(self):
        rng = random.Random(3)
        groups = {l: [rng.expovariate(r) for _ in range(60)]
                  for l, r in (("real", 1.0), ("fake", 0.5), ("satire", 0.7))}
        res = compare_feature("x", groups)
        assert res.test_used == "kruskal"

    def test_small_samples_use_rank_test(self):
        groups = {"real": [1.0, 2.0, 3.0], "fake": [4.0, 5.0, 6.0]}
        assert compare_feature("x", groups).test_used == "ranksum"

    def test_undefined_values_dropped(self):
        groups = self._gaussians(4, {"real": 0.0, "fake": 2.0}, n=40)
        groups["real"] = groups["real"] + [None, float("nan")]
        res = compare_feature("x", groups)
        assert res.test_used != "skipped"
        assert len(res.group_means) == 2

    def test_skip_when_group_too_sparse(self):
        groups = {"real": [1.0, 2.0, 3.0], "fake": [None, None, 1.0]}
        res = compare_feature("x", groups)
        assert res.test_used == "skipped"
        assert "fake" in res.skipped_reason
        assert not res.significant

    def test_degenerate_constant_data_flagged(self):
        groups = {"real": [2.0, 2.0, 2.0], "fake": [2.0, 2.0, 2.0]}
        res = compare_feature("x", groups)
        assert res.degenerate
        assert res.p_value == 1.0

    def test_means_do_not_depend_on_element_order(self):
        # summed left to right, the two samples give different means, so
        # the ordering put one label first by a rounding error instead of
        # breaking the tie by label
        groups = {"real": [0.7] + [0.1] * 10, "fake": [0.1] * 10 + [0.7]}
        res = compare_feature("x", groups)
        assert res.group_means["fake"] == res.group_means["real"]
        assert res.ordering == "Fake = Real"


class TestDeriveOrdering:
    def test_clear_separation(self):
        groups = {"real": [10.0 + i * 0.1 for i in range(20)],
                  "fake": [float(i) * 0.1 for i in range(20)]}
        means = {l: sum(v) / len(v) for l, v in groups.items()}
        assert derive_ordering(means, groups) == "Real > Fake"

    def test_equal_groups(self):
        rng = random.Random(9)
        a = [rng.gauss(0, 1) for _ in range(20)]
        groups = {"real": a, "fake": list(a)}
        means = {l: sum(v) / len(v) for l, v in groups.items()}
        assert "=" in derive_ordering(means, groups)

    def test_three_way(self):
        groups = {"satire": [30.0 + i for i in range(15)],
                  "fake": [15.0 + i * 0.1 for i in range(15)],
                  "real": [float(i) * 0.1 for i in range(15)]}
        means = {l: sum(v) / len(v) for l, v in groups.items()}
        assert derive_ordering(means, groups) == "Satire > Fake > Real"


class TestRankFeatures:
    def _r(self, name, p, stat=1.0, used="ranksum"):
        return StatRow(feature=name, test_used=used, statistic=stat, p_value=p,
                          group_means={}, ordering="", significant=p < 0.05)

    def test_p_ascending(self):
        rs = [self._r("a", 0.03), self._r("b", 0.001), self._r("c", 0.02)]
        assert rank_features(rs, 3) == ["b", "c", "a"]

    def test_only_significant(self):
        rs = [self._r("a", 0.001), self._r("b", 0.2)]
        assert rank_features(rs, 4) == ["a"]

    def test_tie_break_statistic_then_name(self):
        rs = [self._r("b", 0.01, stat=2.0), self._r("a", 0.01, stat=2.0),
              self._r("c", 0.01, stat=5.0)]
        assert rank_features(rs, 3) == ["c", "a", "b"]

    def test_skipped_excluded(self):
        # the skipped row as compare_feature builds it: a group of one value
        skipped = compare_feature("a", {"real": [1.0], "fake": [2.0, 3.0]})
        assert skipped.test_used == "skipped"
        assert rank_features([skipped, self._r("b", 0.01)], 2) == ["b"]

    def test_k_truncates(self):
        rs = [self._r(n, 0.01 * (i + 1)) for i, n in enumerate("abcd")]
        assert rank_features(rs, 2) == ["a", "b"]


class TestSortedRows:
    def test_sorted_rows_places_skipped_last(self):
        rows = [
            StatRow("a", "skipped", 0.0, 1.0, {}, "", False),
            StatRow("b", "ranksum", 2.0, 0.04, {}, "", True),
            StatRow("c", "anova", 9.0, 0.001, {}, "", True),
        ]
        assert [r.feature for r in sorted_rows(rows)] == ["c", "b", "a"]


class TestMean:
    def test_overflowing_sum_of_finite_values(self):
        # the plain float sum of these is inf, but their mean is finite
        assert float_mean([1.7e308] * 22) == 1.7e308
        big = 1.7976931348623157e308
        assert float_mean([big, big, -big]) == big / 3
        assert float_mean([-1.7e308] * 22) == -1.7e308

    def test_scaling_into_overflow_keeps_the_bits(self):
        # 2**1023 times values in [0.5, 2) stays finite, but their sum does
        # not; scaling by a power of two is exact, so the mean scales too
        rng = random.Random(58)
        for _ in range(200):
            xs = [rng.uniform(0.5, 1.99) for _ in range(rng.randint(2, 300))]
            scaled = [math.ldexp(x, 1023) for x in xs]
            assert math.isinf(sum(scaled))
            assert float_mean(scaled) == math.ldexp(float_mean(xs), 1023)

    def test_infinite_values_keep_the_plain_sum(self):
        assert float_mean([1.0, math.inf]) == math.inf
        assert math.isnan(float_mean([math.inf, -math.inf]))
        assert math.isnan(float_mean([1e308, 1e308, math.nan]))


# magnitudes whose sums pass the float range in some orders and not in
# others; no subnormals, which lose bits when scaled down for the retry
_SUM_VALUES = hs.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 8.9e307, -8.9e307,
                               math.inf, -math.inf, 1.0, -1.0, 0.5, -0.5, 0.0])


class TestExactSums:
    @settings(max_examples=500)
    @given(hs.lists(_SUM_VALUES, min_size=1, max_size=8).flatmap(
        lambda xs: hs.tuples(hs.just(xs), hs.permutations(xs))))
    def test_same_bits_in_any_order(self, orders):
        # the sum used to fall back on a left-to-right float sum where fsum
        # overflowed: [1e308, 1e308, -1e308] gave inf, and another order 1e308
        xs, shuffled = orders
        for f in (float_sum, float_mean, lambda v: float_quotient(v, 3)):
            assert f(shuffled).hex() == f(xs).hex()

    def test_sum_past_the_range_is_inf(self):
        # its scaled sum used to raise OverflowError when scaled back
        assert float_quotient([1.7e308, 1.7e308], 1) == math.inf
        assert float_sum([-1.7e308, -1.7e308]) == -math.inf


class TestConfidenceInterval:
    def test_matches_scipy(self):
        rng = random.Random(11)
        xs = [rng.gauss(5, 2) for _ in range(40)]
        m, lo, hi = confidence_interval(xs)
        ref = scipy.stats.t.interval(0.95, len(xs) - 1,
                                     loc=sum(xs) / len(xs),
                                     scale=scipy.stats.sem(xs))
        assert lo == pytest.approx(ref[0], abs=1e-6)
        assert hi == pytest.approx(ref[1], abs=1e-6)
        assert lo < m < hi

    def test_singleton(self):
        assert confidence_interval([3.0]) == (3.0, 3.0, 3.0)

    def test_overflowing_variance_gives_unbounded_interval(self):
        xs = [1.0, 2.0, 1e200]
        assert confidence_interval(xs) == (float_mean(xs), -math.inf, math.inf)

    def test_infinite_cell_gives_unbounded_interval(self):
        # the squared deviations of an infinite mean are nan, not an overflow
        assert confidence_interval([1.0, math.inf, 2.0]) == (math.inf, -math.inf, math.inf)
        assert confidence_interval([-math.inf, 1.0]) == (-math.inf, -math.inf, math.inf)
        m, lo, hi = confidence_interval([1.0, math.inf, -math.inf])
        assert math.isnan(m) and (lo, hi) == (-math.inf, math.inf)

    def test_overflowing_sum_of_finite_squares_keeps_the_interval_finite(self):
        # each squared deviation is 1e308, their sum is not finite, but the
        # variance 22e308 / 21 is
        m, lo, hi = confidence_interval([0.0] * 11 + [2e154] * 11)
        assert m == 1e154
        half = t_ppf(0.975, 21) * math.sqrt(math.ldexp(22 * math.ldexp(1e308, -5) / 21, 5) / 22)
        assert (lo, hi) == (m - half, m + half)
        assert 0.0 < lo < m < hi < math.inf

    def test_scaled_variance_keeps_the_bits(self):
        # a power-of-two scale is exact, so the interval scales with the
        # sample even where the sum of its squares passes the float range
        rng = random.Random(57)
        for _ in range(50):
            xs = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(2, 60))]
            m, lo, hi = confidence_interval(xs)
            big = confidence_interval([math.ldexp(x, 511) for x in xs])
            assert big == (math.ldexp(m, 511), math.ldexp(lo, 511), math.ldexp(hi, 511))


# ---------------------------------------------------------------------------
# differential tests: the protocol must give the same bits as these copies of
# its earlier form, which took three moment passes per normality test and
# ranked with a per-comparison index lookup


def _old_moments(xs):
    m = float_mean(xs)
    m2 = float_mean([(x - m) ** 2 for x in xs])
    m3 = float_mean([(x - m) ** 3 for x in xs])
    m4 = float_mean([(x - m) ** 4 for x in xs])
    return m, m2, m3, m4


def _old_skew_z(xs):
    n = len(xs)
    _, m2, m3, _ = _old_moments(xs)
    b1 = m3 / m2 ** 1.5
    y = b1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = (
        3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    y = y / alpha
    return delta * math.log(y + math.sqrt(y * y + 1.0))


def _old_kurt_z(xs):
    n = len(xs)
    _, m2, _, m4 = _old_moments(xs)
    b2 = m4 / (m2 * m2)
    e = 3.0 * (n - 1.0) / (n + 1.0)
    var = 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    x = (b2 - e) / math.sqrt(var)
    beta1 = (
        6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0))
        * math.sqrt(6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0)))
    )
    a = 6.0 + 8.0 / beta1 * (2.0 / beta1 + math.sqrt(1.0 + 4.0 / (beta1 * beta1)))
    num = 1.0 - 2.0 / a
    denom = 1.0 + x * math.sqrt(2.0 / (a - 4.0))
    term = ((num / denom) ** (1.0 / 3.0)) if denom > 0 else -((num / -denom) ** (1.0 / 3.0))
    return ((1.0 - 2.0 / (9.0 * a)) - term) / math.sqrt(2.0 / (9.0 * a))


def _old_normality_test(sample, alpha=0.05):
    n = len(sample)
    if n < 20:
        return 0.0, 0.0, False
    _, m2, _, _ = _old_moments(sample)
    if m2 <= 0:
        return 0.0, 0.0, False
    zs = _old_skew_z(sample)
    zk = _old_kurt_z(sample)
    k2 = zs * zs + zk * zk
    p = chi2_sf(k2, 2.0)
    return k2, p, p > alpha


def _old_midranks(pooled):
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    ties = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for idx in order[i:j + 1]:
            ranks[idx] = avg
        if j > i:
            ties.append(j - i + 1)
        i = j + 1
    return ranks, ties


def _old_ranksum(a, b):
    n1, n2 = len(a), len(b)
    ranks, ties = _old_midranks(list(a) + list(b))
    w = sum(ranks[:n1])
    n = n1 + n2
    mean = n1 * (n + 1) / 2.0
    tie_term = sum(t ** 3 - t for t in ties) / (n * (n - 1.0)) if n > 1 else 0.0
    var = n1 * n2 / 12.0 * ((n + 1.0) - tie_term)
    if var <= 0:
        return 0.0, 1.0
    z = (w - mean) / math.sqrt(var)
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    return z, min(p, 1.0)


def _old_kruskal_wallis(groups):
    pooled = [x for g in groups for x in g]
    n = len(pooled)
    ranks, ties = _old_midranks(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r = sum(ranks[offset:offset + len(g)])
        h += r * r / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1.0)) * h - 3.0 * (n + 1.0)
    correction = 1.0 - sum(t ** 3 - t for t in ties) / (n ** 3 - n)
    if correction <= 0:
        return 0.0, 1.0
    h /= correction
    return h, chi2_sf(h, len(groups) - 1.0)


def _old_compare_feature(feature, groups, alpha=0.05):
    clean = {
        label: [float(v) for v in vals if v is not None and not math.isnan(v)]
        for label, vals in groups.items()
    }
    small = [label for label, vals in clean.items() if len(vals) < 2]
    if len(clean) < 2 or small:
        return StatRow(
            feature=feature, test_used="skipped", statistic=0.0, p_value=1.0,
            group_means={}, ordering="", significant=False,
            skipped_reason=f"insufficient defined values in group(s): {', '.join(small) or 'n/a'}",
        )
    means = {label: float_mean(vals) for label, vals in clean.items()}
    all_normal = all(_old_normality_test(vals, alpha)[2] for vals in clean.values())
    samples = list(clean.values())
    degenerate = False
    if all_normal:
        test_used = "anova"
        stat, p = anova_oneway(samples)
    elif len(clean) == 2:
        test_used = "ranksum"
        stat, p = _old_ranksum(samples[0], samples[1])
        degenerate = stat == 0.0 and p == 1.0 and len({x for s in samples for x in s}) == 1
    else:
        test_used = "kruskal"
        stat, p = _old_kruskal_wallis(samples)
        degenerate = stat == 0.0 and p == 1.0 and len({x for s in samples for x in s}) == 1
    labels = sorted(means, key=lambda l: (-means[l], l))
    parts = [labels[0].capitalize()]
    for prev, cur in zip(labels, labels[1:]):
        parts.append(">" if _old_ranksum(clean[prev], clean[cur])[1] < alpha else "=")
        parts.append(cur.capitalize())
    return StatRow(
        feature=feature, test_used=test_used, statistic=stat, p_value=p,
        group_means=means, ordering=" ".join(parts), significant=p < alpha,
        degenerate=degenerate,
    )


def _bits(obj):
    """A value with every float replaced by its hex form, so that == tells
    apart -0.0 from 0.0 and any last-bit difference."""
    if isinstance(obj, StatRow):
        return {name: _bits(getattr(obj, name)) for name in StatRow.__slots__}
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _draw(rng, kind, n, shift=0.0):
    if kind == "continuous":
        return [rng.lognormvariate(shift, 0.8) if rng.random() < 0.5 else rng.gauss(shift, 1.0)
                for _ in range(n)]
    if kind == "gaussian":
        return [rng.gauss(shift, 1.0) for _ in range(n)]
    if kind == "counts":  # tie-heavy integer counts
        return [float(rng.randint(0, 3 + int(shift))) for _ in range(n)]
    if kind == "signed_zeros":
        return [rng.choice((-0.0, 0.0, 0.0, -0.0, 1.0, -1.0 - shift)) for _ in range(n)]
    assert kind == "constant"
    return [2.5] * n


_KINDS = ("continuous", "gaussian", "counts", "signed_zeros", "constant")
_SIZES = (19, 20, 21, 60)


class TestSameBitsAsBefore:
    def test_a_planted_negative_zero_fails_the_check(self):
        # == on two results reads -0.0 as 0.0; _bits must not
        fields = dict(feature="x", test_used="anova", statistic=0.0, p_value=0.0,
                      group_means={"real": 0.0}, ordering="Real", significant=True)
        plain = StatRow(**fields)
        assert _bits(StatRow(**fields)) == _bits(plain)
        for planted in ({"statistic": -0.0}, {"p_value": -0.0}, {"group_means": {"real": -0.0}}):
            other = StatRow(**{**fields, **planted})
            assert other == plain
            assert _bits(other) != _bits(plain)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("n", _SIZES)
    def test_normality_test(self, kind, n):
        rng = random.Random(f"{kind}{n}")
        for seed in range(20):
            xs = _draw(rng, kind, n, shift=seed / 10.0)
            assert _bits(normality_test(xs)) == _bits(_old_normality_test(xs))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("n", _SIZES)
    def test_rank_tests(self, kind, n):
        rng = random.Random(f"{kind}{n}")
        for seed in range(10):
            a = _draw(rng, kind, n)
            b = _draw(rng, kind, n + seed, shift=0.5)
            c = _draw(rng, kind, max(1, n - seed), shift=1.0)
            assert _bits(ranksum(a, b)) == _bits(_old_ranksum(a, b))
            assert _bits(ranksum(c, a)) == _bits(_old_ranksum(c, a))
            assert _bits(kruskal_wallis([a, b, c])) == _bits(_old_kruskal_wallis([a, b, c]))

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("n", _SIZES)
    @pytest.mark.parametrize("labels", [("real", "fake"), ("fake", "real", "satire")])
    def test_compare_feature(self, kind, n, labels):
        rng = random.Random(f"{kind}{n}{labels}")
        for seed in range(10):
            groups = {}
            for i, label in enumerate(labels):
                vals = _draw(rng, kind, n + i * (seed % 3), shift=i * seed / 20.0)
                # undefined cells: None and nan, dropped by both
                groups[label] = [None if rng.random() < 0.05 else
                                 math.nan if rng.random() < 0.05 else v for v in vals]
            new = compare_feature("x", groups)
            assert _bits(new) == _bits(_old_compare_feature("x", groups))


def _old_union_sums(groups):
    """Each group's rank sum and the tie sum of the pooled groups, from the
    midranks of one pooled sort."""
    ranks, ties = _old_midranks([x for g in groups for x in g])
    sums, offset = [], 0
    for g in groups:
        sums.append(sum(ranks[offset:offset + len(g)]))
        offset += len(g)
    return sums, sum(t ** 3 - t for t in ties)


class TestRankingDifferential:
    """Rank sums and tie sums read from per-group rankings equal those of
    the pooled midranks, bit for bit, on every union of two and of three
    groups, in every order."""

    @staticmethod
    def _check(groups):
        ranked = [Ranking(g) for g in groups]
        for size in (2, 3):
            for pick in itertools.permutations(range(len(groups)), size):
                sums, ties = _old_union_sums([groups[i] for i in pick])
                union = [ranked[i] for i in pick]
                assert _bits(_rank_sums(union)) == _bits(sums), pick
                assert _tie_sum(union) == ties, pick

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("sizes", [(274, 11, 15), (11, 15, 274), (1, 1, 1), (2, 40, 3)])
    def test_drawn_groups(self, kind, sizes):
        rng = random.Random(f"{kind}{sizes}")
        for seed in range(5):
            self._check([_draw(rng, kind, n, shift=i * seed / 4.0) for i, n in enumerate(sizes)])

    def test_tie_heavy_counts(self):
        rng = random.Random(3)
        for _ in range(50):
            self._check([[float(rng.randint(0, rng.randint(0, 4))) for _ in range(rng.randint(1, 60))]
                         for _ in range(3)])

    def test_signed_zeros_tie(self):
        groups = [[-0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0]]
        self._check(groups)
        assert _tie_sum([Ranking(g) for g in groups]) == 6 ** 3 - 6

    def test_constant_groups(self):
        self._check([[2.5] * 30, [2.5] * 4, [2.5] * 7])
        self._check([[2.5] * 30, [1.0] * 4, [9.0] * 7])

    def test_integer_inputs(self):
        rng = random.Random(4)
        for _ in range(30):
            groups = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 25))] for _ in range(3)]
            groups[1] = [float(x) if rng.random() < 0.5 else x for x in groups[1]]
            self._check(groups)
