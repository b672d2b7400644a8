"""Hypothesis-testing protocol: normality gate, one-way ANOVA, Wilcoxon
rank-sum, Kruskal-Wallis, group orderings, and feature ranking.

The distribution CDFs are built on the standard library's log-gamma and
self-contained continued-fraction incomplete beta/gamma functions, so the
statistical core has no third-party dependency; the test suite checks them
against an independent reference implementation.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import combinations

from . import Record, float_mean, float_sum

ALPHA_DEFAULT = 0.05


class DomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# special functions

def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def reg_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (0.0 <= x <= 1.0) or a <= 0 or b <= 0:
        raise DomainError(f"reg_incomplete_beta domain violation: x={x}, a={a}, b={b}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def reg_incomplete_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0 or x < 0:
        raise DomainError(f"reg_incomplete_gamma_p domain violation: a={a}, x={x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        # series representation
        term = 1.0 / a
        total = term
        n = a
        for _ in range(1000):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return total * math.exp(-x + a * math.log(x) - ln_gamma(a))
    # continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    q = h * math.exp(-x + a * math.log(x) - ln_gamma(a))
    return 1.0 - q


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function 1 - CDF."""
    if x <= 0:
        return 1.0
    return 1.0 - reg_incomplete_gamma_p(df / 2.0, x / 2.0)


def f_sf(f: float, df1: float, df2: float) -> float:
    """F-distribution survival function via the incomplete beta."""
    if f <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return reg_incomplete_beta(x, df2 / 2.0, df1 / 2.0)


@cache
def t_ppf(q: float, df: int) -> float:
    """Student-t quantile by bisection on the CDF (q in (0,1)). A pure
    function of its arguments, so a cached result has the same bits as a
    fresh one; ``report`` asks for the same few quantiles many times."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"t_ppf requires q in (0,1), got {q}")
    if df < 1:
        raise DomainError(f"t_ppf requires df >= 1, got {df}")

    def cdf(t: float) -> float:
        if t == 0.0:
            return 0.5
        p = 0.5 * reg_incomplete_beta(df / (df + t * t), df / 2.0, 0.5)
        return p if t < 0 else 1.0 - p

    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid  # the bracket cannot shrink; every further step returns mid too
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# sample statistics

def _moments(xs) -> tuple[float, float, float, float]:
    m = float_mean(xs)
    m2 = float_mean([(x - m) ** 2 for x in xs])
    m3 = float_mean([(x - m) ** 3 for x in xs])
    m4 = float_mean([(x - m) ** 4 for x in xs])
    return m, m2, m3, m4


def _skew_z(n: int, m2: float, m3: float) -> float:
    """D'Agostino (1970) transformed skewness statistic from a sample's size
    and central moments."""
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


def _kurt_z(n: int, m2: float, m4: float) -> float:
    """Anscombe-Glynn transformed kurtosis statistic from a sample's size and
    central moments."""
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


def normality_test(sample: list[float], alpha: float = ALPHA_DEFAULT) -> tuple[float, float, bool]:
    """D'Agostino-Pearson K-squared omnibus normality test.

    Samples smaller than 20 (or with zero variance) are auto-classified
    non-normal: the omnibus approximation is unreliable there, and the
    rank tests assume no normality. So is a sample whose moments
    overflow (a deviation from the mean past about 1.2e77): it gives
    (inf, 0, False), and the samples that pass keep ANOVA's sums of
    squares finite.
    """
    n = len(sample)
    if n < 20:
        return 0.0, 0.0, False
    try:
        _, m2, m3, m4 = _moments(sample)
    except OverflowError:
        return math.inf, 0.0, False
    if m2 <= 0:
        return 0.0, 0.0, False
    zs = _skew_z(n, m2, m3)
    zk = _kurt_z(n, m2, m4)
    k2 = zs * zs + zk * zk
    p = chi2_sf(k2, 2.0)
    return k2, p, p > alpha


def anova_oneway(groups: list[list[float]]) -> tuple[float, float]:
    """One-way ANOVA F statistic and p-value.

    Zero within-group variance with unequal means gives (inf, 0);
    all-identical data gives (0, 1).
    """
    if len(groups) < 2 or any(len(g) < 2 for g in groups):
        raise DomainError("anova_oneway needs >= 2 groups with >= 2 values each")
    k = len(groups)
    n_total = sum(len(g) for g in groups)
    grand = float_mean([x for g in groups for x in g])
    means = [float_mean(g) for g in groups]
    ss_between = float_sum([len(g) * (m - grand) ** 2 for g, m in zip(groups, means)])
    ss_within = float_sum([(x - m) ** 2 for g, m in zip(groups, means) for x in g])
    df1, df2 = k - 1, n_total - k
    if ss_within == 0.0:
        if ss_between == 0.0:
            return 0.0, 1.0
        return math.inf, 0.0
    f = (ss_between / df1) / (ss_within / df2)
    return f, f_sf(f, df1, df2)


class Ranking:
    """A sample of a rank test, ranked once: its size, its sorted values,
    the count of each value and the tie sum (t**3 - t over each value's
    count t) of those counts. The rank tests read every statistic from the
    pairwise counts of rankings, so a sample ranked once serves every test
    it enters. Equal values tie whatever their type or sign (``-0.0 ==
    0.0``); a nan has no rank and raises ``DomainError``."""

    __slots__ = ("n", "values", "counts", "ties")

    def __init__(self, sample: list[float]):
        values = sorted(sample)
        if any(map(math.isnan, values)):
            raise DomainError("rank tests are undefined on nan")
        self.n = len(values)
        self.values = values
        self.counts = Counter(values)
        self.ties = sum(t * t * t - t for t in self.counts.values())

    def __len__(self) -> int:
        return self.n


def _ranking(sample: list[float] | Ranking) -> Ranking:
    return sample if isinstance(sample, Ranking) else Ranking(sample)


def _twice_u(a: Ranking, b: Ranking) -> int:
    """2U(a over b): twice the Mann-Whitney count of pairs (x from a, y from
    b) with x > y, plus the pairs with x == y. It is read from the side with
    fewer distinct values; the other side's is 2 * n_a * n_b minus it."""
    if len(a.counts) > len(b.counts):
        return 2 * a.n * b.n - _twice_u(b, a)
    ys, at = b.values, b.counts.get
    return sum(c * (2 * bisect_left(ys, v) + at(v, 0)) for v, c in a.counts.items())


def _tie_sum(groups: list[Ranking]) -> int:
    """The tie sum of the pooled groups: the counts of the groups other than
    the one with the most distinct values, merged into that one's."""
    largest = max(groups, key=lambda g: len(g.counts))
    merged = sum((g.counts for g in groups if g is not largest), Counter())
    at = largest.counts.get
    total = largest.ties
    for v, c in merged.items():
        t = at(v, 0)
        u = t + c
        total += u * u * u - u - (t * t * t - t)
    return total


def _rank_sums(groups: list[Ranking]) -> list[float]:
    """Each group's midrank sum in the pooled groups: n_i (n_i + 1) / 2 plus
    its U over each other group, a multiple of 0.5. Each pair of groups is
    counted once."""
    twice_r = [g.n * (g.n + 1) for g in groups]
    for i, j in combinations(range(len(groups)), 2):
        u = _twice_u(groups[i], groups[j])
        twice_r[i] += u
        twice_r[j] += 2 * groups[i].n * groups[j].n - u
    return [tr / 2 for tr in twice_r]


def ranksum(a: list[float] | Ranking, b: list[float] | Ranking) -> tuple[float, float]:
    """Wilcoxon rank-sum z statistic and two-sided normal-approximation p,
    with tie-corrected variance and no continuity correction.

    Each sample is a list of values or its ``Ranking``; w, a's rank sum,
    is read from the pair's Mann-Whitney count. All-tied pooled data
    degenerates to (0, 1).
    """
    if not a or not b:
        raise DomainError("ranksum requires two non-empty samples")
    a, b = _ranking(a), _ranking(b)
    n1, n2 = a.n, b.n
    w = _rank_sums([a, b])[0]
    n = n1 + n2
    mean = n1 * (n + 1) / 2.0
    tie_term = _tie_sum([a, b]) / (n * (n - 1.0)) if n > 1 else 0.0
    var = n1 * n2 / 12.0 * ((n + 1.0) - tie_term)
    if var <= 0:
        return 0.0, 1.0
    z = (w - mean) / math.sqrt(var)
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    return z, min(p, 1.0)


def kruskal_wallis(groups: list[list[float] | Ranking]) -> tuple[float, float]:
    """Kruskal-Wallis H with tie correction; p from chi-square df=k-1.

    Each group is a list of values or its ``Ranking``; the rank sums are
    read from the Mann-Whitney count of each pair of groups.
    """
    if len(groups) < 3:
        raise DomainError("kruskal_wallis needs >= 3 groups")
    if any(len(g) == 0 for g in groups):
        raise DomainError("kruskal_wallis requires non-empty samples")
    ranked = [_ranking(g) for g in groups]
    n = sum(g.n for g in ranked)
    h = 0.0
    for g, r in zip(ranked, _rank_sums(ranked)):
        h += r * r / g.n
    h = 12.0 / (n * (n + 1.0)) * h - 3.0 * (n + 1.0)
    correction = 1.0 - _tie_sum(ranked) / (n ** 3 - n)
    if correction <= 0:
        return 0.0, 1.0
    h /= correction
    return h, chi2_sf(h, len(groups) - 1.0)


# ---------------------------------------------------------------------------
# comparison protocol

class TestResult(Record):
    __slots__ = _fields = ("feature", "test_used", "statistic", "p_value", "group_means",
                           "ordering", "significant", "skipped_reason", "degenerate")

    def __init__(self, feature: str, test_used: str, statistic: float, p_value: float,
                 group_means: dict[str, float], ordering: str, significant: bool,
                 skipped_reason: str = "", degenerate: bool = False):
        self.feature = feature
        self.test_used = test_used  # anova | ranksum | kruskal | skipped
        self.statistic = statistic
        self.p_value = p_value
        self.group_means = group_means
        self.ordering = ordering
        self.significant = significant
        self.skipped_reason = skipped_reason
        self.degenerate = degenerate


def _rank_key(r: TestResult) -> tuple[float, float, str]:
    """Ascending p, then larger |statistic|, then feature name."""
    return r.p_value, -abs(r.statistic), r.feature


def sorted_rows(rows: list[TestResult]) -> list[TestResult]:
    """The tested rows in ``_rank_key`` order, then the skipped ones in
    their given order."""
    tested = sorted([r for r in rows if r.test_used != "skipped"], key=_rank_key)
    return tested + [r for r in rows if r.test_used == "skipped"]


def derive_ordering(
    group_means: dict[str, float],
    groups: dict[str, list[float] | Ranking],
    alpha: float = ALPHA_DEFAULT,
    pair_p: float | None = None,
) -> str:
    """Ordering text like ``Real > Fake = Satire``.

    Groups are sorted by mean descending; adjacent pairs are separated by
    ``>`` when their pairwise rank-sum is significant at alpha, ``=``
    otherwise. ``groups`` holds each label's values or its ``Ranking``.
    ``pair_p`` is the rank-sum p of exactly two groups when the caller has
    it already: rank sums are multiples of 0.5, so swapping the samples
    negates ``w - mean`` exactly and leaves p the same bits.
    """
    labels = sorted(group_means, key=lambda l: (-group_means[l], l))
    parts = [labels[0].capitalize()]
    for prev, cur in zip(labels, labels[1:]):
        p = ranksum(groups[prev], groups[cur])[1] if pair_p is None else pair_p
        parts.append(">" if p < alpha else "=")
        parts.append(cur.capitalize())
    return " ".join(parts)


def compare_feature(
    feature: str,
    groups: dict[str, list[float | None]],
    alpha: float = ALPHA_DEFAULT,
) -> TestResult:
    """Route one feature through the normality gate and derive its ordering.

    Undefined values are dropped per group, and a feature with a group of
    fewer than two values left is skipped, with no ordering. All groups
    normal -> ANOVA, otherwise rank-sum (2 groups) or Kruskal-Wallis (3+).
    Each group is ranked once, and that ``Ranking`` serves both the rank
    test and the ordering's pairwise rank-sums.
    """
    clean = {  # v == v is False only for nan; the other cells are kept as they are
        label: [v for v in vals if v is not None and v == v]
        for label, vals in groups.items()
    }
    small = [label for label, vals in clean.items() if len(vals) < 2]
    if len(clean) < 2 or small:
        return TestResult(
            feature=feature, test_used="skipped", statistic=0.0, p_value=1.0,
            group_means={}, ordering="", significant=False,
            skipped_reason=f"insufficient defined values in group(s): {', '.join(small) or 'n/a'}",
        )
    ranked = {label: Ranking(vals) for label, vals in clean.items()}
    means = {label: float_mean(vals) for label, vals in clean.items()}
    samples = list(clean.values())
    pair_p = None  # a two-group rank test's p is its ordering's one rank-sum p
    if all(normality_test(vals, alpha)[2] for vals in samples):
        test_used = "anova"
        stat, p = anova_oneway(samples)
    elif len(clean) == 2:
        test_used = "ranksum"
        stat, p = ranksum(*ranked.values())
        pair_p = p
    else:
        test_used = "kruskal"
        stat, p = kruskal_wallis(list(ranked.values()))
    degenerate = (test_used != "anova" and stat == 0.0 and p == 1.0
                  and len({x for s in samples for x in s}) == 1)
    return TestResult(
        feature=feature, test_used=test_used, statistic=stat, p_value=p,
        group_means=means, ordering=derive_ordering(means, ranked, alpha, pair_p),
        significant=p < alpha, degenerate=degenerate,
    )


def rank_features(results: list[TestResult], k: int, alpha: float = ALPHA_DEFAULT) -> list[str]:
    """The first k features of ``sorted_rows`` that are significant at
    alpha."""
    return [r.feature for r in sorted_rows(results)
            if r.test_used != "skipped" and r.p_value < alpha][:k]


def confidence_interval(sample: list[float], level: float = 0.95) -> tuple[float, float, float]:
    """(mean, lower, upper) t-based CI for the mean; (mean, -inf, inf)
    when a squared deviation or the variance overflows."""
    n = len(sample)
    m = float_mean(sample)
    if n < 2:
        return m, m, m
    try:
        squares = [(x - m) ** 2 for x in sample]
    except OverflowError:
        return m, -math.inf, math.inf
    var = float_sum(squares) / (n - 1)
    if math.isinf(var) and all(map(math.isfinite, squares)):
        # finite squares whose sum passes the range: sum them scaled by
        # 2**-k, with 2**k > n, as float_mean does
        k = n.bit_length()
        var = math.ldexp(float_sum([math.ldexp(s, -k) for s in squares]) / (n - 1), k)
    half = t_ppf(0.5 + level / 2.0, n - 1) * math.sqrt(var / n)
    return m, m - half, m + half
