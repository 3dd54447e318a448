"""The stopping-intention p-values have exact combinatorial answers, so the
oracles here are integer fractions and scipy's binomial families rather than
any part of this package.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from paircompare.bayes import PRIOR_PRESETS, BetaParams, conjugate_update
from paircompare.core import Direction
from paircompare.errors import DegenerateTest, DomainError
from paircompare.frequentist import pooled_z, two_proportion_z_test
from paircompare.numerics import RngStream
from paircompare.simulations import (
    _BLOCK_DRAWS,
    Tail,
    _look_test,
    optional_stopping_fpr,
    prior_sensitivity_sweep,
    pvalue_fixed_n,
    pvalue_fixed_successes,
    stopping_comparison,
)

# Exact tails for 7 successes in 24 trials at a fair-coin null, computed with
# integer arithmetic: sum_{k<=7} C(24,k) / 2^24 and the matching
# negative-binomial tail P(N >= 24).
FIXED_N_LOWER = Fraction(536155, 16777216)
FIXED_SUCCESSES_LOWER = Fraction(145499, 8388608)


def test_fixed_n_classic_counts_frozen():
    assert pvalue_fixed_n(7, 24, 0.5) == pytest.approx(float(FIXED_N_LOWER), rel=1e-12)


def test_fixed_successes_classic_counts_frozen():
    assert pvalue_fixed_successes(7, 24, 0.5) == pytest.approx(
        float(FIXED_SUCCESSES_LOWER), rel=1e-12)


@pytest.mark.parametrize("s,n,theta", [
    (0, 10, 0.3), (3, 10, 0.3), (10, 10, 0.3),
    (7, 24, 0.5), (45, 120, 0.5), (2, 200, 0.01), (198, 200, 0.97),
])
def test_fixed_n_matches_scipy_binom(s, n, theta):
    dist = scipy.stats.binom(n, theta)
    assert pvalue_fixed_n(s, n, theta, Tail.LOWER) == pytest.approx(
        dist.cdf(s), rel=1e-10)
    assert pvalue_fixed_n(s, n, theta, Tail.UPPER) == pytest.approx(
        dist.sf(s - 1), rel=1e-10)


@pytest.mark.parametrize("s,n,theta", [
    (1, 5, 0.5), (7, 24, 0.5), (3, 40, 0.1), (12, 30, 0.4), (5, 5, 0.9),
])
def test_fixed_successes_matches_scipy_nbinom(s, n, theta):
    # N >= n is the event of at least n - s failures before the s-th success.
    dist = scipy.stats.nbinom(s, theta)
    assert pvalue_fixed_successes(s, n, theta, Tail.LOWER) == pytest.approx(
        dist.sf(n - s - 1), rel=1e-10)
    assert pvalue_fixed_successes(s, n, theta, Tail.UPPER) == pytest.approx(
        dist.cdf(n - s), rel=1e-10)


def _exact_negative_binomial_tails(a, n, rate):
    """(P(N >= n), P(N <= n)) for the trial N of the a-th success, summed from
    the negative-binomial pmf in integers scaled by the rate's denominator and
    rounded once, in the final division."""
    p, d = rate.as_integer_ratio()
    q = d - p

    def mass(limit):  # P(N <= limit) * d**limit
        return sum(math.comb(m - 1, a - 1) * p**a * q**(m - a) * d**(limit - m)
                   for m in range(a, limit + 1))

    return (d**(n - 1) - mass(n - 1)) / d**(n - 1), mass(n) / d**n


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
def test_fixed_successes_matches_exact_tails_on_a_grid(rate):
    # The lower tail is small where the complement 1 - P(N <= n - 1) would
    # cancel: 4 successes in 59 trials at rate 0.9 has P(N >= 59) = 2.26e-51.
    for n in range(1, 61):
        for a in range(1, n + 1):
            lower, upper = _exact_negative_binomial_tails(a, n, rate)
            assert pvalue_fixed_successes(a, n, rate, Tail.LOWER) == pytest.approx(
                lower, rel=1e-12)
            assert pvalue_fixed_successes(a, n, rate, Tail.UPPER) == pytest.approx(
                upper, rel=1e-12)
    if rate == 0.9:
        assert pvalue_fixed_successes(4, 59, rate) == pytest.approx(2.26284e-51, rel=1e-5)


def test_fixed_n_tails_partition_unit_mass():
    for s in range(0, 24):
        total = pvalue_fixed_n(s, 24, 0.37, Tail.LOWER) \
            + pvalue_fixed_n(s + 1, 24, 0.37, Tail.UPPER)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_fixed_n_certain_null_rate():
    assert pvalue_fixed_n(24, 24, 1.0, Tail.LOWER) == 1.0
    assert pvalue_fixed_n(23, 24, 1.0, Tail.LOWER) == 0.0
    assert pvalue_fixed_n(5, 24, 1.0, Tail.UPPER) == 1.0


def test_fixed_successes_certain_null_rate():
    assert pvalue_fixed_successes(7, 7, 1.0, Tail.LOWER) == 1.0
    assert pvalue_fixed_successes(7, 8, 1.0, Tail.LOWER) == 0.0
    assert pvalue_fixed_successes(7, 7, 1.0, Tail.UPPER) == 1.0


def test_stopping_args_validated():
    with pytest.raises(DomainError):
        pvalue_fixed_n(5, 0, 0.5)
    with pytest.raises(DomainError):
        pvalue_fixed_n(11, 10, 0.5)
    with pytest.raises(DomainError):
        pvalue_fixed_n(5, 10, 0.0)
    with pytest.raises(DomainError):
        pvalue_fixed_successes(0, 10, 0.5)


def test_stopping_comparison_same_data_different_pvalues():
    result = stopping_comparison(7, 24, 0.5)
    assert result.fixed_trials_pvalue == pytest.approx(float(FIXED_N_LOWER), rel=1e-12)
    assert result.fixed_successes_pvalue == pytest.approx(
        float(FIXED_SUCCESSES_LOWER), rel=1e-12)
    assert result.gap == pytest.approx(0.01461249589920044, abs=1e-12)
    # The intention alone moves the answer across a 0.025 threshold.
    assert result.fixed_trials_pvalue > 0.025 > result.fixed_successes_pvalue


def test_zsubtest_agrees_with_public_ztest():
    # The optional-stopping looks near their critical value call the shared
    # pooled_z kernel (see test_look_test_matches_pooled_z_on_every_cell);
    # it must give exactly the public z-test's statistic and p-value, and
    # treat the same counts as degenerate.
    gen = np.random.default_rng(404)
    for _ in range(300):
        n = int(gen.integers(2, 400))
        c1 = int(gen.integers(0, n + 1))
        c2 = int(gen.integers(0, n + 1))
        if c1 + c2 == 0 or c1 + c2 == 2 * n:
            with pytest.raises(DegenerateTest):
                pooled_z(c1, n, c2, n, Direction.TWO_SIDED)
            with pytest.raises(DegenerateTest):
                two_proportion_z_test(c1, n, c2, n, Direction.TWO_SIDED)
            continue
        for direction in Direction:
            public = two_proportion_z_test(c1, n, c2, n, direction)
            z, p_value, pooled, sigma = pooled_z(c1, n, c2, n, direction)
            assert (z, p_value, pooled, sigma) == (
                public.z, public.p_value, public.pooled_rate, public.sigma)


# Per-direction outcome of 500 null trials with 20 looks (seed 1729): the
# false-positive count and each look's first rejections, pinned so that any
# change to the per-look z-test or the trial streams shows up exactly.
PINNED_PEEKING = {
    Direction.GREATER: (99, (30, 8, 11, 3, 3, 8, 5, 8, 3, 1, 0, 2, 0, 3, 3, 1, 3, 5, 2, 0)),
    Direction.LESS: (103, (20, 9, 7, 8, 7, 11, 9, 2, 3, 5, 1, 6, 2, 2, 2, 3, 1, 3, 1, 1)),
    Direction.TWO_SIDED: (113, (22, 10, 10, 9, 8, 10, 5, 5, 7, 6, 0, 2, 4, 3, 3, 1, 4, 2, 1, 1)),
}


@pytest.mark.parametrize("direction", list(Direction))
def test_optional_stopping_pinned_counts(direction):
    report = optional_stopping_fpr(range(10, 201, 10), 0.5, 0.05, 500, 1729, direction)
    assert (report.false_positives, report.first_rejection_counts) == PINNED_PEEKING[direction]


def test_optional_stopping_single_look_holds_nominal_level():
    report = optional_stopping_fpr([400], 0.5, 0.05, 2000, 99,
                                   direction=Direction.GREATER)
    assert report.false_positive_rate == pytest.approx(0.05, abs=0.02)


def test_optional_stopping_inflates_false_positives():
    looks = list(range(20, 201, 20))
    report = optional_stopping_fpr(looks, 0.5, 0.05, 800, 7)
    single = optional_stopping_fpr([200], 0.5, 0.05, 800, 7)
    assert report.false_positive_rate > 2.0 * single.false_positive_rate
    assert report.false_positive_rate > 0.10


def test_optional_stopping_monotone_under_nested_looks():
    # Stream-per-trial means the same seed replays identical outcome paths,
    # so adding looks can only add rejections. This identity is exact.
    fprs = []
    for looks in ([100], [50, 100], [25, 50, 75, 100]):
        fprs.append(optional_stopping_fpr(looks, 0.5, 0.05, 400, 11).false_positive_rate)
    assert fprs[0] <= fprs[1] <= fprs[2]


def test_optional_stopping_bookkeeping():
    report = optional_stopping_fpr([30, 60, 90], 0.4, 0.05, 300, 5)
    assert sum(report.first_rejection_counts) == report.false_positives
    assert report.false_positive_rate == report.false_positives / 300
    assert report.looks == (30, 60, 90)
    assert report.master_seed == 5


def test_optional_stopping_deterministic():
    a = optional_stopping_fpr([50, 100], 0.5, 0.05, 200, 23)
    b = optional_stopping_fpr([50, 100], 0.5, 0.05, 200, 23)
    assert a == b


def test_optional_stopping_validation():
    with pytest.raises(DomainError):
        optional_stopping_fpr([], 0.5, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([100, 50], 0.5, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50, 50], 0.5, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50], 1.0, 0.05, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50], 0.5, 0.0, 100, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([50], 0.5, 0.05, 0, 1)
    # Non-integer look sizes and trial counts are refused, not truncated.
    for looks, trials in (([10.5], 100), ([10, 20.5], 100), ([10.0], 100),
                          ([50], 2.5), ([50], 100.0), ([50], np.float64(3))):
        with pytest.raises(DomainError):
            optional_stopping_fpr(looks, 0.5, 0.05, trials, 1)
    with pytest.raises(DomainError):
        optional_stopping_fpr([True, 50], 0.5, 0.05, 100, 1)
    # numpy integers and bools are integers.
    plain = optional_stopping_fpr([10, 20], 0.5, 0.05, 30, 1)
    assert optional_stopping_fpr(np.array([10, 20]), 0.5, 0.05, np.int64(30), 1) == plain
    assert optional_stopping_fpr((n for n in (10, 20)), 0.5, 0.05, 30, 1) == plain
    assert optional_stopping_fpr([10, 20], 0.5, 0.05, True, 1).trials == 1


def _scalar_first_rejection(looks, theta, alpha, seed, t, direction):
    """Reference for one trial: two draws from its stream, then pooled_z at
    each look until the first rejection.  Returns that look's index or None."""
    gen = RngStream(seed, t).generator
    cum1 = np.cumsum(gen.random(looks[-1]) < theta)
    cum2 = np.cumsum(gen.random(looks[-1]) < theta)
    for i, n in enumerate(looks):
        try:
            if pooled_z(int(cum1[n - 1]), n, int(cum2[n - 1]), n, direction)[1] < alpha:
                return i
        except DegenerateTest:
            pass
    return None


def _assert_look_test_matches_pooled_z(c1, c2, n, alphas):
    c1, c2 = c1.reshape(-1, 1), c2.reshape(-1, 1)
    degenerate = (c1[:, 0] + c2[:, 0]) % (2 * n) == 0
    for direction in Direction:
        p_values = np.array([math.nan if d else pooled_z(a, n, b, n, direction)[1]
                             for a, b, d in zip(c1[:, 0].tolist(), c2[:, 0].tolist(),
                                                degenerate)])
        for alpha in alphas:
            mask = _look_test(direction, alpha)(c1, c2, np.array([n]))[:, 0]
            assert not mask[degenerate].any()
            assert np.array_equal(mask[~degenerate], p_values[~degenerate] < alpha), \
                (direction, alpha)


@pytest.mark.parametrize("n", [2, 3, 10, 57, 150])
def test_look_test_matches_pooled_z_on_every_cell(n):
    # The array look test must reject exactly where pooled_z's p-value is
    # below alpha, on every (c1, c2) cell, and never on a degenerate one.
    c1, c2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    _assert_look_test_matches_pooled_z(c1, c2, n, (1e-320, 1e-12, 0.05, 0.5, 0.9999999))


@pytest.mark.parametrize("n", [740, 795, 833])
def test_look_test_matches_pooled_z_at_subnormal_alpha(n):
    # |z| reaches the critical value of a subnormal alpha (about 38) only in
    # the corners of large grids.  There the p-value's rounding moves some
    # decisions by up to 1e-2 in z; at these sizes a band of 1e-6 alone would
    # get cells wrong at each of these alphas.
    low, high = np.meshgrid(np.arange(121), np.arange(n - 120, n + 1))
    for c1, c2 in ((high, low), (low, high)):
        _assert_look_test_matches_pooled_z(c1, c2, n, (5e-324, 1e-323, 1e-320))


def _exact_fpr(looks, theta, alpha, direction):
    """Exact false-positive rate of the repeated pooled z-test (Armitage,
    McPherson & Rowe, JRSS A 132(2), 1969).  The joint pmf of the two arms'
    success counts is carried from look to look, convolved on each axis with
    the binomial pmf of the new items, and the rejection region's mass is
    removed at each look."""
    pmf = np.ones((1, 1))
    prev = 0
    rate = 0.0
    for n in looks:
        kernel = scipy.stats.binom.pmf(np.arange(n - prev + 1), n - prev, theta)
        grown = np.zeros((n + 1, prev + 1))
        for j, w in enumerate(kernel):
            grown[j:j + prev + 1, :] += w * pmf
        pmf = np.zeros((n + 1, n + 1))
        for j, w in enumerate(kernel):
            pmf[:, j:j + prev + 1] += w * grown
        counts = np.arange(n + 1, dtype=float)
        c1, c2 = counts[:, None], counts[None, :]
        pooled = (c1 + c2) / (2.0 * n)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (c1 - c2) / n / np.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
        if direction is Direction.GREATER:
            p = 0.5 * scipy.special.erfc(z / math.sqrt(2.0))
        elif direction is Direction.LESS:
            p = 0.5 * scipy.special.erfc(-z / math.sqrt(2.0))
        else:
            p = np.minimum(1.0, scipy.special.erfc(np.abs(z) / math.sqrt(2.0)))
        reject = (pooled > 0.0) & (pooled < 1.0) & (p < alpha)
        rate += float(pmf[reject].sum())
        pmf[reject] = 0.0
        prev = n
    return rate


@pytest.mark.parametrize("looks,direction", [
    (tuple(range(10, 501, 10)), Direction.TWO_SIDED),  # criterion 9's schedule
    ((500,), Direction.GREATER),                       # criterion 12's single look
])
def test_optional_stopping_within_4se_of_exact_rate(looks, direction):
    trials = 10_000
    exact = _exact_fpr(looks, 0.5, 0.05, direction)
    report = optional_stopping_fpr(looks, 0.5, 0.05, trials, 20260815, direction)
    se = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(report.false_positive_rate - exact) <= 4.0 * se, (report, exact)


def test_optional_stopping_block_boundaries():
    # Trial t reads only its own stream, so N trials report what N - 1 do plus
    # trial N - 1's own first rejection, wherever the block boundaries fall.
    looks = tuple(range(10, 201, 10))
    block = _BLOCK_DRAWS // (2 * looks[-1])
    for direction in Direction:
        for trials in (1, block - 1, block, block + 1, 2 * block + 1):
            report = optional_stopping_fpr(looks, 0.5, 0.2, trials, 1729, direction)
            before = ([0] * len(looks) if trials == 1 else list(
                optional_stopping_fpr(looks, 0.5, 0.2, trials - 1, 1729,
                                      direction).first_rejection_counts))
            first = _scalar_first_rejection(looks, 0.5, 0.2, 1729, trials - 1, direction)
            if first is not None:
                before[first] += 1
            assert report.first_rejection_counts == tuple(before), (direction, trials)
            assert report.false_positives == sum(before)


EASY_COUNTS = ((1721, 2376), (1637, 2376))


def test_prior_sweep_rows_sorted_and_deterministic():
    rows = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01, 20_000, 42)
    again = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01, 20_000, 42)
    assert [r.label for r in rows] == sorted(PRIOR_PRESETS)
    assert rows == again


def test_prior_sweep_posterior_means_match_conjugate():
    rows = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01, 20_000, 42)
    for row in rows:
        post1 = conjugate_update(row.prior, *EASY_COUNTS[0])
        post2 = conjugate_update(row.prior, *EASY_COUNTS[1])
        assert row.posterior_mean_diff == pytest.approx(post1.mean - post2.mean)


def test_prior_sweep_bayes_factor_moves_more_than_hdi():
    rows = prior_sensitivity_sweep(EASY_COUNTS, PRIOR_PRESETS, 0.01, 100_000, 42)
    bfs = [r.bf01 for r in rows]
    widths = [r.hdi.width for r in rows]
    bf_spread = max(bfs) / min(bfs)
    width_spread = max(widths) / min(widths)
    assert bf_spread > 2.0
    assert width_spread < 1.1
    assert bf_spread > 10.0 * (width_spread - 1.0) + 1.0
    # Every interval estimate still lands in the same region.
    lo = max(r.hdi.lower for r in rows)
    hi = min(r.hdi.upper for r in rows)
    assert lo < hi


def test_prior_sweep_rejects_empty_priors():
    with pytest.raises(DomainError):
        prior_sensitivity_sweep(EASY_COUNTS, {}, 0.01, 10_000, 1)


def test_prior_sweep_single_custom_prior():
    rows = prior_sensitivity_sweep(((9, 12), (6, 12)), {"flat": BetaParams(1.0, 1.0)},
                                   0.05, 10_000, 3)
    assert len(rows) == 1
    assert rows[0].prior == BetaParams(1.0, 1.0)
    assert math.isfinite(rows[0].bf01)
