"""The stopping-intention p-values have exact combinatorial answers, so the
oracles here are integer fractions and scipy's binomial families rather than
any part of this package.
"""

import math
from fractions import Fraction

import pytest
import scipy.stats

from paircompare.bayes import PRIOR_PRESETS, BetaParams, conjugate_update
from paircompare.core import Direction
from paircompare.errors import DegenerateTest, DomainError
from paircompare.frequentist import pooled_z, two_proportion_z_test
from paircompare.simulations import (
    Tail,
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
    # The optional-stopping looks call the shared pooled_z kernel directly;
    # it must give exactly the public z-test's statistic and p-value, and
    # treat the same counts as degenerate.
    import numpy as np
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
