"""z-test and confidence intervals.

Expected values marked as frozen were computed with scipy (normal CDF and
quantile) before these tests were written.
"""

import math

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from paircompare.core import Direction
from paircompare.errors import DegenerateTest, DomainError
from paircompare.frequentist import (
    CiMode,
    diff_confidence_interval,
    two_proportion_z_test,
)

EASY = (1721, 2376, 1637, 2376)
CHALLENGE = (566, 1172, 496, 1172)


def test_ztest_easy_frozen():
    result = two_proportion_z_test(*EASY)
    assert result.z == pytest.approx(2.6763676343809055, abs=1e-9)
    assert result.p_value == pytest.approx(0.0037212478742342475, rel=1e-9)
    assert result.pooled_rate == pytest.approx(0.7066498316498316, abs=1e-12)
    assert result.sigma == pytest.approx(0.013209521330096827, abs=1e-12)
    assert result.diff == pytest.approx(84 / 2376, abs=1e-12)


def test_ztest_challenge_frozen():
    result = two_proportion_z_test(*CHALLENGE)
    assert result.z == pytest.approx(2.9044945956196266, abs=1e-9)
    assert result.p_value == pytest.approx(0.0018392327700167417, rel=1e-6)


def test_ztest_direction_relations():
    greater = two_proportion_z_test(*EASY, direction=Direction.GREATER)
    less = two_proportion_z_test(*EASY, direction=Direction.LESS)
    two_sided = two_proportion_z_test(*EASY, direction=Direction.TWO_SIDED)
    assert greater.p_value + less.p_value == pytest.approx(1.0, abs=1e-12)
    assert two_sided.p_value == pytest.approx(2.0 * greater.p_value, rel=1e-12)


def test_ztest_antisymmetric_under_swap():
    forward = two_proportion_z_test(*EASY)
    backward = two_proportion_z_test(EASY[2], EASY[3], EASY[0], EASY[1])
    assert backward.z == pytest.approx(-forward.z, abs=1e-12)


@given(st.integers(0, 60), st.integers(0, 60), st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=150)
def test_ztest_matches_direct_formula(c1, c2, t1, t2):
    c1, c2 = min(c1, t1), min(c2, t2)
    pooled = (c1 + c2) / (t1 + t2)
    if pooled in (0.0, 1.0):
        with pytest.raises(DegenerateTest):
            two_proportion_z_test(c1, t1, c2, t2)
        return
    result = two_proportion_z_test(c1, t1, c2, t2, Direction.TWO_SIDED)
    sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / t1 + 1.0 / t2))
    z = (c1 / t1 - c2 / t2) / sigma
    assert result.z == pytest.approx(z, abs=1e-12)
    assert result.p_value == pytest.approx(
        min(1.0, 2.0 * scipy.stats.norm.sf(abs(z))), rel=1e-9)


def test_ztest_degenerate():
    with pytest.raises(DegenerateTest):
        two_proportion_z_test(0, 10, 0, 10)
    with pytest.raises(DegenerateTest):
        two_proportion_z_test(10, 10, 10, 10)


def test_ztest_count_validation():
    with pytest.raises(DomainError):
        two_proportion_z_test(5, 4, 1, 4)
    with pytest.raises(DomainError):
        two_proportion_z_test(1, 0, 1, 4)


def test_ci_one_sided_pooled_easy_frozen():
    ci = diff_confidence_interval(*EASY, level=0.95, mode=CiMode.ONE_SIDED_POOLED_Z)
    assert ci.lower == pytest.approx(0.013625806283432754, abs=1e-9)
    assert ci.upper == pytest.approx(0.057081264423637965, abs=1e-9)
    # The half-width is the one-sided critical value times the pooled sigma.
    assert ci.critical == pytest.approx(1.6448536269514722, abs=1e-9)
    assert ci.sigma == pytest.approx(0.013209521330096827, abs=1e-12)


def test_ci_standard_two_sided_challenge_frozen():
    ci = diff_confidence_interval(*CHALLENGE, level=0.95,
                                  mode=CiMode.STANDARD_TWO_SIDED)
    assert ci.lower == pytest.approx(0.01949557401599864, abs=1e-9)
    assert ci.upper == pytest.approx(0.09995835089867713, abs=1e-9)
    assert ci.critical == pytest.approx(1.959963984540054, abs=1e-9)


def test_ci_one_sided_pooled_challenge_frozen():
    ci = diff_confidence_interval(*CHALLENGE, level=0.95,
                                  mode=CiMode.ONE_SIDED_POOLED_Z)
    assert ci.lower == pytest.approx(0.025903, abs=5e-7)
    assert ci.upper == pytest.approx(0.093551, abs=5e-7)


def test_ci_two_sided_centered_on_diff():
    ci = diff_confidence_interval(*EASY)
    assert (ci.lower + ci.upper) / 2.0 == pytest.approx(ci.diff, abs=1e-15)


@given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 80), st.integers(1, 80))
@settings(max_examples=100)
def test_ci_matches_wald_oracle(c1, t1, c2, t2):
    c1, c2 = min(c1, t1), min(c2, t2)
    p1, p2 = c1 / t1, c2 / t2
    se = math.sqrt(p1 * (1 - p1) / t1 + p2 * (1 - p2) / t2)
    if se == 0.0:
        with pytest.raises(DegenerateTest):
            diff_confidence_interval(c1, t1, c2, t2)
        return
    ci = diff_confidence_interval(c1, t1, c2, t2, level=0.9)
    crit = scipy.stats.norm.ppf(0.95)
    assert ci.lower == pytest.approx((p1 - p2) - crit * se, abs=1e-10)
    assert ci.upper == pytest.approx((p1 - p2) + crit * se, abs=1e-10)


def test_ci_duality_with_one_sided_test():
    # The pooled interval at level 1 - alpha excludes zero exactly when the
    # one-sided p-value is below alpha: both scale the same pooled sigma by
    # quantile(1 - alpha).
    for counts in (EASY, CHALLENGE, (40, 80, 30, 80), (31, 60, 29, 60)):
        alpha = 0.05
        test = two_proportion_z_test(*counts)
        ci = diff_confidence_interval(*counts, level=1.0 - alpha,
                                      mode=CiMode.ONE_SIDED_POOLED_Z)
        assert (test.p_value < alpha) == (ci.lower > 0.0)


def test_ci_level_validation():
    with pytest.raises(DomainError):
        diff_confidence_interval(*EASY, level=0.0)
    with pytest.raises(DomainError):
        diff_confidence_interval(*EASY, level=1.0)
