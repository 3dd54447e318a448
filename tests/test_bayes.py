"""Conjugate beta-binomial layer."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from paircompare.bayes import (
    PRIOR_PRESETS,
    BetaParams,
    PosteriorPair,
    conjugate_update,
    event_probability,
    event_probability_from_samples,
    posterior_pair,
)
from paircompare.core import Direction, Hypothesis, HypothesisKind
from paircompare.errors import DomainError
from paircompare.numerics import RngStream

UNIFORM = BetaParams(1.0, 1.0)
EASY = ((1721, 2376), (1637, 2376))


def test_beta_params_validation():
    # NaN passes a "<= 0" test; a NaN or infinite shape hangs the sampler.
    nan, inf = float("nan"), float("inf")
    for alpha, beta in ((0.0, 1.0), (2.0, -1.0), (nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf)):
        with pytest.raises(DomainError):
            BetaParams(alpha, beta)


def test_beta_params_moments_match_scipy():
    for a, b in ((1.0, 1.0), (3.0, 1.5), (9.0, 3.0), (1722.0, 656.0)):
        params = BetaParams(a, b)
        dist = scipy.stats.beta(a, b)
        assert params.mean == pytest.approx(dist.mean(), rel=1e-12)
        assert params.variance == pytest.approx(dist.var(), rel=1e-12)


def test_prior_presets():
    assert PRIOR_PRESETS["uniform"] == BetaParams(1.0, 1.0)
    assert PRIOR_PRESETS["optimistic_weak"] == BetaParams(3.0, 1.5)
    assert PRIOR_PRESETS["optimistic_strong"] == BetaParams(9.0, 3.0)


def test_conjugate_update_arithmetic():
    assert conjugate_update(UNIFORM, 1721, 2376) == BetaParams(1722.0, 656.0)
    assert conjugate_update(BetaParams(3.0, 1.5), 5, 10) == BetaParams(8.0, 6.5)


def test_conjugate_update_validation():
    with pytest.raises(DomainError):
        conjugate_update(UNIFORM, 5, 4)
    with pytest.raises(DomainError):
        conjugate_update(UNIFORM, -1, 4)


@given(st.integers(0, 500), st.integers(0, 500),
       st.floats(0.1, 50.0), st.floats(0.1, 50.0))
def test_conjugate_update_shapes(correct, extra, alpha, beta):
    total = correct + extra
    post = conjugate_update(BetaParams(alpha, beta), correct, total)
    assert post.alpha == pytest.approx(alpha + correct)
    assert post.beta == pytest.approx(beta + total - correct)


def test_posterior_pair_easy():
    posts = posterior_pair(UNIFORM, EASY)
    assert posts.post1 == BetaParams(1722.0, 656.0)
    assert posts.post2 == BetaParams(1638.0, 740.0)
    # Posterior mean of the better system: 1722 / 2378.
    assert posts.post1.mean == pytest.approx(0.7241379310344828, abs=1e-12)
    assert posts.post2.mean == pytest.approx(0.6888141295206055, abs=1e-12)
    assert posts.mean_diff == pytest.approx(84.0 / 2378.0, abs=1e-12)


def test_event_probability_superiority_easy():
    # P(theta1 > theta2) on the worked example; center frozen from a
    # quadrature evaluation (0.996276), tolerance covers Monte Carlo noise.
    posts = posterior_pair(UNIFORM, EASY)
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0, direction=Direction.GREATER)
    result = event_probability(posts, hyp, 100_000, RngStream(42, 0))
    assert result.estimate == pytest.approx(0.996276, abs=0.003)
    assert result.n_mc == 100_000
    assert result.halfwidth95 == pytest.approx(1.96 * result.mc_se, rel=1e-12)


def test_event_probability_beyond_margin_easy():
    # P(theta1 - theta2 > 0.01); frozen quadrature value 0.972497.
    posts = posterior_pair(UNIFORM, EASY)
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.01, direction=Direction.GREATER)
    result = event_probability(posts, hyp, 100_000, RngStream(42, 1))
    assert result.estimate == pytest.approx(0.972497, abs=0.004)


def test_event_probability_deterministic():
    posts = posterior_pair(UNIFORM, EASY)
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0)
    a = event_probability(posts, hyp, 5000, RngStream(9, 4))
    b = event_probability(posts, hyp, 5000, RngStream(9, 4))
    assert a.estimate == b.estimate


def test_event_probability_rejects_small_n():
    posts = posterior_pair(UNIFORM, EASY)
    with pytest.raises(DomainError):
        event_probability(posts, Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0),
                          999, RngStream(1, 0))


def test_event_masks_from_samples():
    diffs = np.array([-0.5, -0.02, 0.01, 0.02, 0.3])

    greater = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.015,
                         direction=Direction.GREATER)
    assert event_probability_from_samples(diffs, greater).estimate == 2 / 5

    less = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0, direction=Direction.LESS)
    assert event_probability_from_samples(diffs, less).estimate == 2 / 5

    two_sided = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.1,
                           direction=Direction.TWO_SIDED)
    assert event_probability_from_samples(diffs, two_sided).estimate == 2 / 5

    interval = Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, rope_radius=0.05)
    assert event_probability_from_samples(diffs, interval).estimate == 3 / 5


def test_event_probability_from_samples_validation():
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0)
    with pytest.raises(DomainError):
        event_probability_from_samples(np.array([]), hyp)
    with pytest.raises(DomainError):
        event_probability_from_samples(np.zeros((3, 3)), hyp)


@given(st.floats(0.05, 30.0), st.floats(0.05, 30.0),
       st.integers(0, 50), st.integers(1, 50))
@settings(max_examples=50)
def test_posterior_mean_between_prior_mean_and_mle(alpha, beta, correct, extra):
    # Conjugate shrinkage: the posterior mean is a convex combination of the
    # prior mean and the sample rate.
    total = correct + extra
    prior = BetaParams(alpha, beta)
    post = conjugate_update(prior, correct, total)
    lo = min(prior.mean, correct / total)
    hi = max(prior.mean, correct / total)
    assert lo - 1e-12 <= post.mean <= hi + 1e-12
