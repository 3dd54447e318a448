"""Conjugate beta-binomial layer, and the Monte Carlo event frequencies
``posterior`` counts in its sorted posterior draws."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import posterior_diff_draws
from paircompare.bayes import PRIOR_PRESETS, BetaParams, conjugate_update, posterior_pair
from paircompare.core import Direction, Hypothesis, HypothesisKind
from paircompare.errors import DomainError
from paircompare.posterior import _sorted_event_count, event_probability_from_sorted

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


def test_beta_params_variance_at_tiny_shapes():
    # a b / (s^2 (s + 1)) underflows its denominator to 0 at shapes near
    # 1e-300, and so does scipy's; Beta(a, a) has variance 1 / (4 (2a + 1)).
    assert BetaParams(1e-300, 1e-300).variance == 0.25
    assert BetaParams(1e-300, 2.0).variance == pytest.approx(1e-300 * 2.0 / (2.0 ** 2 * 3.0),
                                                             rel=1e-12)


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


def easy_diffs(n, seed, stream):
    """Paired posterior draws of theta1 - theta2 on the worked example, sorted."""
    return np.sort(posterior_diff_draws(posterior_pair(UNIFORM, EASY), n, seed, stream))


def event_mask(diffs, hypothesis):
    """Which draws hold ``hypothesis``'s event, element by element: the
    reference the sorted counts are held to."""
    if hypothesis.kind is HypothesisKind.DIRECTIONAL_MARGIN:
        if hypothesis.direction is Direction.GREATER:
            return diffs > hypothesis.margin
        if hypothesis.direction is Direction.LESS:
            return diffs < hypothesis.margin
        return np.abs(diffs) > hypothesis.margin
    return np.abs(diffs - hypothesis.margin) < hypothesis.rope_radius


def test_event_probability_superiority_easy():
    # P(theta1 > theta2) on the worked example; center frozen from a
    # quadrature evaluation (0.996276), tolerance covers Monte Carlo noise.
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0, direction=Direction.GREATER)
    result = event_probability_from_sorted(easy_diffs(100_000, 42, 0), hyp)
    assert result.estimate == pytest.approx(0.996276, abs=0.003)
    assert result.n == 100_000
    assert result.halfwidth95 == pytest.approx(1.96 * result.mc_se, rel=1e-12)


def test_event_probability_beyond_margin_easy():
    # P(theta1 - theta2 > 0.01); frozen quadrature value 0.972497.
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.01, direction=Direction.GREATER)
    result = event_probability_from_sorted(easy_diffs(100_000, 42, 1), hyp)
    assert result.estimate == pytest.approx(0.972497, abs=0.004)


def test_event_probability_deterministic():
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0)
    a = event_probability_from_sorted(easy_diffs(5000, 9, 4), hyp)
    b = event_probability_from_sorted(easy_diffs(5000, 9, 4), hyp)
    assert a == b


def test_event_probability_rejects_small_n():
    # No draws is no estimate; a single draw is an estimate of 0 or 1 with
    # zero Monte Carlo error.
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0)
    with pytest.raises(DomainError):
        event_probability_from_sorted(easy_diffs(1, 1, 0)[:0], hyp)
    one = event_probability_from_sorted(easy_diffs(1, 1, 0), hyp)
    assert one.n == 1
    assert one.estimate in (0.0, 1.0)
    assert one.mc_se == 0.0


def test_event_masks_from_samples():
    diffs = np.array([-0.5, -0.02, 0.01, 0.02, 0.3])

    greater = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.015,
                         direction=Direction.GREATER)
    assert event_probability_from_sorted(diffs, greater).estimate == 2 / 5

    less = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0, direction=Direction.LESS)
    assert event_probability_from_sorted(diffs, less).estimate == 2 / 5

    two_sided = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.1,
                           direction=Direction.TWO_SIDED)
    assert event_probability_from_sorted(diffs, two_sided).estimate == 2 / 5

    interval = Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, rope_radius=0.05)
    assert event_probability_from_sorted(diffs, interval).estimate == 3 / 5


def test_event_probability_from_samples_validation():
    # A plain sequence is checked as an array is.
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0)
    with pytest.raises(DomainError):
        event_probability_from_sorted([], hyp)
    with pytest.raises(DomainError):
        event_probability_from_sorted([[0.0] * 3] * 3, hyp)


# Draws with ties, both zeros, values on and next to the margins, infinities
# and NaNs, which ``np.sort`` puts last.
EDGE_DRAWS = st.sampled_from([-0.0, 0.0, 0.01, -0.01, 0.02, 0.03, 0.1 + 0.2, 0.3, 1.0, -1.0,
                              np.nextafter(0.01, 1.0), np.nextafter(-0.01, -1.0),
                              float("inf"), -float("inf"), float("nan")])
DRAW_ARRAYS = hnp.arrays(np.float64, st.integers(1, 60),
                         elements=EDGE_DRAWS | st.floats(-1.5, 1.5, width=64))
HYPOTHESES = st.one_of(
    st.builds(Hypothesis, st.just(HypothesisKind.DIRECTIONAL_MARGIN),
              st.sampled_from([0.0, -0.0, 0.01, -0.01, 0.3, 1.0, -1.0]) | st.floats(-1.0, 1.0),
              direction=st.sampled_from(list(Direction))),
    st.builds(Hypothesis, st.just(HypothesisKind.INTERVAL_NULL),
              st.sampled_from([0.0, 0.01, -0.02, 0.1]) | st.floats(-1.0, 1.0),
              st.sampled_from([0.01, 0.02, 0.2]) | st.floats(1e-6, 0.999)))


@settings(max_examples=400, deadline=None)
@given(DRAW_ARRAYS, HYPOTHESES)
# |0.11 - 0.1| rounds below 0.01, though 0.11 is not below 0.1 + 0.01; and
# |0.03 + 0.02| rounds to 0.05, though 0.03 is below -0.02 + 0.05.
@example(np.array([0.11, 0.09000000000000001, 0.5]),
         Hypothesis(HypothesisKind.INTERVAL_NULL, 0.1, 0.01))
@example(np.array([0.03, 0.0, 1.0]), Hypothesis(HypothesisKind.INTERVAL_NULL, -0.02, 0.05))
# A negative two-sided margin holds for every draw but a NaN.
@example(np.array([-0.0, 0.0, 0.005, 1.0, float("nan")]),
         Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, -0.01, direction=Direction.TWO_SIDED))
def test_sorted_event_counts_equal_the_mask_counts(draws, hypothesis):
    # Each event is a run of the sorted sample or its complement, so binary
    # searches count exactly what the mask does, ties and rounding included.
    sorted_draws = np.sort(draws)
    hits = np.count_nonzero(event_mask(draws, hypothesis))
    assert _sorted_event_count(sorted_draws, hypothesis) == hits
    result = event_probability_from_sorted(sorted_draws, hypothesis)
    assert (result.estimate, result.n) == (hits / draws.size, draws.size)


def test_sorted_event_probability_validation():
    hyp = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0)
    with pytest.raises(DomainError):
        event_probability_from_sorted(np.array([]), hyp)
    with pytest.raises(DomainError):
        event_probability_from_sorted(np.zeros((3, 3)), hyp)


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
