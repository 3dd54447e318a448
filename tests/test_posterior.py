"""HDI extraction, ROPE decisions, and the interval-null Bayes factor.

Frozen interval probabilities were computed beforehand with scipy's adaptive
quadrature over the exact beta densities; they check the package's own
Simpson-rule evaluation from the outside.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircompare.bayes import BetaParams, PosteriorPair, event_probability
from paircompare.core import DecisionValue, Direction, Hypothesis, HypothesisKind
from paircompare.errors import DomainError, TooFewSamples, UnstableEstimate
from paircompare.numerics import RngStream
from paircompare.posterior import (
    Hdi,
    RopeRelation,
    bayes_factor_interval_null,
    hdi_from_samples,
    interval_probability_quadrature,
    rope_decision,
)

EASY_POSTS = PosteriorPair(BetaParams(1722.0, 656.0), BetaParams(1638.0, 740.0))
UNIFORM_PAIR = (BetaParams(1.0, 1.0), BetaParams(1.0, 1.0))


def brute_force_hdi(samples, mass):
    """Independent oracle: check every contiguous window of order statistics."""
    x = np.sort(np.asarray(samples, dtype=float))
    window = math.ceil(mass * x.size)
    widths = [(x[i + window - 1] - x[i], x[i], x[i + window - 1])
              for i in range(x.size - window + 1)]
    best = min(w for w, _, _ in widths)
    for w, lo, hi in widths:
        if w == best:
            return lo, hi
    raise AssertionError("unreachable")


@pytest.mark.parametrize("seed", range(8))
def test_hdi_matches_bruteforce_oracle(seed):
    gen = np.random.default_rng(seed)
    # Mixtures and skewed shapes stress the window search harder than
    # symmetric bells do.
    samples = np.concatenate([
        gen.normal(0.0, 1.0, 150),
        gen.lognormal(0.0, 0.8, 90),
        gen.uniform(-4.0, -2.0, 60),
    ])
    for mass in (0.5, 0.8, 0.95):
        hdi = hdi_from_samples(samples, mass)
        lo, hi = brute_force_hdi(samples, mass)
        assert hdi.lower == lo
        assert hdi.upper == hi


@given(st.lists(st.floats(-100.0, 100.0), min_size=100, max_size=140),
       st.sampled_from([0.6, 0.9, 0.95]))
@settings(max_examples=30, deadline=None)
def test_hdi_is_shortest_window_property(values, mass):
    hdi = hdi_from_samples(values, mass)
    lo, hi = brute_force_hdi(values, mass)
    assert (hdi.lower, hdi.upper) == (lo, hi)
    assert hdi.width == hi - lo
    # The window really contains the requested share of the samples.
    inside = sum(1 for v in values if lo <= v <= hi)
    assert inside >= math.ceil(mass * len(values))


def test_hdi_normal_samples_match_analytic():
    gen = np.random.default_rng(2718)
    samples = gen.normal(0.0, 1.0, 200_000)
    hdi = hdi_from_samples(samples, 0.95)
    assert hdi.lower == pytest.approx(-1.959964, abs=0.03)
    assert hdi.upper == pytest.approx(1.959964, abs=0.03)


def test_hdi_endpoints_are_order_statistics():
    gen = np.random.default_rng(7)
    samples = gen.normal(size=500)
    hdi = hdi_from_samples(samples, 0.9)
    assert hdi.lower in samples
    assert hdi.upper in samples


def test_hdi_full_mass_spans_range():
    samples = np.linspace(-3.0, 5.0, 200)
    hdi = hdi_from_samples(samples, 1.0)
    assert (hdi.lower, hdi.upper) == (-3.0, 5.0)


def test_hdi_requires_enough_samples():
    with pytest.raises(TooFewSamples):
        hdi_from_samples(np.zeros(99), 0.95)


@pytest.mark.parametrize("mass", [0.0, -0.5, 1.0001])
def test_hdi_mass_domain(mass):
    with pytest.raises(DomainError):
        hdi_from_samples(np.linspace(0, 1, 200), mass)


def test_rope_decision_trichotomy_cases():
    inside = rope_decision(Hdi(-0.005, 0.005, 0.95), 0.01)
    assert inside.relation is RopeRelation.HDI_INSIDE_ROPE
    assert inside.decision.value is DecisionValue.ACCEPT_NULL

    outside = rope_decision(Hdi(0.02, 0.05, 0.95), 0.01)
    assert outside.relation is RopeRelation.HDI_OUTSIDE_ROPE
    assert outside.decision.value is DecisionValue.REJECT_NULL

    overlap = rope_decision(Hdi(0.005, 0.05, 0.95), 0.01)
    assert overlap.relation is RopeRelation.OVERLAP
    assert overlap.decision.value is DecisionValue.UNDECIDED


def test_rope_touching_endpoint_counts_as_overlap():
    # Closed intervals: sharing a single point is still contact.
    touching = rope_decision(Hdi(0.01, 0.05, 0.95), 0.01)
    assert touching.relation is RopeRelation.OVERLAP
    exact_cover = rope_decision(Hdi(-0.01, 0.01, 0.95), 0.01)
    assert exact_cover.relation is RopeRelation.OVERLAP


def test_rope_respects_center():
    shifted = rope_decision(Hdi(0.39, 0.41, 0.95), 0.05, rope_center=0.4)
    assert shifted.relation is RopeRelation.HDI_INSIDE_ROPE
    assert shifted.rope == (pytest.approx(0.35), pytest.approx(0.45))


def test_rope_radius_domain():
    with pytest.raises(DomainError):
        rope_decision(Hdi(0.0, 0.1, 0.95), 0.0)


@given(st.floats(-0.5, 0.5), st.floats(0.0, 0.5), st.floats(0.001, 0.3))
@settings(max_examples=200)
def test_rope_relations_are_exhaustive_and_exclusive(lower, width, radius):
    verdict = rope_decision(Hdi(lower, lower + width, 0.95), radius)
    lo, hi = -radius, radius
    strictly_inside = lo < lower and lower + width < hi
    strictly_outside = lower + width < lo or lower > hi
    if strictly_inside:
        assert verdict.relation is RopeRelation.HDI_INSIDE_ROPE
    elif strictly_outside:
        assert verdict.relation is RopeRelation.HDI_OUTSIDE_ROPE
    else:
        assert verdict.relation is RopeRelation.OVERLAP


def test_quadrature_uniform_pair_closed_form():
    for eps in (0.005, 0.01, 0.05, 0.2):
        expected = 2.0 * eps - eps * eps
        assert interval_probability_quadrature(*UNIFORM_PAIR, eps) == pytest.approx(
            expected, abs=1e-9)


def test_quadrature_easy_posteriors_frozen():
    # scipy.integrate.quad over the exact densities gives 0.02720467677939874.
    value = interval_probability_quadrature(EASY_POSTS.post1, EASY_POSTS.post2, 0.01)
    assert value == pytest.approx(0.02720467677939874, abs=2e-9)


def test_quadrature_symmetric_under_swap():
    a = interval_probability_quadrature(EASY_POSTS.post1, EASY_POSTS.post2, 0.01)
    b = interval_probability_quadrature(EASY_POSTS.post2, EASY_POSTS.post1, 0.01)
    assert a == pytest.approx(b, rel=1e-9)


def test_quadrature_monotone_in_radius():
    values = [interval_probability_quadrature(EASY_POSTS.post1, EASY_POSTS.post2, eps)
              for eps in (0.005, 0.01, 0.02, 0.05, 0.2)]
    assert all(a < b for a, b in zip(values, values[1:]))


BF_QUAD_FROZEN = {
    # label: (priors, posteriors, prior_p0, post_p0, bf01), all from scipy quad.
    "uniform": (UNIFORM_PAIR,
                EASY_POSTS,
                0.0199, 0.02720467677939874, 1.3773344465505502),
    "optimistic_weak": ((BetaParams(3.0, 1.5), BetaParams(3.0, 1.5)),
                        PosteriorPair(BetaParams(1724.0, 656.5), BetaParams(1640.0, 740.5)),
                        0.028692724857164995, 0.027306486827116623, 0.9503304762625258),
    "optimistic_strong": ((BetaParams(9.0, 3.0), BetaParams(9.0, 3.0)),
                          PosteriorPair(BetaParams(1730.0, 658.0), BetaParams(1646.0, 742.0)),
                          0.04813085385241872, 0.027613129620866147, 0.5616040473698086),
}


@pytest.mark.parametrize("label", sorted(BF_QUAD_FROZEN))
def test_bayes_factor_quadrature_components_frozen(label):
    priors, posts, prior_p0, post_p0, bf01 = BF_QUAD_FROZEN[label]
    result = bayes_factor_interval_null(priors, posts, 0.01, 100_000,
                                        RngStream(31, 0))
    assert result.quadrature_prior_p0 == pytest.approx(prior_p0, abs=5e-7)
    assert result.quadrature_post_p0 == pytest.approx(post_p0, abs=5e-7)
    assert result.quadrature_bf01 == pytest.approx(bf01, rel=5e-5)


@pytest.mark.parametrize("label", sorted(BF_QUAD_FROZEN))
def test_bayes_factor_mc_within_error_of_quadrature(label):
    priors, posts, _, _, _ = BF_QUAD_FROZEN[label]
    result = bayes_factor_interval_null(priors, posts, 0.01, 100_000,
                                        RngStream(77, 2))
    assert abs(result.prior_p0 - result.quadrature_prior_p0) < 4.0 * result.prior_p0_se
    assert abs(result.post_p0 - result.quadrature_post_p0) < 4.0 * result.post_p0_se
    assert abs(result.bf01 - result.quadrature_bf01) < 4.0 * result.bf01_se


def test_bayes_factor_recorded_components_consistent():
    result = bayes_factor_interval_null(UNIFORM_PAIR, EASY_POSTS, 0.01, 50_000,
                                        RngStream(5, 9))
    # The headline number is exactly the odds ratio of its own components.
    recomputed = (result.post_p0 / result.post_p1) / (result.prior_p0 / result.prior_p1)
    assert result.bf01 == pytest.approx(recomputed, rel=1e-14)
    assert result.prior_p1 == pytest.approx(1.0 - result.prior_p0, abs=1e-15)
    assert result.post_p1 == pytest.approx(1.0 - result.post_p0, abs=1e-15)


def test_bayes_factor_deterministic():
    a = bayes_factor_interval_null(UNIFORM_PAIR, EASY_POSTS, 0.01, 10_000,
                                   RngStream(13, 1))
    b = bayes_factor_interval_null(UNIFORM_PAIR, EASY_POSTS, 0.01, 10_000,
                                   RngStream(13, 1))
    assert a.bf01 == b.bf01
    assert a.prior_p0 == b.prior_p0


def test_bayes_factor_unstable_when_component_starved():
    # With eps this small the prior component collects fewer than 10 hits in
    # 1000 draws, which the estimator refuses to turn into a ratio.
    with pytest.raises(UnstableEstimate):
        bayes_factor_interval_null(UNIFORM_PAIR, EASY_POSTS, 0.0012, 1000,
                                   RngStream(2, 0))


def test_bayes_factor_validation():
    with pytest.raises(DomainError):
        bayes_factor_interval_null(UNIFORM_PAIR, EASY_POSTS, 0.0, 10_000,
                                   RngStream(1, 0))
    with pytest.raises(DomainError):
        bayes_factor_interval_null(UNIFORM_PAIR, EASY_POSTS, 0.01, 999,
                                   RngStream(1, 0))


def test_margin_assessment_easy_frozen():
    # P(theta1 - theta2 > 0.01) = 0.972497 by quadrature; a margin is assessed
    # through the one event-probability route.
    margin = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.01, direction=Direction.GREATER)
    result = event_probability(EASY_POSTS, margin, 100_000, RngStream(21, 0))
    assert result.estimate == pytest.approx(0.972497, abs=0.004)
    assert result.mc_se == pytest.approx(
        math.sqrt(result.estimate * (1 - result.estimate) / 100_000), rel=1e-9)


def test_margin_assessment_validation():
    with pytest.raises(DomainError):
        Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 1.5)
    with pytest.raises(DomainError):
        event_probability(EASY_POSTS, Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0),
                          10, RngStream(1, 0))
