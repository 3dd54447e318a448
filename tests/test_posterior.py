"""HDI extraction, ROPE decisions, and the interval-null Bayes factor.

Interval probabilities are checked against scipy's adaptive quadrature over
the exact beta densities, frozen or recomputed here; they check the
package's own tanh-sinh evaluation from the outside.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

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
    # From 0.5 on both panel cuts coincide or swap sides.
    for eps in (0.005, 0.01, 0.05, 0.2, 0.5, 0.75, 1.0):
        expected = 2.0 * eps - eps * eps
        assert interval_probability_quadrature(*UNIFORM_PAIR, eps) == pytest.approx(
            expected, abs=1e-9)


def scipy_interval_probability(p1: BetaParams, p2: BetaParams, eps: float) -> float:
    """Independent reference for P(|X - Y| < eps), X ~ p1 and Y ~ p2.

    scipy's adaptive Gauss-Kronrod quadrature of X's density against Y's CDF
    band, with density and CDF from Boost.  X should be the narrower of the
    two, or a steep band inside a wide piece can escape the adaptive rule.
    A concentrated X (both shapes >= 2) is integrated over its mean +- 14 sd;
    otherwise over [0, 1], where an end piece next to a shape below 2
    carries that shape's algebraic endpoint weight, so shapes below 1 stay
    exact.  Pieces are split where the band bends.
    """
    (a1, b1), (a2, b2) = (p1.alpha, p1.beta), (p2.alpha, p2.beta)
    ln_b = special.betaln(a1, b1)

    def band(t):
        return special.betainc(a2, b2, min(t + eps, 1.0)) - special.betainc(a2, b2, max(t - eps, 0.0))

    def piece(lo, hi):
        points = sorted(p for p in {p1.mean, p2.mean - eps, p2.mean + eps, eps, 1.0 - eps}
                        if lo < p < hi) or None
        if lo == 0.0 and a1 < 2.0:
            return integrate.quad(lambda t: math.exp((b1 - 1.0) * math.log1p(-t) - ln_b) * band(t),
                                  lo, hi, weight="alg", wvar=(a1 - 1.0, 0.0), **opts)[0]
        if hi == 1.0 and b1 < 2.0:
            return integrate.quad(lambda t: math.exp((a1 - 1.0) * math.log(t) - ln_b) * band(t),
                                  lo, hi, weight="alg", wvar=(0.0, b1 - 1.0), **opts)[0]
        return integrate.quad(lambda t: stats.beta.pdf(t, a1, b1) * band(t),
                              lo, hi, points=points, **opts)[0]

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if min(a1, b1) >= 2.0:
            half = 14.0 * math.sqrt(p1.variance)
            return piece(max(0.0, p1.mean - half), min(1.0, p1.mean + half))
        assert 0.0 < eps < 0.5
        return piece(0.0, eps) + piece(eps, 1.0 - eps) + piece(1.0 - eps, 1.0)


ACCURACY_PRIORS = {"uniform": (1.0, 1.0), "jeffreys": (0.5, 0.5), "skewed": (0.5, 3.0),
                   "optimistic_weak": (3.0, 1.5), "optimistic_strong": (9.0, 3.0)}


def _accuracy_cases():
    """Prior pairs at radii 1e-3..0.45, and posteriors after 10..10^6 items
    each, drawn with a fixed seed and always including 0 and all correct;
    a few pairs have very different totals, so their widths differ."""
    gen = np.random.default_rng(20190401)
    for label, prior in ACCURACY_PRIORS.items():
        for radius in (1e-3, 0.01, 0.1, 0.45):
            yield f"{label}-prior-{radius}", prior, (0, 0), (0, 0), radius
        for n in (10, 100, 1000, 10**4, 10**5, 10**6):
            p = gen.uniform(0.3, 0.9)
            sd = math.sqrt(2.0 * p * (1.0 - p) / n)
            gap = round(gen.uniform(0.0, 3.0) * sd * n)
            c1 = min(n, round(p * n) + gap)
            radius = float(np.clip(sd * 10 ** gen.uniform(-0.5, 1.0), 1e-3, 0.45))
            yield f"{label}-{n}", prior, (c1, n), (c1 - gap, n), radius
            yield f"{label}-{n}-none", prior, (0, n), (gen.integers(0, 3), n), max(radius, 0.02)
            yield f"{label}-{n}-all", prior, (n, n), (n - gen.integers(0, 3), n), max(radius, 0.02)
        for n1, n2 in ((10, 10**4), (100, 10**6)):
            p = gen.uniform(0.3, 0.9)
            yield f"{label}-{n1}-vs-{n2}", prior, (round(p * n1), n1), (round(p * n2), n2), 0.05


def _posteriors(prior, counts1, counts2):
    return tuple(BetaParams(prior[0] + c, prior[1] + n - c) for c, n in (counts1, counts2))


ACCURACY_CASES = list(_accuracy_cases())


@pytest.mark.parametrize("label,prior,counts1,counts2,radius", ACCURACY_CASES,
                         ids=[case[0] for case in ACCURACY_CASES])
def test_quadrature_matches_scipy(label, prior, counts1, counts2, radius):
    p1, p2 = _posteriors(prior, counts1, counts2)
    reference = scipy_interval_probability(*sorted((p1, p2), key=lambda p: p.variance), radius)
    assert reference >= 1e-6
    assert interval_probability_quadrature(p1, p2, radius) == pytest.approx(reference, rel=1e-7)


@pytest.mark.parametrize("n", [10**7, 10**9])
@pytest.mark.parametrize("prior", [(1.0, 1.0), (0.5, 0.5), (9.0, 3.0)])
def test_quadrature_matches_scipy_at_scale(n, prior):
    # A gap of two posterior sd and a radius of one, as the benchmark draws;
    # here the incomplete beta's own rounding sets the error.
    sd = math.sqrt(2.0 * 0.7 * 0.3 / n)
    p1, p2 = _posteriors(prior, (round((0.7 + sd) * n), n), (round((0.7 - sd) * n), n))
    reference = scipy_interval_probability(p1, p2, sd)
    assert interval_probability_quadrature(p1, p2, sd) == pytest.approx(reference, rel=1e-5)


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
