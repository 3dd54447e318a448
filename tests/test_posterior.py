"""HDI extraction, ROPE decisions, and the interval-null Bayes factor.

Interval probabilities are checked against scipy's adaptive quadrature over
the exact beta densities, frozen or recomputed here; they check the
package's own tanh-sinh evaluation from the outside.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from conftest import posterior_diff_draws
from paircompare.bayes import PRIOR_PRESETS, BetaParams, PosteriorPair
from paircompare.core import DecisionValue, Direction, Hypothesis, HypothesisKind
from paircompare.errors import DomainError, TooFewSamples, UnstableEstimate
from paircompare.posterior import (
    MAX_SHAPE_SUM,
    MIN_COMPONENT,
    MIN_SHAPE,
    Hdi,
    RopeRelation,
    bayes_factor_interval_null,
    event_probability_from_sorted,
    hdi_from_samples,
    hdi_of_difference,
    interval_probability_quadrature,
    rope_decision,
)

EASY_POSTS = PosteriorPair(BetaParams(1722.0, 656.0), BetaParams(1638.0, 740.0))
UNIFORM = BetaParams(1.0, 1.0)


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
    relation, value = rope_decision(Hdi(-0.005, 0.005, 0.95), 0.01)
    assert relation is RopeRelation.HDI_INSIDE_ROPE
    assert value is DecisionValue.ACCEPT_NULL

    relation, value = rope_decision(Hdi(0.02, 0.05, 0.95), 0.01)
    assert relation is RopeRelation.HDI_OUTSIDE_ROPE
    assert value is DecisionValue.REJECT_NULL

    relation, value = rope_decision(Hdi(0.005, 0.05, 0.95), 0.01)
    assert relation is RopeRelation.OVERLAP
    assert value is DecisionValue.UNDECIDED


def test_rope_touching_endpoint_counts_as_overlap():
    # Closed intervals: sharing a single point is still contact.
    touching, _ = rope_decision(Hdi(0.01, 0.05, 0.95), 0.01)
    assert touching is RopeRelation.OVERLAP
    exact_cover, _ = rope_decision(Hdi(-0.01, 0.01, 0.95), 0.01)
    assert exact_cover is RopeRelation.OVERLAP


def test_rope_is_centred_on_zero():
    # [0.39, 0.41] lies outside [-0.05, 0.05] but inside a band of that
    # radius centred on the HDI.  The report's rope block carries the
    # bounds (-radius, radius).
    relation, _ = rope_decision(Hdi(0.39, 0.41, 0.95), 0.05)
    assert relation is RopeRelation.HDI_OUTSIDE_ROPE


def test_rope_radius_domain():
    with pytest.raises(DomainError):
        rope_decision(Hdi(0.0, 0.1, 0.95), 0.0)


@given(st.floats(-0.5, 0.5), st.floats(0.0, 0.5), st.floats(0.001, 0.3))
@settings(max_examples=200)
def test_rope_relations_are_exhaustive_and_exclusive(lower, width, radius):
    relation, _ = rope_decision(Hdi(lower, lower + width, 0.95), radius)
    lo, hi = -radius, radius
    strictly_inside = lo < lower and lower + width < hi
    strictly_outside = lower + width < lo or lower > hi
    if strictly_inside:
        assert relation is RopeRelation.HDI_INSIDE_ROPE
    elif strictly_outside:
        assert relation is RopeRelation.HDI_OUTSIDE_ROPE
    else:
        assert relation is RopeRelation.OVERLAP


def test_quadrature_uniform_pair_closed_form():
    # From 0.5 on both panel cuts coincide or swap sides.
    for eps in (0.005, 0.01, 0.05, 0.2, 0.5, 0.75, 1.0):
        expected = 2.0 * eps - eps * eps
        assert interval_probability_quadrature(UNIFORM, UNIFORM, eps) == pytest.approx(
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
                   "optimistic_weak": (3.0, 1.5), "optimistic_strong": (9.0, 3.0),
                   "shape_0.2": (0.2, 0.2)}


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
    return tuple(BetaParams(prior[0] + c, prior[1] + (n - c)) for c, n in (counts1, counts2))


ACCURACY_CASES = list(_accuracy_cases())


@pytest.mark.parametrize("label,prior,counts1,counts2,radius", ACCURACY_CASES,
                         ids=[case[0] for case in ACCURACY_CASES])
def test_quadrature_matches_scipy(label, prior, counts1, counts2, radius):
    p1, p2 = _posteriors(prior, counts1, counts2)
    reference = scipy_interval_probability(*sorted((p1, p2), key=lambda p: p.variance), radius)
    assert reference >= 1e-6
    assert interval_probability_quadrature(p1, p2, radius) == pytest.approx(reference, rel=1e-7)


@pytest.mark.parametrize("n", [10**7, 10**8, 10**9, 10**10])
@pytest.mark.parametrize("prior", [(1.0, 1.0), (0.5, 0.5), (9.0, 3.0)])
def test_quadrature_matches_scipy_at_scale(n, prior):
    # A gap of two posterior sd and a radius of one, as the benchmark draws,
    # at rates of 0.7 and 0.05.  Each node's log density rounds by about
    # (a + b) * 5e-17, and that sets the error here.
    for rate in (0.7, 0.05):
        sd = math.sqrt(2.0 * rate * (1.0 - rate) / n)
        p1, p2 = _posteriors(prior, (round((rate + sd) * n), n), (round((rate - sd) * n), n))
        reference = scipy_interval_probability(p1, p2, sd)
        assert interval_probability_quadrature(p1, p2, sd) == pytest.approx(
            reference, rel=1e-7 if n <= 10**9 else 1e-6)


def test_quadrature_refuses_shapes_below_its_floor():
    # Below MIN_SHAPE the mass beyond the outermost node shows; at the floor
    # the error is still below 1e-6.
    floor = BetaParams(MIN_SHAPE, 3.0)
    reference = scipy_interval_probability(floor, floor, 0.1)
    assert interval_probability_quadrature(floor, floor, 0.1) == pytest.approx(reference, rel=1e-6)
    for params1, params2 in ((BetaParams(0.1, 1.0), UNIFORM),
                             (UNIFORM, BetaParams(3.0, 0.1)),
                             (BetaParams(1e-300, 1e-300),) * 2):
        with pytest.raises(UnstableEstimate, match=f"shapes >= {MIN_SHAPE:g}"):
            interval_probability_quadrature(params1, params2, 0.1)


def test_quadrature_refuses_shape_sums_beyond_its_bound():
    total = MAX_SHAPE_SUM
    inside = BetaParams(0.7 * total, 0.3 * total)
    sd = math.sqrt(inside.variance)
    reference = scipy_interval_probability(inside, inside, sd)
    assert interval_probability_quadrature(inside, inside, sd) == pytest.approx(reference, rel=1e-6)
    beyond = BetaParams(0.7 * total, 0.3 * total + 2.0)
    for params1, params2 in ((beyond, inside), (inside, beyond)):
        with pytest.raises(UnstableEstimate, match=re.escape(f"sum <= {MAX_SHAPE_SUM:g}")):
            interval_probability_quadrature(params1, params2, sd)


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
    # label: (prior, posteriors, prior_p0, post_p0, bf01), all from scipy quad.
    "uniform": (UNIFORM,
                EASY_POSTS,
                0.0199, 0.02720467677939874, 1.3773344465505502),
    "optimistic_weak": (BetaParams(3.0, 1.5),
                        PosteriorPair(BetaParams(1724.0, 656.5), BetaParams(1640.0, 740.5)),
                        0.028692724857164995, 0.027306486827116623, 0.9503304762625258),
    "optimistic_strong": (BetaParams(9.0, 3.0),
                          PosteriorPair(BetaParams(1730.0, 658.0), BetaParams(1646.0, 742.0)),
                          0.04813085385241872, 0.027613129620866147, 0.5616040473698086),
}


@pytest.mark.parametrize("label", sorted(BF_QUAD_FROZEN))
def test_bayes_factor_quadrature_components_frozen(label):
    prior, posts, prior_p0, post_p0, bf01 = BF_QUAD_FROZEN[label]
    result = bayes_factor_interval_null(prior, posts, 0.01)
    assert result.prior_p0 == pytest.approx(prior_p0, abs=5e-7)
    assert result.post_p0 == pytest.approx(post_p0, abs=5e-7)
    assert result.bf01 == pytest.approx(bf01, rel=5e-5)


def test_bayes_factor_recorded_components_consistent():
    result = bayes_factor_interval_null(UNIFORM, EASY_POSTS, 0.01)
    # The headline number is exactly the odds ratio of its own components.
    recomputed = ((result.post_p0 / (1.0 - result.post_p0))
                  / (result.prior_p0 / (1.0 - result.prior_p0)))
    assert result.bf01 == pytest.approx(recomputed, rel=1e-14)


def test_bayes_factor_deterministic():
    a = bayes_factor_interval_null(UNIFORM, EASY_POSTS, 0.01)
    b = bayes_factor_interval_null(UNIFORM, EASY_POSTS, 0.01)
    assert a == b


def test_bayes_factor_unstable_when_component_starved():
    # Under a uniform prior P(|U1 - U2| < eps) = 2 eps - eps^2: 2e-10 at
    # eps = 1e-10, below the floor where the quadrature's accuracy holds.
    # Just above the floor the same prior still gives a ratio.
    with pytest.raises(UnstableEstimate, match="^prior_p0"):
        bayes_factor_interval_null(UNIFORM, EASY_POSTS, 1e-10)
    eps = MIN_COMPONENT
    result = bayes_factor_interval_null(UNIFORM, PosteriorPair(UNIFORM, UNIFORM), eps)
    assert result.prior_p0 == pytest.approx(2.0 * eps - eps * eps, rel=1e-8)
    assert result.bf01 == pytest.approx(1.0, rel=1e-8)
    # Posteriors 1,900 sd apart put p0 at 0.0 exactly, and a tight prior
    # whose whole mass lies inside the band puts 1 - p0 at 0.0: both refuse.
    far = PosteriorPair(BetaParams(900001.0, 100001.0), BetaParams(100001.0, 900001.0))
    with pytest.raises(UnstableEstimate, match="^post_p0"):
        bayes_factor_interval_null(UNIFORM, far, 0.001)
    tight = BetaParams(1e9, 1e9)
    with pytest.raises(UnstableEstimate, match="^1 - prior_p0"):
        bayes_factor_interval_null(tight, PosteriorPair(tight, tight), 0.5)


def test_bayes_factor_validation():
    with pytest.raises(DomainError):
        bayes_factor_interval_null(UNIFORM, EASY_POSTS, 0.0)
    with pytest.raises(DomainError):
        bayes_factor_interval_null(UNIFORM, EASY_POSTS, 1.0)


def test_margin_assessment_easy_frozen():
    # P(theta1 - theta2 > 0.01) = 0.972497 by quadrature; a margin is assessed
    # through the one event-probability route.
    margin = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.01, direction=Direction.GREATER)
    result = event_probability_from_sorted(np.sort(posterior_diff_draws(EASY_POSTS, 100_000, 21, 0)), margin)
    assert result.estimate == pytest.approx(0.972497, abs=0.004)
    assert result.mc_se == pytest.approx(
        math.sqrt(result.estimate * (1 - result.estimate) / 100_000), rel=1e-9)


def test_margin_assessment_validation():
    with pytest.raises(DomainError):
        Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 1.5)
    with pytest.raises(DomainError):
        event_probability_from_sorted(np.array([]),
                                      Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]) | st.floats(-5, 5),
                min_size=100, max_size=120),
       st.floats(0.05, 1.0))
def test_hdi_of_a_sorted_sample_equals_the_hdi_of_its_shuffle(values, mass):
    # A sample already in order is read in place; the HDI is the one the
    # unsorted sample gives.
    shuffled = np.random.default_rng(len(values)).permutation(values)
    assert hdi_from_samples(np.sort(shuffled), mass) == hdi_from_samples(shuffled, mass)


class DifferenceReference:
    """Independent reference for the HDI of d = theta1 - theta2: scipy's
    ``quad`` for d's density f and CDF F, ``brentq`` for the endpoints.

    f(x) integrates theta2's density against theta1's at s + x, and F(x)
    theta2's density against theta1's CDF (Boost's incomplete beta) at s + x.
    Each density is log-concave, so each is integrated over its mean +- 40
    sd, which holds all but e^-39 of it.  The tolerances give each endpoint
    about 1e-11: F to 6e-14 / sd(d), f to 2e-12 / sd(d) relative.  The HDI's
    lower end l solves F(u(l)) - F(l) = mass, where u(l) > mode solves
    f(u) = f(l).
    """

    def __init__(self, post1: BetaParams, post2: BetaParams):
        self.windows = [self._window(p) for p in (post1, post2)]
        self.shapes = [(p.alpha, p.beta) for p in (post1, post2)]
        self.mean = post1.mean - post2.mean
        self.sd = math.sqrt(post1.variance + post2.variance)
        (lo1, hi1), (lo2, hi2) = self.windows
        self.lo = max(lo1 - hi2, self.mean - 40.0 * self.sd)
        self.hi = min(hi1 - lo2, self.mean + 40.0 * self.sd)
        self.pdfs = [self._pdf(a, b) for a, b in self.shapes]

    @staticmethod
    def _window(p):
        half = 40.0 * math.sqrt(p.variance)
        return max(0.0, p.mean - half), min(1.0, p.mean + half)

    @staticmethod
    def _pdf(a, b):
        log_norm = special.betaln(a, b)
        return lambda t: (math.exp((a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t)
                                   - log_norm) if 0.0 < t < 1.0 else 0.0)

    def _range(self, x):
        (lo1, hi1), (lo2, hi2) = self.windows
        return max(lo2, lo1 - x), min(hi2, hi1 - x)

    def pdf(self, x):
        lo, hi = self._range(x)
        p1, p2 = self.pdfs
        return integrate.quad(lambda s: p1(s + x) * p2(s), lo, hi, epsabs=0.0,
                              epsrel=min(1e-6, 2e-12 / self.sd), limit=200)[0] if lo < hi else 0.0

    def cdf(self, x):
        lo, hi = self._range(x)
        (lo1, _), (lo2, _) = self.windows
        if lo >= hi:
            return 1.0 if lo1 - x < lo2 else 0.0
        (a1, b1), (a2, b2) = self.shapes
        p2 = self.pdfs[1]
        inner = integrate.quad(lambda s: p2(s) * special.betainc(a1, b1, s + x), lo, hi,
                               epsabs=min(1e-6, 6e-14 / self.sd), epsrel=0.0, limit=200)[0]
        return inner + special.betaincc(a2, b2, hi)  # above hi, theta1 <= theta2 + x surely

    def hdi(self, mass):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            mode = optimize.minimize_scalar(
                lambda x: -self.pdf(x), method="bounded",
                bounds=(max(self.lo, self.mean - 4 * self.sd),
                        min(self.hi, self.mean + 4 * self.sd)),
                options={"xatol": 1e-10 * self.sd}).x

            def upper(lower):
                # Right of the mode, the end where f falls back to f(lower).  A
                # lower end already past the mode is its own upper end.
                level, start = self.pdf(lower), max(lower, mode)
                if self.pdf(start) <= level:
                    return start
                if self.pdf(self.hi) >= level:  # a lower end in the far tail
                    return self.hi
                return optimize.brentq(lambda u: self.pdf(u) - level, start, self.hi, xtol=1e-14)

            lower = optimize.brentq(lambda l: self.cdf(upper(l)) - self.cdf(l) - mass,
                                    self.lo, mode, xtol=1e-14)
            return lower, upper(lower)


def _preset_posteriors(label, counts):
    prior = PRIOR_PRESETS[label]
    return tuple(BetaParams(prior.alpha + c, prior.beta + (n - c)) for c, n in counts)


# The three presets at 10^2 .. 10^9 items per system (rates 0.72 and 0.69),
# and at counts with a shape of 1 or 1.5 at an end, where d's density has a
# kink or a weaker singularity at 0.
SIZE_CASES = [(label, ((round(0.72 * 10**k), 10**k), (round(0.69 * 10**k), 10**k)), 0.95)
              for label in sorted(PRIOR_PRESETS) for k in range(2, 10)]
COUNT_CASES = [(label, counts, mass) for label in sorted(PRIOR_PRESETS) for mass in (0.5, 0.95)
               for counts in (((0, 50), (3, 50)), ((3, 10), (2, 10)), ((9, 12), (6, 12)),
                              ((10, 10), (10, 10)), ((1000, 1000), (1000, 1000)))]


@pytest.mark.parametrize("label,counts,mass", SIZE_CASES + COUNT_CASES,
                         ids=[f"{label}-{c1}/{n1},{c2}/{n2}-{mass}"
                              for label, ((c1, n1), (c2, n2)), mass in SIZE_CASES + COUNT_CASES])
def test_hdi_of_difference_matches_scipy(label, counts, mass):
    post1, post2 = _preset_posteriors(label, counts)
    hdi = hdi_of_difference(post1, post2, mass)
    reference = DifferenceReference(post1, post2)
    lower, upper = reference.hdi(mass)
    assert abs(hdi.lower - lower) <= 1e-9 and abs(hdi.upper - upper) <= 1e-9
    assert hdi.mass == mass
    # f(l) = f(u), to what a 1e-9 move of each end can change.
    h = 1e-4 * reference.sd
    slopes = [abs(reference.pdf(x + h) - reference.pdf(x - h)) / (2 * h)
              for x in (hdi.lower, hdi.upper)]
    assert abs(reference.pdf(hdi.lower) - reference.pdf(hdi.upper)) <= 1e-9 * sum(slopes)
    if mass > 1.0 - 1.0 / math.e:
        # Each side of a log-concave density's mean holds at least 1/e of its
        # mass, so an interval holding more than 1 - 1/e holds the mean.
        assert hdi.lower < post1.mean - post2.mean < hdi.upper


# Shapes that leave d's density hard to interpolate: below 2 at one end of
# both posteriors (an x^b singularity at 0), one posterior 1,000 times
# narrower than the other at the same end (a cliff at 0), d next to -1 or
# with an end next to 1, and masses far from 0.95.
HARD_CASES = [
    ((2.5, 1.1), (3.0, 1.1), 0.95), ((1.5, 40.0), (1.2, 45.0), 0.5),
    ((1.3, 1.3), (1.3, 1.3), 0.95), ((1.0, 1.5), (1.5, 1.0), 0.95),
    ((1.0, 101.0), (1.0, 100_001.0), 0.95), ((1.0, 101.0), (1.0, 100_001.0), 0.3),
    ((1.0, 51.0), (51.0, 1.0), 0.95), ((5.0, 3.0), (60.0, 40.0), 0.01),
    ((5.0, 3.0), (60.0, 40.0), 0.999999), ((11.0, 1.0), (1.0, 11.0), 0.95),
]


@pytest.mark.parametrize("shapes1,shapes2,mass", HARD_CASES)
def test_hdi_of_difference_matches_scipy_where_the_density_is_hard(shapes1, shapes2, mass):
    post1, post2 = BetaParams(*shapes1), BetaParams(*shapes2)
    hdi = hdi_of_difference(post1, post2, mass)
    lower, upper = DifferenceReference(post1, post2).hdi(mass)
    assert abs(hdi.lower - lower) <= 1e-9 and abs(hdi.upper - upper) <= 1e-9


def test_hdi_of_difference_refuses_a_mass_whose_ends_lie_in_the_flat_top():
    # On arc_easy's counts (uniform prior) d's density is flat to rounding
    # across the HDI of mass 1e-4; 3e-4 is the smallest mass measured to
    # place both ends.
    post1, post2 = EASY_POSTS.post1, EASY_POSTS.post2
    with pytest.raises(UnstableEstimate, match="flat to rounding"):
        hdi_of_difference(post1, post2, 1e-4)
    hdi = hdi_of_difference(post1, post2, 3e-4)
    lower, upper = DifferenceReference(post1, post2).hdi(3e-4)
    assert abs(hdi.lower - lower) <= 1e-9 and abs(hdi.upper - upper) <= 1e-9


@pytest.mark.parametrize("mass", [0.01, 0.5, 0.95, 0.99, 0.999, 0.9999])
def test_hdi_of_difference_is_the_same_for_the_mirrored_posteriors(mass):
    # With theta1 ~ Beta(1, a) and theta2 ~ Beta(1, b), 1 - theta2 ~ Beta(b, 1)
    # and 1 - theta1 ~ Beta(a, 1) differ by the same d, built from the other
    # end of [0, 1]: its windows, panels and nodes all change, its HDI must not.
    sizes = [10.0**k for k in range(1, 6)]
    for a, b in itertools.permutations(sizes, 2):
        hdi = hdi_of_difference(BetaParams(1.0, a), BetaParams(1.0, b), mass)
        mirror = hdi_of_difference(BetaParams(b, 1.0), BetaParams(a, 1.0), mass)
        assert abs(hdi.lower - mirror.lower) <= 1e-10 and abs(hdi.upper - mirror.upper) <= 1e-10


@pytest.mark.parametrize("label", sorted(PRIOR_PRESETS))
@pytest.mark.parametrize("counts", [((0, 50), (3, 50)), ((10, 10), (10, 10)),
                                    ((1721, 2376), (1637, 2376))])
def test_hdi_of_difference_at_full_mass_is_the_support(label, counts):
    assert hdi_of_difference(*_preset_posteriors(label, counts), 1.0) == Hdi(-1.0, 1.0, 1.0)


def test_hdi_of_difference_easy_frozen():
    # scipy quad + brentq, as recorded in the ROADMAP: [0.0094627, 0.0611800].
    hdi = hdi_of_difference(EASY_POSTS.post1, EASY_POSTS.post2, 0.95)
    assert hdi.lower == pytest.approx(0.009462702, abs=1e-9)
    assert hdi.upper == pytest.approx(0.061180024, abs=1e-9)


# One posterior exactly Beta(1, 1) against a narrower one: d's density is
# flat to rounding at its top, so no chord places an end.
FLAT_CASES = [
    ((197941.1487171353, 6.208792736594822), (1.0, 1.0), 0.999),
    ((1.0, 1.0), (5907.294689107835, 3027.272505032943), 0.01),
]


@pytest.mark.parametrize("shapes1,shapes2,mass", FLAT_CASES)
def test_hdi_of_difference_raises_where_the_density_is_flat_to_rounding(shapes1, shapes2, mass):
    with pytest.raises(UnstableEstimate, match="flat to rounding"):
        hdi_of_difference(BetaParams(*shapes1), BetaParams(*shapes2), mass)


# Masses so close to 1 that the interpolant's own error, 1e-14 to 1e-12 of the
# mass, leaves the window's F short of them.  A window doubled until its F
# happened to reach the mass gave ends no better than that error: for the
# first pair and its mirror, one and the same d, uppers 0.2593356 and 0.2593844.
WINDOW_SHORT_CASES = [
    ((1.0, 100.0), (1.0, 10_000.0), 1.0 - 1e-14),
    ((10_000.0, 1.0), (100.0, 1.0), 1.0 - 1e-14),
    ((1.0, 30.0), (1.0, 100_000.0), 1.0 - 1e-12),
]


@pytest.mark.parametrize("shapes1,shapes2,mass", WINDOW_SHORT_CASES)
def test_hdi_of_difference_raises_where_its_window_falls_short_of_the_mass(shapes1, shapes2,
                                                                           mass):
    with pytest.raises(UnstableEstimate, match="holds less than mass"):
        hdi_of_difference(BetaParams(*shapes1), BetaParams(*shapes2), mass)


def test_hdi_of_difference_triangle_closed_form():
    # Two uniform posteriors: d is triangular on [-1, 1], with its kink at 0,
    # and the central interval holding mass m ends at 1 - sqrt(1 - m).
    for mass in (0.1, 0.5, 0.95, 0.999):
        hdi = hdi_of_difference(UNIFORM, UNIFORM, mass)
        end = 1.0 - math.sqrt(1.0 - mass)
        assert hdi.lower == pytest.approx(-end, abs=1e-12)
        assert hdi.upper == pytest.approx(end, abs=1e-12)


def test_hdi_of_difference_validation():
    easy = EASY_POSTS.post1
    for mass in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(DomainError, match="mass must lie in"):
            hdi_of_difference(easy, easy, mass)
    for shapes in ((0.5, 3.0), (3.0, 0.999)):
        for pair in ((BetaParams(*shapes), easy), (easy, BetaParams(*shapes))):
            with pytest.raises(DomainError, match="shape below 1"):
                hdi_of_difference(*pair, 0.95)
