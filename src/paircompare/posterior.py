"""Posterior summaries and decisions: highest-density intervals, ROPE
verdicts, and interval-null Bayes factors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bayes import BetaParams, PosteriorPair
from .core import Decision, DecisionValue
from .errors import DomainError, TooFewSamples, UnstableEstimate
from .numerics import RngStream, _as_generator, regularized_incomplete_beta, sample_beta

MIN_HDI_SAMPLES = 100
# Any Bayes-factor component below this many expected hits is too noisy to
# put in a ratio.
MIN_COMPONENT_HITS = 10
# Tanh-sinh (double-exponential) rule on (0, 1), Takahasi & Mori (1974):
# u = 1 / (1 + exp(-pi sinh t)) at t = k h, |t| <= 4, h = 1/32.  The
# complement 1 - u comes from the mirrored formula, not by subtraction, so no
# node rounds onto an endpoint; the outermost sit 6e-38 from it.
_DE_T = np.arange(-128, 129) / 32.0
_DE_NODES = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_DE_T)))
_DE_COMPLEMENTS = 1.0 / (1.0 + np.exp(np.pi * np.sinh(_DE_T)))
_DE_WEIGHTS = np.pi * np.cosh(_DE_T) * _DE_NODES * _DE_COMPLEMENTS / 32.0
# A density with both shapes >= 2 holds under 1e-8 of its mass beyond this
# many sd of its mean; lower shapes pile mass against an endpoint.
_WINDOW_SD = 14.0
# Terms below this share of the largest are skipped; together they move a
# probability by under 1e-17.
_NEGLIGIBLE_TERM = 1e-20


@dataclass(frozen=True)
class Hdi:
    """Highest-density interval of a sample: the shortest window holding ``mass``."""

    lower: float
    upper: float
    mass: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


class RopeRelation(Enum):
    HDI_INSIDE_ROPE = "hdi_inside_rope"
    HDI_OUTSIDE_ROPE = "hdi_outside_rope"
    OVERLAP = "overlap"


@dataclass(frozen=True)
class RopeVerdict:
    relation: RopeRelation
    decision: Decision
    hdi: Hdi
    rope: tuple[float, float]


@dataclass(frozen=True)
class BayesFactorResult:
    """Interval-null Bayes factor BF01 with its Monte Carlo components.

    ``bf01`` is exactly ``(post_p0 / post_p1) / (prior_p0 / prior_p1)`` for
    the recorded component probabilities, each of which carries a Monte
    Carlo standard error.  The ``quadrature_*`` fields hold the same
    quantities evaluated through the incomplete beta function and serve as a
    deterministic cross-check.
    """

    bf01: float
    bf01_se: float
    prior_p0: float
    prior_p1: float
    prior_p0_se: float
    post_p0: float
    post_p1: float
    post_p0_se: float
    epsilon: float
    n_mc: int
    quadrature_prior_p0: float
    quadrature_post_p0: float
    quadrature_bf01: float


def hdi_from_samples(samples, mass: float = 0.95) -> Hdi:
    """Shortest contiguous window of order statistics holding ``mass``.

    Ties between equally narrow windows resolve to the smallest lower
    endpoint.  The endpoints are always order statistics of the input.

    Raises
    ------
    TooFewSamples
        With fewer than 100 samples the window ends are too noisy.
    DomainError
        If ``mass`` is outside (0, 1].
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    if x.size < MIN_HDI_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_HDI_SAMPLES} samples, got {x.size}")
    if not 0.0 < mass <= 1.0:
        raise DomainError(f"mass must lie in (0, 1], got {mass!r}")
    window = int(math.ceil(mass * x.size))
    window = min(window, x.size)
    widths = x[window - 1:] - x[: x.size - window + 1]
    i = int(np.argmin(widths))  # argmin takes the first minimum: smallest lower endpoint
    return Hdi(float(x[i]), float(x[i + window - 1]), mass)


def rope_decision(hdi: Hdi, rope_radius: float, rope_center: float = 0.0) -> RopeVerdict:
    """Trichotomous comparison of an HDI against a region of practical equivalence.

    Intervals are closed: touching endpoints count as overlap.  The three
    relations map onto decisions as

    * HDI entirely inside the ROPE  -> accept the interval null
    * HDI entirely outside the ROPE -> reject the null
    * any overlap                   -> undecided
    """
    if rope_radius <= 0.0:
        raise DomainError(f"rope_radius must be positive, got {rope_radius!r}")
    lo = rope_center - rope_radius
    hi = rope_center + rope_radius
    if lo < hdi.lower and hdi.upper < hi:
        relation = RopeRelation.HDI_INSIDE_ROPE
        value = DecisionValue.ACCEPT_NULL
    elif hdi.upper < lo or hdi.lower > hi:
        relation = RopeRelation.HDI_OUTSIDE_ROPE
        value = DecisionValue.REJECT_NULL
    else:
        relation = RopeRelation.OVERLAP
        value = DecisionValue.UNDECIDED
    return RopeVerdict(relation, Decision(value, "hdi_rope"), hdi, (lo, hi))


def interval_probability_quadrature(params1: BetaParams, params2: BetaParams,
                                    radius: float) -> float:
    """P(|theta1 - theta2| < radius) for independent Beta variates.

    The narrower density is integrated against the CDF band of the other,
    ``I(t + radius) - I(t - radius)``, by the tanh-sinh rule: over its mean
    +- 14 sd, or over all of [0, 1] when a shape is below 2, in panels split
    at ``radius`` and ``1 - radius`` where the band has a kink.  The density
    is normalised by the same rule.  Against scipy's adaptive quadrature the
    relative error is at most about 1e-8 up to 10^6 items with shapes >= 0.3
    and about 1e-6 at 10^9 items, where the incomplete beta's error rules.
    Below shape 0.3 the mass beyond the outermost node shows: 1e-8 at
    shape 0.2, 5e-5 at 0.1.
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    if params2.variance < params1.variance:
        params1, params2 = params2, params1
    a, b = params1.alpha, params1.beta
    lo, hi = 0.0, 1.0
    if min(a, b) >= 2.0:
        half = _WINDOW_SD * math.sqrt(params1.variance)
        lo, hi = max(lo, params1.mean - half), min(hi, params1.mean + half)
    cuts = sorted({lo, hi} | {c for c in (radius, 1.0 - radius) if lo < c < hi})
    width = np.diff(cuts)[:, None]
    t = (np.array(cuts[:-1])[:, None] + width * _DE_NODES).ravel()
    t_complement = (1.0 - np.array(cuts[1:])[:, None] + width * _DE_COMPLEMENTS).ravel()
    log_terms = (np.log(width * _DE_WEIGHTS).ravel()
                 + (a - 1.0) * np.log(t) + (b - 1.0) * np.log(t_complement))
    terms = np.exp(log_terms - log_terms.max())
    keep = np.flatnonzero(terms > _NEGLIGIBLE_TERM)
    a2, b2 = params2.alpha, params2.beta
    band = [regularized_incomplete_beta(a2, b2, min(v + radius, 1.0))
            - regularized_incomplete_beta(a2, b2, max(v - radius, 0.0)) for v in t[keep].tolist()]
    return float(np.dot(terms[keep], band) / terms.sum())


def bayes_factor_interval_null(priors: tuple[BetaParams, BetaParams],
                               posteriors: PosteriorPair,
                               epsilon: float, n_mc: int,
                               rng: RngStream) -> BayesFactorResult:
    """Bayes factor for H0: |theta1 - theta2| < epsilon against its complement.

    BF01 is the ratio of posterior to prior odds of H0.  Component
    probabilities come from ``n_mc`` paired Monte Carlo draws; the same
    quantities are also evaluated by incomplete-beta quadrature and recorded
    alongside.  The standard error of ``bf01`` is propagated from the
    component errors by the delta method.

    Raises
    ------
    UnstableEstimate
        When any Monte Carlo component falls below ``10 / n_mc``; a ratio of
        probabilities that small is dominated by noise.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if n_mc < 1000:
        raise DomainError(f"n_mc must be at least 1000, got {n_mc!r}")
    prior1, prior2 = priors
    gen = _as_generator(rng)

    def mc_interval_prob(p1: BetaParams, p2: BetaParams) -> tuple[float, float]:
        d = sample_beta(p1.alpha, p1.beta, gen, size=n_mc) \
            - sample_beta(p2.alpha, p2.beta, gen, size=n_mc)
        p = float(np.count_nonzero(np.abs(d) < epsilon)) / n_mc
        return p, math.sqrt(p * (1.0 - p) / n_mc)

    prior_p0, prior_se = mc_interval_prob(prior1, prior2)
    post_p0, post_se = mc_interval_prob(posteriors.post1, posteriors.post2)

    floor = MIN_COMPONENT_HITS / n_mc
    for name, p in (("prior_p0", prior_p0), ("prior_p1", 1.0 - prior_p0),
                    ("post_p0", post_p0), ("post_p1", 1.0 - post_p0)):
        if p < floor:
            raise UnstableEstimate(
                f"{name} = {p:.3g} is below {MIN_COMPONENT_HITS}/n_mc; "
                f"increase n_mc or widen epsilon"
            )

    prior_p1 = 1.0 - prior_p0
    post_p1 = 1.0 - post_p0
    bf01 = (post_p0 / post_p1) / (prior_p0 / prior_p1)
    # Delta method on log BF: the two odds ratios contribute independently.
    var_log = (post_se / (post_p0 * post_p1)) ** 2 + (prior_se / (prior_p0 * prior_p1)) ** 2
    bf01_se = bf01 * math.sqrt(var_log)

    q_prior = interval_probability_quadrature(prior1, prior2, epsilon)
    q_post = interval_probability_quadrature(posteriors.post1, posteriors.post2, epsilon)
    q_bf01 = (q_post / (1.0 - q_post)) / (q_prior / (1.0 - q_prior))

    return BayesFactorResult(
        bf01=bf01,
        bf01_se=bf01_se,
        prior_p0=prior_p0,
        prior_p1=prior_p1,
        prior_p0_se=prior_se,
        post_p0=post_p0,
        post_p1=post_p1,
        post_p0_se=post_se,
        epsilon=epsilon,
        n_mc=n_mc,
        quadrature_prior_p0=q_prior,
        quadrature_post_p0=q_post,
        quadrature_bf01=q_bf01,
    )
