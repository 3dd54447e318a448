"""Posterior summaries and decisions: highest-density intervals, ROPE
verdicts, and interval-null Bayes factors."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .bayes import BetaParams, PosteriorPair
from .core import Decision, DecisionValue, Record
from .errors import DomainError, TooFewSamples, UnstableEstimate

MIN_HDI_SAMPLES = 100
# Smallest Bayes-factor component, p0 or 1 - p0, put in a ratio: the larger of
# MIN_COMPONENT and COMPONENT_PER_SHAPE times the larger shape sum of its pair.
# Below it the quadrature's relative error can pass 1e-6 (see bayes_factor_interval_null).
MIN_COMPONENT = 1e-9
COMPONENT_PER_SHAPE = 6e-11
# Tanh-sinh (double-exponential) rule on (0, 1), Takahasi & Mori (1974):
# u = 1 / (1 + exp(-pi sinh t)) at t = k h, |t| <= 4, h = 1/32.  The
# complement 1 - u comes from the mirrored formula, not by subtraction, so no
# node rounds onto an endpoint; the outermost sit 6e-38 from it.
_DE_T = np.arange(-128, 129) / 32.0
_DE_NODES = 1.0 / (1.0 + np.exp(-np.pi * np.sinh(_DE_T)))
_DE_COMPLEMENTS = 1.0 / (1.0 + np.exp(np.pi * np.sinh(_DE_T)))
_DE_LOG_WEIGHTS = np.log(np.pi * np.cosh(_DE_T) * _DE_NODES * _DE_COMPLEMENTS / 32.0)
# A density with both shapes >= 2 holds under 1e-8 of its mass beyond this
# many sd of its mean; lower shapes pile mass against an endpoint.
_WINDOW_SD = 14.0
# Outer terms below this share of the largest get no inner integral; together
# they move a probability by under 1e-17.
_NEGLIGIBLE_TERM = 1e-20
# Outer nodes per block of inner integrals, for temporaries under 64 KiB.
_BLOCK_ROWS = (1 << 16) // (8 * _DE_T.size)
# Beyond these shapes the interval probability's measured error passes 1e-6.
MIN_SHAPE = 0.2
MAX_SHAPE_SUM = 1.5e10


class Hdi(Record):
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


class RopeVerdict(Record):
    relation: RopeRelation
    decision: Decision
    hdi: Hdi
    rope: tuple[float, float]


class BayesFactorResult(Record):
    """Interval-null Bayes factor BF01 and the two probabilities it is built from.

    ``bf01`` is exactly ``(post_p0 / (1 - post_p0)) / (prior_p0 / (1 - prior_p0))``.
    """

    bf01: float
    prior_p0: float
    post_p0: float


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


def rope_decision(hdi: Hdi, rope_radius: float) -> RopeVerdict:
    """Trichotomous comparison of an HDI against the region of practical
    equivalence ``[-rope_radius, rope_radius]`` around a zero difference.

    Intervals are closed: touching endpoints count as overlap.  The three
    relations map onto decisions as

    * HDI entirely inside the ROPE  -> accept the interval null
    * HDI entirely outside the ROPE -> reject the null
    * any overlap                   -> undecided
    """
    if rope_radius <= 0.0:
        raise DomainError(f"rope_radius must be positive, got {rope_radius!r}")
    lo, hi = -rope_radius, rope_radius
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


def _panels(params: BetaParams, radius: float) -> tuple[np.ndarray, np.ndarray]:
    # Panel starts and complements of panel ends: the window, cut at radius and 1 - radius.
    lo, hi = 0.0, 1.0
    if min(params.alpha, params.beta) >= 2.0:
        half = _WINDOW_SD * math.sqrt(params.variance)
        lo, hi = max(lo, params.mean - half), min(hi, params.mean + half)
    cuts = np.array(sorted({lo, hi} | {c for c in (radius, 1.0 - radius) if lo < c < hi}))
    return cuts[:-1], 1.0 - cuts[1:]


def _rule(params: BetaParams, lo: np.ndarray, hi_c: np.ndarray):
    """Tanh-sinh nodes t and 1 - t on each panel [lo, 1 - hi_c], a row each, and
    log(weight x Beta density / its value at the mean) there: log(mean) goes
    before the scaling by a - 1, so only the rounding of log(t) grows with a."""
    width = 1.0 - hi_c - lo
    t = lo[:, None] + np.multiply.outer(width, _DE_NODES)
    t_c = hi_c[:, None] + np.multiply.outer(width, _DE_COMPLEMENTS)
    s = params.alpha + params.beta
    log_terms = ((params.alpha - 1.0) * (np.log(t) - math.log(params.alpha / s))
                 + (params.beta - 1.0) * (np.log(t_c) - math.log(params.beta / s))
                 + (_DE_LOG_WEIGHTS + np.log(width)[:, None]))
    return t, t_c, log_terms


def interval_probability_quadrature(params1: BetaParams, params2: BetaParams,
                                    radius: float) -> float:
    """P(|theta1 - theta2| < radius) for independent Beta variates.

    A double tanh-sinh integral.  Each density is normalised by the rule over
    its window (mean +- 14 sd, or [0, 1] when a shape is below 2) cut at
    ``radius`` and ``1 - radius``.  The narrower is integrated over those
    panels, and at each of its nodes t the other over [t +- radius] in its window.

    Worst relative error against scipy's adaptive quadrature, by items per
    system (60 random posterior pairs each) and by smallest shape (priors
    and posteriors of up to 1,000 items against each other).  The rounding
    of log(t) sets the first, the mass beyond the outermost node the second:

    =====  =====  =====  =====  =====  =====  =====  =======  =======
    items  10^2   10^4   10^6   10^8   10^9   10^10  2*10^10  3*10^10
    error  2e-10  1e-9   2e-9   6e-9   6e-8   4e-7   1e-6     2e-6
    shape  0.1    0.13   0.15   0.17   0.2    0.3
    error  2e-4   2e-5   3e-6   5e-7   4e-8   7e-9
    =====  =====  =====  =====  =====  =====  =====  =======  =======

    Raises
    ------
    DomainError
        If ``radius`` is not positive.
    UnstableEstimate
        If a shape is below ``MIN_SHAPE`` (0.2) or a + b exceeds
        ``MAX_SHAPE_SUM`` (1.5e10).
    """
    if radius <= 0.0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    for p in (params1, params2):
        if not (min(p.alpha, p.beta) >= MIN_SHAPE and p.alpha + p.beta <= MAX_SHAPE_SUM):
            raise UnstableEstimate(
                f"Beta({p.alpha:.4g}, {p.beta:.4g}) is outside the quadrature's accurate "
                f"range: shapes >= {MIN_SHAPE:g}, sum <= {MAX_SHAPE_SUM:g}")
    if params2.variance < params1.variance:
        params1, params2 = params2, params1
    t, t_c, log_terms = (x.ravel() for x in _rule(params1, *_panels(params1, radius)))
    terms = np.exp(log_terms - log_terms.max())
    starts, ends_c = _panels(params2, radius)
    norm = np.exp(_rule(params2, starts, ends_c)[2]).sum()
    # The other's mass in [t +- radius]: all where that spans its window, none where they miss.
    lo = np.maximum(t - radius, starts[0])
    hi_c = np.maximum(t_c - radius, ends_c[-1])
    band = ((lo == starts[0]) & (hi_c == ends_c[-1])).astype(float)
    partial = np.flatnonzero((terms > _NEGLIGIBLE_TERM) & (band == 0.0) & (lo < 1.0 - hi_c))
    for start in range(0, partial.size, _BLOCK_ROWS):
        rows = partial[start:start + _BLOCK_ROWS]
        band[rows] = np.exp(_rule(params2, lo[rows], hi_c[rows])[2]).sum(axis=1) / norm
    return float(np.dot(terms, band) / terms.sum())


def bayes_factor_interval_null(prior: BetaParams, posteriors: PosteriorPair,
                               epsilon: float) -> BayesFactorResult:
    """Bayes factor for H0: |theta1 - theta2| < epsilon against its complement.

    BF01 is the ratio of posterior to prior odds of H0, with both systems
    under the one ``prior``.  The prior and posterior probabilities of H0 come
    from :func:`interval_probability_quadrature`; nothing is drawn.  Against
    mpmath at 40 digits (2,000 items per system, epsilon = 0.01) the relative
    error of p0 is at most 5e-10 from p0 = 0.5 down to 1.2e-9, and 4e-9 at
    1.7e-14.  The absolute error of 1 - p0 grows with the shape sum a + b.
    For two equal posteriors at p = 0.5 and epsilon = 6 sd of the difference,
    against scipy and, from 10^8 items, the normal limit:

    =====  =======  =====  =====  =======  ======  ======
    items  2,376    10^4   10^6   10^7     10^8    10^9
    error  4e-14    4e-13  1e-11  1.7e-10  2.6e-9  1.9e-8
    =====  =======  =====  =====  =======  ======  ======

    Over 580 random pairs of 6e5 to 4e9 items, 1 - p0 at 2.5e-11 to 2e-10
    times a + b, against scipy and the normal limit with its skewness and
    kurtosis terms, the worst error was 5.9e-17 (a + b).  So each of p0 and
    1 - p0, prior and posterior, must reach the larger of ``MIN_COMPONENT``
    (1e-9) and ``COMPONENT_PER_SHAPE`` (6e-11) times the larger shape sum of
    its pair, which keeps every component, and both odds, to about 1e-6.

    Raises
    ------
    DomainError
        If ``epsilon`` is outside (0, 1).
    UnstableEstimate
        When p0 or 1 - p0, prior or posterior, falls below that floor.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    prior_p0 = interval_probability_quadrature(prior, prior, epsilon)
    post_p0 = interval_probability_quadrature(posteriors.post1, posteriors.post2, epsilon)
    for name, p0, pair in (("prior_p0", prior_p0, (prior,)),
                           ("post_p0", post_p0, (posteriors.post1, posteriors.post2))):
        shape_sum = max(q.alpha + q.beta for q in pair)
        floor = max(MIN_COMPONENT, COMPONENT_PER_SHAPE * shape_sum)
        for label, p in ((name, p0), (f"1 - {name}", 1.0 - p0)):
            if p < floor:
                raise UnstableEstimate(
                    f"{label} = {p:.3g} is below {floor:.3g}, the larger of "
                    f"{MIN_COMPONENT:g} and {COMPONENT_PER_SHAPE:g} (a + b) at "
                    f"a + b = {shape_sum:.4g}, where the Bayes factor's quadrature "
                    f"stops being accurate; change epsilon"
                )
    bf01 = (post_p0 / (1.0 - post_p0)) / (prior_p0 / (1.0 - prior_p0))
    return BayesFactorResult(bf01, prior_p0, post_p0)
