"""Beta-binomial model for a pair of systems.

Each system's correctness rate theta_i gets an independent Beta prior; item
outcomes are conditionally independent coin flips given theta_i, so the
posterior is again Beta with counts added to the shape parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Counts, Direction, Hypothesis, HypothesisKind
from .errors import DomainError
from .numerics import RngStream, _as_generator, sample_beta


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution; both positive and finite."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):  # NaN fails too
            raise DomainError(f"beta parameters must be positive and finite, "
                              f"got alpha={self.alpha!r}, beta={self.beta!r}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        s = self.alpha + self.beta
        return self.alpha * self.beta / (s * s * (s + 1.0))


# Named prior presets: a flat prior and two that concentrate mass on the
# accuracy ranges competitive systems tend to occupy (means 2/3 and 3/4).
PRIOR_PRESETS: dict[str, BetaParams] = {
    "uniform": BetaParams(1.0, 1.0),
    "optimistic_weak": BetaParams(3.0, 1.5),
    "optimistic_strong": BetaParams(9.0, 3.0),
}


@dataclass(frozen=True)
class PosteriorPair:
    """Independent Beta posteriors for (theta1, theta2)."""

    post1: BetaParams
    post2: BetaParams

    @property
    def mean_diff(self) -> float:
        return self.post1.mean - self.post2.mean


@dataclass(frozen=True)
class EventProbability:
    """Monte Carlo estimate of a posterior event probability.

    ``mc_se`` is ``sqrt(p (1 - p) / n_mc)``; ``halfwidth95`` is the
    1.96 * mc_se margin reported next to the estimate.
    """

    estimate: float
    mc_se: float
    n_mc: int
    halfwidth95: float


def conjugate_update(prior: BetaParams, correct: int, total: int) -> BetaParams:
    """Posterior Beta parameters after observing ``correct`` of ``total``."""
    if total < 0 or not 0 <= correct <= total:
        raise DomainError(f"need 0 <= correct <= total, got correct={correct!r}, total={total!r}")
    return BetaParams(prior.alpha + correct, prior.beta + (total - correct))


def posterior_pair(prior: BetaParams, counts: Counts) -> PosteriorPair:
    """Conjugate posteriors of both systems under one shared prior."""
    (c1, t1), (c2, t2) = counts
    return PosteriorPair(conjugate_update(prior, c1, t1), conjugate_update(prior, c2, t2))


def event_probability(pair: PosteriorPair, hypothesis: Hypothesis, n_mc: int,
                      rng: RngStream) -> EventProbability:
    """Posterior probability of a hypothesis event by paired independent draws.

    Draws ``n_mc`` independent samples from each posterior, pairs them, and
    counts how often the event holds for the difference theta1 - theta2.

    Raises
    ------
    DomainError
        If ``n_mc`` is below 1000 (the Monte Carlo error would dominate).
    """
    if n_mc < 1000:
        raise DomainError(f"n_mc must be at least 1000, got {n_mc!r}")
    gen = _as_generator(rng)
    theta1 = sample_beta(pair.post1.alpha, pair.post1.beta, gen, size=n_mc)
    theta2 = sample_beta(pair.post2.alpha, pair.post2.beta, gen, size=n_mc)
    return event_probability_from_samples(theta1 - theta2, hypothesis)


def event_probability_from_samples(diff_samples, hypothesis: Hypothesis) -> EventProbability:
    """Event frequency in an existing sample of difference draws."""
    diffs = np.asarray(diff_samples, dtype=float)
    if diffs.ndim != 1 or diffs.size == 0:
        raise DomainError("diff_samples must be a non-empty 1-D array")
    hits = _event_mask(diffs, hypothesis)
    n = diffs.size
    estimate = float(np.count_nonzero(hits)) / n
    mc_se = math.sqrt(estimate * (1.0 - estimate) / n)
    return EventProbability(estimate, mc_se, n, 1.96 * mc_se)


def _event_mask(diffs: np.ndarray, hypothesis: Hypothesis) -> np.ndarray:
    if hypothesis.kind is HypothesisKind.DIRECTIONAL_MARGIN:
        if hypothesis.direction is Direction.GREATER:
            return diffs > hypothesis.margin
        if hypothesis.direction is Direction.LESS:
            return diffs < hypothesis.margin
        return np.abs(diffs) > hypothesis.margin
    return np.abs(diffs - hypothesis.margin) < hypothesis.rope_radius
