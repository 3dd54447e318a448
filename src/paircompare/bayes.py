"""Beta-binomial model for a pair of systems.

Each system's correctness rate theta_i gets an independent Beta prior; item
outcomes are conditionally independent coin flips given theta_i, so the
posterior is again Beta with counts added to the shape parameters.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .core import Counts, Direction, Hypothesis, HypothesisKind, Record
from .errors import DomainError


class BetaParams(Record):
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
        return self.alpha / s * (self.beta / s) / (s + 1.0)


# Named prior presets: a flat prior and two that concentrate mass on the
# accuracy ranges competitive systems tend to occupy (means 2/3 and 3/4).
PRIOR_PRESETS: dict[str, BetaParams] = {
    "uniform": BetaParams(1.0, 1.0),
    "optimistic_weak": BetaParams(3.0, 1.5),
    "optimistic_strong": BetaParams(9.0, 3.0),
}


class PosteriorPair(Record):
    """Independent Beta posteriors for (theta1, theta2)."""

    post1: BetaParams
    post2: BetaParams

    @property
    def mean_diff(self) -> float:
        return self.post1.mean - self.post2.mean


class EventProbability(Record):
    """Monte Carlo estimate of a posterior event probability.

    ``mc_se`` is ``sqrt(p (1 - p) / n)`` over ``n`` draws; ``halfwidth95`` is
    the 1.96 * mc_se margin reported next to the estimate.
    """

    estimate: float
    mc_se: float
    halfwidth95: float
    n: int


def conjugate_update(prior: BetaParams, correct: int, total: int) -> BetaParams:
    """Posterior Beta parameters after observing ``correct`` of ``total``."""
    if total < 0 or not 0 <= correct <= total:
        raise DomainError(f"need 0 <= correct <= total, got correct={correct!r}, total={total!r}")
    return BetaParams(prior.alpha + correct, prior.beta + (total - correct))


def posterior_pair(prior: BetaParams, counts: Counts) -> PosteriorPair:
    """Conjugate posteriors of both systems under one shared prior."""
    (c1, t1), (c2, t2) = counts
    return PosteriorPair(conjugate_update(prior, c1, t1), conjugate_update(prior, c2, t2))


def event_probability_from_samples(diff_samples, hypothesis: Hypothesis) -> EventProbability:
    """Event frequency in an existing sample of difference draws."""
    diffs = _sample(diff_samples)
    return _frequency(int(np.count_nonzero(_event_mask(diffs, hypothesis))), diffs.size)


def event_probability_from_sorted(sorted_diffs, hypothesis: Hypothesis) -> EventProbability:
    """:func:`event_probability_from_samples` of a sample in ascending order,
    NaNs last, as ``numpy.sort`` leaves them.  The count comes from binary
    searches, so the sample is read in place, with no mask."""
    diffs = _sample(sorted_diffs)
    return _frequency(_sorted_event_count(diffs, hypothesis), diffs.size)


def _sample(diff_samples) -> np.ndarray:
    diffs = np.asarray(diff_samples, dtype=float)
    if diffs.ndim != 1 or diffs.size == 0:
        raise DomainError("diff_samples must be a non-empty 1-D array")
    return diffs


def _frequency(hits: int, n: int) -> EventProbability:
    estimate = float(hits) / n
    mc_se = math.sqrt(estimate * (1.0 - estimate) / n)
    return EventProbability(estimate, mc_se, 1.96 * mc_se, n)


def _event_mask(diffs: np.ndarray, hypothesis: Hypothesis) -> np.ndarray:
    if hypothesis.kind is HypothesisKind.DIRECTIONAL_MARGIN:
        if hypothesis.direction is Direction.GREATER:
            return diffs > hypothesis.margin
        if hypothesis.direction is Direction.LESS:
            return diffs < hypothesis.margin
        return np.abs(diffs) > hypothesis.margin
    return np.abs(diffs - hypothesis.margin) < hypothesis.rope_radius


def _sorted_event_count(diffs: np.ndarray, hypothesis: Hypothesis) -> int:
    """``count_nonzero(_event_mask(diffs, hypothesis))`` for ascending ``diffs``.

    Each event is a run of the sorted sample, or the complement of one, so
    its ends are binary searches.  The interval null tests the rounded
    ``diffs - margin``, which is monotone in ``diffs``, so its ends are
    searched on that rounded value; no event holds for a NaN.
    """
    margin = hypothesis.margin
    n = int(np.searchsorted(diffs, np.nan))  # NaNs sort last
    if hypothesis.kind is HypothesisKind.DIRECTIONAL_MARGIN:
        above = n - int(np.searchsorted(diffs, margin, "right"))  # d > m
        if hypothesis.direction is Direction.GREATER:
            return above
        if hypothesis.direction is Direction.LESS:
            return int(np.searchsorted(diffs, margin))  # d < m
        # |d| > m: d > m or d < -m, which overlap to cover every d when m < 0.
        return min(n, above + int(np.searchsorted(diffs, -margin)))
    radius = hypothesis.rope_radius
    start = bisect.bisect_left(diffs, True, 0, n, key=lambda d: d - margin > -radius)
    stop = bisect.bisect_left(diffs, True, 0, n, key=lambda d: d - margin >= radius)
    return max(0, stop - start)
