"""Beta-binomial model for a pair of systems.

Each system's correctness rate theta_i gets an independent Beta prior; item
outcomes are conditionally independent coin flips given theta_i, so the
posterior is again Beta with counts added to the shape parameters.
"""

from __future__ import annotations

import math

from .core import Counts, Record
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


def conjugate_update(prior: BetaParams, correct: int, total: int) -> BetaParams:
    """Posterior Beta parameters after observing ``correct`` of ``total``."""
    if total < 0 or not 0 <= correct <= total:
        raise DomainError(f"need 0 <= correct <= total, got correct={correct!r}, total={total!r}")
    return BetaParams(prior.alpha + correct, prior.beta + (total - correct))


def posterior_pair(prior: BetaParams, counts: Counts) -> PosteriorPair:
    """Conjugate posteriors of both systems under one shared prior."""
    (c1, t1), (c2, t2) = counts
    return PosteriorPair(conjugate_update(prior, c1, t1), conjugate_update(prior, c2, t2))
