"""Hypotheses, direction conventions, and the decision vocabulary.

Two systems are scored on shared items; every accuracy difference in this
package is ``system1 - system2``.  Direction conventions are fixed here so
the statistical layers never have to re-derive them.  Observations reach
those layers as per-system ``(correct, total)`` counts only: the raw formats
in :class:`ObservationMode` are known to ingest (``config.load_observations``)
and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError


class ObservationMode(Enum):
    """The ``[data] format`` choice: one 0/1 row per item, or counts."""

    PER_ITEM = "per_item"
    AGGREGATE = "aggregate"


# Per-system ``(correct, total)`` pairs, system 1 first: the observation
# format of every layer after ingest.
Counts = tuple[tuple[int, int], tuple[int, int]]


class Direction(Enum):
    GREATER = "greater"
    LESS = "less"
    TWO_SIDED = "two_sided"


class HypothesisKind(Enum):
    INTERVAL_NULL = "interval_null"
    DIRECTIONAL_MARGIN = "directional_margin"


class DecisionValue(Enum):
    REJECT_NULL = "reject_null"
    ACCEPT_NULL = "accept_null"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Decision:
    """Outcome of a procedure plus the procedure that produced it."""

    value: DecisionValue
    basis: str


@dataclass(frozen=True)
class Hypothesis:
    """A claim about the latent accuracy difference theta1 - theta2.

    ``INTERVAL_NULL``         the difference lies within ``rope_radius`` of
                              ``margin``.
    ``DIRECTIONAL_MARGIN``    the difference exceeds ``margin`` in the sense
                              given by ``direction`` (for TWO_SIDED: in
                              absolute value).
    """

    kind: HypothesisKind
    margin: float = 0.0
    rope_radius: float | None = None
    direction: Direction = Direction.GREATER

    def __post_init__(self):
        if not -1.0 <= self.margin <= 1.0:
            raise DomainError(f"margin must lie in [-1, 1], got {self.margin!r}")
        if self.kind is HypothesisKind.INTERVAL_NULL:
            if self.rope_radius is None or not 0.0 < self.rope_radius < 1.0:
                raise DomainError(
                    f"an interval null needs rope_radius in (0, 1), got {self.rope_radius!r}"
                )
