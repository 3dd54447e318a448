"""Observation containers, hypotheses, and the decision vocabulary.

Two systems are scored on shared items; every accuracy difference in this
package is ``system1 - system2``.  Direction conventions are fixed here so
the statistical layers never have to re-derive them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, EmptyDataset, MalformedObservations


class ObservationMode(Enum):
    PER_ITEM = "per_item"
    AGGREGATE = "aggregate"


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


@dataclass(frozen=True)
class DatasetObs:
    """One dataset's worth of outcomes for both systems.

    Exactly one of ``per_item`` and ``aggregate`` is populated.  ``per_item``
    holds ``(item_id, outcome1, outcome2)`` triples with 0/1 outcomes;
    ``aggregate`` holds one ``(correct, total)`` pair per system.
    """

    name: str
    per_item: tuple[tuple[str, int, int], ...] | None = None
    aggregate: tuple[tuple[int, int], tuple[int, int]] | None = None

    def counts(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Per-system (correct, total) pairs, derived on demand for per-item data."""
        if self.aggregate is not None:
            return self.aggregate
        c1, c2, total = derive_aggregate(self)
        return ((c1, total), (c2, total))


@dataclass(frozen=True)
class ObservationSet:
    """All observations for one comparison of two systems."""

    mode: ObservationMode
    datasets: tuple[DatasetObs, ...]
    system_names: tuple[str, str] = ("system1", "system2")


def validate(obs: ObservationSet) -> ObservationSet:
    """Check structural invariants and return ``obs`` unchanged.

    Raises ``MalformedObservations`` on structural problems and
    ``EmptyDataset`` when there is nothing to analyze.
    """
    n1, n2 = obs.system_names
    if not n1 or not n2:
        raise MalformedObservations("system names must be non-empty")
    if n1 == n2:
        raise MalformedObservations(f"system names must differ, both are {n1!r}")
    if not obs.datasets:
        raise EmptyDataset("observation set contains no datasets")
    seen = set()
    for ds in obs.datasets:
        if not ds.name:
            raise MalformedObservations("dataset names must be non-empty")
        if ds.name in seen:
            raise MalformedObservations(f"duplicate dataset name {ds.name!r}")
        seen.add(ds.name)
        if obs.mode is ObservationMode.PER_ITEM:
            if ds.per_item is None or ds.aggregate is not None:
                raise MalformedObservations(
                    f"dataset {ds.name!r} must carry per-item outcomes only in per-item mode"
                )
            derive_aggregate(ds)
        else:
            if ds.aggregate is None or ds.per_item is not None:
                raise MalformedObservations(
                    f"dataset {ds.name!r} must carry aggregate counts only in aggregate mode"
                )
            for (correct, total), sysname in zip(ds.aggregate, obs.system_names):
                if total <= 0:
                    raise EmptyDataset(
                        f"dataset {ds.name!r} has no observations for {sysname!r}"
                    )
                if not 0 <= correct <= total:
                    raise MalformedObservations(
                        f"dataset {ds.name!r}: correct count {correct} outside [0, {total}] for {sysname!r}"
                    )
    return obs


def derive_aggregate(dataset: DatasetObs) -> tuple[int, int, int]:
    """Fold a per-item dataset into ``(correct1, correct2, total)``.

    Permutation-invariant in the item order.  Raises ``MalformedObservations``
    for non-binary outcomes, empty or duplicate item ids, or an
    aggregate-mode dataset; raises ``EmptyDataset`` when there are no items.
    """
    if dataset.per_item is None:
        raise MalformedObservations(
            f"dataset {dataset.name!r} has no per-item outcomes to aggregate"
        )
    if len(dataset.per_item) == 0:
        raise EmptyDataset(f"dataset {dataset.name!r} contains no items")
    ids = set()
    c1 = c2 = 0
    for row in dataset.per_item:
        item_id, o1, o2 = row
        if not isinstance(item_id, str) or not item_id:
            raise MalformedObservations(
                f"dataset {dataset.name!r}: item ids must be non-empty strings, got {item_id!r}"
            )
        if item_id in ids:
            raise MalformedObservations(
                f"dataset {dataset.name!r}: duplicate item id {item_id!r}"
            )
        ids.add(item_id)
        if o1 not in (0, 1) or o2 not in (0, 1):
            raise MalformedObservations(
                f"dataset {dataset.name!r}, item {item_id!r}: outcomes must be 0 or 1"
            )
        c1 += o1
        c2 += o2
    return c1, c2, len(dataset.per_item)


def pool_datasets(obs: ObservationSet, name: str = "pooled") -> ObservationSet:
    """Sum counts across datasets into a single aggregate-mode dataset."""
    obs = validate(obs)
    s1 = s2 = t1 = t2 = 0
    for ds in obs.datasets:
        (c1, n1), (c2, n2) = ds.counts()
        s1 += c1
        t1 += n1
        s2 += c2
        t2 += n2
    pooled = DatasetObs(name=name, aggregate=((s1, t1), (s2, t2)))
    return ObservationSet(
        mode=ObservationMode.AGGREGATE,
        datasets=(pooled,),
        system_names=obs.system_names,
    )


def pooled_counts(obs: ObservationSet) -> tuple[tuple[int, int], tuple[int, int]]:
    """Per-system (correct, total) summed over every dataset."""
    pooled = pool_datasets(obs)
    return pooled.datasets[0].aggregate
