"""Observation containers, validation, and hypothesis types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paircompare.core import (
    DatasetObs,
    Direction,
    Hypothesis,
    HypothesisKind,
    ObservationMode,
    ObservationSet,
    derive_aggregate,
    pool_datasets,
    pooled_counts,
    validate,
)
from paircompare.errors import (
    DomainError,
    EmptyDataset,
    MalformedObservations,
)


def aggregate_obs(c1=1721, t1=2376, c2=1637, t2=2376, name="easy"):
    return ObservationSet(
        mode=ObservationMode.AGGREGATE,
        datasets=(DatasetObs(name=name, aggregate=((c1, t1), (c2, t2))),),
    )


def test_validate_aggregate_roundtrip():
    obs = validate(aggregate_obs())
    assert obs.datasets[0].counts() == ((1721, 2376), (1637, 2376))


def test_validate_rejects_duplicate_dataset_names():
    obs = ObservationSet(
        mode=ObservationMode.AGGREGATE,
        datasets=(
            DatasetObs(name="d", aggregate=((1, 2), (1, 2))),
            DatasetObs(name="d", aggregate=((1, 2), (1, 2))),
        ),
    )
    with pytest.raises(MalformedObservations):
        validate(obs)


def test_validate_rejects_identical_system_names():
    obs = ObservationSet(
        mode=ObservationMode.AGGREGATE,
        datasets=(DatasetObs(name="d", aggregate=((1, 2), (1, 2))),),
        system_names=("same", "same"),
    )
    with pytest.raises(MalformedObservations):
        validate(obs)


def test_validate_rejects_no_datasets():
    obs = ObservationSet(mode=ObservationMode.AGGREGATE, datasets=())
    with pytest.raises(EmptyDataset):
        validate(obs)


@pytest.mark.parametrize("counts", [((3, 2), (1, 2)), ((-1, 2), (1, 2)), ((1, 0), (1, 2))])
def test_validate_rejects_bad_counts(counts):
    obs = ObservationSet(
        mode=ObservationMode.AGGREGATE,
        datasets=(DatasetObs(name="d", aggregate=counts),),
    )
    with pytest.raises((MalformedObservations, EmptyDataset)):
        validate(obs)


def test_validate_mode_field_consistency():
    per_item_in_aggregate_mode = ObservationSet(
        mode=ObservationMode.AGGREGATE,
        datasets=(DatasetObs(name="d", per_item=(("q1", 1, 0),)),),
    )
    with pytest.raises(MalformedObservations):
        validate(per_item_in_aggregate_mode)


def test_validate_attaches_derived_aggregate():
    obs = ObservationSet(
        mode=ObservationMode.PER_ITEM,
        datasets=(DatasetObs(name="d", per_item=(
            ("q1", 1, 0), ("q2", 1, 1), ("q3", 0, 0))),),
    )
    validated = validate(obs)
    assert validated.datasets[0].counts() == ((2, 3), (1, 3))


def test_derive_aggregate_rejects_duplicate_items():
    ds = DatasetObs(name="d", per_item=(("q1", 1, 0), ("q1", 0, 1)))
    with pytest.raises(MalformedObservations):
        derive_aggregate(ds)


def test_derive_aggregate_rejects_non_binary():
    ds = DatasetObs(name="d", per_item=(("q1", 2, 0),))
    with pytest.raises(MalformedObservations):
        derive_aggregate(ds)


def test_pool_datasets_sums_counts():
    obs = ObservationSet(
        mode=ObservationMode.AGGREGATE,
        datasets=(
            DatasetObs(name="easy", aggregate=((1721, 2376), (1637, 2376))),
            DatasetObs(name="challenge", aggregate=((566, 1172), (496, 1172))),
        ),
    )
    pooled = pool_datasets(validate(obs))
    assert len(pooled.datasets) == 1
    assert pooled.datasets[0].counts() == ((2287, 3548), (2133, 3548))
    assert pooled_counts(pooled) == ((2287, 3548), (2133, 3548))


def test_hypothesis_interval_null_needs_radius():
    with pytest.raises(DomainError):
        Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0)
    with pytest.raises(DomainError):
        Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, rope_radius=0.0)
    ok = Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, rope_radius=0.02)
    assert ok.rope_radius == 0.02


def test_hypothesis_margin_range():
    with pytest.raises(DomainError):
        Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 1.5)
    edge = Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, 1.0)
    assert edge.margin == 1.0
    assert edge.direction is Direction.GREATER


@given(st.integers(0, 400), st.integers(1, 400), st.integers(0, 400), st.integers(1, 400))
def test_pooled_counts_match_dataset_sums(c1, t1, c2, t2):
    c1, c2 = min(c1, t1), min(c2, t2)
    obs = validate(aggregate_obs(c1, t1, c2, t2))
    assert pooled_counts(obs) == ((c1, t1), (c2, t2))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
def test_per_item_derivation_counts_ones(outcomes):
    items = tuple((f"q{i}", o1, o2) for i, (o1, o2) in enumerate(outcomes))
    ds = DatasetObs(name="d", per_item=items)
    (c1, c2, total) = derive_aggregate(ds)
    assert total == len(outcomes)
    assert c1 == sum(o1 for o1, _ in outcomes)
    assert c2 == sum(o2 for _, o2 in outcomes)
