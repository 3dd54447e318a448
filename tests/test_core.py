"""Hypothesis types, and the observation invariants every later layer relies on.

Past ingest, observations are per-system ``(correct, total)`` counts only, so
the structural checks on observations (distinct names, counts in range,
binary per-item outcomes, the per-item fold, pooling) are driven here through
``config.load_observations``, the one reader of raw observation data.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paircompare.config import Observations, load_observations, parse_config, parse_config_file
from paircompare.core import Direction, Hypothesis, HypothesisKind
from paircompare.errors import (
    ConfigError,
    DomainError,
    IngestError,
    MalformedObservations,
)


def ingest(data: str, files: dict[str, str] | None = None) -> Observations:
    """Load a ``[data]`` section, with ``files`` written beside the config."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in (files or {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        config_path = Path(tmp, "run.cfg")
        config_path.write_text(f"[data]\n{data}\n[analysis]\nseed = 1\n", encoding="utf-8")
        return load_observations(parse_config_file(config_path))


def aggregate_csv(c1, t1, c2, t2) -> str:
    return f"system,correct,total\nsystem1,{c1},{t1}\nsystem2,{c2},{t2}\n"


def per_item_csv(outcomes) -> str:
    rows = "".join(f"q{i},{o1},{o2}\n" for i, (o1, o2) in enumerate(outcomes))
    return "item_id,system1,system2\n" + rows


def test_validate_aggregate_roundtrip():
    inline = ingest("format = aggregate\ncounts = 1721/2376, 1637/2376")
    assert inline == Observations(("system1", "system2"), "inline",
                                  ((1721, 2376), (1637, 2376)))
    from_file = ingest("format = aggregate\nfiles = easy.csv",
                       {"easy.csv": aggregate_csv(1721, 2376, 1637, 2376)})
    assert from_file == Observations(("system1", "system2"), "easy",
                                     ((1721, 2376), (1637, 2376)))


def test_validate_rejects_duplicate_dataset_names():
    # The duplicate is reported before the several-datasets-need-pooling rule.
    files = {"a.csv": aggregate_csv(1, 2, 1, 2), "b.csv": aggregate_csv(1, 2, 1, 2)}
    for pool in ("true", "false"):
        with pytest.raises(MalformedObservations, match="duplicate dataset name 'd'"):
            ingest(f"format = aggregate\nfiles = a.csv, b.csv\nnames = d, d\npool = {pool}",
                   files)


def test_validate_rejects_identical_system_names():
    with pytest.raises(ConfigError) as err:
        parse_config("[data]\nformat = aggregate\ncounts = 1/2, 1/2\n"
                     "systems = same, same\n[analysis]\nseed = 1\n")
    assert (err.value.section, err.value.key) == ("data", "systems")


def test_validate_rejects_no_datasets():
    with pytest.raises(ConfigError) as err:
        ingest("format = aggregate")
    assert err.value.key == "counts"


@pytest.mark.parametrize("counts", [((3, 2), (1, 2)), ((-1, 2), (1, 2)), ((1, 0), (1, 2))])
def test_validate_rejects_bad_counts(counts):
    (c1, t1), (c2, t2) = counts
    with pytest.raises(ConfigError, match="out of range"):
        ingest(f"format = aggregate\ncounts = {c1}/{t1}, {c2}/{t2}")
    with pytest.raises(IngestError, match="out of range"):
        ingest("format = aggregate\nfiles = x.csv", {"x.csv": aggregate_csv(c1, t1, c2, t2)})


def test_validate_mode_field_consistency():
    # The [data] format picks the one reader; data of the other shape fails.
    with pytest.raises(ConfigError, match="aggregate format"):
        ingest("format = per_item\ncounts = 1/2, 1/2")
    with pytest.raises(IngestError, match="header"):
        ingest("format = per_item\nfiles = x.csv", {"x.csv": aggregate_csv(1, 2, 1, 2)})
    with pytest.raises(IngestError, match="header"):
        ingest("format = aggregate\nfiles = x.csv", {"x.csv": per_item_csv([(1, 0)])})


def test_validate_attaches_derived_aggregate():
    obs = ingest("format = per_item\nfiles = d.csv",
                 {"d.csv": per_item_csv([(1, 0), (1, 1), (0, 0)])})
    assert obs == Observations(("system1", "system2"), "d", ((2, 3), (1, 3)))


def test_derive_aggregate_rejects_duplicate_items():
    with pytest.raises(IngestError, match="duplicate item_id 'q1'"):
        ingest("format = per_item\nfiles = d.csv",
               {"d.csv": "item_id,system1,system2\nq1,1,0\nq1,0,1\n"})


def test_derive_aggregate_rejects_non_binary():
    with pytest.raises(IngestError, match="0 or 1"):
        ingest("format = per_item\nfiles = d.csv", {"d.csv": per_item_csv([(2, 0)])})


def test_pool_datasets_sums_counts():
    obs = ingest("format = aggregate\nfiles = easy.csv, challenge.csv\npool = true",
                 {"easy.csv": aggregate_csv(1721, 2376, 1637, 2376),
                  "challenge.csv": aggregate_csv(566, 1172, 496, 1172)})
    assert obs == Observations(("system1", "system2"), "pooled",
                               ((2287, 3548), (2133, 3548)))


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


@given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 400),
                          st.integers(0, 400), st.integers(1, 400)),
                min_size=1, max_size=4))
def test_pooled_counts_match_dataset_sums(datasets):
    datasets = [(min(c1, t1), t1, min(c2, t2), t2) for c1, t1, c2, t2 in datasets]
    files = {f"d{i}.csv": aggregate_csv(*ds) for i, ds in enumerate(datasets)}
    obs = ingest(f"format = aggregate\nfiles = {', '.join(files)}\npool = true", files)
    assert obs.name == "pooled"
    assert obs.counts == ((sum(d[0] for d in datasets), sum(d[1] for d in datasets)),
                          (sum(d[2] for d in datasets), sum(d[3] for d in datasets)))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40),
       st.booleans())
def test_per_item_derivation_counts_ones(outcomes, swap_columns):
    text = per_item_csv(outcomes)
    if swap_columns:
        # The header names the columns, so their order must not matter.
        text = "item_id,system2,system1\n" + "".join(
            f"q{i},{o2},{o1}\n" for i, (o1, o2) in enumerate(outcomes))
    obs = ingest("format = per_item\nfiles = d.csv", {"d.csv": text})
    n = len(outcomes)
    assert obs.counts == ((sum(o1 for o1, _ in outcomes), n),
                          (sum(o2 for _, o2 in outcomes), n))
