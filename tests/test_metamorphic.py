"""Metamorphic relations on ``run_analysis``: pairs of configs whose reports
must agree, so no reference implementation is needed.

- The method table is the config grammar's method list, in order.
- Permuting ``methods`` changes only the config digest.
- A method run alone reports what it reports in the full run.
- Per-item rows and their folded counts give one report.
- Pooling does not depend on the files' order, or on summing them first.
- The seed moves only the Monte Carlo and MCMC fields.

Each relation runs on the four shipped configs, in process, without
writing; the method and seed relations run with MCMC both on and off.
"""

import copy
import csv
import functools

import pytest

from paircompare import reporting
from paircompare.config import KNOWN_METHODS, DataConfig, parse_config_file
from paircompare.core import ObservationMode
from paircompare.fsio import json_text

from conftest import REPO_ROOT

CONFIGS = ("arc_easy", "arc_challenge", "arc_pooled", "per_item_demo")
MCMC = [pytest.param(False, id="mcmc-off"), pytest.param(True, id="mcmc-on")]
PERMUTATIONS = (tuple(reversed(KNOWN_METHODS)), ("hdi_rope", "pvalue", "bayes_factor", "ci"))


@functools.cache
def shipped(name: str, mcmc: bool):
    config = parse_config_file(REPO_ROOT / "configs" / f"{name}.cfg")
    return config.replace(mcmc=config.mcmc.replace(enabled=mcmc))


def report(config) -> dict:
    return reporting.run_analysis(config, write=False).report.to_dict()


@functools.cache
def full_report(name: str, mcmc: bool) -> dict:
    assert shipped(name, mcmc).analysis.methods == KNOWN_METHODS
    return report(shipped(name, mcmc))


def without_digest(payload: dict) -> str:
    """The report's JSON text, key order included, without ``provenance.config_sha256``,
    the one field a config's text sets."""
    provenance = {k: v for k, v in payload["provenance"].items() if k != "config_sha256"}
    return json_text({**payload, "provenance": provenance})


def with_methods(config, methods):
    return config.replace(analysis=config.analysis.replace(methods=methods))


def test_the_method_table_is_the_grammar_method_list():
    # A method the config accepts with no entry in the table would be skipped
    # silently by run_analysis; the report's order is the grammar's.
    assert tuple(reporting._METHODS) == KNOWN_METHODS


@pytest.mark.parametrize("mcmc", MCMC)
@pytest.mark.parametrize("name", CONFIGS)
def test_permuted_methods_change_only_the_config_digest(name, mcmc):
    full = full_report(name, mcmc)
    for methods in PERMUTATIONS:
        permuted = report(with_methods(shipped(name, mcmc), methods))
        assert permuted["provenance"]["config_sha256"] != full["provenance"]["config_sha256"]
        assert without_digest(permuted) == without_digest(full)


@pytest.mark.parametrize("mcmc", MCMC)
@pytest.mark.parametrize("name", CONFIGS)
def test_each_method_alone_reports_what_the_full_run_does(name, mcmc):
    full = full_report(name, mcmc)
    for method in KNOWN_METHODS:
        alone = report(with_methods(shipped(name, mcmc), (method,)))
        assert list(alone["results"]) == list(alone["decisions"]) == [method]
        for block in ("results", "decisions", "phrasing"):
            assert json_text(alone[block][method]) == json_text(full[block][method])


def aggregate(config, counts, name: str):
    """``config`` with its data replaced by inline ``counts`` under dataset ``name``."""
    return config.replace(data=DataConfig(ObservationMode.AGGREGATE, config.data.systems,
                                          counts=counts, names=(name,)))


def test_per_item_rows_and_their_folded_counts_give_one_report():
    config = shipped("per_item_demo", False)
    with (REPO_ROOT / "data" / "per_item_demo.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    folded = tuple((sum(int(row[system]) for row in rows), len(rows))
                   for system in config.data.systems)
    [name] = config.data.dataset_names
    assert (without_digest(report(aggregate(config, folded, name)))
            == without_digest(full_report("per_item_demo", False)))


def test_pooling_is_free_of_file_order_and_of_summing_first():
    config = shipped("arc_pooled", False)
    data = config.data
    expected = without_digest(full_report("arc_pooled", False))

    reordered = config.replace(data=data.replace(files=data.files[::-1], names=data.names[::-1]))
    assert without_digest(report(reordered)) == expected

    per_file = []
    for file_name in data.files:
        with (REPO_ROOT / "configs" / file_name).open(newline="") as fh:
            rows = {row["system"]: row for row in csv.DictReader(fh)}
        per_file.append([(int(rows[s]["correct"]), int(rows[s]["total"])) for s in data.systems])
    summed = tuple((sum(f[k][0] for f in per_file), sum(f[k][1] for f in per_file))
                   for k in (0, 1))
    assert without_digest(report(aggregate(config, summed, "pooled"))) == expected


# What the seed may move: the seed itself and the config digest that renders
# it, the sampled HDI and event counts, the Bayes factor's Monte Carlo twin,
# and everything MCMC.  The hdi_rope decision and sentence follow the sampled
# HDI's relation to the ROPE, so they move with it.
SEEDED_FIELDS = (
    "provenance.seed", "provenance.config_sha256",
    *(f"results.hdi_rope.conjugate.{key}"
      for key in ("hdi", "relation", "prob_positive", "prob_beyond_margin")),
    "results.hdi_rope.mcmc", "results.hdi_rope.disagreement",
    "results.bayes_factor.monte_carlo", "results.bayes_factor.mcmc",
    "mcmc", "decisions.hdi_rope", "phrasing.hdi_rope",
)


def without_seeded(payload: dict) -> str:
    """The report's JSON text without ``SEEDED_FIELDS``, each of which it must hold."""
    payload = copy.deepcopy(payload)
    for path in SEEDED_FIELDS:
        *parents, leaf = path.split(".")
        node = payload
        for key in parents:
            node = node[key]
        del node[leaf]
    return json_text(payload)


@pytest.mark.parametrize("mcmc", MCMC)
@pytest.mark.parametrize("name", CONFIGS)
def test_the_seed_moves_only_monte_carlo_and_mcmc_fields(name, mcmc):
    config = shipped(name, mcmc)
    config = config.replace(mcmc=config.mcmc.replace(warmup=200, draws=400))
    seeded = [report(config.replace(analysis=config.analysis.replace(seed=seed)))
              for seed in (11, 12)]
    assert json_text(seeded[0]) != json_text(seeded[1])
    assert without_seeded(seeded[0]) == without_seeded(seeded[1])
