"""Config grammar, render/parse round-trips, and observation ingestion."""

import dataclasses
import hashlib
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircompare.bayes import BetaParams
from paircompare.config import (
    AnalysisConfig,
    AnalysisOptions,
    DataConfig,
    ModelConfig,
    OutputConfig,
    SimulateConfig,
    load_observations,
    parse_config,
    parse_config_file,
    render_config,
)
from paircompare.core import Direction, ObservationMode
from paircompare.errors import ConfigError, IngestError, IoError
from paircompare.frequentist import CiMode
from paircompare.mcmc import InitStrategy, McmcConfig
from paircompare.numerics import FIRST_RESERVED_STREAM

MINIMAL = "[analysis]\nseed = 1\n"


def test_parse_fixture_arc_easy(configs_dir):
    config = parse_config_file(configs_dir / "arc_easy.cfg")
    assert config.data.mode is ObservationMode.AGGREGATE
    assert config.data.counts == ((1721, 2376), (1637, 2376))
    assert config.data.names == ("arc_easy",)
    assert config.data.systems == ("system1", "system2")
    assert config.data.pool is False
    assert config.model.prior_label == "uniform"
    assert config.analysis.seed == 1729
    assert config.analysis.methods == ("pvalue", "ci", "hdi_rope", "bayes_factor")
    assert config.analysis.ci_mode is CiMode.ONE_SIDED_POOLED_Z
    assert config.analysis.rope_radius == 0.01
    assert config.mcmc.enabled is True
    assert config.mcmc.chains == 4
    assert config.base_dir == str(configs_dir)


def test_parse_fixture_arc_pooled(configs_dir):
    config = parse_config_file(configs_dir / "arc_pooled.cfg")
    assert config.data.counts is None
    assert config.data.files == ("../data/arc_easy.csv", "../data/arc_challenge.csv")
    assert config.data.names == ("arc_easy", "arc_challenge")
    assert config.data.pool is True
    assert config.analysis.rope_radius == 0.02


def test_parse_fixture_per_item(configs_dir):
    config = parse_config_file(configs_dir / "per_item_demo.cfg")
    assert config.data.mode is ObservationMode.PER_ITEM
    assert config.mcmc.enabled is False


def test_minimal_config_gets_defaults():
    config = parse_config(MINIMAL)
    assert config.data is None
    assert config.model == ModelConfig()
    assert config.analysis.alpha == 0.05
    assert config.analysis.ci_mode is CiMode.STANDARD_TWO_SIDED
    assert config.analysis.direction is Direction.GREATER
    assert config.mcmc == McmcConfig()
    assert config.output == OutputConfig()
    assert config.simulate == SimulateConfig()
    assert config.base_dir is None


ROUND_TRIP_VARIANTS = [
    AnalysisConfig(analysis=AnalysisOptions(seed=0)),
    AnalysisConfig(
        analysis=AnalysisOptions(seed=7, methods=("pvalue", "ci"), alpha=0.01,
                                 ci_level=0.9, ci_mode=CiMode.ONE_SIDED_POOLED_Z,
                                 direction=Direction.TWO_SIDED, margin=-0.25),
        data=DataConfig(mode=ObservationMode.AGGREGATE,
                        counts=((5, 10), (3, 10)), names=("tiny",)),
        model=ModelConfig(prior_label="optimistic_weak", prior=BetaParams(3.0, 1.5)),
    ),
    AnalysisConfig(
        analysis=AnalysisOptions(seed=123, hdi_mass=0.89, rope_radius=0.037),
        data=DataConfig(mode=ObservationMode.PER_ITEM,
                        files=("a.csv", "b.csv"), names=("a", "b"),
                        systems=("baseline", "candidate"), pool=True),
        model=ModelConfig(prior_label="custom", prior=BetaParams(2.5, 0.5)),
        mcmc=McmcConfig(enabled=False, chains=8, warmup=200, draws=50,
                        init=InitStrategy.PRIOR_DRAW),
        output=OutputConfig(report="r.json", plot_dir="p", trace_dir="t", sim_dir="s"),
        simulate=SimulateConfig(stopping_successes=3, stopping_trials=9,
                                stopping_null_rate=0.25, looks_step=5, looks_max=50,
                                os_alpha=0.01, os_trials=100, os_theta=0.4,
                                sweep_epsilon=0.05, sweep_n_mc=2000),
    ),
]


@pytest.mark.parametrize("config", ROUND_TRIP_VARIANTS)
def test_render_parse_round_trip(config):
    assert parse_config(render_config(config)) == config


def test_fixture_configs_round_trip(configs_dir):
    for path in sorted(configs_dir.glob("*.cfg")):
        config = parse_config_file(path)
        assert parse_config(render_config(config)) == config


# provenance.config_sha256 of each shipped config as `oracle` (MCMC off) and
# `analyze` render it.  The report hashes render_config's text, so these pin
# the canonical form byte for byte.
PINNED_CONFIG_SHA256 = {
    "arc_easy": ("1e32d2f52bfab953c65124df464d125fa9fde9b3325b1f3efa656b306882b923",
                 "89df322b2804275ef823a3ef1ae2fa63f3e38b9c6949d4566fcacd81fdc5bedc"),
    "arc_challenge": ("c20fbdb661d6e58d9cf9ee5a01e4de58e3c6fb7dc93dd74024ea73f9efa9ade7",
                      "b8f830c64162d668b3f32975f74148d8bbcfacb527dc5115d8e6549f975f5b7c"),
    "arc_pooled": ("ad916876ad4e972db9940f6b4ae6cb9998ce13694968cb2052eb1bfeaf84b26e",
                   "ede2b898b4bee92c74c2f66710d7918a49c3c08e0a54cfdc15701b47fa7c84e7"),
    "per_item_demo": ("7ef997a1a7d080832873e10a0cb5258dac8d0d9e13ebd88cd9f673eb30a6fd87",
                      "7ef997a1a7d080832873e10a0cb5258dac8d0d9e13ebd88cd9f673eb30a6fd87"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIG_SHA256))
def test_fixture_config_hashes_pinned(configs_dir, name):
    config = parse_config_file(configs_dir / f"{name}.cfg")
    oracle = dataclasses.replace(config, mcmc=dataclasses.replace(config.mcmc, enabled=False))
    digests = tuple(hashlib.sha256(render_config(c).encode("utf-8")).hexdigest()
                    for c in (oracle, config))
    assert digests == PINNED_CONFIG_SHA256[name]


@given(seed=st.integers(0, 2**31),
       alpha=st.floats(0.001, 0.5),
       ci_level=st.floats(0.5, 0.999),
       hdi_mass=st.floats(0.5, 1.0),
       rope_radius=st.floats(0.001, 0.5),
       margin=st.floats(-1.0, 1.0),
       n_mc=st.integers(1000, 10**7),
       prior_alpha=st.floats(0.1, 50.0),
       prior_beta=st.floats(0.1, 50.0))
@settings(max_examples=60, deadline=None)
def test_round_trip_survives_arbitrary_numbers(seed, alpha, ci_level, hdi_mass,
                                               rope_radius, margin, n_mc,
                                               prior_alpha, prior_beta):
    config = AnalysisConfig(
        analysis=AnalysisOptions(seed=seed, alpha=alpha, ci_level=ci_level,
                                 hdi_mass=hdi_mass, rope_radius=rope_radius,
                                 margin=margin, n_mc=n_mc),
        model=ModelConfig(prior_label="custom",
                          prior=BetaParams(prior_alpha, prior_beta)),
    )
    assert parse_config(render_config(config)) == config


def test_missing_seed_is_an_error():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    assert err.value.section == "analysis"
    assert err.value.key == "seed"


def test_seed_override_fills_the_gap():
    config = parse_config("", overrides={"analysis.seed": "5"})
    assert config.analysis.seed == 5


def test_override_replaces_file_value():
    config = parse_config(MINIMAL, overrides={"analysis.alpha": "0.01",
                                              "mcmc.draws": "250"})
    assert config.analysis.alpha == 0.01
    assert config.mcmc.draws == 250


@pytest.mark.parametrize("dotted", ["analysis", "analysis.alpha.extra", ""])
def test_malformed_override_names(dotted):
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides={dotted: "1"})


def test_override_values_are_validated():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, overrides={"analysis.alpha": "2.0"})
    assert err.value.key == "alpha"


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[analysis]\nseed = 1\nseed = 2\n")
    assert "duplicate key" in str(err.value)
    assert err.value.line == 3


def test_duplicate_section_reports_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[analysis]\nseed = 1\n[analysis]\nalpha = 0.1\n")
    assert "duplicate section" in str(err.value)
    assert err.value.line == 3


def test_content_before_header():
    with pytest.raises(ConfigError) as err:
        parse_config("seed = 1\n")
    assert err.value.line == 1


def test_unknown_section():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "[extra]\nx = 1\n")
    assert err.value.section == "extra"


@pytest.mark.parametrize("section,body,key", [
    ("data", "format = aggregate\ncounts = 1/2, 1/2\nspeed = 9", "speed"),
    ("analysis", "seed = 1\nlevel = 0.9", "level"),
    ("mcmc", "step = 0.1", "step"),
    ("output", "plots = x", "plots"),
    ("simulate", "alpha = 0.1", "alpha"),
])
def test_unknown_keys_are_rejected(section, body, key):
    text = f"[{section}]\n{body}\n"
    if section != "analysis":
        text += MINIMAL
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.section == section
    assert err.value.key == key


def data_section(body: str) -> str:
    return f"[data]\n{body}\n" + MINIMAL


@pytest.mark.parametrize("body,key", [
    ("counts = 1/2, 1/2", "format"),
    ("format = aggregate", "counts"),
    ("format = aggregate\ncounts = 1/2, 1/2\nfiles = x.csv", "counts"),
    ("format = aggregate\ncounts = 1/2", "counts"),
    ("format = aggregate\ncounts = 1/2, 1/2, 1/2", "counts"),
    ("format = aggregate\ncounts = a/b, 1/2", "counts"),
    ("format = aggregate\ncounts = 5/3, 1/3", "counts"),
    ("format = aggregate\ncounts = -1/3, 1/3", "counts"),
    ("format = per_item\ncounts = 1/2, 1/2", "counts"),
    ("format = aggregate\ncounts = 1/2, 1/2\nnames = a, b", "names"),
    ("format = aggregate\nfiles = a.csv, b.csv\nnames = only_one", "names"),
    ("format = aggregate\ncounts = 1/2, 1/2\nsystems = same, same", "systems"),
    ("format = aggregate\ncounts = 1/2, 1/2\nsystems = a, b, c", "systems"),
    ("format = aggregate\ncounts = 1/2, 1/2\npool = yes", "pool"),
    ("format = tabular\ncounts = 1/2, 1/2", "format"),
])
def test_data_section_errors(body, key):
    with pytest.raises(ConfigError) as err:
        parse_config(data_section(body))
    assert err.value.section == "data"
    assert err.value.key == key


@pytest.mark.parametrize("line,key", [
    ("seed = -1", "seed"),
    ("seed = soon", "seed"),
    ("seed = 1\nalpha = 0", "alpha"),
    ("seed = 1\nalpha = 1.0", "alpha"),
    ("seed = 1\nci_level = 1.2", "ci_level"),
    ("seed = 1\nci_mode = clopper", "ci_mode"),
    ("seed = 1\nhdi_mass = 0.0", "hdi_mass"),
    ("seed = 1\nrope_radius = -0.01", "rope_radius"),
    ("seed = 1\nmargin = 1.5", "margin"),
    ("seed = 1\ndirection = up", "direction"),
    ("seed = 1\nn_mc = 999", "n_mc"),
    ("seed = 1\nmethods = pvalue, pvalue", "methods"),
    ("seed = 1\nmethods = pvalue, anova", "methods"),
    ("seed = 1\nmethods = pvalue,, ci", "methods"),
])
def test_analysis_section_errors(line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[analysis]\n{line}\n")
    assert err.value.section == "analysis"
    assert err.value.key == key


@pytest.mark.parametrize("line,key", [
    ("chains = 1", "chains"),
    ("warmup = -1", "warmup"),
    ("draws = 0", "draws"),
    ("init = random", "init"),
    ("enabled = 1", "enabled"),
])
def test_mcmc_section_errors(line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[mcmc]\n{line}\n")
    assert err.value.section == "mcmc"
    assert err.value.key == key


def test_mcmc_chains_stop_below_reserved_streams():
    # Chain k draws from stream k, so a chain count reaching the first
    # reserved index would replay the posterior-draw stream.
    last_ok = FIRST_RESERVED_STREAM - 1
    assert parse_config(MINIMAL + f"[mcmc]\nchains = {last_ok}\n").mcmc.chains == last_ok
    for chains in (FIRST_RESERVED_STREAM, FIRST_RESERVED_STREAM + 1):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"[mcmc]\nchains = {chains}\n")
        assert (err.value.section, err.value.key) == ("mcmc", "chains")
        assert "reserved" in str(err.value)


def test_simulate_range_check():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "[simulate]\nlooks_step = 1\n")
    assert err.value.key == "looks_step"


@pytest.mark.parametrize("raw,expected", [
    ("uniform", ("uniform", BetaParams(1.0, 1.0))),
    ("optimistic_strong", ("optimistic_strong", BetaParams(9.0, 3.0))),
    ("2.5, 0.5", ("custom", BetaParams(2.5, 0.5))),
])
def test_prior_forms(raw, expected):
    config = parse_config(MINIMAL + f"[model]\nprior = {raw}\n")
    assert (config.model.prior_label, config.model.prior) == expected


@pytest.mark.parametrize("raw", ["jeffreys", "1, 2, 3", "-1, 2", "0, 1", "one, two"])
def test_bad_priors(raw):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[model]\nprior = {raw}\n")
    assert err.value.key == "prior"


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(IoError):
        parse_config_file(tmp_path / "nope.cfg")


def test_comments_and_blank_lines_ignored():
    text = textwrap.dedent("""\
        # top comment
        [analysis]

        seed = 4  # trailing comment
        alpha = 0.1
    """)
    config = parse_config(text)
    assert config.analysis.seed == 4
    assert config.analysis.alpha == 0.1


def test_load_inline_counts_naming():
    config = parse_config(data_section("format = aggregate\ncounts = 3/5, 2/5"))
    obs = load_observations(config)
    assert obs.name == "inline"
    assert obs.counts == ((3, 5), (2, 5))
    named = parse_config(data_section(
        "format = aggregate\ncounts = 3/5, 2/5\nnames = demo"))
    assert load_observations(named).name == "demo"


def test_load_requires_data_section():
    with pytest.raises(ConfigError):
        load_observations(parse_config(MINIMAL))


def test_load_fixture_files_resolve_against_config_dir(configs_dir):
    config = parse_config_file(configs_dir / "arc_pooled.cfg")
    obs = load_observations(config)
    assert obs.name == "pooled"
    assert obs.counts == ((2287, 3548), (2133, 3548))


def test_load_uses_file_stem_when_names_omitted(tmp_path):
    (tmp_path / "panel.csv").write_text(
        "system,correct,total\nsystem1,4,9\nsystem2,2,9\n")
    config = parse_config(data_section("format = aggregate\nfiles = panel.csv"))
    import dataclasses
    config = dataclasses.replace(config, base_dir=str(tmp_path))
    obs = load_observations(config)
    assert obs.name == "panel"
    assert obs.counts == ((4, 9), (2, 9))


def test_load_handles_bom_and_crlf(tmp_path):
    plain = "system,correct,total\nsystem1,4,9\nsystem2,2,9\n"
    windows = "﻿system,correct,total\r\nsystem1,4,9\r\nsystem2,2,9\r\n"
    for text, file_name in ((plain, "a.csv"), (windows, "b.csv")):
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    import dataclasses
    results = []
    for file_name in ("a.csv", "b.csv"):
        config = parse_config(data_section(f"format = aggregate\nfiles = {file_name}"))
        config = dataclasses.replace(config, base_dir=str(tmp_path))
        results.append(load_observations(config).counts)
    assert results[0] == results[1] == ((4, 9), (2, 9))


def aggregate_config(tmp_path, text):
    import dataclasses
    (tmp_path / "x.csv").write_text(text)
    config = parse_config(data_section("format = aggregate\nfiles = x.csv"))
    return dataclasses.replace(config, base_dir=str(tmp_path))


@pytest.mark.parametrize("text,row,fragment", [
    ("bad,header,row\nsystem1,1,2\n", 1, "header"),
    ("system,correct,total\nsystem3,1,2\nsystem2,1,2\n", 2, "unknown system"),
    ("system,correct,total\nsystem1,1,2\nsystem1,1,2\n", 3, "twice"),
    ("system,correct,total\nsystem1,one,2\nsystem2,1,2\n", 2, "integers"),
    ("system,correct,total\nsystem1,9,2\nsystem2,1,2\n", 2, "out of range"),
])
def test_aggregate_csv_errors(tmp_path, text, row, fragment):
    config = aggregate_config(tmp_path, text)
    with pytest.raises(IngestError) as err:
        load_observations(config)
    assert err.value.row == row
    assert fragment in str(err.value)


def test_aggregate_csv_missing_system(tmp_path):
    config = aggregate_config(tmp_path, "system,correct,total\nsystem1,1,2\n")
    with pytest.raises(IngestError) as err:
        load_observations(config)
    assert "system2" in str(err.value)


def per_item_config(tmp_path, text):
    import dataclasses
    (tmp_path / "x.csv").write_text(text)
    config = parse_config(data_section("format = per_item\nfiles = x.csv"))
    return dataclasses.replace(config, base_dir=str(tmp_path))


@pytest.mark.parametrize("text,row,fragment", [
    ("id,system1,system2\nq1,1,0\n", 1, "header"),
    ("item_id,system1,system2\nq1,1,0\nq1,0,1\n", 3, "duplicate item_id"),
    ("item_id,system1,system2\nq1,2,0\n", 2, "0 or 1"),
    ("item_id,system1,system2\n,1,0\n", 2, "empty item_id"),
    ("item_id,system1,system2\nq1,1\n", 2, "3 columns"),
])
def test_per_item_csv_errors(tmp_path, text, row, fragment):
    config = per_item_config(tmp_path, text)
    with pytest.raises(IngestError) as err:
        load_observations(config)
    assert err.value.row == row
    assert fragment in str(err.value)


def test_per_item_csv_no_rows(tmp_path):
    config = per_item_config(tmp_path, "item_id,system1,system2\n")
    with pytest.raises(IngestError):
        load_observations(config)


def test_per_item_columns_may_be_swapped(tmp_path):
    # The header names the columns, so their order is free.
    config = per_item_config(tmp_path,
                             "item_id,system2,system1\nq1,0,1\nq2,1,1\nq3,0,0\n")
    assert load_observations(config).counts == ((2, 3), (1, 3))


def test_load_missing_data_file(tmp_path):
    import dataclasses
    config = parse_config(data_section("format = aggregate\nfiles = ghost.csv"))
    config = dataclasses.replace(config, base_dir=str(tmp_path))
    with pytest.raises(IngestError):
        load_observations(config)
