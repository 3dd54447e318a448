"""Config grammar, render/parse round-trips, and observation ingestion."""

import ast
import hashlib
import re
import textwrap
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import paircompare.config
import paircompare.mcmc
from paircompare.bayes import PRIOR_PRESETS, BetaParams
from paircompare.config import (
    KNOWN_METHODS,
    AnalysisConfig,
    AnalysisOptions,
    DataConfig,
    InitStrategy,
    McmcConfig,
    ModelConfig,
    OutputConfig,
    SimulateConfig,
    _SECTIONS,
    _unwritable,
    _unwritable_element,
    load_observations,
    parse_config,
    parse_config_file,
    render_config,
)
from paircompare.core import Direction, ObservationMode
from paircompare.errors import ConfigError, IngestError, IoError
from paircompare.frequentist import CiMode
from paircompare.numerics import FIRST_RESERVED_STREAM

MINIMAL = "[analysis]\nseed = 1\n"


def test_parse_fixture_arc_easy(configs_dir):
    config = parse_config_file(configs_dir / "arc_easy.cfg")
    assert config.data.format is ObservationMode.AGGREGATE
    assert config.data.counts == ((1721, 2376), (1637, 2376))
    assert config.data.names == ("arc_easy",)
    assert config.data.systems == ("system1", "system2")
    assert config.data.pool is False
    assert config.model.prior == PRIOR_PRESETS["uniform"]
    assert config.analysis.seed == 1729
    assert config.analysis.methods == ("pvalue", "ci", "hdi_rope", "bayes_factor")
    assert config.analysis.ci_mode is CiMode.ONE_SIDED_POOLED_Z
    assert config.analysis.rope_radius == 0.01
    assert config.mcmc.enabled is True
    assert config.mcmc.chains == 4
    assert config.base_dir == str(configs_dir)


def test_config_defines_every_section_without_importing_the_sampler():
    assert [cls.__module__ for cls in _SECTIONS.values()] == ["paircompare.config"] * 6
    tree = ast.parse(Path(paircompare.config.__file__).read_text("utf-8"))
    assert "mcmc" not in {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    # The sampler reads its section from here, under the names it always had.
    assert (paircompare.mcmc.McmcConfig, paircompare.mcmc.InitStrategy) == (McmcConfig, InitStrategy)


def test_parse_fixture_arc_pooled(configs_dir):
    config = parse_config_file(configs_dir / "arc_pooled.cfg")
    assert config.data.counts is None
    assert config.data.files == ("../data/arc_easy.csv", "../data/arc_challenge.csv")
    assert config.data.names == ("arc_easy", "arc_challenge")
    assert config.data.pool is True
    assert config.analysis.rope_radius == 0.02


def test_parse_fixture_per_item(configs_dir):
    config = parse_config_file(configs_dir / "per_item_demo.cfg")
    assert config.data.format is ObservationMode.PER_ITEM
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
        data=DataConfig(format=ObservationMode.AGGREGATE,
                        counts=((5, 10), (3, 10)), names=("tiny",)),
        model=ModelConfig(prior=BetaParams(3.0, 1.5)),
    ),
    AnalysisConfig(
        analysis=AnalysisOptions(seed=123, hdi_mass=0.89, rope_radius=0.037),
        data=DataConfig(format=ObservationMode.PER_ITEM,
                        files=("a.csv", "b.csv"), names=("a", "b"),
                        systems=("baseline", "candidate"), pool=True),
        model=ModelConfig(prior=BetaParams(2.5, 0.5)),
        mcmc=McmcConfig(enabled=False, chains=8, warmup=200, draws=50,
                        init=InitStrategy.PRIOR_DRAW),
        output=OutputConfig(report="r.json", plot_dir="p", trace_dir="t", sim_dir="s"),
        simulate=SimulateConfig(stopping_successes=3, stopping_trials=9,
                                stopping_null_rate=0.25, looks_step=5, looks_max=50,
                                os_alpha=0.01, os_trials=100, os_theta=0.4,
                                sweep_epsilon=0.05),
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
# the canonical form byte for byte.  Recorded again when `[simulate]
# sweep_n_mc` left the grammar and so the rendered text.
PINNED_CONFIG_SHA256 = {
    "arc_easy": ("33592a1ee687d0bd906550d910ca01b82e9d7918912a75ff0febf77138844506",
                 "236d87572c947783990e2f9218c33b1502d6e5255156917457d15cad4a100a3e"),
    "arc_challenge": ("6922d16a1254a1e1f2c2280c64a3a9acbd503964515de8efd27f63940a95be9e",
                      "ca43d1b374781d39f3a67a03723f6377d50032102ec3693ca5f6d27ade84e1de"),
    "arc_pooled": ("6ee4dc4b61588bbcd238239fd375b7861f426dec9a093f1ae08a73f67c59e0bf",
                   "5860645295074d4ebb26c94063d92b24ea3fabf8aa003969742f46ef46b503f3"),
    "per_item_demo": ("13ce56649331e4f0e680cfc62f5a6dc3b4a04d945c1b4d24dcb6fc070045408f",
                      "13ce56649331e4f0e680cfc62f5a6dc3b4a04d945c1b4d24dcb6fc070045408f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIG_SHA256))
def test_fixture_config_hashes_pinned(configs_dir, name):
    config = parse_config_file(configs_dir / f"{name}.cfg")
    oracle = config.replace(mcmc=config.mcmc.replace(enabled=False))
    digests = tuple(hashlib.sha256(render_config(c).encode("utf-8")).hexdigest()
                    for c in (oracle, config))
    assert digests == PINNED_CONFIG_SHA256[name]


# What the grammar can spell: no list separator, no comment mark, and no
# whitespace or control character for the parser to strip.
WORDS = st.text(st.characters(exclude_characters=",#", exclude_categories=("Z", "C")),
                min_size=1, max_size=8)
# Text that may also hold what the grammar treats specially (a comma, a '#',
# padding, a line break), which the records must refuse where it matters.
TEXT = (WORDS
        | st.builds("{}{}{}".format, WORDS, st.text(st.sampled_from(" ,#"), max_size=3), WORDS)
        | st.text(st.sampled_from(" ,#\t\n") | st.characters(exclude_categories=("Cs",)),
                  max_size=8))


def built(cls):
    """``cls`` as a strategy target: the object, or the ConfigError it refused itself with."""
    def build(*args, **kwargs):
        try:
            return cls(*args, **kwargs)
        except ConfigError as err:
            return err
    return build


def unit_interval(*, include_one=False):
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=not include_one)


@st.composite
def data_configs(draw):
    systems = tuple(draw(st.lists(TEXT, min_size=2, max_size=2, unique=True)))
    pool = draw(st.booleans())
    if draw(st.booleans()):
        pair = st.integers(1, 10**12).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t)))
        counts = (draw(pair), draw(pair))
        names = tuple(draw(st.lists(TEXT, max_size=1)))
        return built(DataConfig)(ObservationMode.AGGREGATE, counts=counts, names=names,
                                 systems=systems, pool=pool)
    # Datasets are named by their file stems unless names are given.
    files = tuple(draw(st.lists(TEXT, min_size=1, max_size=3,
                                unique_by=lambda f: Path(f).stem)))
    names = draw(st.just(()) | st.lists(TEXT, min_size=len(files), max_size=len(files),
                                         unique=True).map(tuple))
    return built(DataConfig)(draw(st.sampled_from(ObservationMode)), files=files,
                             names=names, systems=systems, pool=pool or len(files) > 1)


SHAPE = st.floats(0.0, exclude_min=True, allow_infinity=False)
MODEL_CONFIGS = st.builds(ModelConfig, st.sampled_from(list(PRIOR_PRESETS.values()))
                          | st.builds(BetaParams, SHAPE, SHAPE))


@st.composite
def simulate_configs(draw):
    trials = draw(st.integers(1, 10**6))
    looks_step = draw(st.integers(2, 10**4))
    return SimulateConfig(
        stopping_successes=draw(st.integers(1, trials)), stopping_trials=trials,
        stopping_null_rate=draw(unit_interval(include_one=True)), looks_step=looks_step,
        looks_max=draw(st.integers(looks_step, 10**5)), os_alpha=draw(unit_interval()),
        os_trials=draw(st.integers(1, 10**6)), os_theta=draw(unit_interval()),
        sweep_epsilon=draw(unit_interval()))


ANY_CONFIG = st.builds(
    AnalysisConfig,
    analysis=st.builds(
        AnalysisOptions, seed=st.integers(0, 2**63 - 1),
        methods=st.lists(st.sampled_from(KNOWN_METHODS), min_size=1, unique=True).map(tuple),
        alpha=unit_interval(), ci_level=unit_interval(), ci_mode=st.sampled_from(CiMode),
        hdi_mass=unit_interval(include_one=True), rope_radius=unit_interval(),
        margin=st.floats(-1.0, 1.0), direction=st.sampled_from(Direction),
        n_mc=st.integers(1000, 10**9)),
    data=st.none() | data_configs(),
    model=MODEL_CONFIGS,
    mcmc=st.builds(McmcConfig, enabled=st.booleans(),
                   chains=st.integers(2, FIRST_RESERVED_STREAM - 1),
                   warmup=st.integers(0, 10**6), draws=st.integers(1, 10**6),
                   init=st.sampled_from(InitStrategy)),
    output=st.builds(built(OutputConfig), report=TEXT, plot_dir=TEXT, trace_dir=TEXT,
                     sim_dir=TEXT),
    simulate=simulate_configs(),
)


# Hypothesis's explain phase takes minutes and most of a gigabyte on this
# nested strategy once an example fails; the shrunk example is report enough.
@given(config=ANY_CONFIG)
@settings(max_examples=100, deadline=None, phases=set(Phase) - {Phase.explain})
def test_round_trip_survives_arbitrary_numbers(config):
    # A drawn config either reads back as itself or was refused when built,
    # for text the grammar cannot spell or a report path with no file name.
    refused = [part for part in (config.data, config.output) if isinstance(part, ConfigError)]
    text_keys = ("systems", "files", "names", *OutputConfig.fields)
    for err in refused:
        assert err.key in text_keys
        assert "config text cannot hold" in str(err) or (
            err.key == "report" and "report must end in a file name" in str(err))
    if not refused:
        assert parse_config(render_config(config)) == config


@pytest.mark.parametrize("build,section,key", [
    (lambda: DataConfig(ObservationMode.AGGREGATE, files=("a,b.csv",)), "data", "files"),
    (lambda: OutputConfig(report="r.json #1"), "output", "report"),
    (lambda: OutputConfig(plot_dir="#plots"), "output", "plot_dir"),
    (lambda: OutputConfig(trace_dir=" traces"), "output", "trace_dir"),
    (lambda: OutputConfig(sim_dir="sim\t"), "output", "sim_dir"),
    (lambda: OutputConfig(report="a\nb"), "output", "report"),
    (lambda: OutputConfig(report="a\x00b"), "output", "report"),
    (lambda: VALID_DATA.replace(systems=("a", "b,c")), "data", "systems"),
    (lambda: VALID_DATA.replace(systems=("a", "")), "data", "systems"),
    (lambda: VALID_DATA.replace(names=("x\u2028y",)), "data", "names"),
    (lambda: VALID_DATA.replace(names=("x\t#y",)), "data", "names"),
])
def test_code_built_configs_refuse_text_the_grammar_cannot_spell(build, section, key):
    # render_config would write such a value as text that reads back as
    # another config, or as none.
    with pytest.raises(ConfigError) as err:
        build()
    assert (err.value.section, err.value.key) == (section, key)


def test_inner_spaces_and_hashes_round_trip():
    config = AnalysisConfig(
        analysis=AnalysisOptions(seed=1),
        data=DataConfig(ObservationMode.PER_ITEM, files=("my data.csv",),
                        systems=("system one", "system#2")),
        output=OutputConfig(report="out/r#1.json", plot_dir="my plots"))
    assert parse_config(render_config(config)) == config


@pytest.mark.parametrize("report", ["", ".", "./", "/"])
def test_report_path_must_end_in_a_file_name(report):
    # The report is written through a temp file named after it, so a path
    # without a final name component cannot be one.
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, {"output.report": report})
    assert (err.value.section, err.value.key) == ("output", "report")
    assert_same_rejection(err.value, lambda: OutputConfig(report=report))


@pytest.mark.parametrize("line,key", [("systems = a,, b", "systems"), ("files = a.csv,", "files")])
def test_stray_comma_in_a_data_list_is_refused(line, key):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[data]\nformat = per_item\n{line}\n")
    assert (err.value.section, err.value.key) == ("data", key)


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


@pytest.mark.parametrize("dotted", ["analysis", "analysis.alpha.extra", "", ".", ".seed",
                                    "analysis."])
def test_malformed_override_names(dotted):
    with pytest.raises(ConfigError, match="must look like section.key"):
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
    # The prior sweep's HDI is exact, so its draw count left the grammar.
    ("simulate", "sweep_n_mc = 100000", "sweep_n_mc"),
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


def row(text: str, key: str, **in_code):
    """A rejected config line and its key; ``in_code`` holds the same bad
    value as record fields, when the text gets as far as a value."""
    return pytest.param(text, key, in_code, id=f"{text}-{key}")


def assert_same_rejection(text_error, build):
    # A value the grammar rejects is rejected, with the same context, when a
    # valid config is given it in code.
    with pytest.raises(ConfigError) as err:
        build()
    assert (err.value.section, err.value.key) == (text_error.section, text_error.key)
    assert str(err.value) == str(text_error)


VALID_DATA = DataConfig(format=ObservationMode.AGGREGATE, counts=((1, 2), (1, 2)))
TWO_FILES = {"counts": None, "files": ("a.csv", "b.csv")}


@pytest.mark.parametrize("body,key,in_code", [
    row("counts = 1/2, 1/2", "format"),
    row("format = aggregate", "counts", counts=None),
    row("format = aggregate\ncounts = 1/2, 1/2\nfiles = x.csv", "counts", files=("x.csv",)),
    row("format = aggregate\ncounts = 1/2", "counts"),
    row("format = aggregate\ncounts = 1/2, 1/2, 1/2", "counts"),
    row("format = aggregate\ncounts = a/b, 1/2", "counts"),
    row("format = aggregate\ncounts = 5, 1/2", "counts"),
    row("format = aggregate\ncounts = 1/2/3, 1/2", "counts"),
    row("format = aggregate\ncounts = 5/3, 1/3", "counts", counts=((5, 3), (1, 3))),
    row("format = aggregate\ncounts = -1/3, 1/3", "counts", counts=((-1, 3), (1, 3))),
    row("format = per_item\ncounts = 1/2, 1/2", "counts", format=ObservationMode.PER_ITEM),
    row("format = aggregate\ncounts = 1/2, 1/2\nnames = a, b", "names", names=("a", "b")),
    row("format = aggregate\nfiles = a.csv, b.csv\nnames = only_one", "names",
        **TWO_FILES, names=("only_one",)),
    row("format = aggregate\ncounts = 1/2, 1/2\nsystems = same, same", "systems",
        systems=("same", "same")),
    row("format = aggregate\ncounts = 1/2, 1/2\nsystems = a, b, c", "systems",
        systems=("a", "b", "c")),
    row("format = aggregate\ncounts = 1/2, 1/2\npool = yes", "pool"),
    row("format = tabular\ncounts = 1/2, 1/2", "format"),
    row("format = aggregate\nfiles = a.csv, b.csv\nnames = d, d\npool = true", "names",
        **TWO_FILES, names=("d", "d"), pool=True),
    row("format = aggregate\nfiles = x/a.csv, y/a.csv\npool = true", "files",
        counts=None, files=("x/a.csv", "y/a.csv"), pool=True),
    row("format = aggregate\nfiles = a.csv, b.csv", "pool", **TWO_FILES),
])
def test_data_section_errors(body, key, in_code):
    with pytest.raises(ConfigError) as err:
        parse_config(data_section(body))
    assert err.value.section == "data"
    assert err.value.key == key
    if in_code:
        assert_same_rejection(err.value, lambda: VALID_DATA.replace(**in_code))


@pytest.mark.parametrize("line,key,in_code", [
    row("seed = -1", "seed", seed=-1),
    row("seed = soon", "seed"),
    row("seed = 1\nalpha = 0", "alpha", alpha=0.0),
    row("seed = 1\nalpha = 1.0", "alpha", alpha=1.0),
    row("seed = 1\nci_level = 1.2", "ci_level", ci_level=1.2),
    row("seed = 1\nci_mode = clopper", "ci_mode"),
    row("seed = 1\nhdi_mass = 0.0", "hdi_mass", hdi_mass=0.0),
    row("seed = 1\nrope_radius = -0.01", "rope_radius", rope_radius=-0.01),
    row("seed = 1\nmargin = 1.5", "margin", margin=1.5),
    row("seed = 1\ndirection = up", "direction"),
    row("seed = 1\nn_mc = 999", "n_mc", n_mc=999),
    row("seed = 1\nmethods = pvalue, pvalue", "methods", methods=("pvalue", "pvalue")),
    row("seed = 1\nmethods = pvalue, anova", "methods", methods=("pvalue", "anova")),
    row("seed = 1\nmethods = pvalue,, ci", "methods"),
    # Every RNG stream is keyed by the seed, and Philox keys stop at 2**63.
    row("seed = 9223372036854775808", "seed", seed=2**63),
])
def test_analysis_section_errors(line, key, in_code):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[analysis]\n{line}\n")
    assert err.value.section == "analysis"
    assert err.value.key == key
    if in_code:
        assert_same_rejection(
            err.value, lambda: AnalysisOptions(seed=1).replace(**in_code))


def test_analysis_methods_must_not_be_empty():
    # The grammar cannot spell an empty list, so no config holds one.
    with pytest.raises(ConfigError) as err:
        parse_config("[analysis]\nseed = 1\nmethods =\n")
    assert (err.value.section, err.value.key) == ("analysis", "methods")
    with pytest.raises(ConfigError) as err:
        AnalysisOptions(seed=1, methods=())
    assert (err.value.section, err.value.key) == ("analysis", "methods")


@pytest.mark.parametrize("line,key,in_code", [
    row("chains = 1", "chains", chains=1),
    row("warmup = -1", "warmup", warmup=-1),
    row("draws = 0", "draws", draws=0),
    row("init = random", "init"),
    row("enabled = 1", "enabled"),
])
def test_mcmc_section_errors(line, key, in_code):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[mcmc]\n{line}\n")
    assert err.value.section == "mcmc"
    assert err.value.key == key
    if in_code:
        assert_same_rejection(err.value, lambda: McmcConfig().replace(**in_code))


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
        assert_same_rejection(err.value, lambda: McmcConfig(chains=chains))


def test_simulate_range_check():
    # Each key out of range, and the bound its message must name.
    # stopping_successes = 0 has no negative-binomial tail to report.
    for key, value, bound in (("stopping_trials", 0, "at least 1"),
                              ("stopping_successes", 0, "in [1, stopping_trials]"),
                              ("stopping_successes", 25, "in [1, stopping_trials]"),
                              ("stopping_null_rate", 0, "in (0, 1]"),
                              ("looks_step", 1, "at least 2"),
                              ("looks_max", 5, "at least looks_step"),
                              ("os_alpha", 1, "in (0, 1)"),
                              ("os_trials", 0, "at least 1"),
                              ("os_theta", 0, "in (0, 1)"),
                              ("sweep_epsilon", 1, "in (0, 1)")):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"[simulate]\n{key} = {value}\n")
        assert (err.value.section, err.value.key) == ("simulate", key)
        assert str(err.value).startswith(f"{key} must "), str(err.value)
        assert f" {bound} (section [simulate]" in str(err.value)
        assert_same_rejection(err.value,
                              lambda: SimulateConfig().replace(**{key: value}))


@pytest.mark.parametrize("raw,expected", [
    ("uniform", (BetaParams(1.0, 1.0), "uniform")),
    ("optimistic_strong", (BetaParams(9.0, 3.0), "optimistic_strong")),
    ("2.5, 0.5", (BetaParams(2.5, 0.5), "2.5, 0.5")),
    # Shapes equal to a preset's are that preset, and are written as its name.
    ("3, 1.5", (PRIOR_PRESETS["optimistic_weak"], "optimistic_weak")),
])
def test_prior_forms(raw, expected):
    prior, rendered = expected
    config = parse_config(MINIMAL + f"[model]\nprior = {raw}\n")
    assert config.model == ModelConfig(prior)
    assert f"[model]\nprior = {rendered}\n" in render_config(config)


# A NaN shape passes a "<= 0" test and would hang the gamma sampler; in code
# such shapes never reach a ModelConfig, as BetaParams refuses them itself.
@pytest.mark.parametrize("raw", ["jeffreys", "1, 2, 3", "-1, 2", "0, 1", "one, two", "nan, 1",
                                 "1, nan", "inf, 1", "inf, inf"])
def test_bad_priors(raw):
    for text, overrides in [(MINIMAL + f"[model]\nprior = {raw}\n", None),
                            (MINIMAL, {"model.prior": raw})]:
        with pytest.raises(ConfigError) as err:
            parse_config(text, overrides)
        assert (err.value.section, err.value.key) == ("model", "prior")


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
    config = config.replace(base_dir=str(tmp_path))
    obs = load_observations(config)
    assert obs.name == "panel"
    assert obs.counts == ((4, 9), (2, 9))


def test_load_handles_bom_and_crlf(tmp_path):
    # The padded file's header cells are stripped as its rows' cells are.
    plain = "system,correct,total\nsystem1,4,9\nsystem2,2,9\n"
    windows = "﻿system,correct,total\r\nsystem1,4,9\r\nsystem2,2,9\r\n"
    padded = "system, correct, total\nsystem1, 4, 9\nsystem2, 2, 9\n"
    for text, file_name in ((plain, "a.csv"), (windows, "b.csv"), (padded, "c.csv")):
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    results = []
    for file_name in ("a.csv", "b.csv", "c.csv"):
        config = parse_config(data_section(f"format = aggregate\nfiles = {file_name}"))
        config = config.replace(base_dir=str(tmp_path))
        results.append(load_observations(config).counts)
    assert results == [((4, 9), (2, 9))] * 3


def aggregate_config(tmp_path, text):
    (tmp_path / "x.csv").write_text(text)
    config = parse_config(data_section("format = aggregate\nfiles = x.csv"))
    return config.replace(base_dir=str(tmp_path))


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
    (tmp_path / "x.csv").write_text(text)
    config = parse_config(data_section("format = per_item\nfiles = x.csv"))
    return config.replace(base_dir=str(tmp_path))


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


def test_decode_error_after_many_rows_is_an_ingest_error(tmp_path):
    # Rows are streamed, so the bad byte is met well after the first read.
    path = tmp_path / "items.csv"
    rows = "".join(f"q{i},1,0\n" for i in range(20_000))
    path.write_bytes(f"item_id,system1,system2\n{rows}".encode() + b"\xff,1,0\n")
    config = parse_config(MINIMAL + f"[data]\nformat = per_item\nfiles = {path}\n")
    with pytest.raises(IngestError) as err:
        load_observations(config)
    assert err.value.path == str(path)
    assert "cannot read data file" in str(err.value)


def test_load_missing_data_file(tmp_path):
    config = parse_config(data_section("format = aggregate\nfiles = ghost.csv"))
    config = config.replace(base_dir=str(tmp_path))
    with pytest.raises(IngestError):
        load_observations(config)


# The patterns the two predicates replaced, so that no command compiles one.
UNWRITABLE = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]|^\s|\s$|(^|\s)#")
UNWRITABLE_ELEMENT = re.compile(f"{UNWRITABLE.pattern}|,|^$")
EDGE_CHARACTERS = "ab#, \t\n\r\x0b\x0c\x1c\x1f\x7e\x7f\x85\x9f\xa0\u1680\u2028\u2029\u3000\ufeff"


@settings(max_examples=1000)
@given(st.one_of(st.text(), st.text(alphabet=EDGE_CHARACTERS, max_size=6)))
def test_unwritable_predicates_match_their_patterns(text):
    assert _unwritable(text) is bool(UNWRITABLE.search(text))
    assert _unwritable_element(text) is bool(UNWRITABLE_ELEMENT.search(text))
