"""Report assembly: phrasing lint, assumptions, JSON shape, and plot data."""

import hashlib
import importlib.resources
import json
import math

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paircompare.bayes import PRIOR_PRESETS
from paircompare.config import parse_config, parse_config_file, render_config
from paircompare.errors import AssessmentError, ConfigError
from paircompare.reporting import (
    MISCONCEPTION_CAUTIONS,
    REPORT_FORMAT,
    assumptions_checklist,
    emit_plot_data,
    lint_phrasing,
    run_analysis,
)

EASY_TEXT = """\
[data]
format = aggregate
counts = 1721/2376, 1637/2376

[analysis]
seed = 1729
n_mc = 20000

[mcmc]
enabled = false
"""


@pytest.mark.parametrize("text", [
    "",
    "The difference is statistically significant.",
    "practically significant at this tolerance",
    "no statistical significance was claimed",
    "Practical significance is a different question.",
    "Statistically Significant",
])
def test_lint_accepts_qualified_phrasing(text):
    assert lint_phrasing(text) == []


@pytest.mark.parametrize("text,count", [
    ("the result is significant", 1),
    ("Significance was reached", 1),
    ("significant and again significant", 2),
    ("statistically very significant", 1),
    ("the effect was insignificant", 1),
])
def test_lint_flags_unqualified_phrasing(text, count):
    violations = lint_phrasing(text)
    assert len(violations) == count
    assert all("unqualified" in v for v in violations)


def test_misconception_cautions_pass_their_own_lint():
    assert len(MISCONCEPTION_CAUTIONS) == 4
    for caution in MISCONCEPTION_CAUTIONS:
        assert lint_phrasing(caution) == []


def test_assumptions_checklist_shape():
    entries = assumptions_checklist(((1721, 2376), (1637, 2376)))
    assert [e["name"] for e in entries] == [
        "independent_items",
        "identical_item_distribution",
        "independent_systems",
        "sample_size_adequacy",
        "fixed_sample_intention",
    ]
    by_name = {e["name"]: e for e in entries}
    assert by_name["sample_size_adequacy"]["status"] == "checked_ok"
    assert by_name["independent_systems"]["status"] == "caution"


@pytest.mark.parametrize("counts", [
    ((1, 10), (9, 10)),
    ((10, 10), (5, 10)),
    ((0, 50), (25, 50)),
])
def test_assumptions_flag_thin_samples(counts):
    by_name = {e["name"]: e for e in assumptions_checklist(counts)}
    assert by_name["sample_size_adequacy"]["status"] == "caution"


def test_single_method_produces_single_block():
    config = parse_config(EASY_TEXT, overrides={"analysis.methods": "pvalue"})
    outcome = run_analysis(config, write=False)
    assert set(outcome.report.results) == {"pvalue"}
    assert set(outcome.report.decisions) == {"pvalue"}
    assert set(outcome.report.phrasing) == {"pvalue", "cautions"}
    assert outcome.report.mcmc is None
    assert outcome.trace is None


def test_easy_decisions_by_method(configs_dir):
    config = parse_config_file(configs_dir / "arc_easy.cfg")
    outcome = run_analysis(config, write=False)
    decisions = outcome.report.decisions
    assert decisions["pvalue"] == {"value": "reject_null", "basis": "pvalue"}
    assert decisions["ci"] == {"value": "reject_null", "basis": "ci"}
    assert decisions["hdi_rope"] == {"value": "undecided", "basis": "hdi_rope"}
    assert decisions["bayes_factor"] == {"value": "undecided", "basis": "bayes_factor"}


def test_report_phrasing_is_clean_and_qualified(configs_dir):
    config = parse_config_file(configs_dir / "arc_easy.cfg")
    report = run_analysis(config, write=False).report
    for name, sentence in report.phrasing.items():
        if name == "cautions":
            continue
        assert lint_phrasing(sentence) == []
    assert "statistically significant" in report.phrasing["pvalue"]
    assert report.phrasing["cautions"] == MISCONCEPTION_CAUTIONS


def test_not_significant_phrasing_also_lints_clean():
    text = EASY_TEXT.replace("1721/2376, 1637/2376", "50/100, 48/100")
    report = run_analysis(parse_config(text), write=False).report
    assert "not statistically significant" in report.phrasing["pvalue"]
    assert report.decisions["pvalue"]["value"] == "undecided"


def test_report_json_deterministic_in_memory():
    config = parse_config(EASY_TEXT)
    first = run_analysis(config, write=False).report.to_json()
    second = run_analysis(config, write=False).report.to_json()
    assert first == second


def test_provenance_hashes_canonical_config():
    config = parse_config(EASY_TEXT)
    report = run_analysis(config, write=False).report
    expected = hashlib.sha256(render_config(config).encode("utf-8")).hexdigest()
    assert report.provenance["config_sha256"] == expected
    assert report.provenance["package"] == "paircompare"
    assert report.provenance["seed"] == 1729


def test_data_block_reports_effective_counts():
    report = run_analysis(parse_config(EASY_TEXT), write=False).report
    effective = report.data["effective"]
    assert effective["correct"] == [1721, 1637]
    assert effective["totals"] == [2376, 2376]
    assert effective["diff"] == pytest.approx(84 / 2376)


@pytest.mark.parametrize("config_name,name,counts", [
    ("arc_easy", "arc_easy", [[1721, 2376], [1637, 2376]]),
    ("arc_challenge", "arc_challenge", [[566, 1172], [496, 1172]]),
    ("arc_pooled", "pooled", [[2287, 3548], [2133, 3548]]),
    ("per_item_demo", "demo", [[9, 12], [6, 12]]),
])
def test_data_block_datasets_pinned(configs_dir, config_name, name, counts):
    config = parse_config_file(configs_dir / f"{config_name}.cfg",
                               {"analysis.methods": "pvalue"})
    data = run_analysis(config, write=False).report.data
    assert data["datasets"] == [{"name": name, "counts": counts}]


def test_multiple_datasets_need_pooling(tmp_path):
    # The config itself refuses them, so no command gets as far as the files.
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text(
            "system,correct,total\nsystem1,5,9\nsystem2,4,9\n")
    config_path = tmp_path / "two.cfg"
    config_path.write_text(
        "[data]\nformat = aggregate\nfiles = a.csv, b.csv\n"
        "[analysis]\nseed = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(config_path)
    assert (err.value.section, err.value.key) == ("data", "pool")


def load_schema():
    root = importlib.resources.files("paircompare")
    return json.loads((root / "schema" / "report.schema.json").read_text())


@pytest.fixture(scope="module")
def report_schema():
    return load_schema()


def test_full_report_validates_against_schema(configs_dir, report_schema):
    config = parse_config_file(configs_dir / "arc_easy.cfg")
    report = run_analysis(config, write=False).report
    jsonschema.validate(report.to_dict(), report_schema)
    assert report.to_dict()["format"] == REPORT_FORMAT
    assert report.mcmc["converged"] is True


def test_mcmc_free_report_validates_against_schema(configs_dir, report_schema):
    config = parse_config_file(configs_dir / "per_item_demo.cfg")
    report = run_analysis(config, write=False).report
    jsonschema.validate(report.to_dict(), report_schema)
    assert report.mcmc is None


def test_subset_report_validates_against_schema(report_schema):
    config = parse_config(EASY_TEXT, overrides={"analysis.methods": "pvalue, ci"})
    report = run_analysis(config, write=False).report
    jsonschema.validate(report.to_dict(), report_schema)


def test_bayes_factor_mcmc_cross_check_recorded(configs_dir):
    config = parse_config_file(configs_dir / "arc_easy.cfg")
    report = run_analysis(config, write=False).report
    block = report.results["bayes_factor"]
    assert block["mcmc"] is not None
    # Both routes estimate the same posterior mass, so they must agree to
    # within joint Monte Carlo noise.
    tolerance = 5.0 * (block["monte_carlo"]["mc_se"] + block["mcmc"]["post_p0_se"])
    assert abs(block["mcmc"]["post_p0"] - block["monte_carlo"]["estimate"]) < tolerance
    disagreement = report.results["hdi_rope"]["disagreement"]
    assert disagreement["relation_match"] is True
    assert abs(disagreement["hdi_lower_delta"]) < 0.01


@pytest.mark.parametrize("name", ["arc_challenge", "arc_easy", "arc_pooled", "per_item_demo"])
def test_bayes_factor_monte_carlo_twin_within_error_of_quadrature(configs_dir, name):
    config = parse_config_file(configs_dir / f"{name}.cfg",
                               {"mcmc.enabled": "false", "analysis.methods": "bayes_factor"})
    block = run_analysis(config, write=False).report.results["bayes_factor"]
    twin = block["monte_carlo"]
    assert twin["n"] == config.analysis.n_mc
    assert abs(twin["estimate"] - block["quadrature"]["post_p0"]) < 4.0 * twin["mc_se"]


@pytest.mark.parametrize("counts, radius, in_band", [
    # Exact post_p0 = 8.2e-6: no chain draw lands in the band.
    ("1721/2376, 1560/2376", "0.01", 0.0),
    # Exact 1 - post_p0 = 1.5e-8, inside the quadrature's range: every draw lands in it.
    ("5000/10000, 5000/10000", "0.04", 1.0),
])
def test_mcmc_bayes_factor_is_null_without_draws_on_both_sides(configs_dir, report_schema,
                                                              counts, radius, in_band):
    config = parse_config_file(configs_dir / "arc_easy.cfg", {
        "data.counts": counts, "analysis.rope_radius": radius, "analysis.n_mc": "10000",
        "mcmc.warmup": "500", "mcmc.draws": "1000"})
    report = run_analysis(config, write=False).report
    jsonschema.validate(report.to_dict(), report_schema)
    block = report.results["bayes_factor"]
    assert 0.0 < block["quadrature"]["post_p0"] < 1.0
    assert block["mcmc"]["post_p0"] == in_band
    assert block["mcmc"]["bf01"] is None
    assert math.isfinite(block["bf01"]) and block["bf01"] > 0.0


@st.composite
def system_counts(draw):
    total = draw(st.integers(1, 10**9))
    return draw(st.integers(0, total)), total


PRIOR_TEXT = st.one_of(
    st.sampled_from(sorted(PRIOR_PRESETS)),
    st.tuples(st.floats(0.1, 1e3), st.floats(0.1, 1e3)).map(lambda ab: f"{ab[0]!r}, {ab[1]!r}"))


@given(system_counts(), system_counts(), PRIOR_TEXT, st.floats(1e-6, 0.99))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bayesian_report_is_valid_or_a_handled_error(counts1, counts2, prior, radius):
    # Over every admissible count pair, prior and radius the Bayesian half of
    # the report is either refused with a typed error or schema-valid, with a
    # finite positive Bayes factor and byte-identical reruns.
    (c1, t1), (c2, t2) = counts1, counts2
    config = parse_config(
        f"[data]\nformat = aggregate\ncounts = {c1}/{t1}, {c2}/{t2}\n\n"
        f"[model]\nprior = {prior}\n\n"
        f"[analysis]\nseed = 3\nn_mc = 1000\nmethods = hdi_rope, bayes_factor\n"
        f"rope_radius = {radius!r}\n\n[mcmc]\nenabled = false\n")
    try:
        report = run_analysis(config, write=False).report
    except AssessmentError:
        return
    jsonschema.validate(report.to_dict(), load_schema())
    bf01 = report.results["bayes_factor"]["bf01"]
    assert math.isfinite(bf01) and bf01 > 0.0
    assert run_analysis(config, write=False).report.to_json() == report.to_json()


def test_write_places_artifacts_at_configured_paths(tmp_path, monkeypatch, configs_dir):
    monkeypatch.chdir(tmp_path)
    config = parse_config_file(configs_dir / "per_item_demo.cfg")
    outcome = run_analysis(config, write=True)
    assert outcome.report_path.resolve() == tmp_path / "out/demo/report.json"
    assert outcome.report_path.exists()
    on_disk = json.loads(outcome.report_path.read_text())
    assert on_disk == outcome.report.to_dict()
    names = sorted(p.name for p in outcome.plot_paths)
    assert names == ["annotations.json", "posterior_diff.csv",
                     "posterior_theta1.csv", "posterior_theta2.csv"]
    assert all(p.exists() for p in outcome.plot_paths)
    assert outcome.trace_paths == []


def test_write_exports_traces_when_mcmc_enabled(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = EASY_TEXT.replace("enabled = false", "enabled = true\ndraws = 500")
    outcome = run_analysis(parse_config(text), write=True)
    names = sorted(p.name for p in outcome.trace_paths)
    assert names == ["chain_0.csv", "chain_1.csv", "chain_2.csv",
                     "chain_3.csv", "diagnostics.json"]


def read_histogram(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,density"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def integrate(rows):
    return sum((right - left) * density for left, right, density in rows)


def test_plot_histograms_integrate_to_one(tmp_path):
    import numpy as np
    gen = np.random.default_rng(3)
    theta1 = gen.beta(20, 5, size=5000)
    theta2 = gen.beta(18, 6, size=5000)
    paths = emit_plot_data(theta1, theta2, tmp_path, {"note": 1}, bins=60)
    for path in paths:
        if path.suffix == ".csv":
            rows = read_histogram(path)
            assert len(rows) == 60
            assert integrate(rows) == pytest.approx(1.0, abs=1e-9)
    sidecar = json.loads((tmp_path / "annotations.json").read_text())
    assert sidecar == {"annotations": {"note": 1}, "bins": 60}


def test_plot_constant_samples_single_bin(tmp_path):
    import numpy as np
    samples = np.full(100, 0.25)
    emit_plot_data(samples, samples * 0.0, tmp_path)
    rows = read_histogram(tmp_path / "posterior_theta1.csv")
    occupied = [r for r in rows if r[2] > 0]
    assert len(occupied) == 1
    assert integrate(rows) == pytest.approx(1.0, rel=1e-9)


def test_plot_diff_mass_covers_annotated_hdi(tmp_path, monkeypatch, configs_dir):
    # Every sample inside the HDI falls in a bin overlapping it, so those
    # bins must hold at least the HDI mass.
    monkeypatch.chdir(tmp_path)
    config = parse_config_file(configs_dir / "per_item_demo.cfg")
    outcome = run_analysis(config, write=True)
    hdi = outcome.report.results["hdi_rope"]["conjugate"]["hdi"]
    rows = read_histogram(tmp_path / "out/demo/plots/posterior_diff.csv")
    overlapping = [r for r in rows if r[1] > hdi["lower"] and r[0] < hdi["upper"]]
    mass = integrate(overlapping)
    assert mass >= hdi["mass"] - 1e-9
    assert math.isfinite(mass)
