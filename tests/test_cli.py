"""End-to-end command-line behavior, including exit codes."""

import importlib.resources
import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import paircompare
from paircompare.cli import EXIT_ERROR, EXIT_NONCONVERGENCE, EXIT_OK, main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(monkeypatch, tree, *argv):
    monkeypatch.chdir(tree)
    return main(list(argv))


def test_version(capsys):
    assert main(["version"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "paircompare 0.1.0"


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["analyze"])


def test_analyze_per_item_demo(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/per_item_demo.cfg")
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "pvalue:" in out
    assert "report written to" in out
    report = json.loads((fixture_tree / "out/demo/report.json").read_text())
    assert report["data"]["effective"]["correct"] == [9, 6]
    assert report["mcmc"] is None


def test_oracle_disables_mcmc(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg")
    assert code == EXIT_OK
    report = json.loads((fixture_tree / "out/easy/report.json").read_text())
    assert report["mcmc"] is None
    assert report["results"]["hdi_rope"]["mcmc"] is None
    assert (fixture_tree / "out/easy/plots/posterior_diff.csv").exists()
    assert not (fixture_tree / "out/easy/traces").exists()


def test_seed_flag_overrides_config(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/per_item_demo.cfg",
                   "--seed", "5")
    assert code == EXIT_OK
    report = json.loads((fixture_tree / "out/demo/report.json").read_text())
    assert report["provenance"]["seed"] == 5


def test_set_flag_reaches_any_section(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/per_item_demo.cfg",
                   "--set", "analysis.alpha=0.2",
                   "--set", "output.report=alt/report.json")
    assert code == EXIT_OK
    assert (fixture_tree / "alt/report.json").exists()


@pytest.mark.parametrize("bad", ["alpha=0.2", "analysis.alpha", "analysis=0.2"])
def test_malformed_set_flag(fixture_tree, monkeypatch, capsys, bad):
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/per_item_demo.cfg",
                   "--set", bad)
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_override_value(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/per_item_demo.cfg",
                   "--set", "analysis.alpha=2.0")
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error:" in err
    assert "alpha" in err


def test_missing_config_file(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/ghost.cfg")
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_nonconvergence_exit_code(fixture_tree, monkeypatch, capsys):
    # 4 chains x 60 draws cap the effective sample size at 240 < 400, so the
    # convergence gate must trip no matter how friendly the randomness is.
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/arc_easy.cfg",
                   "--set", "mcmc.draws=60", "--set", "mcmc.warmup=100")
    assert code == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert "did not converge" in err
    report = json.loads((fixture_tree / "out/easy/report.json").read_text())
    assert report["mcmc"]["converged"] is False
    assert report["mcmc"]["warnings"]


@pytest.mark.parametrize("draws", [1, 20])
def test_trace_too_short_for_an_hdi_keeps_the_report(fixture_tree, monkeypatch, capsys, draws):
    # 4 chains x 20 draws are fewer samples than an HDI needs; the report
    # leaves the MCMC HDI summary null and the command exits on the failed
    # convergence checks, not on the HDI.
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/arc_easy.cfg",
                   "--set", f"mcmc.draws={draws}")
    assert code == EXIT_NONCONVERGENCE
    assert "did not converge" in capsys.readouterr().err
    report = json.loads((fixture_tree / "out/easy/report.json").read_text())
    schema = (importlib.resources.files("paircompare") / "schema" / "report.schema.json")
    jsonschema.validate(report, json.loads(schema.read_text()))
    assert report["results"]["hdi_rope"]["mcmc"] is None
    assert report["results"]["hdi_rope"]["disagreement"] is None
    assert report["results"]["hdi_rope"]["conjugate"]["hdi"]["lower"] > 0.0
    assert report["mcmc"]["draws"] == draws
    assert report["mcmc"]["converged"] is False


def test_simulate_stopping(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "simulate", "stopping", "--config", "configs/arc_easy.cfg")
    assert code == EXIT_OK
    payload = json.loads((fixture_tree / "out/easy/simulations/stopping.json").read_text())
    assert payload["simulation"] == "stopping"
    assert payload["fixed_trials_pvalue"] == pytest.approx(0.0319573, abs=1e-6)
    assert payload["fixed_successes_pvalue"] == pytest.approx(0.0173448, abs=1e-6)
    assert payload["gap"] == pytest.approx(0.0146125, abs=1e-6)
    assert "p-value gap" in capsys.readouterr().out


def test_simulate_optional_stopping(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "simulate", "optional-stopping",
                   "--config", "configs/arc_easy.cfg",
                   "--set", "simulate.looks_step=50",
                   "--set", "simulate.looks_max=100",
                   "--set", "simulate.os_trials=200")
    assert code == EXIT_OK
    payload = json.loads(
        (fixture_tree / "out/easy/simulations/optional_stopping.json").read_text())
    assert payload["looks"] == [50, 100]
    assert payload["trials"] == 200
    assert 0.0 <= payload["false_positive_rate"] <= 1.0
    assert sum(payload["first_rejection_counts"]) == payload["false_positives"]


def test_simulate_prior_sweep(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "simulate", "prior-sweep",
                   "--config", "configs/per_item_demo.cfg",
                   "--set", "simulate.sweep_n_mc=20000")
    assert code == EXIT_OK
    payload = json.loads(
        (fixture_tree / "out/demo/simulations/prior_sweep.json").read_text())
    assert payload["counts"] == [[9, 12], [6, 12]]
    labels = [row["label"] for row in payload["rows"]]
    assert labels == ["optimistic_strong", "optimistic_weak", "uniform"]
    out = capsys.readouterr().out
    assert "bf01" in out


def test_prior_sweep_pools_when_asked(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "simulate", "prior-sweep",
                   "--config", "configs/arc_pooled.cfg",
                   "--set", "simulate.sweep_n_mc=20000")
    assert code == EXIT_OK
    payload = json.loads(
        (fixture_tree / "out/pooled/simulations/prior_sweep.json").read_text())
    assert payload["counts"] == [[2287, 3548], [2133, 3548]]


def test_console_script_subprocess(fixture_tree):
    result = subprocess.run(
        [sys.executable, "-m", "paircompare.cli", "oracle",
         "--config", "configs/per_item_demo.cfg"],
        cwd=fixture_tree, capture_output=True, text=True)
    assert result.returncode == EXIT_OK, result.stderr
    assert "report written to" in result.stdout
    # The entry point pyproject.toml declares, called the way a console
    # script calls it, so the check holds without installing the package.
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, func = scripts["paircompare"].split(":")
    entry = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.argv = ['paircompare', 'version']; "
         f"from {module} import {func}; sys.exit({func}())"],
        cwd=fixture_tree, capture_output=True, text=True)
    assert entry.returncode == EXIT_OK, entry.stderr
    assert entry.stdout.startswith("paircompare ")
    if shutil.which("paircompare"):
        installed = subprocess.run(["paircompare", "version"],
                                   capture_output=True, text=True)
        assert installed.returncode == EXIT_OK
        assert installed.stdout.startswith("paircompare ")


def test_incomplete_beta_nonconvergence_is_a_handled_error(fixture_tree, monkeypatch, capsys):
    # 10^11 items per system push the incomplete beta's continued fraction
    # past its term limit near the mean; the CLI reports that as an error,
    # not a traceback.
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   "--set", "data.counts=70005000000/100000000000, 70000000000/100000000000",
                   "--set", "analysis.rope_radius=0.00005")
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "did not converge" in err


def test_ten_million_items_complete(fixture_tree, monkeypatch, capsys):
    # Near the mean at 10^7 items the continued fraction needs about 760
    # terms; the quadrature's nodes all sit there.
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   "--set", "data.counts=7000000/10000000, 6995000/10000000",
                   "--set", "analysis.rope_radius=0.0005")
    assert code == EXIT_OK
    report = json.loads((fixture_tree / "out/easy/report.json").read_text())
    quadrature = report["results"]["bayes_factor"]["quadrature"]
    assert 0.0 < quadrature["post_p0"] < 1.0


@pytest.mark.parametrize("overrides", [
    # Posteriors 1,900 sd apart: post_p0 is 0.0 exactly, so bf01 would be 0.
    ("data.counts=900000/1000000, 100000/1000000", "analysis.rope_radius=0.001"),
    # The whole prior sits inside the band: 1 - prior_p0 is zero to rounding.
    ("model.prior=1e9, 1e9", "analysis.rope_radius=0.5"),
])
def test_bayes_factor_outside_its_accurate_range_is_a_handled_error(
        fixture_tree, monkeypatch, capsys, overrides):
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   *(arg for item in overrides for arg in ("--set", item)))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "below 1e-09" in err
    assert "Traceback" not in err


def test_billion_items_at_a_narrow_rope_complete(fixture_tree, monkeypatch, capsys):
    # prior_p0 = 4e-5 would collect 4 hits in 100,000 draws; the exact
    # components need no hits.
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   "--set", "data.counts=700000000/1000000000, 699950000/1000000000",
                   "--set", "analysis.rope_radius=0.00002")
    assert code == EXIT_OK
    report = json.loads((fixture_tree / "out/easy/report.json").read_text())
    quadrature = report["results"]["bayes_factor"]["quadrature"]
    assert quadrature["prior_p0"] == pytest.approx(2 * 2e-5 - 2e-5 ** 2, rel=1e-9)
    assert quadrature["post_p0"] == pytest.approx(0.0713, abs=5e-4)


@pytest.mark.parametrize("target", ["data/per_item_demo.csv", "configs/per_item_demo.cfg"])
def test_non_utf8_input_is_a_handled_error(fixture_tree, monkeypatch, capsys, target):
    path = fixture_tree / target
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/per_item_demo.cfg")
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "per_item_demo" in err


def test_duplicate_dataset_names_are_a_handled_error(fixture_tree, monkeypatch, capsys):
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/arc_pooled.cfg",
                   "--set", "data.names=a, a")
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: duplicate dataset name 'a' (section [data], key 'names')\n")


def test_package_exports_what_the_cli_and_report_use():
    assert paircompare.__all__ == [
        "__version__",
        "AnalysisConfig",
        "AnalysisOutcome",
        "AssessmentError",
        "AssessmentReport",
        "ConfigError",
        "PRIOR_PRESETS",
        "load_observations",
        "optional_stopping_fpr",
        "parse_config_file",
        "prior_sensitivity_sweep",
        "render_config",
        "run_analysis",
        "stopping_comparison",
    ]
    namespace: dict = {}
    exec("from paircompare import *", namespace)
    assert set(paircompare.__all__) <= namespace.keys()
