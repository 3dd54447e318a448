"""End-to-end command-line behavior, including exit codes."""

import argparse
import hashlib
import importlib.resources
import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import paircompare
from paircompare.cli import EXIT_ERROR, EXIT_NONCONVERGENCE, EXIT_OK, build_parser, main
from paircompare.fsio import atomic_write_text, json_text
from paircompare.posterior import COMPONENT_PER_SHAPE, MAX_SHAPE_SUM, MIN_COMPONENT, MIN_SHAPE

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


@pytest.mark.parametrize("item,message", [
    # The CLI refuses only a missing "="; parse_config checks the key's shape.
    ("foo=1", "error: override 'foo' must look like section.key"),
    ("a.b.c=1", "error: override 'a.b.c' must look like section.key"),
    ("foo", "error: --set expects SECTION.KEY=VALUE, got 'foo'"),
    (".=1", "error: override '.' must look like section.key"),
])
def test_a_set_key_of_the_wrong_shape_is_one_error_line(
        fixture_tree, monkeypatch, capsys, item, message):
    before = sorted(fixture_tree.rglob("*"))
    code = run_cli(monkeypatch, fixture_tree,
                   "analyze", "--config", "configs/arc_easy.cfg", "--set", item)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert sorted(fixture_tree.rglob("*")) == before


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
                   "--config", "configs/per_item_demo.cfg")
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
                   "--config", "configs/arc_pooled.cfg")
    assert code == EXIT_OK
    payload = json.loads(
        (fixture_tree / "out/pooled/simulations/prior_sweep.json").read_text())
    assert payload["counts"] == [[2287, 3548], [2133, 3548]]


# SHA-256 of the files each command writes, by path under out/: every
# command a user runs, run through main in a copy of the shipped tree, with
# the exit code it must return.  A JSON file with a provenance block is
# hashed with the interpreter and numpy versions in it set to fixed strings,
# written again through json_text, so the pins hold on any interpreter;
# every other file is hashed raw.  An entry pins only the files it lists.
# Each digest was recorded before the code that writes its file was last
# sped up, or again by a change that moved those bytes and listed each
# old -> new digest in CHANGES.md.  The digests hold for IEEE doubles, the
# platform libm's exp and log1p, and one numpy SIMD level (README, Tests).
ARC_EASY = ("--config", "configs/arc_easy.cfg")
JEFFREYS_0_3 = ("--set", "data.counts=0/50, 3/50", "--set", "model.prior=0.5, 0.5")
PINNED_OUTPUT = {
    "analyze-arc_easy": (("analyze", *ARC_EASY), EXIT_OK, {
        "easy/report.json": "e812ed7ef25f72b5b66b641a5b5358d7db8ad40fe6a9acff1b8313d8d46d6d8a",
        "easy/traces/chain_0.csv":
            "dbbef6952e0894b2d94fa9a5f62da2d56b066d2330b2d800301aeb144cfc8e86",
        "easy/traces/chain_1.csv":
            "88ea556e09d65fb799e5821db0ac1349b1377c73e6aada6ebc5c1f9aaef4181b",
        "easy/traces/chain_2.csv":
            "8852bf8bc9891551d4e377c5de84ecec82de1e0b0a526b5a657d115cbef5651a",
        "easy/traces/chain_3.csv":
            "8e6fc335dd918ad3bb951bf7ba5ab9359bde39304d42a3bed3cab91b50a109a2",
        "easy/traces/diagnostics.json":
            "2072887b71913dd2993475f038fcbe6cdb04fe2826a0486ed9482fb149c2a033",
        "easy/plots/posterior_theta1.csv":
            "fc406d13051f1596216436b016713207431cdd7c89e590cc34d308ec59af58dd",
        "easy/plots/posterior_theta2.csv":
            "e27d143d319d5020f133269e076ba97897daaa93ea8885f3fee018885f593296",
        "easy/plots/posterior_diff.csv":
            "9ffbda697f7994b8dc44c8893dfedbc665bf962883d068a60191862cd0820222",
    }),
    "analyze-prior_draw": (("analyze", *ARC_EASY, "--set", "mcmc.init=prior_draw"), EXIT_OK, {
        "easy/traces/chain_0.csv":
            "7d8dd1fffa50cffefcdb5b45fbaac435f9ee4c04d1f84425a4951c48b1634559",
        "easy/traces/chain_1.csv":
            "96afcc5dd1f6559dba999f07c1ebfc4b35726c9ca7d8089b8497034fd05adb64",
        "easy/traces/chain_2.csv":
            "1d4e21adb6ea366677c267df41c11c1579c3626fa1f7e41768966f5604e86407",
        "easy/traces/chain_3.csv":
            "27bc7b5aea8ea279186541803e192b780b8a25614aa6e4dd4b20d1ae8bd7d405",
        "easy/traces/diagnostics.json":
            "b05df60021e102bc6ffc927143d96cfef5ff9f0470b522d8e6d72fbf5c5200ca",
        "easy/plots/posterior_theta1.csv":
            "fc406d13051f1596216436b016713207431cdd7c89e590cc34d308ec59af58dd",
        "easy/plots/posterior_theta2.csv":
            "e27d143d319d5020f133269e076ba97897daaa93ea8885f3fee018885f593296",
        "easy/plots/posterior_diff.csv":
            "9ffbda697f7994b8dc44c8893dfedbc665bf962883d068a60191862cd0820222",
    }),
    "analyze-jeffreys_3_chains": (("analyze", *ARC_EASY, "--set", "model.prior=0.5, 0.5",
                                   "--set", "mcmc.chains=3"), EXIT_OK, {
        "easy/traces/chain_0.csv":
            "37fa1b16330431ebfdac97f0ff8cbe13113a0643666d5d959e9d077b5c330770",
        "easy/traces/chain_1.csv":
            "58174d8c98aaddd363f2428b2888a732edd90399e7c4ecef71d42b677e116283",
        "easy/traces/chain_2.csv":
            "f74fc5811e8bedd69e63e37d9bafa9930ebd56b3c3917472d1b32fe5af36fac9",
        "easy/traces/diagnostics.json":
            "c1b57363dbbbe34440b90454e98c35cfbde3376340d95ca42aa258df957ac2e3",
        "easy/plots/posterior_theta1.csv":
            "dfe919efc8b69df462c17180f771ed5a472363e70cefec45558d36ada41ab4fc",
        "easy/plots/posterior_theta2.csv":
            "5e6d056ff33b5ced5761e5c41236fa9339516c8b6093ece79d9adf84f32f6cd9",
        "easy/plots/posterior_diff.csv":
            "ee7ccb4007e568e162b0b6ee404437750efc29ed82559105f0d91eceb43d8f99",
    }),
    # One draw per chain: the report leaves the MCMC HDI null, and the
    # convergence checks fail.
    "analyze-one_draw": (("analyze", *ARC_EASY, "--set", "mcmc.draws=1"), EXIT_NONCONVERGENCE, {
        "easy/traces/chain_0.csv":
            "fdbb48fb24315e23129674665f7212998d475db24901a0ea212c9c71af2617da",
        "easy/traces/chain_1.csv":
            "458567cd13d2021025cfc56a181f8c2aafab799d0f4175803e14d88a36c58ef6",
        "easy/traces/chain_2.csv":
            "a748817307c4c6a4a23944cef48f1cbf995baceebfa509839afd14db4a909f89",
        "easy/traces/chain_3.csv":
            "fa85251a7ed6ffb0677b04c4191b052b8ab4aebb4818971e5896001ecbcc60ea",
        "easy/traces/diagnostics.json":
            "b009fd0db3312f14180daaa9198092c94b7989926dbcc4a84fb23064428da024",
    }),
    "oracle-arc_easy": (("oracle", *ARC_EASY), EXIT_OK, {
        "easy/report.json": "2bb54a9c0c1ef0fe5369748f75dee7dae38d341533bedcde0ca5a62096fed369",
    }),
    "oracle-arc_challenge": (("oracle", "--config", "configs/arc_challenge.cfg"), EXIT_OK, {
        "challenge/report.json":
            "4f349e7db314c416387ddba4ebec34ca069d55d284b9a1b8022d48d03e0d7c3d",
    }),
    "oracle-arc_pooled": (("oracle", "--config", "configs/arc_pooled.cfg"), EXIT_OK, {
        "pooled/report.json": "cecfbd2ccc0c9d0346c020bcf1b876b8b51a38334c2efb4994843485ca2cefb6",
    }),
    "oracle-per_item_demo": (("oracle", "--config", "configs/per_item_demo.cfg"), EXIT_OK, {
        "demo/report.json": "45e43b01f3db29cfadbb21c69c432d0afcf97130ecee7f6b01210d18fb0126de",
    }),
    # The Jeffreys posteriors at these counts have a shape below 1, so their
    # plot data pin the sampler's shape < 1 boost.
    "oracle-jeffreys_0_3": (("oracle", *ARC_EASY, *JEFFREYS_0_3), EXIT_OK, {
        "easy/plots/posterior_diff.csv":
            "07bc2ea59daf1dc5b3473cbf34fcaf6f857ef0f6e1c4bc77b6a95904b81f7bd1",
        "easy/plots/posterior_theta1.csv":
            "5e0f68b52f0f95a5757e00d81056cb7d9755a9634ccb997e40457b391c5d4998",
        "easy/plots/posterior_theta2.csv":
            "e2c93d3cb5d3300760dc462e0ec8c04c92b6947c543e482bb8cef21d2b3b0dd0",
    }),
    "sweep-arc_easy": (("simulate", "prior-sweep", *ARC_EASY), EXIT_OK, {
        "easy/simulations/prior_sweep.json":
            "548ae67cfcb0e045af46fe8260962aa879ac6dd0426a03d8e34a1eeb1308489c",
    }),
    "sweep-jeffreys_0_3": (("simulate", "prior-sweep", *ARC_EASY, *JEFFREYS_0_3), EXIT_OK, {
        "easy/simulations/prior_sweep.json":
            "3351168f2b6dd2096a2c95d3d1b01ed33ed1df615fb0db15296e33b572919140",
    }),
    "stopping": (("simulate", "stopping", *ARC_EASY), EXIT_OK, {
        "easy/simulations/stopping.json":
            "020ad0b51f3d30cabada657c9a93f84d2c3956d26339be0b5e302e956d63e35b",
    }),
    "optional-stopping": (("simulate", "optional-stopping", *ARC_EASY,
                           "--set", "simulate.os_trials=500"), EXIT_OK, {
        "easy/simulations/optional_stopping.json":
            "c6961dc72de7669a30dd496f53c82369cd32b8855dcbc8259410fc916d786304",
    }),
    # The dense schedule (250 looks) and theta 0.3, where nearly every trial
    # has tied bytes that read fallback words.
    "optional-stopping-dense": (("simulate", "optional-stopping", *ARC_EASY,
                                 "--set", "simulate.looks_step=2",
                                 "--set", "simulate.os_trials=4000"), EXIT_OK, {
        "easy/simulations/optional_stopping.json":
            "98d7a3d09098e4f78adfab869340f527cef6cb5eabb97013db72eae7065c0032",
    }),
    "optional-stopping-theta_0_3": (("simulate", "optional-stopping", *ARC_EASY,
                                     "--set", "simulate.os_theta=0.3"), EXIT_OK, {
        "easy/simulations/optional_stopping.json":
            "382db8c23503588fb369807fc9d7686429be7604a729ce20a53c5dbcde825ad6",
    }),
}


def output_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = json.loads(data)
        if "provenance" in payload:
            payload["provenance"].update(python_version="3", numpy_version="1")
            data = json_text(payload).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_output_bytes_pinned(fixture_tree, monkeypatch, capsys, name):
    argv, code, digests = PINNED_OUTPUT[name]
    assert run_cli(monkeypatch, fixture_tree, *argv) == code
    out = fixture_tree / "out"
    assert {rel: output_digest(out / rel) for rel in digests} == digests


def commands(parser: argparse.ArgumentParser, prefix: tuple = ()):
    """Each leaf command of ``parser`` as its tuple of subcommand names."""
    groups = [action.choices for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield prefix
    for choices in groups:
        for name, sub in choices.items():
            yield from commands(sub, prefix + (name,))


def test_every_command_has_a_pinned_output():
    # A new command cannot ship without an entry in PINNED_OUTPUT.
    found = set(commands(build_parser())) - {("version",)}
    assert found >= {("analyze",), ("oracle",), ("simulate", "stopping"),
                     ("simulate", "optional-stopping"), ("simulate", "prior-sweep")}
    pinned = {argv[:len(command)] for argv, _, _ in PINNED_OUTPUT.values() for command in found}
    assert sorted(found - pinned) == []


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


def fresh_interpreter(code: str) -> dict:
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    result = subprocess.run([sys.executable, "-c", f"import gc, json, sys\n{code}"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


GC_STATE = "print(json.dumps({'enabled': gc.isenabled(), 'frozen': gc.get_freeze_count()}))"


def test_cli_import_freezes_its_heap_and_skips_unused_modules():
    state = fresh_interpreter(
        "import paircompare.cli\n"
        "print(json.dumps({'enabled': gc.isenabled(), 'frozen': gc.get_freeze_count(),\n"
        "                  'loaded': [m for m in ('statistics', 'fractions', 'decimal', 'csv',\n"
        "                                         'dataclasses', 'copy')\n"
        "                             if m in sys.modules]}))")
    assert state["loaded"] == []
    assert state["enabled"] and state["frozen"] > 0


def test_cli_import_compiles_no_regular_expression():
    # re.compile, and the re._compile behind it and behind every module-level
    # re function, record the first caller outside re: no package module may
    # compile a pattern while the command-line module imports.
    state = fresh_interpreter(
        "import re\n"
        "callers = set()\n"
        "def recording(compile):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        frame = sys._getframe(1)\n"
        "        while frame.f_globals.get('__name__', '').split('.')[0] == 're':\n"
        "            frame = frame.f_back\n"
        "        callers.add(frame.f_globals.get('__name__', ''))\n"
        "        return compile(*args, **kwargs)\n"
        "    return wrapper\n"
        "re.compile = recording(re.compile)\n"
        "re._compile = recording(re._compile)\n"
        "import paircompare.cli\n"
        "print(json.dumps(sorted(callers)))")
    assert [name for name in state if name.split(".")[0] == "paircompare"] == []


def test_prior_sweep_leaves_numpy_random_unimported(fixture_tree):
    # The sweep draws nothing.  numpy 2 loads numpy.random on first use, so
    # the command must leave it out of sys.modules; numpy 1 loads it with
    # numpy itself, so there the check is that no Philox is built.
    state = fresh_interpreter(
        "import contextlib, io, os, numpy\n"
        f"os.chdir({str(fixture_tree)!r})\n"
        "built = []\n"
        "numpy_2 = numpy.lib.NumpyVersion(numpy.__version__) >= '2.0.0'\n"
        "if not numpy_2:\n"
        "    import numpy.random\n"
        "    class Recording(numpy.random.Philox):\n"
        "        def __init__(self, *args, **kwargs):\n"
        "            built.append(args)\n"
        "            super().__init__(*args, **kwargs)\n"
        "    numpy.random.Philox = Recording\n"
        "from paircompare.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['simulate', 'prior-sweep', '--config', 'configs/arc_pooled.cfg'])\n"
        "print(json.dumps({'code': code, 'numpy_2': numpy_2, 'built': len(built),\n"
        "                  'random': 'numpy.random' in sys.modules}))")
    assert state["code"] == EXIT_OK
    assert state["built"] == 0
    if state["numpy_2"]:
        assert state["random"] is False
    assert (fixture_tree / "out/pooled/simulations/prior_sweep.json").is_file()


@pytest.mark.parametrize("host, collecting", [
    ("", True), ("gc.disable()", False), ("gc.freeze()", True),
], ids=["gc_enabled", "gc_disabled", "host_froze"])
def test_package_import_leaves_the_collector_as_it_found_it(host, collecting):
    # Only the command-line module freezes: a host that imports the package
    # keeps its collector on or off, and frozen exactly what it froze.
    state = fresh_interpreter(f"{host}\nbefore = gc.get_freeze_count()\nimport paircompare\n"
                              "print(json.dumps({'enabled': gc.isenabled(), 'before': before,\n"
                              "                  'after': gc.get_freeze_count()}))")
    assert state["enabled"] is collecting
    assert state["after"] == state["before"]
    assert (state["before"] > 0) is (host == "gc.freeze()")


@pytest.mark.parametrize("blocked", ["paircompare.simulations", "argparse"])
def test_a_failed_import_turns_the_collector_back_on(blocked):
    # A module that cannot be imported fails the package's import (the last
    # of __init__'s imports) or the command-line module's (its first): the
    # collector is back on, and nothing is frozen.
    state = fresh_interpreter(f"sys.modules[{blocked!r}] = None\n"
                              "try:\n    import paircompare.cli\n"
                              "except ImportError:\n    pass\nelse:\n    sys.exit(3)\n"
                              f"{GC_STATE}")
    assert state == {"enabled": True, "frozen": 0}


def test_incomplete_beta_nonconvergence_is_a_handled_error(fixture_tree, monkeypatch, capsys):
    # 10^11 items per system once pushed an incomplete beta's continued
    # fraction past its term limit.  The interval probability now refuses
    # shapes summing past MAX_SHAPE_SUM, where its error would pass 1e-6;
    # the CLI reports that refusal as an error, not a traceback.
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   "--set", "data.counts=70005000000/100000000000, 70000000000/100000000000",
                   "--set", "analysis.rope_radius=0.00005")
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"sum <= {MAX_SHAPE_SUM:g}" in err
    assert "Traceback" not in err


def test_tiny_prior_shapes_are_a_handled_error(fixture_tree, monkeypatch, capsys):
    # Shapes of 1e-300 put their mass beyond the quadrature's outermost
    # nodes; the prior's interval probability refuses them.
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   "--set", "model.prior=1e-300, 1e-300")
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"shapes >= {MIN_SHAPE:g}" in err
    assert "Traceback" not in err


def test_ten_million_items_complete(fixture_tree, monkeypatch, capsys):
    # At 10^7 items both posteriors are 14 sd windows about 0.004 wide;
    # the inner integrals run over panels cut to the wider one's window.
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
    # 1 - post_p0 is 2.0e-9 at 10^8 items and 2.95e-10 at 10^9, in the normal
    # limit; the quadrature's error at these sizes is of that order.
    ("data.counts=50000000/100000000, 50000000/100000000", "analysis.rope_radius=0.0004243"),
    ("data.counts=500000000/1000000000, 500000000/1000000000", "analysis.rope_radius=0.0001409"),
])
def test_bayes_factor_outside_its_accurate_range_is_a_handled_error(
        fixture_tree, monkeypatch, capsys, overrides):
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   *(arg for item in overrides for arg in ("--set", item)))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert " is below " in err
    assert f"the larger of {MIN_COMPONENT:g} and {COMPONENT_PER_SHAPE:g} (a + b)" in err
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


@pytest.mark.parametrize("command,overrides,message", [
    # Shapes this small underflow both gammas of a beta draw, so a prior
    # draw can be 0, 1 or NaN, none of which has a logit to start a chain at.
    ("analyze", ("mcmc.init=prior_draw", "model.prior=0.001, 0.001"), "has no logit"),
    ("oracle", ("output.report=",), "report must end in a file name"),
    # A trace directory under a regular file cannot be created.
    ("analyze", ("output.trace_dir=configs/arc_easy.cfg/traces",),
     "cannot write configs/arc_easy.cfg/traces/chain_0.csv"),
])
def test_unusable_chain_start_or_report_path_is_a_handled_error(
        fixture_tree, monkeypatch, capsys, command, overrides, message):
    code = run_cli(monkeypatch, fixture_tree,
                   command, "--config", "configs/arc_easy.cfg",
                   *(arg for item in overrides for arg in ("--set", item)))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,override", [
    ("oracle", "analysis.n_mc=1000000000000000"),
    ("analyze", "mcmc.draws=1000000000000000"),
])
def test_a_size_numpy_refuses_is_a_handled_error(
        fixture_tree, monkeypatch, capsys, command, override):
    # 10^15 doubles lie past the 128 TiB user address space, so numpy refuses
    # the first such array at once.  Sizes it can map but the machine cannot
    # back end in an out-of-memory kill, not an exception, and are not run.
    code = run_cli(monkeypatch, fixture_tree,
                   command, "--config", "configs/arc_easy.cfg", "--set", override)
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert list((fixture_tree / "out").rglob("*")) == []


def test_a_failed_write_leaves_no_temp_file(fixture_tree, monkeypatch, capsys):
    # The report's temp file is written whole; renaming it onto a directory
    # then fails.  Exit 1 writes no file, so the temp file goes too.
    (fixture_tree / "out" / "report.json").mkdir(parents=True)
    code = run_cli(monkeypatch, fixture_tree,
                   "oracle", "--config", "configs/arc_easy.cfg",
                   "--set", "output.report=out/report.json")
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write out/report.json: ")
    assert len(err.splitlines()) == 1
    assert list(fixture_tree.rglob("*.tmp")) == []
    assert list((fixture_tree / "out").rglob("*")) == [fixture_tree / "out" / "report.json"]


def test_sliced_writes_keep_every_character(tmp_path):
    # Multi-byte characters sit on both sides of each 64 KiB slice boundary.
    text = ("é" + "x" * 65533 + "θ₁") * 3 + "\n"
    path = atomic_write_text(tmp_path / "a" / "text.txt", text)
    assert path.read_bytes() == text.encode("utf-8")
    assert list(tmp_path.rglob("*.tmp")) == []


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
