"""The grammar's contract, drawn rather than picked: every config the grammar
accepts ends in exit 0, 1 or 2 and never in a traceback.  Exit 1 is one
``error:`` line and writes nothing; exit 0 or 2 writes a report that the
benchmark's own oracle (``perfbench/oracle.py``: the JSON schema, and the
z-test, intervals and conjugate shapes recomputed with scipy) finds no
problem in.

Each example is ``--set`` overrides on ``configs/arc_easy.cfg``, run through
``cli.main`` in process in a fresh directory.  Each exit-1 message is recorded
as a Hypothesis event (``pytest --hypothesis-show-statistics``), so the share
of accepted configs that end without a report can be read off as it moves.
"""

import contextlib
import importlib.util
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, Phase, event, given, settings
from hypothesis import strategies as st

from paircompare.cli import main
from paircompare.config import KNOWN_METHODS

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = REPO_ROOT / "configs" / "arc_easy.cfg"
SCHEMA = REPO_ROOT / "src" / "paircompare" / "schema" / "report.schema.json"
PERFBENCH = REPO_ROOT / "perfbench"


def load_oracle():
    """``perfbench/oracle.py``, loaded by path; it imports its sibling
    ``workloads`` by name, so ``perfbench/`` is on the path while it loads."""
    had_workloads = "workloads" in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH / "oracle.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return module


ORACLE = load_oracle()
VALIDATOR = ORACLE.load_validator(SCHEMA)


def log_uniform_int(high_exponent: float):
    return st.floats(0.0, high_exponent).map(lambda e: max(1, round(10.0 ** e)))


@st.composite
def counts(draw):
    """One item count for both systems, log-uniform up to 10**9; each
    system's correct count at 0, at n, anywhere in between, or a few off the
    other's, so that close and lopsided pairs both come up."""
    n = draw(log_uniform_int(9.0))
    first = draw(st.sampled_from([0, n]) | st.integers(0, n))
    second = draw(st.sampled_from([0, n]) | st.integers(0, n)
                  | st.integers(-3, 3).map(lambda d: min(max(first + d, 0), n)))
    return (first, n), (second, n)


SHAPE = st.floats(0.05, 30.0)


@st.composite
def runs(draw):
    """(argv, what the oracle needs to know about the run's inputs)."""
    command = draw(st.sampled_from(["oracle", "analyze"]))
    (c1, t1), (c2, t2) = draw(counts())
    preset = draw(st.sampled_from([None, *sorted(ORACLE.PRESETS)]))
    prior = ORACLE.PRESETS[preset] if preset else (draw(SHAPE), draw(SHAPE))
    methods = draw(st.lists(st.sampled_from(KNOWN_METHODS), min_size=1, unique=True))
    options = {
        "methods": ", ".join(methods),
        "direction": draw(st.sampled_from(["greater", "less", "two_sided"])),
        "ci_mode": draw(st.sampled_from(["one_sided_pooled_z", "standard_two_sided"])),
        "ci_level": draw(st.sampled_from([0.8, 0.95, 0.99])),
        "rope_radius": draw(st.sampled_from([0.001, 0.01, 0.05])),
        "hdi_mass": draw(st.sampled_from([0.5, 0.95, 1.0]) | st.floats(1e-5, 1.0)),
        "n_mc": 1000,
        "seed": draw(st.integers(0, 2**63 - 1)),
    }
    overrides = {
        "data.counts": f"{c1}/{t1}, {c2}/{t2}",
        "model.prior": preset or f"{prior[0]!r}, {prior[1]!r}",
        **{f"analysis.{key}": repr(value) if isinstance(value, float) else str(value)
           for key, value in options.items()},
        "output.report": "out/report.json",
        "output.plot_dir": "out/plots",
        "output.trace_dir": "out/traces",
    }
    if command == "analyze":
        overrides.update({
            "mcmc.chains": str(draw(st.integers(2, 4))),
            "mcmc.warmup": str(draw(st.integers(0, 200))),
            "mcmc.draws": str(draw(st.integers(1, 200))),
            "mcmc.init": draw(st.sampled_from(["mle_jitter", "prior_draw"])),
        })
    argv = [command, "--config", str(CONFIG)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    # analyze runs the sampler only for a method that reads the posterior.
    sampled = command == "analyze" and not {"hdi_rope", "bayes_factor"}.isdisjoint(methods)
    expected = {"counts": ((c1, t1), (c2, t2)), "prior": prior, "mcmc": sampled,
                **{key: options[key] for key in ("direction", "ci_level", "ci_mode",
                                                 "rope_radius")},
                "alpha": 0.05}
    return argv, expected


def run_main(argv: list[str], cwd: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    before = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(before)
    return code, out.getvalue(), err.getvalue()


def error_kind(line: str) -> str:
    """An error line with its numbers and quoted values blanked, so that
    refusals of one kind count as one event."""
    return re.sub(r"'[^']*'|(?<![\w.])-?\d[\d.e+-]*|\[[^\]]*\]", "_", line)


@given(runs())
@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          phases=set(Phase) - {Phase.explain}, suppress_health_check=[HealthCheck.too_slow])
def test_every_accepted_config_ends_in_a_checked_report_or_one_error_line(run):
    argv, expected = run
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_main(argv, Path(tmp))
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in out + err
        written = sorted(Path(tmp).rglob("*"))
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            assert written == []
            event(f"exit 1: {error_kind(err.strip())}")
            return
        event(f"exit {code}")
        report = json.loads((Path(tmp) / "out" / "report.json").read_text("utf-8"))
    # The quadrature errors are measured, not judged, by the oracle.
    problems, _ = ORACLE.check_report(report, expected, VALIDATOR)
    assert problems == []


def test_the_oracle_catches_a_p_value_off_by_a_millionth(tmp_path):
    argv = ["oracle", "--config", str(CONFIG), "--set", "output.report=out/report.json",
            "--set", "output.plot_dir=out/plots", "--set", "analysis.n_mc=1000"]
    assert run_main(argv, tmp_path)[0] == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text("utf-8"))
    expected = {"counts": ((1721, 2376), (1637, 2376)), "prior": ORACLE.PRESETS["uniform"],
                "mcmc": False, "direction": "greater", "ci_level": 0.95,
                "ci_mode": "one_sided_pooled_z", "rope_radius": 0.01, "alpha": 0.05}
    assert ORACLE.check_report(report, expected, VALIDATOR)[0] == []
    report["results"]["pvalue"]["p_value"] += 1e-6
    problems, _ = ORACLE.check_report(report, expected, VALIDATOR)
    assert [p.split(" ")[0] for p in problems] == ["p_value"]
    del report["results"]["pvalue"]["p_value"]
    assert ORACLE.check_report(report, expected, VALIDATOR)[0][0].startswith("schema:")
