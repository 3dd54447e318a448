"""The benchmark's tracer wraps package functions by name; keep those names.

``perfbench/tracing.py`` replaces each ``SPANS`` entry ``(module, attr)`` at
the name its caller imports it under, and its counter hooks read some
arguments by position.  A rename or a reordered signature would only show up
as a missing span in a traced benchmark run, so both are pinned here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from conftest import seed_sequence_generator
from paircompare import mcmc, numerics
from paircompare.bayes import PRIOR_PRESETS, BetaParams
from paircompare.config import parse_config_file
from paircompare.reporting import run_analysis
from paircompare.simulations import prior_sensitivity_sweep

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Targets the package no longer has: the Bayes factor is exact quadrature, so
# ``posterior`` draws nothing, and that quadrature integrates both densities
# by one rule, with no incomplete beta.  Every stream now comes from
# ``numerics.stream``, so no module builds an ``RngStream``.  The prior
# sweep's HDI is exact (``posterior.hdi_of_difference``), so ``simulations``
# neither draws betas nor takes a sampled HDI.  A traced run lists them as
# untraced.
RETIRED_TARGETS = {"posterior.sample_beta", "posterior.regularized_incomplete_beta",
                   "reporting.RngStream", "mcmc.RngStream", "simulations.RngStream",
                   "simulations.sample_beta", "simulations.hdi_from_samples"}


def test_every_wrap_target_resolves(tracing):
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.SPANS
               if not callable(getattr(importlib.import_module(f"paircompare.{module}"),
                                       attr, None))]
    assert sorted(missing) == sorted(RETIRED_TARGETS)


# Counter hooks that read a call argument: (position, parameter name).
HOOK_ARGUMENTS = {
    "_count_mcmc": (2, "config"),
    "_count_draws": (3, "size"),
    "_count_write": (1, "text"),
}


def test_hook_arguments_sit_where_the_hooks_read_them(tracing):
    checked = set()
    misplaced = []
    for module, attr, _, hook in tracing.SPANS:
        if (hook is None or hook.__name__ not in HOOK_ARGUMENTS
                or f"{module}.{attr}" in RETIRED_TARGETS):
            continue
        position, name = HOOK_ARGUMENTS[hook.__name__]
        fn = getattr(importlib.import_module(f"paircompare.{module}"), attr)
        if list(inspect.signature(fn).parameters)[position:position + 1] != [name]:
            misplaced.append(f"{module}.{attr}: {name} at {position}")
        checked.add(hook.__name__)
    assert misplaced == []
    assert checked == set(HOOK_ARGUMENTS)


def _plain_state(state):
    # A bit generator state with every array or tuple as a list of Python ints.
    if isinstance(state, dict):
        return {k: _plain_state(v) for k, v in state.items()}
    if isinstance(state, (np.ndarray, tuple, list)):
        return [int(v) for v in state]
    return state


def test_trials_read_their_stream_keys_and_the_sweep_opens_no_stream(tracing, monkeypatch):
    # Optional stopping sets one Philox to each trial's key in turn: trial t
    # must start exactly where numpy's SeedSequence stream (seed, t) starts.
    # The prior sweep draws nothing, so it opens no stream by any route.
    from paircompare import simulations

    args = (range(10, 101, 10), 0.5, 0.05, 37, 2**40 + 2024)
    plain = simulations.optional_stopping_fpr(*args)
    philox = np.random.Philox
    starts = []

    class RecordingPhilox(philox):
        @property
        def state(self):
            return philox.state.__get__(self)

        @state.setter
        def state(self, value):
            starts.append(_plain_state(value))
            philox.state.__set__(self, value)

    monkeypatch.setattr(np.random, "Philox", RecordingPhilox)
    assert simulations.optional_stopping_fpr(*args) == plain
    assert starts == [_plain_state(seed_sequence_generator(2**40 + 2024, t).bit_generator.state)
                      for t in range(37)]
    monkeypatch.undo()

    opened = []

    def opening(name):
        return lambda *a, **k: opened.append(name)

    monkeypatch.setattr(np.random, "Philox", opening("Philox"))
    monkeypatch.setattr(np.random, "Generator", opening("Generator"))
    monkeypatch.setattr(numerics, "stream", opening("stream"))
    for module in (numerics, simulations):
        monkeypatch.setattr(module, "stream_keys", opening("stream_keys"))
    rows = simulations.prior_sensitivity_sweep(((1721, 2376), (1637, 2376)), PRIOR_PRESETS, 0.01)
    assert len(rows) == len(PRIOR_PRESETS)
    assert opened == []


def test_every_beta_draw_passes_a_traced_name(tracing, monkeypatch, configs_dir):
    # ``numerics.sample_beta_draws`` sums the draws seen at the wrapped
    # ``sample_beta`` names; a draw made under any other name would go
    # uncounted.  Each beta draw takes one top-level gamma draw per shape.
    counted = {"traced": 0, "gamma": 0}
    for module, attr, _, _ in tracing.SPANS:
        if attr != "sample_beta" or f"{module}.{attr}" in RETIRED_TARGETS:
            continue
        target = importlib.import_module(f"paircompare.{module}")

        def traced(a, b, rng, size=None, _fn=getattr(target, attr)):
            counted["traced"] += 1 if size is None else int(size)
            return _fn(a, b, rng, size)

        monkeypatch.setattr(target, attr, traced)
    gamma = numerics._sample_gamma
    depth = [0]

    def top_level_gamma(shape, gen, size):
        if depth[0] == 0:
            counted["gamma"] += size
        depth[0] += 1
        try:
            return gamma(shape, gen, size)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numerics, "_sample_gamma", top_level_gamma)
    run_analysis(parse_config_file(configs_dir / "arc_easy.cfg"), write=False)
    prior_sensitivity_sweep(((1721, 2376), (1637, 2376)), PRIOR_PRESETS, 0.01)
    assert counted["traced"] > 0
    assert 2 * counted["traced"] == counted["gamma"]


def test_export_trace_writes_every_file_through_the_traced_name(tracing, monkeypatch, tmp_path):
    # ``fsio.writes`` counts the writes seen at ``mcmc.atomic_write_text`` and
    # ``mcmc.export_bytes`` sizes the paths ``export_trace`` returns; a file
    # written any other way would go uncounted by both.
    assert ("mcmc", "atomic_write_text") in {(m, a) for m, a, _, _ in tracing.SPANS}
    write = mcmc.atomic_write_text
    written = []

    def counting(path, text):
        written.append(Path(path))
        return write(path, text)

    monkeypatch.setattr(mcmc, "atomic_write_text", counting)
    trace = mcmc.run_chains(BetaParams(1.0, 1.0), ((1721, 2376), (1637, 2376)),
                            mcmc.McmcConfig(chains=3, warmup=50, draws=200), 7)
    paths = mcmc.export_trace(trace, tmp_path)
    assert written == paths
    assert sorted(tmp_path.iterdir()) == sorted(paths)
