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

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves(tracing):
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.SPANS
               if not callable(getattr(importlib.import_module(f"paircompare.{module}"),
                                       attr, None))]
    assert missing == []


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
        if hook is None or hook.__name__ not in HOOK_ARGUMENTS:
            continue
        position, name = HOOK_ARGUMENTS[hook.__name__]
        fn = getattr(importlib.import_module(f"paircompare.{module}"), attr)
        if list(inspect.signature(fn).parameters)[position:position + 1] != [name]:
            misplaced.append(f"{module}.{attr}: {name} at {position}")
        checked.add(hook.__name__)
    assert misplaced == []
    assert checked == set(HOOK_ARGUMENTS)


def test_optional_stopping_builds_one_stream_per_trial_at_the_traced_name(tracing, monkeypatch):
    # The tracer counts ``numerics.rng_streams`` by wrapping
    # ``simulations.RngStream``; the trial loop must look the name up there
    # and build exactly one stream per trial, or the span and counter go
    # silent.
    from paircompare import simulations

    assert ("simulations", "RngStream") in {(m, a) for m, a, _, _ in tracing.SPANS}
    args = (range(10, 101, 10), 0.5, 0.05, 37, 2024)
    plain = simulations.optional_stopping_fpr(*args)
    stream = simulations.RngStream
    calls = []

    def counting(*a, **k):
        calls.append(a)
        return stream(*a, **k)

    monkeypatch.setattr(simulations, "RngStream", counting)
    assert simulations.optional_stopping_fpr(*args) == plain
    assert calls == [(2024, t) for t in range(37)]
