"""Spans around paircompare's public functions, recorded from outside the package.

``Tracer.install`` replaces each function listed in ``SPANS`` at the name
its caller imports it under (``reporting.run_chains``,
``posterior.regularized_incomplete_beta`` ...) with a wrapper that records a
span: name, parent span, start and end in ``perf_counter_ns``.  Spans stay
in an in-memory array and are written once, when the op ends, as
``FILE.json`` (names, counters, op start and end) plus ``FILE.spans`` (four
int64 per span).  Counters are recorded at the same boundaries, from the
call's arguments and result.

``load`` and ``op_profile`` read a trace back for the benchmark driver.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import time
from array import array
from collections import defaultdict


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _count_draws(counters, args, kwargs, result):
    size = _arg(args, kwargs, 3, "size")
    counters["numerics.sample_beta_draws"] += 1 if size is None else int(size)


def _count_mcmc(counters, args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    counters["mcmc.steps"] += config.chains * (config.warmup + config.draws)
    counters["mcmc.proposals"] += config.chains * config.draws
    counters["mcmc.accepted"] += sum(rate * config.draws for rate in result.accept_rates)
    ess = min(result.ess)
    if math.isfinite(ess):
        counters["mcmc.ess"] += ess


def _count_export(counters, args, kwargs, result):
    counters["mcmc.export_bytes"] += sum(os.path.getsize(p) for p in result)


def _count_report(counters, args, kwargs, result):
    if result.report_path is not None:
        counters["reporting.report_bytes"] += os.path.getsize(result.report_path)


def _count_write(counters, args, kwargs, result):
    counters["fsio.writes"] += 1
    counters["fsio.bytes"] += len(_arg(args, kwargs, 1, "text"))


def _count_looks(counters, args, kwargs, result):
    # A trial runs the test at every look up to its first rejection.
    frc = result.first_rejection_counts
    tests = sum((i + 1) * k for i, k in enumerate(frc))
    tests += (result.trials - result.false_positives) * len(result.looks)
    counters["simulations.look_tests"] += tests


def _count_calls(counter):
    def count(counters, args, kwargs, result):
        counters[counter] += 1
    return count


# (module, attribute, span name, counter hook).  Each entry is the name a
# caller looks up at call time, so wrapping it there catches every call.
SPANS = [
    ("cli", "parse_config_file", "config.parse", None),
    ("cli", "load_observations", "config.load_observations", None),
    ("reporting", "load_observations", "config.load_observations", None),
    ("cli", "run_analysis", "reporting.run_analysis", _count_report),
    ("cli", "optional_stopping_fpr", "simulations.optional_stopping", _count_looks),
    ("cli", "prior_sensitivity_sweep", "simulations.prior_sweep", None),
    ("cli", "atomic_write_text", "fsio.write", _count_write),
    ("reporting", "atomic_write_text", "fsio.write", _count_write),
    ("mcmc", "atomic_write_text", "fsio.write", _count_write),
    ("reporting", "two_proportion_z_test", "frequentist.z_test", None),
    ("reporting", "diff_confidence_interval", "frequentist.ci", None),
    ("reporting", "posterior_pair", "bayes.posterior_pair", None),
    ("reporting", "sample_beta", "numerics.sample_beta", _count_draws),
    ("posterior", "sample_beta", "numerics.sample_beta", _count_draws),
    ("simulations", "sample_beta", "numerics.sample_beta", _count_draws),
    ("mcmc", "sample_beta", "numerics.sample_beta", _count_draws),
    ("reporting", "run_chains", "mcmc.run_chains", _count_mcmc),
    ("mcmc", "rhat", "mcmc.diagnostics", None),
    ("mcmc", "ess", "mcmc.diagnostics", None),
    ("reporting", "export_trace", "mcmc.export_trace", _count_export),
    ("reporting", "emit_plot_data", "reporting.plot_data", None),
    ("reporting", "bayes_factor_interval_null", "posterior.bayes_factor", None),
    ("simulations", "bayes_factor_interval_null", "posterior.bayes_factor", None),
    ("reporting", "hdi_from_samples", "posterior.hdi", None),
    ("simulations", "hdi_from_samples", "posterior.hdi", None),
    ("posterior", "interval_probability_quadrature", "posterior.quadrature",
     _count_calls("posterior.quadrature_calls")),
    ("posterior", "regularized_incomplete_beta", "numerics.incbeta",
     _count_calls("numerics.incbeta_calls")),
    ("reporting", "RngStream", "numerics.rng_stream", _count_calls("numerics.rng_streams")),
    ("mcmc", "RngStream", "numerics.rng_stream", _count_calls("numerics.rng_streams")),
    ("simulations", "RngStream", "numerics.rng_stream", _count_calls("numerics.rng_streams")),
]

_FIELDS = 4  # name id, parent span index, start ns, end ns


class Tracer:
    def __init__(self, start_ns: int):
        self.start_ns = start_ns
        self.names: list[str] = []
        self.spans = array("q")
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        index = len(self.spans) // _FIELDS
        self.spans.extend((name_id, self.stack[-1], 0, 0))
        self.stack.append(index)
        return index

    def _close(self, index: int, start: int, end: int) -> None:
        self.stack.pop()
        self.spans[index * _FIELDS + 2] = start
        self.spans[index * _FIELDS + 3] = end

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter_ns())

    def wrap(self, fn, name: str, hook=None):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, clock())
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self, cli_module):
        """Wrap every ``SPANS`` entry; return the traced ``cli.main``."""
        package = cli_module.__name__.rpartition(".")[0]
        for module_name, attr, name, hook in SPANS:
            module = importlib.import_module(f"{package}.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, hook))
        return self.wrap(cli_module.main, "cli.main")

    def dump(self, path: str) -> None:
        end_ns = time.perf_counter_ns()
        header = {"start_ns": self.start_ns, "end_ns": end_ns, "names": self.names,
                  "counters": dict(self.counters), "missing": self.missing}
        with open(path + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def load(path: str) -> tuple[dict, list[tuple[str, int, int, int]]]:
    """Read a trace back: (header, [(name, parent index, start, end), ...])."""
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    raw = array("q")
    with open(path + ".spans", "rb") as fh:
        raw.frombytes(fh.read())
    names = header["names"]
    spans = [(names[raw[i]], raw[i + 1], raw[i + 2], raw[i + 3])
             for i in range(0, len(raw), _FIELDS)]
    return header, spans


def op_profile(header: dict, spans) -> dict:
    """Per-name inclusive and self time (ns) and call count for one op.

    Self time is a span's duration minus its children's; inclusive time
    counts only the outermost span of a name, so nesting never counts twice.
    ``covered_ns`` is the time inside ``cli.import`` or a span below
    ``cli.main``; ``wall_ns`` runs from the launcher's first line to the end
    of ``cli.main``.
    """
    children = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    inclusive = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    covered = 0
    for i, (name, parent, start, end) in enumerate(spans):
        duration = end - start
        self_ns[name] += duration - children[i]
        calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            inclusive[name] += duration
        if parent < 0 and name != "cli.main":
            covered += duration
        elif parent >= 0 and spans[parent][0] == "cli.main":
            covered += duration
    main_end = max((end for name, _, _, end in spans if name == "cli.main"),
                   default=header["end_ns"])
    return {"inclusive": dict(inclusive), "self": dict(self_ns), "calls": dict(calls),
            "covered_ns": covered, "wall_ns": main_end - header["start_ns"],
            "counters": header["counters"], "missing": header["missing"]}
