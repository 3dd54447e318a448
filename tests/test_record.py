"""``core.Record`` against ``dataclasses``, its reference.

Every record class in the package gets a test-only frozen dataclass twin with
the same fields, defaults and compare flags.  On sample instances of each,
the two must agree on ``repr``, ``==``, ``hash``, ``fsio.plain``, binding,
and refusing assignment; ``dataclasses`` is imported here as the oracle only.
"""

import dataclasses
import importlib
import pkgutil
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

import paircompare
from paircompare.bayes import BetaParams, PosteriorPair
from paircompare.config import (
    AnalysisConfig,
    AnalysisOptions,
    DataConfig,
    ModelConfig,
    Observations,
    OutputConfig,
    SimulateConfig,
)
from paircompare.core import (
    Direction,
    Hypothesis,
    HypothesisKind,
    ObservationMode,
    Record,
)
from paircompare.errors import ConfigError, DomainError
from paircompare.frequentist import CiMode, ConfidenceInterval, ZTestResult
from paircompare.fsio import plain
from paircompare.mcmc import McmcConfig, Trace
from paircompare.posterior import BayesFactorResult, EventProbability, Hdi
from paircompare.reporting import AnalysisOutcome, AssessmentReport
from paircompare.simulations import OptionalStoppingReport, PriorSweepRow, StoppingComparison

HDI = Hdi(0.01, 0.05, 0.95)
REPORT = AssessmentReport({"package": "paircompare"}, {"counts": [[1, 2], [1, 2]]},
                          {"pvalue": {"z": 0.5}}, {"pvalue": {"value": "undecided"}},
                          {"summary": "text"}, [{"name": "independent_items"}], None)
TRACE = Trace(np.full((2, 3, 2), 0.5), (0.3, 0.4), (0.5, 0.6), (1.001, 1.002),
              (410.0, 420.0), 7, 100, True, ())
OPTIONS = AnalysisOptions(seed=1)

# Two unequal instances of every record class.
SAMPLES = {
    Hypothesis: (Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, 0.01),
                 Hypothesis(HypothesisKind.DIRECTIONAL_MARGIN, margin=0.02,
                            direction=Direction.LESS)),
    BetaParams: (BetaParams(2.0, 3.0), BetaParams(1.0, 1.0)),
    PosteriorPair: (PosteriorPair(BetaParams(3.0, 4.0), BetaParams(5.0, 6.0)),
                    PosteriorPair(BetaParams(3.0, 4.0), BetaParams(5.0, 7.0))),
    EventProbability: (EventProbability(0.3, 0.01, 0.0196, 1000),
                       EventProbability(0.3, 0.01, 0.0196, 2000)),
    ZTestResult: (ZTestResult(1.5, 0.07, Direction.GREATER, 0.05, 0.6, 0.03),
                  ZTestResult(-1.5, 0.93, Direction.LESS, -0.05, 0.6, 0.03)),
    ConfidenceInterval: (
        ConfidenceInterval(0.01, 0.09, 0.95, CiMode.STANDARD_TWO_SIDED, 0.05, 0.02, 1.96),
        ConfidenceInterval(0.02, 0.08, 0.95, CiMode.ONE_SIDED_POOLED_Z, 0.05, 0.02, 1.64)),
    Hdi: (HDI, Hdi(0.01, 0.05, 0.9)),
    BayesFactorResult: (BayesFactorResult(0.5, 0.1, 0.05), BayesFactorResult(2.0, 0.1, 0.18)),
    StoppingComparison: (StoppingComparison(7, 24, 0.5, 0.03, 0.02),
                         StoppingComparison(7, 25, 0.5, 0.03, 0.02)),
    OptionalStoppingReport: (OptionalStoppingReport((10, 20), 0.5, 0.05, 100, 12, 0.12, (5, 7), 42),
                             OptionalStoppingReport((10, 20), 0.5, 0.05, 100, 12, 0.12, (6, 6), 42)),
    PriorSweepRow: (PriorSweepRow("uniform", BetaParams(1.0, 1.0), 0.8, HDI, 0.01),
                    PriorSweepRow("skeptical", BetaParams(3.0, 3.0), 0.9, HDI, 0.01)),
    McmcConfig: (McmcConfig(), McmcConfig(chains=3, warmup=10, draws=20)),
    # Equal only when the samples are the same array: == on two arrays
    # raises, for the dataclass as for the record.
    Trace: (TRACE, Trace(np.full((2, 3, 2), 0.5), (0.3, 0.4), (0.5, 0.6), (1.001, 1.002),
                         (410.0, 420.0), 7, 100, True, ())),
    AssessmentReport: (REPORT, AssessmentReport({}, {}, {}, {}, {}, [], {"chains": 4})),
    AnalysisOutcome: (AnalysisOutcome(REPORT, None, Path("out/report.json")),
                      AnalysisOutcome(REPORT, TRACE, None)),
    DataConfig: (DataConfig(ObservationMode.AGGREGATE, counts=((1, 2), (1, 2))),
                 DataConfig(ObservationMode.PER_ITEM, ("a", "b"), files=("x.csv", "y.csv"),
                            pool=True)),
    ModelConfig: (ModelConfig(), ModelConfig(BetaParams(2.0, 2.0))),
    AnalysisOptions: (OPTIONS, AnalysisOptions(seed=2, methods=("pvalue",), n_mc=5000)),
    OutputConfig: (OutputConfig(), OutputConfig(report="elsewhere/r.json")),
    SimulateConfig: (SimulateConfig(), SimulateConfig(looks_step=5, looks_max=50)),
    AnalysisConfig: (AnalysisConfig(OPTIONS),
                     AnalysisConfig(OPTIONS, DataConfig(ObservationMode.AGGREGATE,
                                                        counts=((1, 2), (1, 2))),
                                    base_dir="configs")),
    Observations: (Observations(("a", "b"), "inline", ((1, 2), (1, 2))),
                   Observations(("a", "b"), "pooled", ((1, 2), (1, 2)))),
}


def package_records() -> set:
    """Every ``Record`` subclass defined in a module of the package."""
    modules = [importlib.import_module(f"paircompare.{info.name}")
               for info in pkgutil.iter_modules(paircompare.__path__)]
    return {obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
            and obj.__module__ == module.__name__}


def twin_class(cls):
    """A frozen dataclass with ``cls``'s fields, defaults, compare flags and methods."""
    specs = []
    for name in cls.fields:
        compare = name in cls._compared
        spec = (dataclasses.field(default=cls.defaults[name], compare=compare)
                if name in cls.defaults else dataclasses.field(compare=compare))
        specs.append((name, object, spec))
    namespace = {key: value for key, value in vars(cls).items()
                 if key not in cls.fields and (not key.startswith("__") or key == "__post_init__")}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


TWINS = {cls: twin_class(cls) for cls in SAMPLES}


def twin(value):
    """``value`` with every record, nested ones too, as its dataclass twin."""
    if isinstance(value, Record):
        return TWINS[type(value)](*(twin(getattr(value, name)) for name in value.fields))
    return value


def dataclass_plain(value):
    """``fsio.plain`` as it read dataclasses."""
    if dataclasses.is_dataclass(value):
        return {f.name: dataclass_plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    return value


def outcome(fn):
    """What calling ``fn`` gives: its value, or the type and text of what it raised."""
    try:
        return "value", fn()
    except Exception as exc:  # what was raised is the outcome compared
        return type(exc), str(exc)


CASES = [pytest.param(cls, id=cls.__name__) for cls in SAMPLES]


def test_every_record_class_has_samples():
    assert package_records() == set(SAMPLES)
    assert len(SAMPLES) == 22


@pytest.mark.parametrize("cls", CASES)
def test_repr_eq_and_hash_match_the_dataclass(cls):
    first, second = SAMPLES[cls]
    rebuilt = cls(*(getattr(first, name) for name in cls.fields))
    for a in (first, second):
        assert repr(a) == repr(twin(a))
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(twin(a)))
        for b in (first, second, rebuilt):
            assert outcome(lambda: a == b) == outcome(lambda: twin(a) == twin(b))
            assert outcome(lambda: a != b) == outcome(lambda: twin(a) != twin(b))
    assert outcome(lambda: first == second) != ("value", True)


def test_records_of_two_classes_differ_even_with_equal_values():
    hdi, factor = Hdi(0.5, 0.1, 0.05), BayesFactorResult(0.5, 0.1, 0.05)
    assert (hdi == factor, hdi != factor) == (twin(hdi) == twin(factor),
                                              twin(hdi) != twin(factor)) == (False, True)


def test_base_dir_is_left_out_of_eq_and_hash():
    bare = AnalysisConfig(OPTIONS)
    placed = bare.replace(base_dir="configs")
    assert bare == placed and twin(bare) == twin(placed)
    assert hash(bare) == hash(placed) == hash(twin(placed))
    assert repr(placed) == repr(twin(placed)) and "base_dir='configs'" in repr(placed)


@pytest.mark.parametrize("cls", CASES)
def test_plain_matches_the_dataclass_key_order_included(cls):
    for sample in SAMPLES[cls]:
        assert repr(plain(sample)) == repr(dataclass_plain(twin(sample)))


@pytest.mark.parametrize("cls", CASES)
def test_binding_matches_the_dataclass(cls):
    sample = SAMPLES[cls][0]
    values = [getattr(sample, name) for name in cls.fields]
    twin_values = [twin(value) for value in values]
    keywords = dict(zip(cls.fields, values))
    twin_keywords = dict(zip(cls.fields, twin_values))
    required = [name for name in cls.fields if name not in cls.defaults]

    assert repr(cls(*values)) == repr(TWINS[cls](*twin_values)) == repr(sample)
    assert repr(cls(**keywords)) == repr(TWINS[cls](**twin_keywords)) == repr(sample)
    # Defaults fill what is left out, and the record checks them as the twin does.
    assert (repr(outcome(lambda: cls(**{name: keywords[name] for name in required})))
            == repr(outcome(lambda: TWINS[cls](**{name: twin_keywords[name] for name in required}))))

    def refused(build, twin_build, name):
        with pytest.raises(TypeError) as err:
            build()
        with pytest.raises(TypeError):
            twin_build()
        assert repr(name) in str(err.value)

    if required:
        refused(cls, TWINS[cls], required[0])
    refused(lambda: cls(**keywords, unknown=1), lambda: TWINS[cls](**twin_keywords, unknown=1),
            "unknown")
    first = cls.fields[0]
    refused(lambda: cls(values[0], **{first: values[0]}),
            lambda: TWINS[cls](twin_values[0], **{first: twin_values[0]}), first)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        TWINS[cls](*twin_values, None)


@pytest.mark.parametrize("cls", CASES)
def test_assignment_and_deletion_are_refused_as_the_dataclass_refuses_them(cls):
    sample = SAMPLES[cls][0]
    before = repr(sample)
    for name in (*cls.fields, "unlisted"):
        for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            with pytest.raises(AttributeError) as err:
                act(sample)
            with pytest.raises(AttributeError) as twin_err:
                act(twin(sample))
            assert str(err.value) == str(twin_err.value)
    assert repr(sample) == before


@pytest.mark.parametrize("cls", CASES)
def test_post_init_runs_on_construction_and_replace(cls, monkeypatch):
    runs = []
    check = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: runs.append(check(self)))
    sample = SAMPLES[cls][0]
    built = cls(*(getattr(sample, name) for name in cls.fields))
    replaced = built.replace()
    assert len(runs) == 2
    assert replaced == built and replaced is not built
    name = cls.fields[-1]
    value = getattr(SAMPLES[cls][1], name)
    assert (repr(built.replace(**{name: value}))
            == repr(dataclasses.replace(twin(built), **{name: twin(value)})))
    assert len(runs) == 3


@pytest.mark.parametrize("sample,changes,error", [
    (BetaParams(2.0, 3.0), {"alpha": 0.0}, DomainError),
    (Hypothesis(HypothesisKind.INTERVAL_NULL, 0.0, 0.01), {"rope_radius": None}, DomainError),
    (McmcConfig(), {"chains": 1}, ConfigError),
    (OPTIONS, {"seed": -1}, ConfigError),
    (OPTIONS, {"seed": None}, ConfigError),
    (SAMPLES[DataConfig][0], {"systems": ("a", "a")}, ConfigError),
    (OutputConfig(), {"report": " padded"}, ConfigError),
    (SimulateConfig(), {"os_trials": 0}, ConfigError),
])
def test_replace_checks_a_bad_value_as_the_dataclass_does(sample, changes, error):
    with pytest.raises(error) as err:
        sample.replace(**changes)
    with pytest.raises(error) as twin_err:
        dataclasses.replace(twin(sample), **changes)
    assert str(err.value) == str(twin_err.value)


def test_replace_refuses_an_unknown_field():
    with pytest.raises(TypeError, match="'bogus'"):
        McmcConfig().replace(bogus=1)
    with pytest.raises(TypeError):
        dataclasses.replace(twin(McmcConfig()), bogus=1)
