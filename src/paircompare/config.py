"""Configuration grammar and observation ingestion.

Config files are INI-style: ``[section]`` headers, ``key = value`` lines,
``#`` comments, UTF-8 text.  Keys are case-sensitive.  List values are
comma-separated.  ``render_config`` writes the canonical form, and
``parse_config(render_config(c))`` always reproduces ``c``.

Every range and cross-field rule lives in the ``__post_init__`` of the
dataclass that holds the value, so a config built or ``replace``-d in code
is checked exactly as one parsed from text; the parsers here check syntax.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

from .bayes import BetaParams, PRIOR_PRESETS
from .core import Counts, Direction, ObservationMode
from .errors import ConfigError, DomainError, IngestError, IoError, check_config
from .frequentist import CiMode
from .mcmc import McmcConfig

KNOWN_METHODS = ("pvalue", "ci", "hdi_rope", "bayes_factor")


@dataclass(frozen=True)
class DataConfig:
    mode: ObservationMode
    counts: Counts | None = None
    files: tuple[str, ...] = ()
    names: tuple[str, ...] = ()
    systems: tuple[str, str] = ("system1", "system2")
    pool: bool = False

    @property
    def dataset_names(self) -> tuple[str, ...]:
        """Each file's dataset name: given in ``names``, or else the file's stem."""
        return self.names or tuple(Path(f).stem for f in self.files)

    def __post_init__(self):
        datasets = self.dataset_names
        duplicate = next((n for i, n in enumerate(datasets) if n in datasets[:i]), None)
        inline = self.counts is not None
        check_config("data", [
            ("systems", len(self.systems) == 2 and self.systems[0] != self.systems[1],
             "expected two distinct system names"),
            *(("counts", total >= 1 and 0 <= correct <= total,
               f"counts '{correct}/{total}' out of range")
              for correct, total in self.counts or ()),
            ("counts", inline != bool(self.files),
             "exactly one of counts and files must be given"),
            ("counts", not inline or self.mode is ObservationMode.AGGREGATE,
             "inline counts require aggregate format"),
            ("names", not inline or len(self.names) <= 1,
             "inline counts describe a single dataset"),
            ("names", not (self.files and self.names) or len(self.names) == len(self.files),
             f"expected {len(self.files)} names for {len(self.files)} files"),
            ("names" if self.names else "files", duplicate is None,
             f"duplicate dataset name {duplicate!r}"),
            ("pool", self.pool or len(datasets) <= 1,
             "several datasets need pool = true; analyze them separately otherwise"),
        ])


@dataclass(frozen=True)
class ModelConfig:
    prior_label: str = "uniform"
    prior: BetaParams = PRIOR_PRESETS["uniform"]

    def __post_init__(self):
        # A preset label names its shapes, so two priors never share one label.
        check_config("model", [(
            "prior",
            self.prior_label == "custom" or PRIOR_PRESETS.get(self.prior_label) == self.prior,
            f"prior label {self.prior_label!r} is neither 'custom' nor the preset of these shapes",
        )])


@dataclass(frozen=True)
class AnalysisOptions:
    seed: int
    methods: tuple[str, ...] = KNOWN_METHODS
    alpha: float = 0.05
    ci_level: float = 0.95
    ci_mode: CiMode = CiMode.STANDARD_TWO_SIDED
    hdi_mass: float = 0.95
    rope_radius: float = 0.01
    margin: float = 0.01
    direction: Direction = Direction.GREATER
    n_mc: int = 100_000

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("missing required key (set it here or pass --seed)",
                              section="analysis", key="seed")
        unknown = next((m for m in self.methods if m not in KNOWN_METHODS), None)
        check_config("analysis", [
            ("methods", unknown is None,
             f"unknown method {unknown!r} (expected a subset of {', '.join(KNOWN_METHODS)})"),
            ("seed", self.seed >= 0, "seed must be non-negative"),
            # Every RNG stream is keyed by the seed, which Philox takes below 2**63.
            ("seed", self.seed < 2**63, "seed must be below 2**63"),
            ("methods", len(self.methods) >= 1, "methods must name at least one method"),
            ("methods", len(set(self.methods)) == len(self.methods), "methods must not repeat"),
            ("alpha", 0.0 < self.alpha < 1.0, "alpha must lie in (0, 1)"),
            ("ci_level", 0.0 < self.ci_level < 1.0, "ci_level must lie in (0, 1)"),
            ("hdi_mass", 0.0 < self.hdi_mass <= 1.0, "hdi_mass must lie in (0, 1]"),
            ("rope_radius", 0.0 < self.rope_radius < 1.0, "rope_radius must lie in (0, 1)"),
            ("margin", -1.0 <= self.margin <= 1.0, "margin must lie in [-1, 1]"),
            ("n_mc", self.n_mc >= 1000, "n_mc must be at least 1000"),
        ])


@dataclass(frozen=True)
class OutputConfig:
    report: str = "out/report.json"
    plot_dir: str = "out/plots"
    trace_dir: str = "out/traces"
    sim_dir: str = "out/simulations"


@dataclass(frozen=True)
class SimulateConfig:
    stopping_successes: int = 7
    stopping_trials: int = 24
    stopping_null_rate: float = 0.5
    looks_step: int = 10
    looks_max: int = 500
    os_alpha: float = 0.05
    os_trials: int = 10_000
    os_theta: float = 0.5
    sweep_epsilon: float = 0.01
    sweep_n_mc: int = 100_000

    def __post_init__(self):
        check_config("simulate", [(key, ok, "value out of range") for key, ok in [
            ("stopping_trials", self.stopping_trials >= 1),
            ("stopping_successes", 1 <= self.stopping_successes <= self.stopping_trials),
            ("stopping_null_rate", 0.0 < self.stopping_null_rate <= 1.0),
            ("looks_step", self.looks_step >= 2),
            ("looks_max", self.looks_max >= self.looks_step),
            ("os_alpha", 0.0 < self.os_alpha < 1.0),
            ("os_trials", self.os_trials >= 1),
            ("os_theta", 0.0 < self.os_theta < 1.0),
            ("sweep_epsilon", 0.0 < self.sweep_epsilon < 1.0),
            ("sweep_n_mc", self.sweep_n_mc >= 1000),
        ]])


@dataclass(frozen=True)
class AnalysisConfig:
    analysis: AnalysisOptions
    data: DataConfig | None = None
    model: ModelConfig = ModelConfig()
    mcmc: McmcConfig = McmcConfig()
    output: OutputConfig = OutputConfig()
    simulate: SimulateConfig = SimulateConfig()
    # Directory the config file came from; relative data paths resolve
    # against it.  Not part of the grammar, so not compared or rendered.
    base_dir: str | None = field(default=None, compare=False)


# Sections whose keys are exactly their dataclass's fields, in file order.
_FIELD_SECTIONS = {"analysis": AnalysisOptions, "mcmc": McmcConfig,
                   "output": OutputConfig, "simulate": SimulateConfig}


def _raw_parse(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        interpolation=None,
        strict=True,
    )
    parser.optionxform = str  # keys stay case-sensitive
    try:
        parser.read_string(text)
    except configparser.DuplicateSectionError as exc:
        raise ConfigError("duplicate section", section=exc.section,
                          line=exc.lineno) from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError("duplicate key", section=exc.section, key=exc.option,
                          line=exc.lineno) from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError("content before the first [section] header",
                          line=exc.lineno) from exc
    except configparser.ParsingError as exc:
        first = exc.errors[0] if getattr(exc, "errors", None) else None
        line = first[0] if first else None
        raise ConfigError("cannot parse line", line=line) from exc
    return {section: dict(parser.items(section)) for section in parser.sections()}


class _Section:
    """Typed access to one raw section with uniform error context."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = dict(values)

    def error(self, message: str, key: str | None = None) -> ConfigError:
        return ConfigError(message, section=self.name, key=key)

    def reject_unknown(self, known: tuple[str, ...]) -> None:
        for key in self.values:
            if key not in known:
                raise self.error(f"unknown key (expected one of {', '.join(known)})", key)

    def has(self, key: str) -> bool:
        return key in self.values

    def raw(self, key: str) -> str:
        return self.values[key].strip()

    def get_str(self, key: str, default: str) -> str:
        return self.raw(key) if self.has(key) else default

    def get_int(self, key: str, default: int | None) -> int | None:
        if not self.has(key):
            return default
        try:
            return int(self.raw(key))
        except ValueError:
            raise self.error(f"expected an integer, got {self.raw(key)!r}", key) from None

    def get_float(self, key: str, default: float | None) -> float | None:
        if not self.has(key):
            return default
        try:
            return float(self.raw(key))
        except ValueError:
            raise self.error(f"expected a number, got {self.raw(key)!r}", key) from None

    def get_bool(self, key: str, default: bool) -> bool:
        if not self.has(key):
            return default
        raw = self.raw(key)
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise self.error(f"expected true or false, got {raw!r}", key)

    def get_list(self, key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        if not self.has(key):
            return default
        items = tuple(part.strip() for part in self.raw(key).split(","))
        if any(not part for part in items):
            raise self.error("list has an empty element", key)
        return items

    def get_choice(self, key: str, choices: dict[str, object], default):
        if not self.has(key):
            return default
        raw = self.raw(key)
        if raw not in choices:
            raise self.error(
                f"expected one of {', '.join(sorted(choices))}, got {raw!r}", key)
        return choices[raw]


def parse_config(text: str, overrides: dict[str, str] | None = None) -> AnalysisConfig:
    """Parse config text into a validated :class:`AnalysisConfig`.

    ``overrides`` maps dotted ``section.key`` names to raw string values and
    is applied before validation, mirroring the CLI ``--set`` flag.

    Raises
    ------
    ConfigError
        On syntax errors, unknown sections or keys, missing required keys,
        or out-of-range values; the error carries section/key/line context.
    """
    raw = _raw_parse(text)
    if overrides:
        for dotted, value in overrides.items():
            if dotted.count(".") != 1:
                raise ConfigError(f"override {dotted!r} must look like section.key")
            section, key = dotted.split(".")
            raw.setdefault(section, {})[key] = value

    known_sections = ("data", "model", *_FIELD_SECTIONS)
    for section in raw:
        if section not in known_sections:
            raise ConfigError(
                f"unknown section (expected one of {', '.join(known_sections)})",
                section=section)

    data = _parse_data(raw.get("data"))
    model = _parse_model(raw.get("model"))
    sections = {name: _read_fields(_Section(name, raw.get(name) or {}), cls)
                for name, cls in _FIELD_SECTIONS.items()}
    return AnalysisConfig(data=data, model=model, **sections)


def _parse_data(values: dict[str, str] | None) -> DataConfig | None:
    if values is None:
        return None
    sec = _Section("data", values)
    sec.reject_unknown(("format", "counts", "files", "names", "systems", "pool"))
    mode = sec.get_choice("format", {m.value: m for m in ObservationMode}, None)
    if mode is None:
        raise sec.error("missing required key", "format")
    systems = sec.get_list("systems", DataConfig.systems)
    names = sec.get_list("names", ())
    files = sec.get_list("files", ())
    counts = _parse_counts(sec) if sec.has("counts") else None
    return DataConfig(mode=mode, counts=counts, files=files, names=names,
                      systems=systems, pool=sec.get_bool("pool", False))


def _parse_counts(sec: _Section) -> Counts:
    parts = sec.get_list("counts", ())
    if len(parts) != 2:
        raise sec.error("expected two correct/total pairs", "counts")
    pairs = []
    for part in parts:
        try:
            correct, total = (int(b) for b in part.split("/"))
        except ValueError:
            raise sec.error(f"expected correct/total, got {part!r}", "counts") from None
        pairs.append((correct, total))
    return (pairs[0], pairs[1])


def _parse_model(values: dict[str, str] | None) -> ModelConfig:
    sec = _Section("model", values or {})
    sec.reject_unknown(("prior",))
    raw = sec.get_str("prior", "uniform")
    if raw in PRIOR_PRESETS:
        return ModelConfig(prior_label=raw, prior=PRIOR_PRESETS[raw])
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise sec.error(f"expected one of {', '.join(sorted(PRIOR_PRESETS))} "
                        f"or 'alpha, beta', got {raw!r}", "prior")
    try:
        return ModelConfig(prior_label="custom",
                           prior=BetaParams(float(parts[0]), float(parts[1])))
    except ValueError:
        raise sec.error(f"expected a preset name or 'alpha, beta', got {raw!r}",
                        "prior") from None
    except DomainError:
        raise sec.error("prior shape parameters must be positive and finite", "prior") from None


_READERS = {"bool": _Section.get_bool, "int": _Section.get_int,
            "float": _Section.get_float, "str": _Section.get_str}


def _read_fields(sec: _Section, cls):
    """An instance of dataclass ``cls`` read from one section.

    Each field's annotation (or, for enums and lists, its default) picks the
    parser, and absent keys keep the field default, so every default lives
    only in the dataclass.  A field without a default reads as ``None``.
    """
    sec.reject_unknown(tuple(f.name for f in fields(cls)))
    values = {}
    for f in fields(cls):
        default = None if f.default is MISSING else f.default
        if isinstance(default, Enum):
            choices = {member.value: member for member in type(default)}
            values[f.name] = sec.get_choice(f.name, choices, default)
        elif isinstance(default, tuple):
            values[f.name] = sec.get_list(f.name, default)
        else:
            values[f.name] = _READERS[f.type](sec, f.name, default)
    return cls(**values)


def parse_config_file(path, overrides: dict[str, str] | None = None) -> AnalysisConfig:
    """Read and parse a config file; relative data paths resolve against it."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read config file {p}: {exc}") from exc
    config = parse_config(text, overrides)
    return replace(config, base_dir=str(p.parent))


def render_config(config: AnalysisConfig) -> str:
    """Canonical text form of a config; ``parse_config`` inverts it exactly."""
    lines = []
    if config.data is not None:
        d = config.data
        lines.append("[data]")
        lines.append(f"format = {d.mode.value}")
        lines.append(f"systems = {_render_value(d.systems)}")
        if d.counts is not None:
            (c1, t1), (c2, t2) = d.counts
            lines.append(f"counts = {c1}/{t1}, {c2}/{t2}")
        if d.files:
            lines.append(f"files = {_render_value(d.files)}")
        if d.names:
            lines.append(f"names = {_render_value(d.names)}")
        lines.append(f"pool = {_render_value(d.pool)}")
        lines.append("")
    m = config.model
    lines.append("[model]")
    if m.prior_label in PRIOR_PRESETS:
        lines.append(f"prior = {m.prior_label}")
    else:
        lines.append(f"prior = {m.prior.alpha!r}, {m.prior.beta!r}")
    lines.append("")
    for name in _FIELD_SECTIONS:
        section = getattr(config, name)
        lines.append(f"[{name}]")
        lines.extend(f"{f.name} = {_render_value(getattr(section, f.name))}"
                     for f in fields(section))
        lines.append("")
    return "\n".join(lines)


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(value)
    return str(value)


@dataclass(frozen=True)
class Observations:
    """What ingest hands every later layer: one dataset's per-system counts."""

    systems: tuple[str, str]
    name: str
    counts: Counts


def load_observations(config: AnalysisConfig) -> Observations:
    """Read the observations a config points at and fold them into counts.

    Inline counts are used as given; files are read as CSV (UTF-8, LF or
    CRLF), per-item rows summed as they are read.  When the config asks for
    pooling, the datasets' counts are summed into one dataset named
    ``pooled``.  This is the only place that knows the observation format.

    Raises
    ------
    ConfigError
        If the config has no [data] section.
    IngestError
        For unreadable or structurally invalid files, with path and row.
    """
    if config.data is None:
        raise ConfigError("a [data] section is required to load observations",
                          section="data")
    d = config.data
    if d.counts is not None:
        datasets = [(d.names[0] if d.names else "inline", d.counts)]
    else:
        read = _read_aggregate_csv if d.mode is ObservationMode.AGGREGATE else _read_per_item_csv
        datasets = []
        for file_name, name in zip(d.files, d.dataset_names):
            path = Path(file_name)
            if not path.is_absolute() and config.base_dir is not None:
                path = Path(config.base_dir) / path
            datasets.append((name, read(path, d.systems)))
    if d.pool:
        pooled = tuple((sum(c[k][0] for _, c in datasets), sum(c[k][1] for _, c in datasets))
                       for k in (0, 1))
        return Observations(d.systems, "pooled", pooled)
    # DataConfig allows several datasets only when they are pooled.
    [(name, counts)] = datasets
    return Observations(d.systems, name, counts)


def _open_rows(path: Path):
    """Stream a CSV data file's rows; a read or decode failure at any row is an IngestError."""
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot read data file: {exc}", path=str(path)) from exc


def _read_aggregate_csv(path: Path, systems: tuple[str, str]) -> Counts:
    rows = _open_rows(path)
    if next(rows, None) != ["system", "correct", "total"]:
        raise IngestError("expected header 'system,correct,total'", path=str(path), row=1)
    by_system: dict[str, tuple[int, int]] = {}
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise IngestError("expected 3 columns", path=str(path), row=lineno)
        system, correct_s, total_s = (cell.strip() for cell in row)
        if system not in systems:
            raise IngestError(f"unknown system {system!r} (expected {systems[0]!r} or {systems[1]!r})",
                              path=str(path), row=lineno)
        if system in by_system:
            raise IngestError(f"system {system!r} appears twice", path=str(path), row=lineno)
        try:
            correct, total = int(correct_s), int(total_s)
        except ValueError:
            raise IngestError("correct and total must be integers",
                              path=str(path), row=lineno) from None
        if total < 1 or not 0 <= correct <= total:
            raise IngestError(f"counts {correct}/{total} out of range",
                              path=str(path), row=lineno)
        by_system[system] = (correct, total)
    for system in systems:
        if system not in by_system:
            raise IngestError(f"no row for system {system!r}", path=str(path))
    return (by_system[systems[0]], by_system[systems[1]])


def _read_per_item_csv(path: Path, systems: tuple[str, str]) -> Counts:
    rows = _open_rows(path)
    first = next(rows, None)
    if first is None:
        raise IngestError("file is empty", path=str(path))
    header = [cell.strip() for cell in first]
    if len(header) != 3 or header[0] != "item_id" or set(header[1:]) != set(systems):
        raise IngestError(
            f"expected header 'item_id,{systems[0]},{systems[1]}'", path=str(path), row=1)
    col1 = header.index(systems[0])
    col2 = header.index(systems[1])
    correct = [0, 0]
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise IngestError("expected 3 columns", path=str(path), row=lineno)
        cells = [cell.strip() for cell in row]
        item_id = cells[0]
        if not item_id:
            raise IngestError("empty item_id", path=str(path), row=lineno)
        if item_id in seen:
            raise IngestError(f"duplicate item_id {item_id!r}", path=str(path), row=lineno)
        seen.add(item_id)
        for k, col in enumerate((col1, col2)):
            if cells[col] not in ("0", "1"):
                raise IngestError(f"outcomes must be 0 or 1, got {cells[col]!r}",
                                  path=str(path), row=lineno)
            correct[k] += cells[col] == "1"
    if not seen:
        raise IngestError("no data rows", path=str(path))
    n = len(seen)
    return ((correct[0], n), (correct[1], n))
