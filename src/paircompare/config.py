"""Configuration grammar and observation ingestion.

Config files are INI-style: ``[section]`` headers, ``key = value`` lines,
``#`` comments, UTF-8 text.  Keys are case-sensitive.  List values are
comma-separated.  ``render_config`` writes the canonical form, and
``parse_config(render_config(c))`` always reproduces ``c``.

Each of the six sections is a record (``core.Record``) defined here, whose
fields are its keys; a field's annotation picks the codec that reads and
writes its text.  Every range and cross-field rule lives in the record's
``__post_init__``, so a config built or ``replace``-d in code is checked
exactly as one parsed.
"""

from __future__ import annotations

import configparser
import functools
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .bayes import BetaParams, PRIOR_PRESETS
from .core import Counts, Direction, ObservationMode, Record
from .errors import ConfigError, DomainError, IngestError, IoError, check_config
from .frequentist import CiMode
from .numerics import FIRST_RESERVED_STREAM

KNOWN_METHODS = ("pvalue", "ci", "hdi_rope", "bayes_factor")


def _unwritable(text: str) -> bool:
    """Whether config text cannot hold ``text`` as written: the parser splits
    lines, strips padding, and drops a '#' comment that opens a value or
    follows whitespace.  "Padding" is what ``str.isspace`` calls whitespace, as
    for a regular expression's ``\\s``; no pattern is compiled."""
    return (any(c < "\x20" or "\x7f" <= c <= "\x9f" or c in "\u2028\u2029" for c in text)
            or text[:1].isspace() or text[-1:].isspace()
            or any(c == "#" and (i == 0 or text[i - 1].isspace()) for i, c in enumerate(text)))


def _unwritable_element(text: str) -> bool:
    # A list element also cannot be empty or hold the comma that separates elements.
    return not text or "," in text or _unwritable(text)


class DataConfig(Record):
    format: ObservationMode
    systems: tuple[str, str] = ("system1", "system2")
    counts: Counts | None = None
    files: tuple[str, ...] = ()
    names: tuple[str, ...] = ()
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
            ("format", self.format is not None, "missing required key"),
            *((key, not any(map(_unwritable_element, getattr(self, key))),
               "config text cannot hold an element that is empty or has a comma, "
               "control character, padding or '#' comment")
              for key in ("systems", "files", "names")),
            ("systems", len(self.systems) == 2 and self.systems[0] != self.systems[1],
             "expected two distinct system names"),
            *(("counts", total >= 1 and 0 <= correct <= total,
               f"counts '{correct}/{total}' out of range")
              for correct, total in self.counts or ()),
            ("counts", inline != bool(self.files),
             "exactly one of counts and files must be given"),
            ("counts", not inline or self.format is ObservationMode.AGGREGATE,
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


class ModelConfig(Record):
    prior: BetaParams = PRIOR_PRESETS["uniform"]


class AnalysisOptions(Record):
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


class InitStrategy(Enum):
    # Start at the smoothed observed rate (correct + 1) / (total + 2) with a
    # little logit-space noise.
    MLE_JITTER = "mle_jitter"
    PRIOR_DRAW = "prior_draw"


class McmcConfig(Record):
    """The ``[mcmc]`` section, read by ``mcmc.run_chains``.

    Chain k draws from RNG stream k, so ``chains`` stays below
    ``FIRST_RESERVED_STREAM``, where the streams of other draws begin.
    """

    enabled: bool = True
    chains: int = 4
    warmup: int = 1000
    draws: int = 5000
    init: InitStrategy = InitStrategy.MLE_JITTER

    def __post_init__(self):
        check_config("mcmc", [
            ("chains", self.chains >= 2, "need at least 2 chains"),
            ("chains", self.chains < FIRST_RESERVED_STREAM,
             f"chains must stay below {FIRST_RESERVED_STREAM}, the first reserved stream index"),
            ("warmup", self.warmup >= 0, "warmup must be non-negative"),
            ("draws", self.draws >= 1, "draws must be positive"),
        ])


class OutputConfig(Record):
    report: str = "out/report.json"
    plot_dir: str = "out/plots"
    trace_dir: str = "out/traces"
    sim_dir: str = "out/simulations"

    def __post_init__(self):
        check_config("output", [
            *((name, not _unwritable(getattr(self, name)),
               "config text cannot hold a value with a control character, padding or '#' comment")
              for name in self.fields),
            # The report is written through a temp file beside it, named after it.
            ("report", Path(self.report).name != "", "report must end in a file name"),
        ])


class SimulateConfig(Record):
    stopping_successes: int = 7
    stopping_trials: int = 24
    stopping_null_rate: float = 0.5
    looks_step: int = 10
    looks_max: int = 500
    os_alpha: float = 0.05
    os_trials: int = 10_000
    os_theta: float = 0.5
    sweep_epsilon: float = 0.01

    def __post_init__(self):
        check_config("simulate", [
            ("stopping_trials", self.stopping_trials >= 1, "stopping_trials must be at least 1"),
            ("stopping_successes", 1 <= self.stopping_successes <= self.stopping_trials,
             "stopping_successes must lie in [1, stopping_trials]"),
            ("stopping_null_rate", 0.0 < self.stopping_null_rate <= 1.0,
             "stopping_null_rate must lie in (0, 1]"),
            ("looks_step", self.looks_step >= 2, "looks_step must be at least 2"),
            ("looks_max", self.looks_max >= self.looks_step,
             "looks_max must be at least looks_step"),
            ("os_alpha", 0.0 < self.os_alpha < 1.0, "os_alpha must lie in (0, 1)"),
            ("os_trials", self.os_trials >= 1, "os_trials must be at least 1"),
            ("os_theta", 0.0 < self.os_theta < 1.0, "os_theta must lie in (0, 1)"),
            ("sweep_epsilon", 0.0 < self.sweep_epsilon < 1.0, "sweep_epsilon must lie in (0, 1)"),
        ])


class AnalysisConfig(Record, uncompared=("base_dir",)):
    analysis: AnalysisOptions
    data: DataConfig | None = None
    model: ModelConfig = ModelConfig()
    mcmc: McmcConfig = McmcConfig()
    output: OutputConfig = OutputConfig()
    simulate: SimulateConfig = SimulateConfig()
    # Directory the config file came from; relative data paths resolve
    # against it.  Not part of the grammar, so not compared or rendered.
    base_dir: str | None = None


# Each section's record, in file order.
_SECTIONS = {"data": DataConfig, "model": ModelConfig, "analysis": AnalysisOptions,
             "mcmc": McmcConfig, "output": OutputConfig, "simulate": SimulateConfig}


def _parsed(convert, expected: str):
    """A reader applying ``convert``; what that cannot convert is refused as not ``expected``."""
    def read(raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {raw!r}") from None
    return read


def _split(raw: str) -> tuple[str, ...]:
    # An empty element, from a stray comma, is refused where the list is used.
    return tuple(part.strip() for part in raw.split(","))


def _pair(part: str) -> tuple[int, int]:
    correct, total = map(int, part.split("/"))
    return correct, total


def _read_counts(raw: str) -> Counts:
    parts = _split(raw)
    if len(parts) != 2:
        raise ValueError("expected two correct/total pairs")
    return tuple(map(_parsed(_pair, "correct/total"), parts))


def _read_prior(raw: str) -> BetaParams:
    if raw in PRIOR_PRESETS:
        return PRIOR_PRESETS[raw]
    parts = _split(raw)
    if len(parts) != 2:
        raise ValueError(f"expected one of {', '.join(sorted(PRIOR_PRESETS))} "
                         f"or 'alpha, beta', got {raw!r}")
    try:
        alpha, beta = map(float, parts)
    except ValueError:
        raise ValueError(f"expected a preset name or 'alpha, beta', got {raw!r}") from None
    try:
        return BetaParams(alpha, beta)
    except DomainError:
        raise ValueError("prior shape parameters must be positive and finite") from None


def _write_prior(prior: BetaParams) -> str:
    preset = next((name for name, shapes in PRIOR_PRESETS.items() if shapes == prior), None)
    return preset or f"{prior.alpha!r}, {prior.beta!r}"


# (reader, writer) by field annotation; enums get theirs in _codec.  A reader
# takes the stripped text and raises ValueError with the ConfigError message.
_CODECS = {
    bool: (_parsed({"true": True, "false": False}.__getitem__, "true or false"),
           lambda value: "true" if value else "false"),
    int: (_parsed(int, "an integer"), str),
    float: (_parsed(float, "a number"), repr),
    str: (str, str),
    tuple[str, ...]: (_split, ", ".join),
    tuple[str, str]: (_split, ", ".join),
    Counts | None: (_read_counts, lambda counts: ", ".join(f"{c}/{t}" for c, t in counts)),
    BetaParams: (_read_prior, _write_prior),
}


def _codec(hint) -> tuple:
    if not (isinstance(hint, type) and issubclass(hint, Enum)):
        return _CODECS[hint]
    choices = ", ".join(sorted(member.value for member in hint))
    return _parsed(hint, f"one of {choices}"), attrgetter("value")


@functools.cache
def _codecs(cls) -> dict[str, tuple]:
    """Each field of section record ``cls``, in order, with its (reader, writer)."""
    hints = get_type_hints(cls)
    return {name: _codec(hints[name]) for name in cls.fields}


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
            section, _, key = dotted.partition(".")
            if not section or not key or "." in key:
                raise ConfigError(f"override {dotted!r} must look like section.key")
            raw.setdefault(section, {})[key] = value

    for section in raw:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section (expected one of {', '.join(_SECTIONS)})",
                              section=section)
    # A section left out reads as empty, except an optional one, which stays out.
    optional = {name for name, default in AnalysisConfig.defaults.items() if default is None}
    return AnalysisConfig(**{name: _read_section(name, cls, raw.get(name, {}))
                             for name, cls in _SECTIONS.items()
                             if name in raw or name not in optional})


def _read_section(name: str, cls, values: dict[str, str]):
    """Section record ``cls`` read from raw ``values``.  An absent key keeps
    its field default; a field without one reads as ``None``, for the record
    to refuse as missing."""
    codecs = _codecs(cls)
    for key in values:
        if key not in codecs:
            raise ConfigError(f"unknown key (expected one of {', '.join(codecs)})",
                              section=name, key=key)
    kwargs = {name: None for name in cls.fields if name not in cls.defaults}
    for key, (read, _) in codecs.items():
        if key in values:
            try:
                kwargs[key] = read(values[key].strip())
            except ValueError as exc:
                raise ConfigError(str(exc), section=name, key=key) from None
    return cls(**kwargs)


def parse_config_file(path, overrides: dict[str, str] | None = None) -> AnalysisConfig:
    """Read and parse a config file; relative data paths resolve against it."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read config file {p}: {exc}") from exc
    config = parse_config(text, overrides)
    return config.replace(base_dir=str(p.parent))


def render_config(config: AnalysisConfig) -> str:
    """Canonical text form of a config; ``parse_config`` inverts it exactly,
    reading the sections and keys left out (``None``, ``()``) back as those."""
    lines = []
    for name in _SECTIONS:
        section = getattr(config, name)
        if section is None:
            continue
        lines.append(f"[{name}]")
        for key, (_, write) in _codecs(type(section)).items():
            value = getattr(section, key)
            if value is not None and value != ():
                lines.append(f"{key} = {write(value)}")
        lines.append("")
    return "\n".join(lines)


class Observations(Record):
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
        read = _read_aggregate_csv if d.format is ObservationMode.AGGREGATE else _read_per_item_csv
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
    import csv  # here, not at the top: no other command reads CSV, so none pays its import

    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            yield from csv.reader(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"cannot read data file: {exc}", path=str(path)) from exc


def _read_aggregate_csv(path: Path, systems: tuple[str, str]) -> Counts:
    rows = _open_rows(path)
    if [cell.strip() for cell in next(rows, ())] != ["system", "correct", "total"]:
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
