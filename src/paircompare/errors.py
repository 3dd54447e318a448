"""Exception types shared across the package."""

from __future__ import annotations


class AssessmentError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(AssessmentError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateTest(AssessmentError):
    """The test statistic is undefined for these counts (zero variance)."""


class DegenerateChains(AssessmentError):
    """Within-chain variance is exactly zero; scale diagnostics are undefined."""


class TooFewSamples(AssessmentError):
    """Not enough samples for the requested summary."""


class UnstableEstimate(AssessmentError):
    """A component of a ratio lies too close to 0 or 1 to be computed reliably."""


class ConfigError(AssessmentError):
    """A configuration file or override is invalid.

    Carries whichever of section / key / line is known so the message can
    point at the offending spot.
    """

    def __init__(self, message: str, *, section: str | None = None,
                 key: str | None = None, line: int | None = None):
        self.section = section
        self.key = key
        self.line = line
        where = []
        if section is not None:
            where.append(f"section [{section}]")
        if key is not None:
            where.append(f"key {key!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


def check_config(section: str, checks) -> None:
    """Raise a ConfigError at the first ``(key, ok, message)`` whose ``ok`` is false."""
    for key, ok, message in checks:
        if not ok:
            raise ConfigError(message, section=section, key=key)


class IngestError(AssessmentError):
    """An observation file cannot be read as data.

    Carries the path and, when known, the 1-based row number.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 row: int | None = None):
        self.path = path
        self.row = row
        where = []
        if path is not None:
            where.append(str(path))
        if row is not None:
            where.append(f"row {row}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class IoError(AssessmentError):
    """Reading or writing an artifact failed."""
