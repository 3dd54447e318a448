"""Exception types shared across the package."""

from __future__ import annotations


class AssessmentError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(AssessmentError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateTest(AssessmentError):
    """The test statistic is undefined for these counts (zero variance)."""


class TooFewSamples(AssessmentError):
    """Not enough samples for the requested summary."""


class UnstableEstimate(AssessmentError):
    """A component of a ratio lies too close to 0 or 1 to be computed reliably."""


def _located(message: str, parts) -> str:
    """``message`` with the text of each ``(value, text)`` part whose value is
    known appended in parentheses, as ``message (text, text)``."""
    where = [text for value, text in parts if value is not None]
    return f"{message} ({', '.join(where)})" if where else message


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
        super().__init__(_located(message, [(section, f"section [{section}]"),
                                            (key, f"key {key!r}"), (line, f"line {line}")]))


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
        super().__init__(_located(message, [(path, str(path)), (row, f"row {row}")]))


class IoError(AssessmentError):
    """Reading or writing an artifact failed."""
