"""Hypotheses, direction conventions, and the decision vocabulary.

Two systems are scored on shared items; every accuracy difference in this
package is ``system1 - system2``.  Direction conventions are fixed here so
the statistical layers never have to re-derive them.  Observations reach
those layers as per-system ``(correct, total)`` counts only: the raw formats
in :class:`ObservationMode` are known to ingest (``config.load_observations``)
and nowhere else.
"""

from __future__ import annotations

from enum import Enum

from .errors import DomainError


class Record:
    """A frozen value with named fields, built without generated code.

    A subclass's annotated class attributes are its fields, in order, and a
    value given to one is its default.  ``__init__`` binds arguments by
    position or by name, then runs ``__post_init__``, where a subclass checks
    its values.  Records compare and hash by their fields' values, except
    those named in the class keyword ``uncompared``, and refuse assignment
    and deletion once built.
    """

    fields = ()
    defaults = {}
    _compared = ()

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields = tuple(cls.__annotations__)
        cls.defaults = {name: vars(cls)[name] for name in cls.fields if name in vars(cls)}
        cls._compared = tuple(name for name in cls.fields if name not in uncompared)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls.fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(cls.fields)} arguments, "
                            f"got {len(args)}")
        state = self.__dict__
        state.update(zip(cls.fields, args))
        for name, value in kwargs.items():
            if name in state:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            if name not in cls.fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            state[name] = value
        if len(state) < len(cls.fields):
            state.update({**cls.defaults, **state})  # defaults fill what was left out
            if len(state) < len(cls.fields):
                missing = ", ".join(repr(name) for name in cls.fields if name not in state)
                raise TypeError(f"{cls.__qualname__}() missing required argument(s): {missing}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def replace(self, **changes):
        """This record with ``changes`` applied, checked as a new one is."""
        return type(self)(**{**{name: getattr(self, name) for name in self.fields}, **changes})

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                f"{', '.join(f'{name}={getattr(self, name)!r}' for name in self.fields)})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ObservationMode(Enum):
    """The ``[data] format`` choice: one 0/1 row per item, or counts."""

    PER_ITEM = "per_item"
    AGGREGATE = "aggregate"


# Per-system ``(correct, total)`` pairs, system 1 first: the observation
# format of every layer after ingest.
Counts = tuple[tuple[int, int], tuple[int, int]]


class Direction(Enum):
    GREATER = "greater"
    LESS = "less"
    TWO_SIDED = "two_sided"


class HypothesisKind(Enum):
    INTERVAL_NULL = "interval_null"
    DIRECTIONAL_MARGIN = "directional_margin"


class DecisionValue(Enum):
    REJECT_NULL = "reject_null"
    ACCEPT_NULL = "accept_null"
    UNDECIDED = "undecided"


class Hypothesis(Record):
    """A claim about the latent accuracy difference theta1 - theta2.

    ``INTERVAL_NULL``         the difference lies within ``rope_radius`` of
                              ``margin``.
    ``DIRECTIONAL_MARGIN``    the difference exceeds ``margin`` in the sense
                              given by ``direction`` (for TWO_SIDED: in
                              absolute value).
    """

    kind: HypothesisKind
    margin: float = 0.0
    rope_radius: float | None = None
    direction: Direction = Direction.GREATER

    def __post_init__(self):
        if not -1.0 <= self.margin <= 1.0:
            raise DomainError(f"margin must lie in [-1, 1], got {self.margin!r}")
        if self.kind is HypothesisKind.INTERVAL_NULL:
            if self.rope_radius is None or not 0.0 < self.rope_radius < 1.0:
                raise DomainError(
                    f"an interval null needs rope_radius in (0, 1), got {self.rope_radius!r}"
                )
