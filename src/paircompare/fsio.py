"""Filesystem helpers shared by the artifact writers."""

from __future__ import annotations

import contextlib
import json
import os
from enum import Enum
from pathlib import Path

from .core import Record
from .errors import IoError

_WRITE_SLICE = 1 << 16  # characters encoded and written at a time


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file and rename.

    The rename is atomic on POSIX, so readers never observe a partial file;
    a crash mid-write leaves the previous content (or nothing) in place.
    When the write or the rename fails, the temp file is removed before
    ``IoError`` is raised.  The text is encoded and written in slices of
    65,536 characters, so no encoded copy of the whole file is ever held.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            for start in range(0, len(text), _WRITE_SLICE):
                handle.write(text[start:start + _WRITE_SLICE])
        os.replace(tmp, target)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {target}: {exc}") from exc
    return target


def json_text(payload) -> str:
    """``payload`` as the text of a JSON artifact: 2-space indent, no NaN or infinity."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def plain(value):
    """``value`` as JSON holds it: a record as a dict of its fields in order,
    each converted alike, an ``Enum`` as its ``.value``.  Anything else comes
    back unchanged, so ``json_text`` still refuses NaN and types JSON lacks."""
    if isinstance(value, Record):
        return {name: plain(getattr(value, name)) for name in value.fields}
    if isinstance(value, Enum):
        return value.value
    return value
