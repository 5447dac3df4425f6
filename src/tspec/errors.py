"""Exception types shared across the pipeline, the check of a configured
number, the reader of JSON files and their fields, and the atomic writer."""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import get_args, get_origin

import numpy as np


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PipelineError):
    """Invalid configuration or an incompatible combination of options."""


class DataError(PipelineError):
    """Malformed, inconsistent, or insufficient input data."""


_REQUIRED = object()
# kind -> what one value of it must be, and what a list's elements must be
_KINDS = {str: ("a string", "strings"), dict: ("an object",), list: ("a list",),
          Integral: ("an integer",), Real: ("a finite number", "finite numbers")}


@dataclass(frozen=True)
class Range:
    """The values ``low <= v <= high``."""

    low: float
    high: float = math.inf

    def __contains__(self, value) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return f"[{self.low:g}, {self.high:g}{')' if self.high == math.inf else ']'}"

    def problem(self, value, kind=Real) -> str | None:
        """What ``value`` must be to be one ``kind`` (``Integral`` or ``Real``
        in this range; ``str``, ``dict`` or ``list``), or ``None`` when it is
        one.  A bool is no number, and a real must be finite."""
        if kind not in (Integral, Real):
            return None if isinstance(value, kind) else _KINDS[kind][0]
        number = isinstance(value, kind) and not isinstance(value, bool)
        if not number or (kind is Real and not -sys.float_info.max <= value <= sys.float_info.max):
            return _KINDS[kind][0]
        return None if value in self else f"in {self}"


def read_json_object(path: Path, error: type[PipelineError], what: str) -> dict:
    """The JSON object stored at ``path``: a ``DataError`` when it is missing,
    and ``error`` naming the file when it is not UTF-8 JSON or not an object."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except (OSError, ValueError) as exc:  # a directory; JSONDecodeError, UnicodeDecodeError
        raise error(f"{path} is not a valid {what} file: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: {what} file must hold a JSON object")
    return data


def read_field(item, key: str, kind, valid=Range(-math.inf), default=_REQUIRED, where=""):
    """``item[key]`` checked as ``kind`` by ``valid.problem``, with nothing
    coerced; a real comes back as a ``float``.  ``kind`` may also be
    ``list[str]`` or ``list[Real]``, checked element by element, a list of
    numbers coming back as a float64 array.
    ``default`` stands for an absent key, and for a null too when it is
    None.  Raises a ``ValueError`` naming ``where`` and the key, which each
    file reader wraps once with its file and error class."""
    if not isinstance(item, dict):
        raise ValueError(f"{where}expected an object holding key {key!r}, got {item!r}")
    value = item.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{where}key {key!r} is missing")
    if value is None and default is None:
        return None
    if get_origin(kind) is not list:
        problem = valid.problem(value, kind)
        if problem:
            raise ValueError(f"{where}key {key!r} must be {problem}, got {value!r}")
        return float(value) if kind is Real else value
    element = get_args(kind)[0]
    must = f"{where}key {key!r} must be a list of {_KINDS[element][1]}"
    if not isinstance(value, list):
        raise ValueError(f"{must}, got {value!r}")
    bad = [v for v in value if valid.problem(v, element)]
    if bad:
        raise ValueError(f"{must}, but holds {bad[0]!r}")
    return value if element is str else np.array(value, dtype=np.float64)


@contextmanager
def atomic_write(path: Path, mode: str = "w", **open_kwargs):
    """A handle on a temp file beside ``path`` that replaces ``path`` when the
    block ends.  If the block raises, the temp file is removed and ``path``
    keeps its previous contents; no reader ever sees a half-written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, **open_kwargs) as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except IsADirectoryError:
            raise ConfigError(f"cannot write {path}: it is a directory") from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, data: dict) -> None:
    """``data`` as indented, key-sorted JSON with a final newline, written
    atomically."""
    with atomic_write(path, encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
