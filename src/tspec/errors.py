"""Exception types shared across the pipeline, the check of a configured
number, the JSON reader of input files and the atomic writer of artifacts."""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PipelineError):
    """Invalid configuration or an incompatible combination of options."""


class DataError(PipelineError):
    """Malformed, inconsistent, or insufficient input data."""


@dataclass(frozen=True)
class Range:
    """The values ``low <= v <= high``; ``open_low`` and ``open_high`` make
    an end strict."""

    low: float
    high: float = math.inf
    open_low: bool = False
    open_high: bool = False

    def __contains__(self, value) -> bool:
        above = self.low < value if self.open_low else self.low <= value
        return above and (value < self.high if self.open_high else value <= self.high)

    def __str__(self) -> str:
        opening = "(" if self.open_low else "["
        closing = ")" if self.open_high or self.high == math.inf else "]"
        return f"{opening}{self.low:g}, {self.high:g}{closing}"

    def problem(self, value, kind=Real) -> str | None:
        """What ``value`` must be to be a ``kind`` (``Integral`` or ``Real``)
        in this range, or ``None`` when it is one.  A bool is neither kind,
        and a real must be finite."""
        number = isinstance(value, kind) and not isinstance(value, bool)
        if not number or (kind is Real and not -sys.float_info.max <= value <= sys.float_info.max):
            return "an integer" if kind is Integral else "a finite number"
        return None if value in self else f"in {self}"


def read_json_object(path: Path, error: type[PipelineError], what: str) -> dict:
    """The JSON object stored at ``path``; raises ``error`` naming the file
    when it is not valid UTF-8 JSON or does not hold an object."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:  # a directory; JSONDecodeError, UnicodeDecodeError
        raise error(f"{path} is not a valid {what} file: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: {what} file must hold a JSON object")
    return data


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
