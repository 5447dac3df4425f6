"""Exception types shared across the pipeline, the JSON reader that turns a
malformed input file into one of them, and the atomic writer of artifacts."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PipelineError):
    """Invalid configuration or an incompatible combination of options."""


class DataError(PipelineError):
    """Malformed, inconsistent, or insufficient input data."""


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
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, data: dict) -> None:
    """``data`` as indented, key-sorted JSON with a final newline, written
    atomically."""
    with atomic_write(path, encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
