"""Exception types shared across the pipeline, the JSON reader that turns a
malformed input file into one of them, and the JSON writer of artifacts."""

from __future__ import annotations

import json
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
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise error(f"{path} is not a valid {what} file: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: {what} file must hold a JSON object")
    return data


def write_json(path: Path, data: dict) -> None:
    """``data`` as indented, key-sorted JSON with a final newline."""
    with path.open("w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
