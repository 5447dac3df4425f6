"""Flow-record ingestion: CSV rows to a continuous per-second packet timeline.

A timeline holds one row per second in columns: the second, a numeric
feature vector, a binary label (0 = normal, 1 = attack) and an attack code
into the timeline's sorted attack names.  Raw captures commonly have seconds
with no traffic at all; ``fill_missing_points`` closes those gaps by
inserting copies of randomly sampled normal rows so that downstream sliding
windows see an uninterrupted time axis.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, read_field, read_json_object

TIMESTAMP_FORMATS = ("epoch", "clock")


@dataclass(frozen=True)
class FlowSchema:
    """Maps CSV columns onto pipeline roles.

    ``timestamp_format`` is either ``"epoch"`` (seconds since the Unix epoch,
    integer or fractional) or ``"clock"`` (``HH:MM:SS``, anchored at the first
    record of the file).
    """

    timestamp_column: str
    label_column: str
    feature_columns: tuple[str, ...]
    attack_name_column: str | None = None
    timestamp_format: str = "epoch"

    def __post_init__(self):
        features = tuple(self.feature_columns)
        object.__setattr__(self, "feature_columns", features)
        if not features:
            raise ConfigError("schema needs at least one feature column")
        if len(set(features)) != len(features):
            raise ConfigError("schema feature columns contain duplicates")
        reserved = {self.timestamp_column, self.label_column}
        if self.attack_name_column:
            reserved.add(self.attack_name_column)
        overlap = reserved.intersection(features)
        if overlap:
            raise ConfigError(
                f"columns {sorted(overlap)} cannot be both metadata and features"
            )
        if self.timestamp_format not in TIMESTAMP_FORMATS:
            raise ConfigError(
                f"timestamp_format must be one of {TIMESTAMP_FORMATS}, "
                f"got {self.timestamp_format!r}"
            )

    def to_dict(self) -> dict:
        return {
            "timestamp_column": self.timestamp_column,
            "label_column": self.label_column,
            "feature_columns": list(self.feature_columns),
            "attack_name_column": self.attack_name_column,
            "timestamp_format": self.timestamp_format,
        }

    @classmethod
    def from_json(cls, path: str | Path) -> "FlowSchema":
        """A schema from a JSON file: every column name must be a string and
        ``feature_columns`` a list of them."""
        path = Path(path)
        data = read_json_object(path, ConfigError, "schema")
        try:
            return cls(
                timestamp_column=read_field(data, "timestamp_column", str),
                label_column=read_field(data, "label_column", str),
                feature_columns=read_field(data, "feature_columns", list[str]),
                attack_name_column=read_field(data, "attack_name_column", str, default=None),
                timestamp_format=read_field(data, "timestamp_format", str, default="epoch"),
            )
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class PacketTimeline:
    """Per-second columns plus the feature and attack naming they share.

    Row i is one second of traffic: ``seconds[i]``, its feature vector
    ``features[i]`` (shape ``(n, F)``), its label ``labels[i]`` (0 normal,
    1 attack) and ``attack_codes[i]``, an index into the sorted, unique
    ``attack_names``, whose index 0 is ``""``: normal (always) or unnamed.
    """

    seconds: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    attack_codes: np.ndarray | None = None
    attack_names: tuple[str, ...] = ("",)

    def __post_init__(self):
        n = len(self.seconds)
        put = partial(object.__setattr__, self)
        put("seconds", np.asarray(self.seconds, dtype=np.int64))
        put("features", np.asarray(self.features, dtype=np.float64))
        put("feature_names", tuple(self.feature_names))
        codes = np.zeros(n, np.int64) if self.attack_codes is None else self.attack_codes
        put("attack_codes", np.asarray(codes, dtype=np.int64))
        put("attack_names", names := tuple(self.attack_names))
        if (np.shape(self.labels), self.attack_codes.shape) != ((n,), (n,)):
            raise DataError("timeline columns must all have one entry per second")
        if np.any(np.diff(self.seconds) <= 0):
            raise DataError("timeline records must be sorted by second, one row per second")
        labels = np.asarray(self.labels)
        bad = np.flatnonzero(~np.isin(labels, (0, 1)))
        if bad.size:
            raise DataError(f"record label must be 0 or 1, got {labels[bad[0]].item()!r}")
        put("labels", labels.astype(np.int64))
        if names[:1] != ("",) or list(names) != sorted(set(names)):
            raise DataError("timeline attack names must be sorted and unique, starting with \"\"")
        if n and not 0 <= self.attack_codes.min() <= self.attack_codes.max() < len(names):
            raise DataError(f"timeline attack codes must lie in [0, {len(names)})")
        if np.any(self.attack_codes[labels == 0]):
            raise DataError("a label-0 second must have attack code 0 (no name)")
        width = len(self.feature_names)
        if self.features.shape != (n, width):
            raise DataError(
                f"timeline features have shape {self.features.shape}, expected {(n, width)}"
            )

    def __len__(self) -> int:
        return self.seconds.size


def _parse_timestamp(raw: str, fmt: str, row: int) -> float:
    text = raw.strip()
    if fmt == "epoch":
        try:
            if math.isfinite(value := float(text)):
                return value
        except ValueError:
            pass
        raise DataError(f"row {row}: unparsable epoch timestamp {raw!r}")
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"row {row}: unparsable clock timestamp {raw!r}")
    try:
        hours, minutes, seconds = (int(p) for p in parts)
    except ValueError:
        raise DataError(f"row {row}: unparsable clock timestamp {raw!r}") from None
    if not (0 <= minutes < 60 and 0 <= seconds < 60 and 0 <= hours):
        raise DataError(f"row {row}: clock timestamp out of range {raw!r}")
    return float(hours * 3600 + minutes * 60 + seconds)


def _parse_label(raw: str, row: int) -> int:
    text = raw.strip()
    if text in ("0", "1"):
        return int(text)
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row}: label must be 0 or 1, got {raw!r}") from None
    if value in (0.0, 1.0):
        return int(value)
    raise DataError(f"row {row}: label must be 0 or 1, got {raw!r}")


@contextmanager
def _csv_errors(path: Path):
    """Where the csv module gives up, as on a cell past its field size
    limit, a ``DataError`` naming the file."""
    try:
        yield
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def parse_flow_csv(path: str | Path, schema: FlowSchema) -> PacketTimeline:
    """Read a flow CSV into a timeline, one row per data row.

    Rows must be ordered by increasing timestamp, one row per second (after
    flooring); seconds are rebased so the first row sits at second 0.  A
    repeated second, a row with more cells than the header, any non-numeric
    or non-finite feature cell, non-binary label, or unparsable timestamp
    aborts the parse with the offending row number (1-based, counting the
    header as row 1).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:  # a directory, or no read permission
        raise DataError(f"input file cannot be read: {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start} is not valid UTF-8") from None

    with io.StringIO(text, newline="") as handle, _csv_errors(path):
        reader = csv.DictReader(handle, restval="")  # a short row's missing cells
        header = reader.fieldnames or []
        wanted = [schema.timestamp_column, schema.label_column, *schema.feature_columns]
        if schema.attack_name_column:
            wanted.append(schema.attack_name_column)
        missing = [c for c in wanted if c not in header]
        if missing:
            raise DataError(f"{path}: header is missing columns {missing}")

        seconds: list[int] = []
        labels: list[int] = []
        attacks: list[str] = []
        features: list[list[float]] = []
        first_ts: float | None = None
        for row_no, row in enumerate(reader, start=2):
            extra = row.get(None)  # DictReader's list of cells beyond the header
            if extra:
                raise DataError(
                    f"row {row_no}: {len(header) + len(extra)} cells, "
                    f"but the header has {len(header)}"
                )
            ts = _parse_timestamp(row[schema.timestamp_column], schema.timestamp_format, row_no)
            if first_ts is None:
                first_ts = ts
            second = int(np.floor(ts - first_ts))
            if seconds and second < seconds[-1]:
                raise DataError(
                    f"row {row_no}: timestamp decreases relative to the previous row"
                )
            if seconds and second == seconds[-1]:
                raise DataError(
                    f"row {row_no}: second {second} repeats the previous row's second; "
                    "the input must hold one row per second"
                )
            seconds.append(second)

            label = _parse_label(row[schema.label_column], row_no)
            labels.append(label)
            values = []
            for name in schema.feature_columns:
                try:
                    values.append(float(row[name]))
                except (TypeError, ValueError):
                    raise DataError(
                        f"row {row_no}: non-numeric value {row[name]!r} in column {name!r}"
                    ) from None
            features.append(values)
            attack = ""
            if schema.attack_name_column and label == 1:
                attack = row[schema.attack_name_column].strip()
            attacks.append(attack)

    width = len(schema.feature_columns)
    matrix = np.array(features, dtype=np.float64).reshape(len(features), width)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise DataError(
            f"row {i + 2}: non-finite value {float(matrix[i, j])} in column "
            f"{schema.feature_columns[j]!r}"
        )
    # Sorted like Python strings: an object array never drops a trailing NUL.
    names, codes = np.unique(np.array(["", *attacks], dtype=object), return_inverse=True)
    return PacketTimeline(
        seconds=seconds,
        features=matrix,
        labels=labels,
        feature_names=schema.feature_columns,
        attack_codes=codes[1:],
        attack_names=names.tolist(),
    )


def fill_missing_points(timeline: PacketTimeline, seed: int) -> PacketTimeline:
    """Close every gap second by inserting one sampled normal row.

    Donors are drawn uniformly with replacement from the timeline's own
    label-0 rows, in ascending gap order, from a generator seeded with
    ``seed``.  Inserted rows carry label 0 and no attack name; original rows
    are untouched.  Applying the fill twice is a no-op.
    """
    if len(timeline) == 0:
        return timeline
    seconds = timeline.seconds
    gaps = np.setdiff1d(np.arange(seconds[0], seconds[-1] + 1), seconds)
    if gaps.size == 0:
        return timeline

    normals = np.flatnonzero(timeline.labels == 0)
    if normals.size == 0:
        raise DataError(
            f"{gaps.size} missing seconds but no normal records to sample fills from"
        )

    rng = np.random.default_rng(seed)
    # The same donors as one scalar ``integers`` draw per gap, in gap order.
    donors = normals[rng.integers(0, normals.size, size=gaps.size)]
    order = np.argsort(np.concatenate([seconds, gaps]), kind="stable")

    def merged(column, fills):
        return np.concatenate([column, fills])[order]

    zeros = np.zeros(gaps.size, np.int64)
    return replace(
        timeline,
        seconds=merged(seconds, gaps),
        features=merged(timeline.features, timeline.features[donors]),
        labels=merged(timeline.labels, zeros),
        attack_codes=merged(timeline.attack_codes, zeros),
    )


def select_features(timeline: PacketTimeline, feature_list) -> PacketTimeline:
    """Project every row onto ``feature_list``, in the listed order."""
    names = tuple(feature_list)
    unknown = [n for n in names if n not in timeline.feature_names]
    if unknown:
        raise DataError(f"unknown feature names: {unknown}")
    index = [timeline.feature_names.index(n) for n in names]
    return replace(timeline, features=timeline.features[:, index], feature_names=names)


def nonconstant_features(timeline: PacketTimeline) -> tuple[str, ...]:
    """Names of features that take more than one value; the default filter
    when no explicit per-attack feature list is configured."""
    if len(timeline) == 0:
        return timeline.feature_names
    return tuple(
        name
        for j, name in enumerate(timeline.feature_names)
        if np.unique(timeline.features[:, j]).size > 1
    )
