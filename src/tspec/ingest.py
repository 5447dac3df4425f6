"""Flow-record ingestion: CSV rows to a continuous per-second packet timeline.

A timeline is an ordered list of per-second records, each carrying a numeric
feature vector and a binary label (0 = normal, 1 = attack).  Raw captures
commonly have seconds with no traffic at all; ``fill_missing_points`` closes
those gaps by inserting copies of randomly sampled normal records so that
downstream sliding windows see an uninterrupted time axis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, read_json_object

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
    def from_dict(cls, data: dict) -> "FlowSchema":
        try:
            return cls(
                timestamp_column=data["timestamp_column"],
                label_column=data["label_column"],
                feature_columns=tuple(data["feature_columns"]),
                attack_name_column=data.get("attack_name_column"),
                timestamp_format=data.get("timestamp_format", "epoch"),
            )
        except KeyError as exc:
            raise ConfigError(f"schema file is missing key {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "FlowSchema":
        path = Path(path)
        if not path.exists():
            raise DataError(f"schema file not found: {path}")
        return cls.from_dict(read_json_object(path, ConfigError, "schema"))


@dataclass(frozen=True)
class PacketRecord:
    """One flow record pinned to an integer second of the timeline."""

    second: int
    features: tuple[float, ...]
    label: int
    synthetic_fill: int = 0
    attack: str = ""

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"record label must be 0 or 1, got {self.label!r}")
        if self.synthetic_fill and self.label != 0:
            raise DataError("synthetic fill records must carry label 0")


@dataclass(frozen=True)
class PacketTimeline:
    """Ordered per-second records plus the feature naming they share."""

    records: tuple[PacketRecord, ...]
    feature_names: tuple[str, ...]
    origin_second: int = 0

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        seconds = [r.second for r in self.records]
        if any(b < a for a, b in zip(seconds, seconds[1:])):
            raise DataError("timeline records must be sorted by second")
        width = len(self.feature_names)
        for r in self.records:
            if len(r.features) != width:
                raise DataError(
                    f"record at second {r.second} has {len(r.features)} features, "
                    f"expected {width}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def feature_matrix(self) -> np.ndarray:
        return np.array([r.features for r in self.records], dtype=np.float64).reshape(
            len(self.records), len(self.feature_names)
        )

    def label_bits(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)

    def present_seconds(self) -> set[int]:
        return {r.second for r in self.records}


def _parse_timestamp(raw: str, fmt: str, row: int) -> float:
    text = raw.strip()
    if fmt == "epoch":
        try:
            return float(text)
        except ValueError:
            raise DataError(f"row {row}: unparsable epoch timestamp {raw!r}") from None
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


def parse_flow_csv(path: str | Path, schema: FlowSchema) -> PacketTimeline:
    """Read a flow CSV into a timeline, one record per data row.

    Rows must be ordered by non-decreasing timestamp; seconds are rebased so
    the first record sits at the timeline origin.  Any non-numeric feature
    cell, non-binary label, or unparsable timestamp aborts the parse with the
    offending row number (1-based, counting the header as row 1).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")

    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        wanted = [schema.timestamp_column, schema.label_column, *schema.feature_columns]
        if schema.attack_name_column:
            wanted.append(schema.attack_name_column)
        missing = [c for c in wanted if c not in header]
        if missing:
            raise DataError(f"{path}: header is missing columns {missing}")

        records: list[PacketRecord] = []
        first_ts: float | None = None
        prev_second: int | None = None
        for row_no, row in enumerate(reader, start=2):
            ts = _parse_timestamp(row[schema.timestamp_column], schema.timestamp_format, row_no)
            if first_ts is None:
                first_ts = ts
            second = int(np.floor(ts - first_ts))
            if prev_second is not None and second < prev_second:
                raise DataError(
                    f"row {row_no}: timestamp decreases relative to the previous row"
                )
            prev_second = second

            label = _parse_label(row[schema.label_column], row_no)
            features = []
            for name in schema.feature_columns:
                try:
                    features.append(float(row[name]))
                except (TypeError, ValueError):
                    raise DataError(
                        f"row {row_no}: non-numeric value {row[name]!r} in column {name!r}"
                    ) from None
            attack = ""
            if schema.attack_name_column:
                attack = (row[schema.attack_name_column] or "").strip()
            if label == 0:
                attack = ""
            records.append(
                PacketRecord(second=second, features=tuple(features), label=label, attack=attack)
            )

    return PacketTimeline(records=tuple(records), feature_names=schema.feature_columns)


def fill_missing_points(timeline: PacketTimeline, seed: int) -> PacketTimeline:
    """Close every gap second by inserting one sampled normal record.

    Donors are drawn uniformly with replacement from the timeline's own
    label-0 records, in ascending gap order, from a generator seeded with
    ``seed``.  Inserted records carry ``label=0`` and ``synthetic_fill=1``;
    original records are untouched.  Applying the fill twice is a no-op.
    """
    if not timeline.records:
        return timeline
    present = timeline.present_seconds()
    lo, hi = min(present), max(present)
    gaps = [s for s in range(lo, hi + 1) if s not in present]
    if not gaps:
        return timeline

    normals = [r for r in timeline.records if r.label == 0]
    if not normals:
        raise DataError(
            f"{len(gaps)} missing seconds but no normal records to sample fills from"
        )

    rng = np.random.default_rng(seed)
    fills = []
    for second in gaps:
        donor = normals[int(rng.integers(0, len(normals)))]
        fills.append(
            PacketRecord(
                second=second,
                features=donor.features,
                label=0,
                synthetic_fill=1,
            )
        )

    merged = sorted(timeline.records + tuple(fills), key=lambda r: r.second)
    return PacketTimeline(
        records=tuple(merged),
        feature_names=timeline.feature_names,
        origin_second=timeline.origin_second,
    )


def select_features(timeline: PacketTimeline, feature_list) -> PacketTimeline:
    """Project every record onto ``feature_list``, in the listed order."""
    names = tuple(feature_list)
    unknown = [n for n in names if n not in timeline.feature_names]
    if unknown:
        raise DataError(f"unknown feature names: {unknown}")
    index = [timeline.feature_names.index(n) for n in names]
    projected = tuple(
        PacketRecord(
            second=r.second,
            features=tuple(r.features[i] for i in index),
            label=r.label,
            synthetic_fill=r.synthetic_fill,
            attack=r.attack,
        )
        for r in timeline.records
    )
    return PacketTimeline(
        records=projected, feature_names=names, origin_second=timeline.origin_second
    )


def nonconstant_features(timeline: PacketTimeline) -> tuple[str, ...]:
    """Names of features that take more than one value; the default filter
    when no explicit per-attack feature list is configured."""
    if not timeline.records:
        return timeline.feature_names
    matrix = timeline.feature_matrix()
    keep = [
        name
        for j, name in enumerate(timeline.feature_names)
        if np.unique(matrix[:, j]).size > 1
    ]
    return tuple(keep)
