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
MAX_FILLED_SHARE = 0.99  # of the seconds from a capture's first row to its last


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
    # Past about 5e304 hours the seconds exceed float64.
    if not (0 <= minutes < 60 and 0 <= seconds < 60 and 0 <= hours < 10**304):
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


# Characters of a capture that rule out numpy's text reader: a quote (the
# csv module unquotes cells), a NUL (csv refuses it before Python 3.11) and
# the separators U+001C..U+001F, which numpy skips around a number as blanks
# but ``float()`` refuses.
_NOT_PLAIN = '"\x00\x1c\x1d\x1e\x1f'


def parse_flow_csv(path: str | Path, schema: FlowSchema) -> PacketTimeline:
    """Read a flow CSV into a timeline, one row per data row.

    Rows must be ordered by increasing timestamp, one row per second (after
    flooring); seconds are rebased so the first row sits at second 0.  A
    repeated second, a row with more cells than the header, any non-numeric
    or non-finite feature cell, non-binary label, unparsable timestamp, or
    timestamp 2**63 or more seconds from the first row's aborts the parse
    with the offending row number (1-based, counting the header as row 1).

    A plain epoch capture is read column by column by numpy's text reader
    (``_parse_plain``); any other capture, and any plain one that reader
    declines or that fails a check, goes through the row loop, which alone
    raises the errors above.
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
    timeline = _parse_plain(text, schema)
    return _parse_rows(text, path, schema) if timeline is None else timeline


def _parse_plain(text: str, schema: FlowSchema) -> PacketTimeline | None:
    """The row loop's timeline of a plain epoch capture, or None.

    Plain means: no character of ``_NOT_PLAIN``, every ``\\r`` part of a
    ``\\r\\n``, at least one data row, no line longer than the csv module's
    field limit, and the header's cell count on every line (``usecols``
    would hide extra cells), so no blank line.  The timestamp, label and
    feature columns are read as float64 by ``np.loadtxt``, which rounds as
    ``float()`` does; cells it refuses (``1_0``, non-ASCII digits) and any
    value the row loop would refuse give None.  Attack names are read for
    label-1 rows only, as the row loop does.
    """
    if (schema.timestamp_format != "epoch" or any(c in text for c in _NOT_PLAIN)
            or text.count("\r") != text.count("\r\n")):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if len(lines) < 2:
        return None
    header = lines[0].removesuffix("\r").split(",")
    # A repeated name means its last column, as in csv.DictReader.
    column = {name: i for i, name in enumerate(header)}
    numeric = [schema.timestamp_column, schema.label_column, *schema.feature_columns]
    attack = schema.attack_name_column
    if (any(name not in column for name in numeric) or (attack and attack not in column)
            or max(map(len, lines)) > csv.field_size_limit()
            or {line.count(",") for line in lines} != {len(header) - 1}):
        return None
    usecols = sorted({column[name] for name in numeric})
    try:
        table = np.loadtxt(lines[1:], delimiter=",", usecols=usecols, dtype=np.float64,
                           comments=None, ndmin=2)
    except ValueError:
        return None
    at = [usecols.index(column[name]) for name in numeric]
    stamps, labels = table[:, at[0]], table[:, at[1]]
    features = table.take(at[2:], axis=1)
    if not (np.isfinite(stamps).all() and np.isfinite(features).all()
            and ((labels == 0) | (labels == 1)).all()):
        return None
    with np.errstate(over="ignore"):  # a span past float64 is inf, and refused below
        seconds = np.floor(stamps - stamps[0])
    if not ((np.diff(seconds) > 0).all() and seconds[-1] < 2.0**63):
        return None
    labels = labels.astype(np.int64)
    codes = np.zeros(len(labels), np.int64)
    names = [""]
    if attack:
        cell, attacked = column[attack], np.flatnonzero(labels)
        cells = [lines[i].split(",", cell + 1)[cell].strip() for i in (attacked + 1).tolist()]
        codes[attacked], names = _attack_codes(cells)
    return PacketTimeline(seconds=seconds.astype(np.int64), features=features, labels=labels,
                          feature_names=schema.feature_columns, attack_codes=codes,
                          attack_names=names)


def _attack_codes(attacks: list[str]) -> tuple[np.ndarray, list[str]]:
    """Each attack's code into the sorted, unique names, which start with ``""``."""
    # Sorted like Python strings: an object array never drops a trailing NUL.
    names, codes = np.unique(np.array(["", *attacks], dtype=object), return_inverse=True)
    return codes[1:], names.tolist()


def _parse_rows(text: str, path: Path, schema: FlowSchema) -> PacketTimeline:
    """The row loop of ``parse_flow_csv``: it reads any capture, and raises
    every error that ``parse_flow_csv`` names."""
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
            if not abs(ts - first_ts) < 2.0**63:  # also inf, past float64
                raise DataError(
                    f"row {row_no}: timestamp {ts!r} is {ts - first_ts!r} seconds from the "
                    "first row's, outside the int64 range"
                )
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
    codes, names = _attack_codes(attacks)
    return PacketTimeline(
        seconds=seconds,
        features=matrix,
        labels=labels,
        feature_names=schema.feature_columns,
        attack_codes=codes,
        attack_names=names,
    )


def fill_missing_points(timeline: PacketTimeline, seed: int) -> PacketTimeline:
    """Close every gap second by inserting one sampled normal row.

    Donors are drawn uniformly with replacement from the timeline's own
    label-0 rows, in ascending gap order, from a generator seeded with
    ``seed``.  Inserted rows carry label 0 and no attack name; original rows
    are untouched.  Applying the fill twice is a no-op.

    A timeline missing more than ``MAX_FILLED_SHARE`` of the seconds it
    spans is refused before anything is allocated, naming the row after the
    widest gap as ``parse_flow_csv`` numbers rows (the header is row 1).
    """
    if len(timeline) == 0:
        return timeline
    seconds = timeline.seconds
    span = int(seconds[-1]) - int(seconds[0]) + 1
    if (missing := span - len(timeline)) > MAX_FILLED_SHARE * span:
        far = int(np.argmax(np.diff(seconds))) + 1
        raise DataError(f"row {far + 2}: second {seconds[far]} follows a gap of "
                        f"{seconds[far] - seconds[far - 1] - 1} missing seconds; {missing} of the "
                        f"{span} seconds spanned are missing, more than {MAX_FILLED_SHARE:.0%}")
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
