"""Dataset preparation: standardization, splitting, noise, and synthesis.

The central type is ``Dataset``: one row per sliding-window position, with
the flattened feature block, the continuous spectrum label, and the discrete
window label (1 iff the window contains any attack packet).  Noise injection
operates on standardized features so its one scale, ``NOISE_STD``, means the
same thing across features.
"""

from __future__ import annotations

import hashlib
import io
import math
import zipfile
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, Range, atomic_write, read_field, read_json_object,
                     write_json)
from .ingest import PacketTimeline
from .spectrum import LABEL_METHODS, check_d_model
from .windowing import flatten_windows, window_labels, window_matrices

ATTACK_PATTERNS = ("burst", "periodic", "ramp")
DATASET_SCHEMA_VERSION = 6
TEST_FRACTION = 0.3  # share of each window class held out for testing
NOISE_STD = 1.0  # standard deviation of the noise added to a z-scored feature
# dataset.npz members: name -> (dtype, length: a sidecar key, or the seconds
# of ``second_features``, the (seconds, F) matrix the rows are windowed from).
# ``attack_codes`` take the narrowest unsigned dtype that holds the name count.
_DATASET_ARRAYS = {
    "second_features": (np.float64, None),
    "labels": (np.bool_, "seconds"),
    "attack_codes": (None, "seconds"),
    "test": (np.bool_, "rows"),
    "zscore_means": (np.float64, "feature_width"),
    "zscore_stds": (np.float64, "feature_width"),
}


@dataclass(frozen=True)
class ZScoreParams:
    """Per-column population mean and standard deviation; a column whose
    standard deviation is 0 is constant."""

    means: np.ndarray
    stds: np.ndarray


def _check_finite(what: str, values: np.ndarray) -> None:
    """Raise a ``DataError`` naming the first column of ``values`` (one
    value per column, or a matrix) that holds a NaN or an infinity."""
    finite = np.isfinite(values)
    if not finite.all():
        column = int(np.flatnonzero(~finite.reshape(-1, finite.shape[-1]).all(axis=0))[0])
        raise DataError(f"the z-score {what} of feature column {column} is not finite")


_ZSCORE_CHUNK = 256  # rows gathered at a time by zscore_fit


def _column_sums(matrix: np.ndarray, picked: np.ndarray, step: int,
                 center: np.ndarray | None = None) -> np.ndarray:
    """Column sums of ``matrix[picked]`` (minus ``center``, squared, when
    given), gathered ``step`` rows at a time.  Each chunk's first row takes
    the sums so far, so every column is summed row after row, as numpy sums
    axis 0 of a matrix of two or more columns: the bits of the sums of the
    gathered matrix."""
    total = np.zeros(matrix.shape[1])
    for start in range(0, picked.size, step):
        chunk = matrix[picked[start:start + step]]
        if center is not None:
            chunk -= center
            chunk *= chunk
        if start:
            chunk[0] += total
        total = chunk.sum(axis=0)
    return total


def zscore_fit(features: np.ndarray, rows: np.ndarray | None = None) -> ZScoreParams:
    """Per-column mean and standard deviation of ``features``, or of its
    rows where the boolean mask ``rows`` is True, with the bits of
    ``np.mean`` and ``np.std`` of those rows.  The rows are never copied at
    once: they are summed in chunks (``_column_sums``), except a single
    column, which numpy sums pairwise, so it is gathered whole.  Raises
    ``DataError`` when a mean or deviation is not finite, as when a
    column's sum overflows."""
    matrix = np.asarray(features, dtype=np.float64)
    picked = np.flatnonzero(np.ones(matrix.shape[:1], bool) if rows is None else rows)
    if matrix.ndim != 2 or picked.size < 1:
        raise DataError("z-score fit needs a non-empty 2-D matrix")
    step = picked.size if matrix.shape[1] == 1 else _ZSCORE_CHUNK
    with np.errstate(over="ignore", invalid="ignore"):
        means = _column_sums(matrix, picked, step) / picked.size
        stds = np.sqrt(_column_sums(matrix, picked, step, means) / picked.size)
    _check_finite("mean", means)
    _check_finite("standard deviation", stds)
    return ZScoreParams(means=means, stds=stds)


def zscore_apply(features: np.ndarray, params: ZScoreParams) -> np.ndarray:
    """(x - mean) / std per column; constant columns map to 0.  Raises
    ``DataError`` when a result is not finite."""
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != params.means.size:
        raise DataError(
            f"feature width {matrix.shape[-1] if matrix.ndim == 2 else '?'} does not "
            f"match fitted width {params.means.size}"
        )
    constant = params.stds == 0.0
    safe_stds = np.where(constant, 1.0, params.stds)
    with np.errstate(over="ignore", invalid="ignore"):
        out = matrix - params.means
        out /= safe_stds  # in place: one matrix-sized allocation, the same bits
    out[:, constant] = 0.0
    _check_finite("value", out)
    return out


@dataclass(eq=False)
class Dataset:
    """Model-ready rows: features, spectrum label, and window label per row.

    ``tag_codes`` holds each row's attack as an index into the sorted
    ``attack_names`` (by default every row is untagged); ``provenance``
    echoes how the rows were built (window size, method, d_model, ...).
    """

    features: np.ndarray
    spectrum_labels: np.ndarray
    binary_labels: np.ndarray
    provenance: dict = field(default_factory=dict)
    tag_codes: np.ndarray | None = None
    attack_names: tuple[str, ...] = ("",)

    def __post_init__(self):
        m = self.features.shape[0]
        self.tag_codes = np.zeros(m, np.int64) if self.tag_codes is None else self.tag_codes
        self.attack_names = tuple(self.attack_names)
        shapes = {self.spectrum_labels.shape, self.binary_labels.shape, self.tag_codes.shape}
        if shapes != {(m,)}:
            raise DataError("dataset label vectors and tag codes must align with feature rows")
        if m and not 0 <= self.tag_codes.min() <= self.tag_codes.max() < len(self.attack_names):
            raise DataError(f"tag codes must lie in [0, {len(self.attack_names)}), one per name")

    def __len__(self) -> int:
        return self.features.shape[0]


def split_dataset(ds: Dataset, seed: int) -> np.ndarray:
    """A seeded train/test partition as a bool mask, True for test rows.

    Each binary-label class sends round(size * ``TEST_FRACTION``) of its
    rows to the test side, the first of one seeded permutation per class,
    so both sides keep the class proportions.
    """
    m = len(ds)
    if m < 2:
        raise DataError("need at least 2 rows to split")

    rng = np.random.default_rng(seed)
    test = np.zeros(m, dtype=bool)
    for cls in (0, 1):
        idx = np.flatnonzero(ds.binary_labels == cls)
        test[rng.permutation(idx)[: int(round(idx.size * TEST_FRACTION))]] = True
    return test


@dataclass(frozen=True)
class NoiseSpec:
    """Fraction of rows to perturb, and the stream seed."""

    ratio: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"noise ratio must be in [0, 1], got {self.ratio}")


def noise_rows(features: np.ndarray, spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the (M, D) feature matrix that ``inject_noise`` perturbs,
    and their noised values: exactly round(ratio * M) rows, chosen uniformly
    without replacement, every feature of a chosen row receiving independent
    N(0, ``NOISE_STD``^2) noise."""
    n_rows = int(round(spec.ratio * features.shape[0]))
    rng = np.random.default_rng(spec.seed)
    rows = rng.choice(features.shape[0], size=n_rows, replace=False)
    return rows, features[rows] + rng.normal(0.0, NOISE_STD, size=(n_rows, features.shape[1]))


def inject_noise(features: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """A copy of the (M, D) feature matrix with the rows of ``noise_rows``
    noised.  Ratio 0 returns a bit-exact copy."""
    rows, noised_rows = noise_rows(features, spec)
    noised = features.copy()
    noised[rows] = noised_rows
    return noised


@dataclass(frozen=True)
class AttackSegment:
    """One labeled stretch of a synthetic timeline.

    Patterns: ``burst`` marks every second of the segment, ``periodic`` every
    ``period``-th second, and ``ramp`` a deterministic schedule whose attack
    density rises linearly from 0 to 1 across the segment (floor(L/2) attack
    seconds in total).
    """

    name: str
    start: int
    length: int
    pattern: str
    period: int = 3
    offset: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        if self.pattern not in ATTACK_PATTERNS:
            raise ConfigError(f"pattern must be one of {ATTACK_PATTERNS}, got {self.pattern!r}")
        if self.length <= 0:
            raise ConfigError("segment length must be positive")
        if self.start < 0:
            raise ConfigError("segment start must be >= 0")
        if self.pattern == "periodic" and self.period < 1:
            raise ConfigError("periodic segments need period >= 1")

    def attack_offsets(self) -> list[int]:
        """Offsets (within the segment) of the label-1 seconds."""
        if self.pattern == "burst":
            return list(range(self.length))
        if self.pattern == "periodic":
            return list(range(0, self.length, self.period))
        twice_len = 2 * self.length
        return [
            i
            for i in range(self.length)
            if ((i + 1) * (i + 1)) // twice_len > (i * i) // twice_len
        ]


@dataclass(frozen=True)
class SyntheticScenario:
    duration: int
    feature_count: int
    segments: tuple[AttackSegment, ...]
    normal_mean: float | tuple[float, ...] = 0.0
    normal_std: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError("scenario duration must be positive")
        if self.feature_count < 1:
            raise ConfigError("scenario needs at least one feature")
        for i, seg in enumerate(self.segments):
            if seg.name != seg.name.strip():
                # A flow CSV's attack cells are read stripped, so synth's
                # output would name this attack differently.
                raise ConfigError(f"segment {i}: name {seg.name!r} has leading or "
                                  "trailing whitespace")
        ordered = sorted(self.segments, key=lambda s: s.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.start + earlier.length > later.start:
                raise ConfigError(
                    f"overlapping attack segments: {earlier.name!r} and {later.name!r}"
                )
        for seg in ordered:
            if seg.start + seg.length > self.duration:
                raise ConfigError(f"segment {seg.name!r} extends past the scenario duration")

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticScenario":
        """A scenario from parsed JSON, with every value's type checked by
        ``read_field`` and nothing coerced."""
        try:
            segments = []
            for i, s in enumerate(read_field(data, "segments", list)):
                where = f"segment {i}: "
                segments.append(AttackSegment(
                    name=read_field(s, "name", str, where=where),
                    start=read_field(s, "start", Integral, where=where),
                    length=read_field(s, "length", Integral, where=where),
                    pattern=read_field(s, "pattern", str, where=where),
                    period=read_field(s, "period", Integral, default=3, where=where),
                    offset=_per_feature_field(s, "offset", 1.0, where),
                ))
            return cls(
                duration=read_field(data, "duration", Integral),
                feature_count=read_field(data, "feature_count", Integral),
                segments=tuple(segments),
                normal_mean=_per_feature_field(data, "normal_mean", 0.0),
                normal_std=_per_feature_field(data, "normal_std", 1.0),
            )
        except ValueError as exc:
            raise ConfigError(f"scenario holds a value of the wrong type: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticScenario":
        path = Path(path)
        data = read_json_object(path, ConfigError, "scenario")
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _per_feature_field(item, key: str, default: float, where: str = ""):
    """``read_field`` of a finite number, or of a list of them (one per feature) as a tuple."""
    if isinstance(item, dict) and isinstance(item.get(key), list):
        return tuple(read_field(item, key, list[Real], where=where).tolist())
    return read_field(item, key, Real, default=default, where=where)


def _per_feature(value, width: int, what: str) -> np.ndarray:
    values = value if isinstance(value, (tuple, list)) else (value,)
    if any(Range(-math.inf).problem(v) for v in values):
        raise ConfigError(f"{what} must be numeric and finite, got {value!r}")
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(width, float(arr))
    if arr.shape != (width,):
        raise ConfigError(f"{what} must be a scalar or have length {width}")
    return arr


def generate_synthetic(scenario: SyntheticScenario, seed: int) -> PacketTimeline:
    """Per-second synthetic traffic: Gaussian normal features, with attack
    seconds labeled 1 and their feature means shifted by the segment offset."""
    width = scenario.feature_count
    mean = _per_feature(scenario.normal_mean, width, "normal_mean")
    std = _per_feature(scenario.normal_std, width, "normal_std")
    if (std < 0).any():
        raise ConfigError(f"normal_std must not be negative, got {scenario.normal_std!r}")

    features = np.random.default_rng(seed).normal(mean, std, size=(scenario.duration, width))
    labels = np.zeros(scenario.duration, dtype=np.int64)
    codes = np.zeros(scenario.duration, dtype=np.int64)
    names = sorted({"", *(seg.name for seg in scenario.segments)})
    for seg in scenario.segments:
        shift = _per_feature(seg.offset, width, f"offset of segment {seg.name!r}")
        seconds = [seg.start + off for off in seg.attack_offsets()]
        features[seconds] += shift
        labels[seconds] = 1
        codes[seconds] = names.index(seg.name)
    return PacketTimeline(
        seconds=np.arange(scenario.duration),
        features=features,
        labels=labels,
        feature_names=tuple(f"f{j}" for j in range(width)),
        attack_codes=codes,
        attack_names=names,
    )


def _provenance(timeline: PacketTimeline, window: int, method: str,
                d_model: int | None) -> dict:
    """How a dataset's rows are built from ``timeline``: the window length,
    the label method and its ``d_model`` (None unless SSPE), and the feature
    names; a ``ConfigError`` for an unknown method or a bad SSPE ``d_model``."""
    if method not in LABEL_METHODS:
        raise ConfigError(f"label method must be one of {LABEL_METHODS}, got {method!r}")
    return {
        "window": window,
        "method": method,
        "d_model": check_d_model(d_model) if method == "sspe" else None,
        "feature_names": list(timeline.feature_names),
    }


def assemble_dataset(
    timeline: PacketTimeline,
    window_size: int,
    method: str,
    d_model: int | None = None,
) -> Dataset:
    """Window the timeline, one window a second, and attach spectrum +
    window labels.

    ``spectrum_labels`` hold the method's continuous values (for the baseline
    method they simply repeat the discrete window label); ``binary_labels``
    always hold the ground-truth window label (1 iff any attack packet).
    """
    provenance = _provenance(timeline, window_size, method, d_model)
    values, binary, tags, fraction = window_labels(timeline, window_size, method, d_model)
    return Dataset(
        features=window_matrices(timeline, window_size)[0],
        spectrum_labels=values,
        binary_labels=binary,
        provenance={**provenance, "attack_bit_fraction": fraction},
        tag_codes=tags,
        attack_names=timeline.attack_names,
    )


def save_dataset(
    timeline: PacketTimeline,
    out_dir: str | Path,
    zscore: ZScoreParams,
    test: np.ndarray,
    *,
    window: int,
    method: str,
    d_model: int | None = None,
    sidecar_extra: dict | None = None,
) -> None:
    """Write ``dataset.npz``, then its ``dataset.json`` sidecar, each
    atomically: the dataset of every window of ``window`` seconds of
    ``timeline``, labeled by ``method`` (with ``d_model`` for SSPE).

    Nothing per window but the ``test`` mask (True for a test row) is
    stored: ``dataset.npz`` holds the timeline's columns and the z-score
    parameters, from which ``load_dataset`` rebuilds the rows and their
    labels.  A ``DataError`` is raised unless the timeline holds a window,
    the mask has one entry per window and the z-score parameters one value
    per feature column.  The sidecar holds the row count, feature width, the
    label settings and feature names (``provenance``), the timeline's attack
    names, the SHA-256 of ``dataset.npz`` and any extras (split seed, seeds).
    """
    provenance = _provenance(timeline, window, method, d_model)
    if not 0 < window <= len(timeline):
        raise DataError(f"a timeline of {len(timeline)} seconds holds no window of {window}")
    rows, width = len(timeline) - window + 1, timeline.features.shape[1] * window
    if np.shape(test) != (rows,):
        raise DataError(f"the test mask has shape {np.shape(test)}, expected ({rows},)")
    if {np.shape(zscore.means), np.shape(zscore.stds)} != {(width,)}:
        raise DataError(f"the z-score parameters must have one value per feature column ({width})")

    arrays = io.BytesIO()
    np.savez(
        arrays,
        second_features=timeline.features,
        labels=timeline.labels.astype(bool),
        attack_codes=timeline.attack_codes.astype(np.min_scalar_type(len(timeline.attack_names))),
        test=np.asarray(test, dtype=bool),
        zscore_means=np.asarray(zscore.means, dtype=np.float64),
        zscore_stds=np.asarray(zscore.stds, dtype=np.float64),
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "dataset.npz", "wb") as handle:
        handle.write(arrays.getbuffer())
    sidecar = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "rows": rows,
        "feature_width": width,
        "provenance": provenance,
        "attack_names": list(timeline.attack_names),
        "npz_sha256": hashlib.sha256(arrays.getbuffer()).hexdigest(),
        **(sidecar_extra or {}),
    }
    write_json(out_dir / "dataset.json", sidecar)


def _read_dataset_arrays(path: Path, sidecar: dict, names: list[str]) -> dict[str, np.ndarray]:
    """The ``dataset.npz`` members, once the file's SHA-256 is the sidecar's
    ``npz_sha256``, each checked for dtype and shape against the sidecar's
    ``rows`` and ``feature_width`` and the attack ``names`` the codes index.
    The file's bytes are freed on return, before any row is built."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read the dataset arrays {path}: {exc.strerror}") from None
    if hashlib.sha256(data).hexdigest() != sidecar["npz_sha256"]:
        raise DataError(f"{path} is not the file that {path.with_name('dataset.json')} was "
                        "written for (its SHA-256 differs); rebuild the dataset")
    try:
        loaded = np.load(io.BytesIO(data), allow_pickle=False)
        if not isinstance(loaded, np.lib.npyio.NpzFile):
            raise DataError(f"{path} is not an .npz archive")
        with loaded:
            arrays = {name: loaded[name] for name in _DATASET_ARRAYS}
    except KeyError as exc:
        raise DataError(f"{path} is missing the array {exc}") from None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a valid dataset array file: {exc}") from exc
    lengths = {**sidecar, "seconds": next(iter(arrays["second_features"].shape), 0)}
    for name, (dtype, length) in _DATASET_ARRAYS.items():  # second_features first
        dtype = np.min_scalar_type(len(names)) if dtype is None else dtype
        shape = arrays[name].shape
        ok = len(shape) == 2 if length is None else shape == (lengths[length],)
        if not ok or arrays[name].dtype != dtype:
            want = "2 dimensions" if length is None else f"shape ({lengths[length]},)"
            raise DataError(
                f"{path}: array {name!r} has shape {shape} and dtype {arrays[name].dtype}, "
                f"expected {want} of {np.dtype(dtype)}"
            )
    return arrays


def load_dataset(in_dir: str | Path) -> tuple[Dataset, Dataset]:
    """Read back a ``save_dataset`` directory as its (train, test) split.

    Each split holds the rows of its side of the stored ``test`` mask, in
    ascending row order.  Its rows are built once, as the windows of the
    stored per-second features at their starts (row i at second i),
    flattened and z-scored with the stored parameters: the float64 values
    ``build-dataset`` computes, bit for bit.  So are the labels, tags and
    attack-bit fraction (in ``provenance``), which ``window_labels`` derives
    from the stored per-second labels and codes over every window before
    the split.  Binary labels come back as int64.  A ``dataset.npz`` whose
    SHA-256 is not the one the sidecar records is refused, naming both files.
    """
    in_dir = Path(in_dir)
    json_path, npz_path = in_dir / "dataset.json", in_dir / "dataset.npz"
    if not json_path.exists():
        raise DataError(f"no dataset found under {in_dir}")
    sidecar = read_json_object(json_path, DataError, "dataset sidecar")
    try:
        if read_field(sidecar, "schema_version", Integral) != DATASET_SCHEMA_VERSION:
            raise ValueError(f"unsupported dataset schema version {sidecar['schema_version']} "
                             f"(expected {DATASET_SCHEMA_VERSION}); rebuild the dataset")
        provenance = read_field(sidecar, "provenance", dict)
        window = read_field(provenance, "window", Integral, Range(1))
        method = read_field(provenance, "method", str)
        d_model = read_field(provenance, "d_model", Integral, default=None)
        feature_names = read_field(provenance, "feature_names", list[str])
        read_field(sidecar, "feature_width", Integral, Range(1))
        rows = read_field(sidecar, "rows", Integral, Range(0))
        names = read_field(sidecar, "attack_names", list[str])
        read_field(sidecar, "npz_sha256", str)
        if method not in LABEL_METHODS:
            raise ValueError(f"unknown label method {method!r}")
        if names[:1] != [""] or names != sorted(set(names)):
            raise ValueError('attack_names must be sorted and unique, starting with ""')
        if method == "sspe":
            check_d_model(d_model)
    except (ValueError, ConfigError) as exc:
        raise DataError(f"{json_path}: {exc}") from None

    arrays = _read_dataset_arrays(npz_path, sidecar, names)
    seconds = arrays["second_features"]
    means, stds = arrays["zscore_means"], arrays["zscore_stds"]
    n = seconds.shape[0]  # its width is checked by the timeline and the z-score
    windows = max(n - window + 1, 0)
    if rows != windows:
        raise DataError(f"{npz_path}: {n} seconds hold {windows} windows of {window}, "
                        f"but the sidecar counts {rows} rows")
    if not (np.isfinite(means).all() and np.isfinite(stds).all() and (stds >= 0.0).all()):
        raise DataError(
            f"{npz_path}: z-score means must be finite, and standard deviations finite "
            "and not negative"
        )
    try:
        timeline = PacketTimeline(np.arange(n), seconds, arrays["labels"], feature_names,
                                  arrays["attack_codes"], names)
        values, binary, tags, fraction = window_labels(timeline, window, method, d_model)
    except DataError as exc:
        raise DataError(f"{npz_path}: {exc}") from None
    provenance = dict(provenance, attack_bit_fraction=fraction)
    zscore, test = ZScoreParams(means, stds), arrays["test"]

    def split(rows: np.ndarray) -> Dataset:  # row i is the window at second i
        try:
            return Dataset(
                features=zscore_apply(flatten_windows(seconds, np.flatnonzero(rows), window),
                                      zscore),
                spectrum_labels=values[rows],
                binary_labels=binary[rows],
                provenance=dict(provenance),
                tag_codes=tags[rows],
                attack_names=names,
            )
        except DataError as exc:
            raise DataError(f"{npz_path}: {exc}") from None

    return split(~test), split(test)
