"""Dataset preparation: standardization, splitting, noise, and synthesis.

The central type is ``Dataset``: one row per sliding-window position, with
the flattened feature block, the continuous spectrum label, and the discrete
window label (1 iff the window contains any attack packet).  Noise injection
operates on standardized features so a single scale parameter means the same
thing across features.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, Range, atomic_write, read_field, read_json_object,
                     write_json)
from .ingest import PacketTimeline
from .spectrum import LABEL_METHODS, coap_values, is_spectrum_method, sspe_values
from .windowing import flatten_windows, window_attack_tags, window_binary_labels, window_matrices

ATTACK_PATTERNS = ("burst", "periodic", "ramp")
DATASET_SCHEMA_VERSION = 3
# dataset.npz members: name -> (dtype, the sidecar key giving its length).
# ``second_features`` is the (seconds, F) matrix the rows are windowed from.
_DATASET_ARRAYS = {
    "second_features": (np.float64, None),
    "window_starts": (np.int64, "rows"),
    "spectrum_labels": (np.float64, "rows"),
    "binary_labels": (np.int64, "rows"),
    "test": (np.bool_, "rows"),
    "tag_codes": (np.int32, "rows"),
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


def zscore_fit(features: np.ndarray) -> ZScoreParams:
    """Per-column mean and standard deviation.  Raises ``DataError`` when
    one of them is not finite, as when a column's sum overflows."""
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise DataError("z-score fit needs a non-empty 2-D matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0)
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
    echoes how the rows were built (window size, stride, method, seeds, ...).
    ``second_features`` and ``window_starts`` (set by ``assemble_dataset``
    and ``load_dataset``) are the (n, F) per-second matrix the rows were
    windowed from and each row's start second in it: row i is the window at
    ``window_starts[i]``, flattened, raw from ``assemble_dataset`` and
    z-scored from ``load_dataset``.  ``save_dataset`` stores these, never
    the rows.
    """

    features: np.ndarray
    spectrum_labels: np.ndarray
    binary_labels: np.ndarray
    provenance: dict = field(default_factory=dict)
    tag_codes: np.ndarray | None = None
    attack_names: tuple[str, ...] = ("",)
    second_features: np.ndarray | None = None
    window_starts: np.ndarray | None = None

    def __post_init__(self):
        m = self.features.shape[0]
        self.tag_codes = np.zeros(m, np.int64) if self.tag_codes is None else self.tag_codes
        self.attack_names = tuple(self.attack_names)
        shapes = {self.spectrum_labels.shape, self.binary_labels.shape, self.tag_codes.shape}
        if self.window_starts is not None:
            shapes.add(self.window_starts.shape)
        if shapes != {(m,)}:
            raise DataError("dataset label vectors, tag codes and window starts must align "
                            "with feature rows")
        if m and not 0 <= self.tag_codes.min() <= self.tag_codes.max() < len(self.attack_names):
            raise DataError(f"tag codes must lie in [0, {len(self.attack_names)}), one per name")

    def __len__(self) -> int:
        return self.features.shape[0]


def split_dataset(
    ds: Dataset, test_fraction: float, seed: int, stratify: bool = True
) -> np.ndarray:
    """A seeded train/test partition as a bool mask, True for test rows.

    The test side gets round(M * test_fraction) rows; with ``stratify`` the
    rounding is applied per binary-label class, preserving class proportions
    within one sample.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test fraction must be in (0, 1), got {test_fraction}")
    m = len(ds)
    if m < 2:
        raise DataError("need at least 2 rows to split")

    rng = np.random.default_rng(seed)
    test = np.zeros(m, dtype=bool)
    if stratify:
        for cls in (0, 1):
            idx = np.flatnonzero(ds.binary_labels == cls)
            test[rng.permutation(idx)[: int(round(idx.size * test_fraction))]] = True
    else:
        test[rng.permutation(m)[: int(round(m * test_fraction))]] = True
    return test


@dataclass(frozen=True)
class NoiseSpec:
    """Fraction of rows to perturb, noise scale, and the stream seed."""

    ratio: float
    scale: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"noise ratio must be in [0, 1], got {self.ratio}")
        if not 0.0 < self.scale < math.inf:
            raise ConfigError(f"noise scale must be positive and finite, got {self.scale}")


def inject_noise(features: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """A copy of the (M, D) feature matrix with seeded Gaussian noise added
    to exactly round(ratio * M) rows.

    Rows are chosen uniformly without replacement; every feature of a chosen
    row receives independent N(0, scale^2) noise.  Ratio 0 returns a
    bit-exact copy.
    """
    m = features.shape[0]
    n_rows = int(round(spec.ratio * m))
    noised = features.copy()
    if n_rows > 0:
        rng = np.random.default_rng(spec.seed)
        rows = rng.choice(m, size=n_rows, replace=False)
        noised[rows] += rng.normal(0.0, spec.scale, size=(n_rows, features.shape[1]))
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


def assemble_dataset(
    timeline: PacketTimeline,
    window_size: int,
    stride: int,
    method: str,
    d_model: int | None = None,
) -> Dataset:
    """Window the timeline and attach spectrum + window labels.

    ``spectrum_labels`` hold the method's continuous values (for the baseline
    method they simply repeat the discrete window label); ``binary_labels``
    always hold the ground-truth window label (1 iff any attack packet).
    """
    if method not in LABEL_METHODS:
        raise ConfigError(f"label method must be one of {LABEL_METHODS}, got {method!r}")
    features, label_bits, starts = window_matrices(timeline, window_size, stride)
    window_labels = window_binary_labels(label_bits)

    if not is_spectrum_method(method):
        values = window_labels.astype(np.float64)
    elif method == "coap":
        values = coap_values(label_bits)
    else:
        values = sspe_values(label_bits, d_model)

    provenance = {
        "window": window_size,
        "stride": stride,
        "method": method,
        "d_model": d_model if method == "sspe" else None,
        "attack_bit_fraction": float(np.asarray(label_bits).mean()),
        "feature_names": list(timeline.feature_names),
    }
    return Dataset(
        features=features,
        spectrum_labels=values,
        binary_labels=window_labels,
        provenance=provenance,
        tag_codes=window_attack_tags(timeline, window_size, stride),
        attack_names=timeline.attack_names,
        second_features=timeline.features,
        window_starts=starts,
    )


def save_dataset(
    ds: Dataset,
    out_dir: str | Path,
    zscore: ZScoreParams,
    test: np.ndarray,
    sidecar_extra: dict | None = None,
) -> None:
    """Write ``dataset.npz`` and its ``dataset.json`` sidecar, each atomically.

    The rows are not stored: ``dataset.npz`` holds the per-second features
    and one window start per row, and ``load_dataset`` builds each row as
    the window at its start, flattened and z-scored with ``zscore``.  So
    ``ds.features`` is never read, and a dataset that was not windowed from
    per-second features raises a ``DataError``, as do a ``test`` mask or
    z-score parameters of another length.  Every other per-row or
    per-column array goes into ``dataset.npz`` too: the two label vectors,
    the ``test`` mask (True for a test row), the tag codes, and the z-score
    parameters.  The sidecar holds the row count, feature width,
    provenance, the attack names that some row is tagged with (the codes
    are renumbered into them), and any extras (split settings, seeds).
    """
    window = ds.provenance.get("window")
    if any(v is None for v in (ds.second_features, ds.window_starts, window)):
        raise DataError("only a dataset windowed from per-second features can be saved")
    rows, width = ds.window_starts.size, ds.second_features.shape[1] * window
    if np.shape(test) != (rows,):
        raise DataError(f"the test mask has shape {np.shape(test)}, expected ({rows},)")
    if {np.shape(zscore.means), np.shape(zscore.stds)} != {(width,)}:
        raise DataError(f"the z-score parameters must have one value per feature column ({width})")

    used, codes = np.unique(ds.tag_codes, return_inverse=True)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "dataset.npz", "wb") as handle:
        np.savez(
            handle,
            second_features=np.asarray(ds.second_features, dtype=np.float64),
            window_starts=np.asarray(ds.window_starts, dtype=np.int64),
            spectrum_labels=np.asarray(ds.spectrum_labels, dtype=np.float64),
            binary_labels=np.asarray(ds.binary_labels, dtype=np.int64),
            test=np.asarray(test, dtype=bool),
            tag_codes=codes.astype(np.int32),
            zscore_means=np.asarray(zscore.means, dtype=np.float64),
            zscore_stds=np.asarray(zscore.stds, dtype=np.float64),
        )
    sidecar = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "rows": rows,
        "feature_width": width,
        "provenance": ds.provenance,
        "attack_names": [ds.attack_names[i] for i in used.tolist()],
        **(sidecar_extra or {}),
    }
    write_json(out_dir / "dataset.json", sidecar)


def _read_dataset_arrays(path: Path, lengths: dict[str, int]) -> dict[str, np.ndarray]:
    """The ``dataset.npz`` members, each checked for dtype and shape:
    ``lengths`` maps ``rows`` and ``feature_width`` to their sidecar values."""
    if not path.exists():
        raise DataError(f"dataset arrays not found: {path}")
    try:
        # An open handle: np.load leaks the one it opens when the zip is bad.
        with path.open("rb") as handle:
            loaded = np.load(handle, allow_pickle=False)
            if not isinstance(loaded, np.lib.npyio.NpzFile):
                raise DataError(f"{path} is not an .npz archive")
            with loaded:
                arrays = {name: loaded[name] for name in _DATASET_ARRAYS}
    except KeyError as exc:
        raise DataError(f"{path} is missing the array {exc}") from None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a valid dataset array file: {exc}") from exc
    for name, (dtype, length) in _DATASET_ARRAYS.items():
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
    stored per-second features at their starts, flattened and z-scored
    with the stored parameters: the float64 values ``build-dataset``
    computes, bit for bit.
    """
    in_dir = Path(in_dir)
    json_path = in_dir / "dataset.json"
    npz_path = in_dir / "dataset.npz"
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
        read_field(provenance, "d_model", Integral, default=None)
        read_field(provenance, "attack_bit_fraction", Real, Range(0, 1))
        width = read_field(sidecar, "feature_width", Integral, Range(1))
        rows = read_field(sidecar, "rows", Integral, Range(0))
        names = read_field(sidecar, "attack_names", list[str])
        if method not in LABEL_METHODS:
            raise ValueError(f"unknown label method {method!r}")
        if names != sorted(set(names)):
            raise ValueError("attack_names must be sorted and unique")
    except ValueError as exc:
        raise DataError(f"{json_path}: {exc}") from None

    arrays = _read_dataset_arrays(npz_path, {"rows": rows, "feature_width": width})
    seconds, starts = arrays["second_features"], arrays["window_starts"]
    means, stds = arrays["zscore_means"], arrays["zscore_stds"]
    n, f = seconds.shape
    if f * window != width:
        raise DataError(
            f"{npz_path}: {f} per-second features in windows of {window} do not give "
            f"the sidecar's feature width {width}"
        )
    if n < window or (rows and (starts.min() < 0 or starts.max() > n - window)):
        raise DataError(
            f"{npz_path}: window starts must lie in [0, {n - window}] for {n} seconds "
            f"and window {window}"
        )
    if not (np.isfinite(means).all() and np.isfinite(stds).all() and (stds >= 0.0).all()):
        raise DataError(
            f"{npz_path}: z-score means must be finite, and standard deviations finite "
            "and not negative"
        )

    zscore, test = ZScoreParams(means, stds), arrays["test"]

    def split(rows: np.ndarray) -> Dataset:
        try:
            return Dataset(
                features=zscore_apply(flatten_windows(seconds, starts[rows], window), zscore),
                spectrum_labels=arrays["spectrum_labels"][rows],
                binary_labels=arrays["binary_labels"][rows],
                provenance=dict(provenance),
                tag_codes=arrays["tag_codes"][rows],
                attack_names=names,
                second_features=seconds,
                window_starts=starts[rows],
            )
        except DataError as exc:
            raise DataError(f"{npz_path}: {exc}") from None

    return split(~test), split(test)
