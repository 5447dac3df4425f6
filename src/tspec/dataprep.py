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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, atomic_write, read_json_object, write_json
from .ingest import PacketTimeline
from .spectrum import LABEL_METHODS, coap_values, is_spectrum_method, sspe_values
from .windowing import flatten_windows, window_attack_tags, window_binary_labels, window_matrices

ATTACK_PATTERNS = ("burst", "periodic", "ramp")
DATASET_SCHEMA_VERSION = 2
# dataset.npz members: (name, dimensions, dtype).
_DATASET_ARRAYS = (
    ("second_features", 2, np.float64),
    ("window_starts", 1, np.int64),
    ("spectrum_labels", 1, np.float64),
    ("binary_labels", 1, np.int64),
)


@dataclass(frozen=True)
class ZScoreParams:
    """Per-column population mean and standard deviation."""

    means: np.ndarray
    stds: np.ndarray
    constant_mask: np.ndarray

    def to_dict(self) -> dict:
        return {
            "means": [float(v) for v in self.means],
            "stds": [float(v) for v in self.stds],
            "constant_mask": [int(v) for v in self.constant_mask],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ZScoreParams":
        return cls(
            means=np.asarray(data["means"], dtype=np.float64),
            stds=np.asarray(data["stds"], dtype=np.float64),
            constant_mask=np.asarray(data["constant_mask"], dtype=bool),
        )


def zscore_fit(features: np.ndarray) -> ZScoreParams:
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise DataError("z-score fit needs a non-empty 2-D matrix")
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)
    return ZScoreParams(means=means, stds=stds, constant_mask=stds == 0.0)


def zscore_apply(features: np.ndarray, params: ZScoreParams) -> np.ndarray:
    """(x - mean) / std per column; constant columns map to 0."""
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != params.means.size:
        raise DataError(
            f"feature width {matrix.shape[-1] if matrix.ndim == 2 else '?'} does not "
            f"match fitted width {params.means.size}"
        )
    safe_stds = np.where(params.constant_mask, 1.0, params.stds)
    out = (matrix - params.means) / safe_stds
    out[:, params.constant_mask] = 0.0
    return out


@dataclass(eq=False)
class Dataset:
    """Model-ready rows: features, spectrum label, and window label per row.

    ``window_tags`` (optional) carries the per-row attack name so segments of
    one attack can be grouped during identification; ``provenance`` echoes
    how the rows were built (window size, stride, method, seeds, ...).
    ``second_features`` and ``window_starts`` (set by ``assemble_dataset``
    and ``load_dataset``) are the (n, F) per-second matrix the rows were
    windowed from and each row's start second in it; ``save_dataset`` stores
    these instead of the rows, after checking that they rebuild them.
    """

    features: np.ndarray
    spectrum_labels: np.ndarray
    binary_labels: np.ndarray
    provenance: dict = field(default_factory=dict)
    window_tags: tuple[str, ...] | None = None
    second_features: np.ndarray | None = None
    window_starts: np.ndarray | None = None

    def __post_init__(self):
        m = self.features.shape[0]
        if self.spectrum_labels.shape != (m,) or self.binary_labels.shape != (m,):
            raise DataError("dataset label vectors must align with feature rows")
        if self.window_tags is not None and len(self.window_tags) != m:
            raise DataError("dataset window tags must align with feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices: np.ndarray, role: str | None = None) -> "Dataset":
        """Row subset in the given index order, with provenance annotated."""
        indices = np.asarray(indices, dtype=np.int64)
        prov = dict(self.provenance)
        if role is not None:
            prov["role"] = role
        prov["row_indices"] = [int(i) for i in indices]
        return Dataset(
            features=self.features[indices].copy(),
            spectrum_labels=self.spectrum_labels[indices].copy(),
            binary_labels=self.binary_labels[indices].copy(),
            provenance=prov,
            window_tags=None
            if self.window_tags is None
            else tuple(self.window_tags[i] for i in indices),
            second_features=self.second_features,
            window_starts=None if self.window_starts is None else self.window_starts[indices],
        )


def split_dataset(
    ds: Dataset, test_fraction: float, seed: int, stratify: bool = True
) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive train/test partition with a seeded shuffle.

    The test side gets round(M * test_fraction) rows; with ``stratify`` the
    rounding is applied per binary-label class, preserving class proportions
    within one sample.  Selected indices are re-sorted so both parts keep the
    original row order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test fraction must be in (0, 1), got {test_fraction}")
    m = len(ds)
    if m < 2:
        raise DataError("need at least 2 rows to split")

    rng = np.random.default_rng(seed)
    if stratify:
        test_parts = []
        for cls in (0, 1):
            idx = np.flatnonzero(ds.binary_labels == cls)
            n_test = int(round(idx.size * test_fraction))
            test_parts.append(rng.permutation(idx)[:n_test])
        test_idx = np.sort(np.concatenate(test_parts))
    else:
        perm = rng.permutation(m)
        test_idx = np.sort(perm[: int(round(m * test_fraction))])

    mask = np.zeros(m, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    return ds.take(train_idx, role="train"), ds.take(test_idx, role="test")


def downsample_majority(ds: Dataset, majority_ratio: float, seed: int) -> Dataset:
    """Optional class rebalancing: thin the majority binary class down to at
    most ``majority_ratio`` times the minority count.  Disabled by default in
    the pipeline; row order is preserved."""
    if not 0.0 < majority_ratio < math.inf:
        raise ConfigError(f"majority ratio must be positive and finite, got {majority_ratio}")
    ones = np.flatnonzero(ds.binary_labels == 1)
    zeros = np.flatnonzero(ds.binary_labels == 0)
    if ones.size == 0 or zeros.size == 0:
        return ds.take(np.arange(len(ds)))
    minority, majority = (ones, zeros) if ones.size <= zeros.size else (zeros, ones)
    cap = int(round(min(minority.size * majority_ratio, majority.size)))
    if majority.size <= cap:
        return ds.take(np.arange(len(ds)))
    rng = np.random.default_rng(seed)
    kept_majority = rng.permutation(majority)[:cap]
    keep = np.sort(np.concatenate([minority, kept_majority]))
    return ds.take(keep)


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


def inject_noise(ds: Dataset, spec: NoiseSpec) -> Dataset:
    """Add seeded Gaussian noise to exactly round(ratio * M) rows.

    Rows are chosen uniformly without replacement; every feature of a chosen
    row receives independent N(0, scale^2) noise.  Labels and tags are never
    touched, and ratio 0 returns a bit-exact copy.
    """
    m = len(ds)
    n_rows = int(round(spec.ratio * m))
    features = ds.features.copy()
    if n_rows > 0:
        rng = np.random.default_rng(spec.seed)
        rows = rng.choice(m, size=n_rows, replace=False)
        features[rows] += rng.normal(0.0, spec.scale, size=(n_rows, features.shape[1]))
    return replace(ds, features=features)


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
        try:
            segments = tuple(
                AttackSegment(
                    name=s["name"],
                    start=int(s["start"]),
                    length=int(s["length"]),
                    pattern=s["pattern"],
                    period=int(s.get("period", 3)),
                    offset=tuple(s["offset"]) if isinstance(s.get("offset"), list) else float(s.get("offset", 1.0)),
                )
                for s in data["segments"]
            )
            return cls(
                duration=int(data["duration"]),
                feature_count=int(data["feature_count"]),
                segments=segments,
                normal_mean=tuple(data["normal_mean"]) if isinstance(data.get("normal_mean"), list) else float(data.get("normal_mean", 0.0)),
                normal_std=tuple(data["normal_std"]) if isinstance(data.get("normal_std"), list) else float(data.get("normal_std", 1.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"scenario is missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scenario holds a value of the wrong type: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticScenario":
        path = Path(path)
        if not path.exists():
            raise DataError(f"scenario file not found: {path}")
        data = read_json_object(path, ConfigError, "scenario")
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def _per_feature(value, width: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be numeric, got {value!r}") from None
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

    features = np.random.default_rng(seed).normal(mean, std, size=(scenario.duration, width))
    labels = np.zeros(scenario.duration, dtype=np.int64)
    attacks = [""] * scenario.duration
    for seg in scenario.segments:
        shift = _per_feature(seg.offset, width, f"offset of segment {seg.name!r}")
        seconds = [seg.start + off for off in seg.attack_offsets()]
        features[seconds] += shift
        labels[seconds] = 1
        for second in seconds:
            attacks[second] = seg.name
    return PacketTimeline(
        seconds=np.arange(scenario.duration),
        features=features,
        labels=labels,
        feature_names=tuple(f"f{j}" for j in range(width)),
        attacks=attacks,
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

    tags = window_attack_tags(timeline, window_size, stride)
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
        window_tags=tags,
        second_features=timeline.features,
        window_starts=starts,
    )


def _rows_from_seconds(
    second_features: np.ndarray, starts: np.ndarray, window_size: int, zscore: ZScoreParams
) -> np.ndarray:
    """The standardized, flattened window rows that ``save_dataset`` stores
    as per-second features plus window starts."""
    return zscore_apply(flatten_windows(second_features, starts, window_size), zscore)


def save_dataset(
    ds: Dataset,
    out_dir: str | Path,
    zscore: ZScoreParams,
    sidecar_extra: dict | None = None,
) -> None:
    """Write ``dataset.npz`` and its ``dataset.json`` sidecar, each atomically.

    The rows are not stored one by one: ``dataset.npz`` holds the per-second
    features, one window start per row and the two label vectors, and
    ``load_dataset`` rebuilds the rows as the z-scored flattened windows at
    those starts.  ``ds.features`` must equal that rebuild bit for bit, so a
    dataset that was not windowed from its ``second_features`` (noise-injected
    or built by hand) raises a ``DataError``.  The sidecar holds the row count,
    feature width, provenance, z-score parameters, window tags, and any
    extras (split indices, seeds).
    """
    window = ds.provenance.get("window")
    if ds.second_features is None or ds.window_starts is None or window is None:
        raise DataError("only a dataset windowed from per-second features can be saved")
    rebuilt = _rows_from_seconds(ds.second_features, ds.window_starts, window, zscore)
    features = ds.features
    if not (
        features.dtype == np.float64
        and features.shape == rebuilt.shape
        and np.array_equal(features.view(np.uint64), rebuilt.view(np.uint64))
    ):
        raise DataError(
            "dataset features differ from the z-scored windows of its per-second "
            "features; refusing to save rows that would not load back"
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "dataset.npz", "wb") as handle:
        np.savez(
            handle,
            second_features=np.asarray(ds.second_features, dtype=np.float64),
            window_starts=np.asarray(ds.window_starts, dtype=np.int64),
            spectrum_labels=np.asarray(ds.spectrum_labels, dtype=np.float64),
            binary_labels=np.asarray(ds.binary_labels, dtype=np.int64),
        )
    sidecar = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "rows": len(ds),
        "feature_width": features.shape[1],
        "provenance": ds.provenance,
        "zscore": zscore.to_dict(),
        "window_tags": list(ds.window_tags) if ds.window_tags is not None else None,
    }
    if sidecar_extra:
        sidecar.update(sidecar_extra)
    write_json(out_dir / "dataset.json", sidecar)


def _read_dataset_arrays(path: Path) -> dict[str, np.ndarray]:
    """The ``dataset.npz`` members, each checked for dimensions and dtype."""
    if not path.exists():
        raise DataError(f"dataset arrays not found: {path}")
    try:
        # An open handle: np.load leaks the one it opens when the zip is bad.
        with path.open("rb") as handle:
            loaded = np.load(handle, allow_pickle=False)
            if not isinstance(loaded, np.lib.npyio.NpzFile):
                raise DataError(f"{path} is not an .npz archive")
            with loaded:
                arrays = {name: loaded[name] for name, _, _ in _DATASET_ARRAYS}
    except KeyError as exc:
        raise DataError(f"{path} is missing the array {exc}") from None
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path} is not a valid dataset array file: {exc}") from exc
    for name, ndim, dtype in _DATASET_ARRAYS:
        if arrays[name].ndim != ndim or arrays[name].dtype != dtype:
            raise DataError(
                f"{path}: array {name!r} has shape {arrays[name].shape} and dtype "
                f"{arrays[name].dtype}, expected {ndim} dimensions of {np.dtype(dtype)}"
            )
    return arrays


def load_dataset(in_dir: str | Path) -> tuple[Dataset, dict]:
    """Read back a ``save_dataset`` directory; returns (dataset, sidecar).

    The rows are rebuilt from the stored per-second features and window
    starts, then z-scored with the stored parameters: the same float64
    values, bit for bit, that were saved.
    """
    in_dir = Path(in_dir)
    json_path = in_dir / "dataset.json"
    npz_path = in_dir / "dataset.npz"
    if not json_path.exists():
        raise DataError(f"no dataset found under {in_dir}")
    sidecar = read_json_object(json_path, DataError, "dataset sidecar")
    version = sidecar.get("schema_version")
    if version != DATASET_SCHEMA_VERSION:
        raise DataError(
            f"{json_path}: unsupported dataset schema version {version!r} "
            f"(expected {DATASET_SCHEMA_VERSION}); rebuild the dataset"
        )
    try:
        window = int(sidecar["provenance"]["window"])
        method = sidecar["provenance"]["method"]
        fraction = sidecar["provenance"]["attack_bit_fraction"]
        width = int(sidecar["feature_width"])
        rows = int(sidecar["rows"])
        zscore = ZScoreParams.from_dict(sidecar["zscore"])
        tags = sidecar.get("window_tags")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{json_path}: malformed dataset sidecar: {exc!r}") from None
    if method not in LABEL_METHODS:
        raise DataError(f"{json_path}: unknown label method {method!r}")
    if type(fraction) not in (int, float) or not 0.0 <= fraction <= 1.0:
        raise DataError(f"{json_path}: attack_bit_fraction {fraction!r} is not in [0, 1]")
    if tags is not None:
        if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
            raise DataError(f"{json_path}: window_tags must be a list of strings")
        tags = tuple(tags)

    arrays = _read_dataset_arrays(npz_path)
    seconds = arrays["second_features"]
    starts = arrays["window_starts"]
    n, f = seconds.shape
    if window < 1 or f * window != width:
        raise DataError(
            f"{npz_path}: {f} per-second features in windows of {window} do not give "
            f"the sidecar's feature width {width}"
        )
    if {zscore.means.size, zscore.stds.size, zscore.constant_mask.size} != {width}:
        raise DataError(f"{json_path}: z-score parameters do not have width {width}")
    for name in ("window_starts", "spectrum_labels", "binary_labels"):
        if arrays[name].shape != (rows,):
            raise DataError(f"{npz_path}: {name} has {arrays[name].size} entries, expected {rows}")
    if tags is not None and len(tags) != rows:
        raise DataError(f"{json_path}: {len(tags)} window tags for {rows} rows")
    if n < window or (rows and (starts.min() < 0 or starts.max() > n - window)):
        raise DataError(
            f"{npz_path}: window starts must lie in [0, {n - window}] for {n} seconds "
            f"and window {window}"
        )

    ds = Dataset(
        features=_rows_from_seconds(seconds, starts, window, zscore),
        spectrum_labels=arrays["spectrum_labels"],
        binary_labels=arrays["binary_labels"],
        provenance=dict(sidecar["provenance"]),
        window_tags=tags,
        second_features=seconds,
        window_starts=starts,
    )
    return ds, sidecar
