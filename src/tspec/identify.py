"""Attack identification by cosine similarity of spectrum-label histograms.

A ``Registry`` holds every known attack's signature: the L1-normalized
histogram of its spectrum labels, one row of a ``(K, bins)`` matrix, over
the registry's one set of uniform bin edges, together with the label method
and ``d_model`` the labels came from.  A batch of predicted labels is
histogrammed with the same edges and attributed to the signature with the
highest cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, read_field, read_json_object, write_json

REGISTRY_FILE_VERSION = 2


@dataclass(frozen=True, eq=False)
class Registry:
    """Signatures of attacks ``attack_names``, row i of ``counts`` being
    attack i's histogram over ``bin_edges``; checked once, when built."""

    attack_names: tuple[str, ...]
    bin_edges: np.ndarray
    counts: np.ndarray
    method: str
    d_model: int | None

    def __post_init__(self):
        names, edges, counts = self.attack_names, self.bin_edges, self.counts
        if not names:
            raise DataError("registry contains no signatures")
        if len(set(names)) != len(names):
            raise DataError(f"signature attack names must be unique, got {list(names)}")
        if edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all():
            raise DataError("registry bin edges must be a finite vector of at least 2 values")
        if not (np.diff(edges) > 0).all():
            raise DataError("registry bin edges must be strictly increasing")
        if counts.shape != (len(names), edges.size - 1) or not np.isfinite(counts).all():
            raise DataError("every signature needs one finite count per bin")
        bad = [n for n, row in zip(names, counts) if (row < 0).any() or not row.any()]
        if bad:
            raise DataError(f"signatures {bad} need nonnegative counts, not all zero")


def _attack_labels(labels) -> np.ndarray:
    """The labels of attack-bearing windows: all-normal ones (label exactly
    0) are dropped."""
    values = np.asarray(labels, dtype=np.float64)
    return values[values != 0.0]


def _label_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Edges of ``bins`` uniform bins over [min, max] of ``values``.  A
    degenerate range (all values equal) is widened by half a unit on each
    side so the lone value still lands in a proper bin."""
    if bins < 2:
        raise ConfigError(f"signature needs at least 2 bins, got {bins}")
    lo, hi = float(values.min()), float(values.max())
    if lo >= hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bins + 1)


def _histograms(values: np.ndarray, sizes, edges: np.ndarray) -> np.ndarray:
    """Counts per bin of each run of ``values``, run i holding the next
    ``sizes[i]`` of them: row i of a ``(runs, bins)`` integer matrix, made in
    one pass.  Values outside the edges are clamped into the edge bins; as
    in ``np.histogram``, bins are closed on the left, the last bin on both
    sides, and NaN is not counted."""
    bins = edges.size - 1
    run = np.repeat(np.arange(len(sizes)), sizes)
    clipped = np.clip(values, edges[0], edges[-1])
    index = np.searchsorted(edges, clipped, side="right") - 1
    index[clipped == edges[-1]] = bins - 1
    number = index < bins  # NaN sorts after the last edge
    keys = run[number] * bins + index[number]
    return np.bincount(keys, minlength=len(sizes) * bins).reshape(len(sizes), bins)


def build_registry(
    labels_by_attack: dict[str, np.ndarray],
    bins: int,
    method: str,
    d_model: int | None = None,
) -> Registry:
    """Signatures for every attack, in the order of ``labels_by_attack``,
    over one shared range: [min, max] across all reference label sets,
    all-normal windows left out so signatures describe attack-bearing
    windows only."""
    if not labels_by_attack:
        raise DataError("registry needs at least one attack")
    cleaned = {name: _attack_labels(labels) for name, labels in labels_by_attack.items()}
    for name, values in cleaned.items():
        if values.size == 0:
            raise DataError(f"attack {name!r} has no usable spectrum labels")
    values = np.concatenate(list(cleaned.values()))
    edges = _label_edges(values, bins)
    counts = _histograms(values, [v.size for v in cleaned.values()], edges)
    return Registry(
        attack_names=tuple(cleaned),
        bin_edges=edges,
        counts=counts / counts.sum(axis=1, keepdims=True),
        method=method,
        d_model=d_model,
    )


@dataclass(frozen=True)
class IdentificationResult:
    predicted_attack: str
    similarities: dict[str, float]
    margin: float


def identify_runs(values, sizes, registry: Registry) -> list[IdentificationResult]:
    """One identification per run of predicted labels ``values``, run i
    holding the next ``sizes[i]`` of them: every run is histogrammed with
    the registry's edges in one pass and attributed to the signature of
    highest cosine similarity; ties go to the lowest signature index.

    Each similarity is ``(u @ v) / (|u| |v|)`` of a run's counts u and a
    signature v, one dot product per pair.  The signature norms are taken
    once per call, and a run's norm is the square root of its summed
    squared counts, which are integers, so it has ``np.linalg.norm``'s
    bits."""
    values = np.asarray(values, dtype=np.float64)
    if 0 in sizes:
        raise DataError("cannot identify from zero predicted labels")
    observed = _histograms(values, sizes, registry.bin_edges)
    observed_norms = np.sqrt((observed * observed).sum(axis=1)).tolist()
    if 0.0 in observed_norms:
        raise DataError("predicted labels produced an empty histogram")
    norms = [float(np.linalg.norm(row)) for row in registry.counts]
    results = []
    for u, nu in zip(observed.astype(np.float64), observed_norms):
        sims = [float(u @ v) / (nu * nv) for v, nv in zip(registry.counts, norms)]
        best = int(np.argmax(sims))  # first maximum: lowest index wins ties
        ordered = sorted(sims, reverse=True)
        results.append(IdentificationResult(
            predicted_attack=registry.attack_names[best],
            similarities=dict(zip(registry.attack_names, sims)),
            margin=float(ordered[0] - ordered[1]) if len(sims) > 1 else 0.0,
        ))
    return results


def save_registry(registry: Registry, path: str | Path) -> None:
    payload = {
        "version": REGISTRY_FILE_VERSION,
        "method": registry.method,
        "d_model": registry.d_model,
        "bin_edges": [float(v) for v in registry.bin_edges],
        "signatures": [
            {"attack_name": name, "counts": [float(v) for v in row]}
            for name, row in zip(registry.attack_names, registry.counts)
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, payload)


def load_registry(path: str | Path) -> Registry:
    path = Path(path)
    payload = read_json_object(path, DataError, "registry")
    try:
        if read_field(payload, "version", Integral) != REGISTRY_FILE_VERSION:
            raise ValueError(f"unsupported registry version {payload['version']}")
        names, counts = [], []
        for i, item in enumerate(read_field(payload, "signatures", list)):
            where = f"signature {i}: "
            names.append(read_field(item, "attack_name", str, where=where))
            counts.append(read_field(item, "counts", list[Real], where=where))
            unknown = sorted(set(item) - {"attack_name", "counts"})
            if unknown:
                raise ValueError(f"{where}unknown keys {unknown}")
        if len({row.size for row in counts}) > 1:
            raise ValueError("signatures must hold equally many counts")
        return Registry(
            attack_names=tuple(names),
            bin_edges=read_field(payload, "bin_edges", list[Real]),
            counts=np.array(counts, ndmin=2),
            method=read_field(payload, "method", str),
            d_model=read_field(payload, "d_model", Integral, default=None),
        )
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None
