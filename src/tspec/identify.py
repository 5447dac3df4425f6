"""Attack identification by cosine similarity of spectrum-label histograms.

Each known attack gets a signature: the L1-normalized histogram of its
spectrum labels over shared, uniform bin edges.  A batch of predicted labels
is histogrammed with the same edges and attributed to the signature with the
highest cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, read_field, read_json_object, write_json

REGISTRY_FILE_VERSION = 1


@dataclass(frozen=True, eq=False)
class SpectrumSignature:
    attack_name: str
    bin_edges: np.ndarray
    counts: np.ndarray
    method: str
    d_model: int | None = None

    def __post_init__(self):
        edges = self.bin_edges
        if edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all():
            raise DataError("signature bin edges must be a finite vector of at least 2 values")
        if self.counts.shape != (edges.size - 1,) or not np.isfinite(self.counts).all():
            raise DataError("signature counts must have one finite entry per bin")
        if not (np.diff(edges) > 0).all():
            raise DataError("signature bin edges must be strictly increasing")


def _histogram(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    clipped = np.clip(values, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    return counts.astype(np.float64)


def build_signature(
    labels,
    attack_name: str,
    bins: int = 50,
    value_range: tuple[float, float] | None = None,
    method: str = "sspe",
    d_model: int | None = None,
) -> SpectrumSignature:
    """Uniform-bin, L1-normalized histogram of one attack's spectrum labels.

    Values outside ``value_range`` are clamped into the edge bins.  A
    degenerate range (all labels equal) is widened by half a unit on each
    side so the lone value still lands in a proper bin.
    """
    values = np.asarray(labels, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot build a signature from zero labels")
    if bins < 2:
        raise ConfigError(f"signature needs at least 2 bins, got {bins}")
    lo, hi = value_range if value_range is not None else (values.min(), values.max())
    if lo >= hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = _histogram(values, edges)
    return SpectrumSignature(
        attack_name=attack_name,
        bin_edges=edges,
        counts=counts / counts.sum(),
        method=method,
        d_model=d_model,
    )


def build_registry(
    labels_by_attack: dict[str, np.ndarray],
    bins: int = 50,
    method: str = "sspe",
    d_model: int | None = None,
) -> list[SpectrumSignature]:
    """Signatures for every attack over one shared range.

    The range is [min, max] across all reference label sets; all-normal
    windows (label exactly 0) are dropped so signatures describe
    attack-bearing windows only.
    """
    if not labels_by_attack:
        raise DataError("registry needs at least one attack")
    cleaned: dict[str, np.ndarray] = {}
    for name, labels in labels_by_attack.items():
        values = np.asarray(labels, dtype=np.float64)
        values = values[values != 0.0]
        if values.size == 0:
            raise DataError(f"attack {name!r} has no usable spectrum labels")
        cleaned[name] = values
    lo = min(float(v.min()) for v in cleaned.values())
    hi = max(float(v.max()) for v in cleaned.values())
    return [
        build_signature(v, name, bins=bins, value_range=(lo, hi), method=method, d_model=d_model)
        for name, v in cleaned.items()
    ]


def cosine_similarity(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DataError("cosine similarity needs two equal-length vectors")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise DataError("cosine similarity is undefined for a zero vector")
    return float(u @ v) / (nu * nv)


@dataclass(frozen=True)
class IdentificationResult:
    predicted_attack: str
    similarities: dict[str, float]
    margin: float


def identify_attack(
    predicted_labels, signatures: list[SpectrumSignature]
) -> IdentificationResult:
    """Histogram the predictions with the signatures' shared edges and pick
    the most similar signature; ties go to the lowest signature index."""
    if not signatures:
        raise DataError("identification needs at least one signature")
    names = [s.attack_name for s in signatures]
    if len(set(names)) != len(names):
        raise DataError("signature attack names must be unique")
    edges = signatures[0].bin_edges
    for sig in signatures[1:]:
        if sig.bin_edges.shape != edges.shape or not np.array_equal(sig.bin_edges, edges):
            raise DataError("signatures do not share bin edges")

    values = np.asarray(predicted_labels, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot identify from zero predicted labels")
    observed = _histogram(values, edges)
    if observed.sum() == 0.0:
        raise DataError("predicted labels produced an empty histogram")

    sims = [cosine_similarity(observed, sig.counts) for sig in signatures]
    best = int(np.argmax(sims))  # first maximum: lowest index wins ties
    ordered = sorted(sims, reverse=True)
    margin = float(ordered[0] - ordered[1]) if len(sims) > 1 else 0.0
    return IdentificationResult(
        predicted_attack=signatures[best].attack_name,
        similarities={name: float(s) for name, s in zip(names, sims)},
        margin=margin,
    )


def save_registry(signatures: list[SpectrumSignature], path: str | Path) -> None:
    payload = {
        "version": REGISTRY_FILE_VERSION,
        "signatures": [
            {
                "attack_name": s.attack_name,
                "bin_edges": [float(v) for v in s.bin_edges],
                "counts": [float(v) for v in s.counts],
                "method": s.method,
                "d_model": s.d_model,
            }
            for s in signatures
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, payload)


def load_registry(path: str | Path) -> list[SpectrumSignature]:
    path = Path(path)
    payload = read_json_object(path, DataError, "registry")
    try:
        if read_field(payload, "version", Integral) != REGISTRY_FILE_VERSION:
            raise ValueError(f"unsupported registry version {payload['version']}")
        items = read_field(payload, "signatures", list, default=[])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    signatures = []
    for i, item in enumerate(items):
        try:
            signatures.append(SpectrumSignature(
                attack_name=read_field(item, "attack_name", str),
                bin_edges=read_field(item, "bin_edges", list[Real]),
                counts=read_field(item, "counts", list[Real]),
                method=read_field(item, "method", str),
                d_model=read_field(item, "d_model", Integral, default=None),
            ))
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}: signature {i} is malformed: {exc}") from None
    if not signatures:
        raise DataError(f"{path}: registry contains no signatures")
    return signatures
