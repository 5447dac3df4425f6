"""Sliding-window segmentation of a timeline with row-major flattening."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .ingest import PacketTimeline


def _window_starts(n_records: int, window_size: int, stride: int) -> np.ndarray:
    if window_size < 1:
        raise ConfigError("window size must be >= 1")
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if n_records < window_size:
        raise DataError(
            f"insufficient data: {n_records} records for window size {window_size}"
        )
    return np.arange(0, n_records - window_size + 1, stride, dtype=np.int64)


def flatten_windows(
    second_features: np.ndarray, starts: np.ndarray, window_size: int
) -> np.ndarray:
    """Row-major flattening of the W x F window at each start of an (n, F)
    per-second matrix: position p*F + j of row i holds feature j of second
    ``starts[i] + p``, so the result has shape (len(starts), window_size * F).
    Every start must lie in [0, n - window_size]."""
    # The view is (n - W + 1, F, W); swap to (.., W, F) before flattening.
    blocks = sliding_window_view(second_features, window_size, axis=0).transpose(0, 2, 1)
    return blocks[starts].reshape(len(starts), window_size * second_features.shape[1])


def window_matrices(
    timeline: PacketTimeline, window_size: int, stride: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Windows at start indices 0, stride, 2*stride, ...: (flattened features,
    label bits, starts).  Trailing partial windows are dropped, never padded.

    Feature rows come from ``flatten_windows``, so they have shape
    (n_windows, window_size * F); label bits have shape (n_windows, window_size).
    """
    starts = _window_starts(len(timeline), window_size, stride)
    features = flatten_windows(timeline.features, starts, window_size)
    labels = sliding_window_view(timeline.labels, window_size)[starts]
    return features, labels, starts


def window_binary_labels(label_bits: np.ndarray) -> np.ndarray:
    """Discrete per-window labels used by the baseline method: a window is
    positive when it contains at least one attack packet."""
    return (np.asarray(label_bits).sum(axis=1) > 0).astype(np.int64)


def window_attack_tags(
    timeline: PacketTimeline, window_size: int, stride: int = 1
) -> tuple[str, ...]:
    """Per-window attack-name tags, aligned with ``window_matrices`` rows.

    A window is tagged with the most frequent attack name among its attack
    packets (earliest-seen name wins ties); windows with no named attack
    packets get the empty tag.
    """
    starts = _window_starts(len(timeline), window_size, stride)
    code: dict[str, int] = {}  # attack name -> row of ``hits``
    codes = np.array([
        code.setdefault(a, len(code)) if bit and a else -1
        for a, bit in zip(timeline.attacks, timeline.labels.tolist())
    ], dtype=np.int64)
    if not code:
        return ("",) * starts.size
    names, n = list(code), len(timeline)
    hits = codes[None, :] == np.arange(len(names))[:, None]  # (names, n)
    running = np.zeros((len(names), n + 1), dtype=np.int64)
    np.cumsum(hits, axis=1, out=running[:, 1:])
    counts = running[:, starts + window_size] - running[:, starts]
    # First position at or after each second holding each name (n if none).
    next_at = np.where(hits, np.arange(n), n)
    next_at = np.minimum.accumulate(next_at[:, ::-1], axis=1)[:, ::-1]
    # Most hits first, then the earliest first hit inside the window.
    score = counts * (n + 1) + (n - next_at[:, starts])
    best = score.argmax(axis=0)
    return tuple(
        names[b] if c else "" for b, c in zip(best.tolist(), counts.max(axis=0).tolist())
    )
