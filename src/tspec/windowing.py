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
) -> np.ndarray:
    """Per-window attack codes into ``timeline.attack_names``, aligned with
    ``window_matrices`` rows.

    A window gets the most frequent named code among its seconds (the
    earliest first hit in the window wins ties); a window without a named
    attack second gets code 0.  Memory grows with windows x W, never with
    the number of names.
    """
    starts = _window_starts(len(timeline), window_size, stride)
    w, bits = window_size, int(window_size).bit_length()
    # Each window's (code, position) pairs in ascending order, as one key.
    windows = sliding_window_view(timeline.attack_codes, w)[starts] << bits
    keys = np.sort(windows | np.arange(w), axis=1).ravel()
    codes = keys >> bits
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    first[::w] = True
    runs = np.flatnonzero(first)  # one run per (window, code), first hit first
    hits = np.diff(runs, append=codes.size)
    at = keys[runs] & ((1 << bits) - 1)
    # Most hits first, then the earliest first hit; unique within a window.
    score = np.where(codes[runs] > 0, hits * (w + 1) + (w - at), -1)
    window_runs = np.flatnonzero(runs % w == 0)
    best = np.maximum.reduceat(score, window_runs)
    return codes[runs][score == np.repeat(best, np.diff(window_runs, append=runs.size))]
