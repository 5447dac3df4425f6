"""Sliding-window segmentation of a timeline with row-major flattening."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .ingest import PacketTimeline
from .spectrum import coap_values, is_spectrum_method, sspe_values


def _window_starts(n_records: int, window_size: int) -> np.ndarray:
    """The start of every window: one a second, 0 to ``n_records - window_size``."""
    if window_size < 1:
        raise ConfigError("window size must be >= 1")
    if n_records < window_size:
        raise DataError(
            f"insufficient data: {n_records} records for window size {window_size}"
        )
    return np.arange(n_records - window_size + 1, dtype=np.int64)


def flatten_windows(
    second_features: np.ndarray, starts: np.ndarray, window_size: int
) -> np.ndarray:
    """Row-major flattening of the W x F window at each start of an (n, F)
    per-second matrix: position p*F + j of row i holds feature j of second
    ``starts[i] + p``, so the result has shape (len(starts), window_size * F).
    Every start must lie in [0, n - window_size]."""
    # The view is (n - W + 1, F, W); swap to (.., W, F) before flattening.  From a
    # C-ordered input the gathered rows are C-ordered: the reshape copies nothing.
    blocks = sliding_window_view(np.ascontiguousarray(second_features), window_size, axis=0)
    return blocks.transpose(0, 2, 1)[starts].reshape(len(starts), window_size * blocks.shape[1])


def window_matrices(
    timeline: PacketTimeline, window_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Windows at start indices 0, 1, 2, ...: (flattened features, starts).
    Trailing partial windows are dropped, never padded.  Feature
    rows come from ``flatten_windows``, so they have shape
    (n_windows, window_size * F); ``window_labels`` labels the same windows.
    """
    starts = _window_starts(len(timeline), window_size)
    return flatten_windows(timeline.features, starts, window_size), starts


def window_binary_labels(label_bits: np.ndarray) -> np.ndarray:
    """Discrete per-window labels used by the baseline method: a window is
    positive when it contains at least one attack packet."""
    return (np.asarray(label_bits).sum(axis=1) > 0).astype(np.int64)


def window_labels(
    timeline: PacketTimeline, window_size: int, method: str, d_model: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(spectrum labels, binary labels, tag codes, attack-bit fraction: the
    mean label bit) of every window of ``window_matrices``.  The method's
    ``bits @ w`` (the baseline repeats the binary labels) is taken over all
    windows at once, since a BLAS product is not row-separable."""
    starts = _window_starts(len(timeline), window_size)
    bits = sliding_window_view(timeline.labels.astype(bool), window_size)[starts]
    binary = window_binary_labels(bits)
    if is_spectrum_method(method):
        values = coap_values(bits) if method == "coap" else sspe_values(bits, d_model)
    else:
        values = binary.astype(np.float64)
    return values, binary, window_attack_tags(timeline, window_size), float(bits.mean())


def _most_frequent_codes(windows: np.ndarray) -> np.ndarray:
    """Each row's most frequent code above 0, the earliest first hit winning
    ties, or 0 where it holds none: one sort of the rows' (code, position)
    keys."""
    w = windows.shape[1]
    bits = int(w).bit_length()
    keys = np.sort((windows << bits) | np.arange(w), axis=1).ravel()
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


def window_attack_tags(timeline: PacketTimeline, window_size: int) -> np.ndarray:
    """Per-window attack codes into ``timeline.attack_names``, aligned with
    ``window_matrices`` rows.

    A window gets the most frequent named code among its seconds (the
    earliest first hit in the window wins ties); a window without a named
    attack second gets code 0.  A window that holds one name is tagged with
    it by binary searches over the named seconds; only windows that hold
    two or more names are sorted, so memory grows with windows x W at most,
    never with the number of names.
    """
    codes = timeline.attack_codes
    starts = _window_starts(len(timeline), window_size)
    ends = starts + window_size
    tags = np.zeros(starts.size, dtype=codes.dtype)
    named = np.flatnonzero(codes)
    if named.size == 0:
        return tags
    # Each window's first named second, if it holds one, names the window
    # unless another name follows.
    first = named[np.minimum(np.searchsorted(named, starts), named.size - 1)]
    inside = (first >= starts) & (first < ends)
    tags[inside] = codes[first[inside]]
    # A window holds two names iff it holds two consecutive named seconds
    # with different codes; the first such pair from its start tells.
    change = np.flatnonzero(codes[named[1:]] != codes[named[:-1]])
    pair = np.searchsorted(named[change], starts)
    mixed = pair < change.size
    mixed[mixed] = named[change[pair[mixed]] + 1] < ends[mixed]
    mixed = np.flatnonzero(mixed)
    if mixed.size:
        tags[mixed] = _most_frequent_codes(sliding_window_view(codes, window_size)[starts[mixed]])
    return tags
