"""Spectrum labels: continuous scalar summaries of a window's binary labels.

Of the three label methods, the baseline labels a window with its discrete
any-attack bit; COAP and SSPE label it with a spectrum value ``bits @ w``
over its (W,) attack bits, where ``position_weights`` gives ``w``:

* ``coap_values`` -- ``w = 1``: the count of attack packets in the window.
  Position-blind; an intensity measure.
* ``sspe_values`` -- ``w[p]`` is the sum of every component of the
  sinusoidal positional encoding of position p (Vaswani et al., 2017).
  Position-sensitive, so two windows with the same attack count but
  different attack placement get different labels.

Binarization back to {0,1} uses a rank threshold over the spectrum values so
that the positive fraction matches the attack proportion of the underlying
packets (see ``compute_threshold`` for the two supported modes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError

ENCODING_BASE = 10000.0
THRESHOLD_MODES = ("rank-default", "as-paper")
LABEL_METHODS = ("baseline", "coap", "sspe")


def is_spectrum_method(method: str) -> bool:
    """Whether a label method labels windows with spectrum values that a
    threshold fitted on the training split binarizes (COAP, SSPE), rather
    than with the window's any-attack bit (the baseline)."""
    return method != "baseline"


@dataclass(frozen=True)
class EncodingConfig:
    """Sinusoidal encoding dimension; the base of the frequency ladder is
    fixed at ``ENCODING_BASE``."""

    d_model: int

    def __post_init__(self):
        if self.d_model < 2 or self.d_model % 2 != 0:
            raise ConfigError(f"d_model must be an even integer >= 2, got {self.d_model}")


@dataclass(frozen=True)
class ThresholdSpec:
    """Binarization cutoff plus the rank bookkeeping that produced it."""

    tau: float
    mode: str
    n1: int
    n: int

    def __post_init__(self):
        if not 0 <= self.n1 <= self.n:
            raise ConfigError(f"need 0 <= n1 <= n, got n1={self.n1}, n={self.n}")


def encoding_matrix(length: int, config: EncodingConfig) -> np.ndarray:
    """Sinusoidal encodings of positions 0..length-1, shape (length, d_model).

    Component 2i of row pos is sin(pos / base^(2i/d_model)) and component
    2i+1 is the matching cosine, for i in [0, d_model/2).
    """
    half = np.arange(config.d_model // 2, dtype=np.float64)
    scale = ENCODING_BASE ** (2.0 * half / config.d_model)
    angles = np.arange(length, dtype=np.float64)[:, None] / scale[None, :]
    out = np.empty((length, config.d_model), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def position_weights(method: str, window: int, d_model: int | None = None) -> np.ndarray:
    """The (window,) weights ``w`` of spectrum method COAP or SSPE, whose
    label of a window is ``bits @ w``: ones for COAP, and for SSPE the row
    sums of the ``d_model``-dimensional encoding of positions 0..window-1."""
    if method == "coap":
        return np.ones(window, dtype=np.float64)
    return encoding_matrix(window, EncodingConfig(d_model=d_model)).sum(axis=1)


def coap_values(label_bits: np.ndarray) -> np.ndarray:
    """Count of attack packets in each row of a (n_windows, W) bit matrix."""
    bits = np.asarray(label_bits, dtype=np.float64)
    return bits @ position_weights("coap", bits.shape[1])


def sspe_values(label_bits: np.ndarray, config: EncodingConfig) -> np.ndarray:
    """Sum of all encoding components over each window's attack positions,
    for a (n_windows, W) bit matrix.

    Normal positions contribute nothing (their label multiplies the encoding
    by zero), so the value reflects only where the attack packets sit.
    """
    bits = np.asarray(label_bits, dtype=np.float64)
    return bits @ position_weights("sspe", bits.shape[1], config.d_model)


def proportional_positive_count(n_windows: int, attack_bit_fraction: float) -> int:
    """Number of windows to mark positive so the positive fraction matches
    the attack proportion of the underlying packet labels."""
    if not 0.0 <= attack_bit_fraction <= 1.0:
        raise ConfigError(f"attack fraction must be in [0, 1], got {attack_bit_fraction}")
    return int(round(n_windows * attack_bit_fraction))


def compute_threshold(spectrum_labels, n1: int, mode: str = "rank-default") -> ThresholdSpec:
    """Pick the binarization cutoff from a spectrum-value sequence.

    ``rank-default`` takes the n1-th largest value, so (ties aside) exactly
    n1 values binarize to 1 and the positive fraction equals n1/n.  With
    n1 = 0 the cutoff is max + 1 and everything binarizes to 0.

    ``as-paper`` is the literal nearest-rank percentile of the ascending
    sequence at n1/n * 100, i.e. the n1-th *smallest* value (rank clamped to
    at least 1).  On all-distinct values that marks n - max(1, n1) + 1
    positives -- the complement-plus-one of the default mode -- since
    everything at or above the n1-th smallest clears the cutoff.
    """
    values = np.asarray(spectrum_labels, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise DataError("spectrum label sequence must be a non-empty 1-D vector")
    n = values.size
    if not 0 <= n1 <= n:
        raise ConfigError(f"need 0 <= n1 <= {n}, got {n1}")
    if mode not in THRESHOLD_MODES:
        raise ConfigError(f"threshold mode must be one of {THRESHOLD_MODES}, got {mode!r}")

    ascending = np.sort(values)
    if mode == "rank-default":
        tau = float(ascending[-1] + 1.0) if n1 == 0 else float(ascending[n - n1])
    else:
        # Nearest-rank index for percentile 100*n1/n over n values is n1 itself.
        rank = max(1, n1)
        tau = float(ascending[rank - 1])
    return ThresholdSpec(tau=tau, mode=mode, n1=n1, n=n)


def binarize(spectrum_labels, spec: ThresholdSpec) -> np.ndarray:
    """1 where the spectrum value clears the cutoff, else 0."""
    values = np.asarray(spectrum_labels, dtype=np.float64)
    return (values >= spec.tau).astype(np.int64)


def score_label_distribution(spectrum_labels, bins: int = 50) -> float:
    """Normality proxy over the nonzero labels: |skewness| + |excess kurtosis|.

    Lower is better; used to rank (d_model, window) candidates from the
    default parameter grid by how bell-shaped the resulting label
    distribution is.  Degenerate distributions (fewer than 10 nonzero
    labels, zero variance, or all mass in one histogram bin) are rejected.
    """
    if bins < 2:
        raise ConfigError(f"bins must be >= 2, got {bins}")
    values = np.asarray(spectrum_labels, dtype=np.float64)
    nonzero = values[values != 0.0]
    if nonzero.size < 10:
        raise DataError(f"need at least 10 nonzero labels, got {nonzero.size}")

    centered = nonzero - nonzero.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise DataError("degenerate distribution: nonzero labels have zero variance")
    counts, _ = np.histogram(nonzero, bins=bins)
    if int((counts > 0).sum()) < 2:
        raise DataError("degenerate distribution: all mass in a single bin")

    skew = float(np.mean(centered**3)) / m2**1.5
    excess_kurtosis = float(np.mean(centered**4)) / m2**2 - 3.0
    return abs(skew) + abs(excess_kurtosis)


def default_parameter_grid() -> dict:
    """The shipped search grid: encoding dimensions and window sizes."""
    with resources.files("tspec.data").joinpath("parameter_grid.json").open(
        "r", encoding="utf-8"
    ) as handle:
        grid = json.load(handle)
    return {"d_model": list(grid["d_model"]), "window": list(grid["window"])}


def parameter_grid_scores(
    label_bits_1d,
    grid: dict | None = None,
    stride: int = 1,
    bins: int = 50,
) -> list[dict]:
    """Score every (window, d_model) grid candidate on a packet label stream.

    Returns one row per candidate with the distribution score, or ``None``
    where the candidate is degenerate or the stream is too short.  Callers
    ranking by downstream model accuracy instead can feed the same grid
    through the evaluation harness.
    """
    bits = np.asarray(label_bits_1d, dtype=np.int64)
    grid = grid or default_parameter_grid()
    rows: list[dict] = []
    for window in grid["window"]:
        if bits.size < window:
            for d_model in grid["d_model"]:
                rows.append({"window": window, "d_model": d_model, "score": None})
            continue
        label_matrix = sliding_window_view(bits, window)[::stride]
        for d_model in grid["d_model"]:
            values = sspe_values(label_matrix, EncodingConfig(d_model=d_model))
            try:
                score = score_label_distribution(values, bins=bins)
            except DataError:
                score = None
            rows.append({"window": window, "d_model": d_model, "score": score})
    return rows
