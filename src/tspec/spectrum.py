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
packets (see ``compute_threshold``).
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .errors import ConfigError, DataError, Range

ENCODING_BASE = 10000.0

# Largest encoding dimension.  Neighbouring frequencies then differ by a
# factor ENCODING_BASE**(2 / d_model) < 1.0003, so more components add next
# to nothing to a label, while each one costs a sine and a cosine per position.
MAX_D_MODEL = 65_536

# Encoding cells (positions x components) built at once for SSPE weights: at
# most 8 MB of rows, whatever the window length.
_ENCODING_BLOCK = 2**20

LABEL_METHODS = ("baseline", "coap", "sspe")


def is_spectrum_method(method: str) -> bool:
    """Whether a label method labels windows with spectrum values that a
    threshold fitted on the training split binarizes (COAP, SSPE), rather
    than with the window's any-attack bit (the baseline)."""
    return method != "baseline"


def check_d_model(d_model) -> int:
    """``d_model`` as an int; a ``ConfigError`` unless it is an even integer
    in [2, MAX_D_MODEL]."""
    if Range(2, MAX_D_MODEL).problem(d_model, Integral) or d_model % 2:
        raise ConfigError(f"d_model must be an even integer in [2, {MAX_D_MODEL}], got {d_model!r}")
    return int(d_model)


def encoding_matrix(stop: int, d_model: int, start: int = 0) -> np.ndarray:
    """Sinusoidal encodings of positions start..stop-1, shape
    (stop - start, d_model).

    Component 2i of row pos is sin(pos / base^(2i/d_model)) and component
    2i+1 is the matching cosine, for i in [0, d_model/2); the base is fixed
    at ``ENCODING_BASE``.
    """
    half = np.arange(d_model // 2, dtype=np.float64)
    scale = ENCODING_BASE ** (2.0 * half / d_model)
    angles = np.arange(start, stop, dtype=np.float64)[:, None] / scale[None, :]
    out = np.empty((stop - start, d_model), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def position_weights(method: str, window: int, d_model: int | None = None) -> np.ndarray:
    """The (window,) weights ``w`` of spectrum method COAP or SSPE, whose
    label of a window is ``bits @ w``: ones for COAP, and for SSPE the row
    sums of the ``d_model``-dimensional encoding of positions 0..window-1,
    built a block of rows at a time.  Each row sums on its own, so the
    weights do not depend on the block size."""
    if method == "coap":
        return np.ones(window, dtype=np.float64)
    d_model = check_d_model(d_model)
    rows = max(1, _ENCODING_BLOCK // d_model)
    weights = np.empty(window, dtype=np.float64)
    for start in range(0, window, rows):
        stop = min(start + rows, window)
        weights[start:stop] = encoding_matrix(stop, d_model, start).sum(axis=1)
    return weights


def coap_values(label_bits: np.ndarray) -> np.ndarray:
    """Count of attack packets in each row of a (n_windows, W) bit matrix."""
    bits = np.asarray(label_bits, dtype=np.float64)
    return bits @ position_weights("coap", bits.shape[1])


def sspe_values(label_bits: np.ndarray, d_model: int) -> np.ndarray:
    """Sum of all encoding components over each window's attack positions,
    for a (n_windows, W) bit matrix.

    Normal positions contribute nothing (their label multiplies the encoding
    by zero), so the value reflects only where the attack packets sit.
    """
    bits = np.asarray(label_bits, dtype=np.float64)
    return bits @ position_weights("sspe", bits.shape[1], d_model)


def proportional_positive_count(n_windows: int, attack_bit_fraction: float) -> int:
    """Number of windows to mark positive so the positive fraction matches
    the attack proportion of the underlying packet labels."""
    if not 0.0 <= attack_bit_fraction <= 1.0:
        raise ConfigError(f"attack fraction must be in [0, 1], got {attack_bit_fraction}")
    return int(round(n_windows * attack_bit_fraction))


def compute_threshold(spectrum_labels, n1: int) -> float:
    """The binarization cutoff of a spectrum-value sequence: its n1-th
    largest value, so (ties aside) exactly n1 values binarize to 1 and the
    positive fraction equals n1/n.  With n1 = 0 the cutoff is max + 1 and
    everything binarizes to 0."""
    values = np.asarray(spectrum_labels, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise DataError("spectrum label sequence must be a non-empty 1-D vector")
    n = values.size
    if not 0 <= n1 <= n:
        raise ConfigError(f"need 0 <= n1 <= {n}, got {n1}")
    ascending = np.sort(values)
    return float(ascending[-1] + 1.0) if n1 == 0 else float(ascending[n - n1])


def binarize(spectrum_labels, tau: float) -> np.ndarray:
    """1 where the spectrum value clears the cutoff ``tau``, else 0."""
    values = np.asarray(spectrum_labels, dtype=np.float64)
    return (values >= tau).astype(np.int64)
