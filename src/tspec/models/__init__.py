"""Desk-scale supervised models with deterministic training and JSON files.

Each family is one entry of ``FAMILIES``: the tasks it supports, how it
fits and predicts, and how its learned parameters are written to and read
from JSON.  Each fits in one fixed configuration, the keyword defaults of
its fit function in ``glm`` or ``ensembles``.  Families: ``glm_binomial``
(logistic, classification only), ``glm_gaussian`` (ridge least squares,
regression only), ``random_forest`` and ``gbm`` (both tasks).
Classification predictions are probabilities in [0, 1]; callers decide at
0.5.  Model files are versioned JSON carrying the spec (family, task and
seed), the training dataset's digest and the learned parameters (arrays as
base64 bytes), written as one compact line; a save/load round trip
reproduces the parameters bit for bit.
"""

from __future__ import annotations

import base64
import inspect
import json
import re
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ConfigError, DataError, Range, atomic_write, read_field, read_json_object
from . import ensembles, glm
from .trees import NodeTable

MODEL_FILE_VERSION = 6

TASKS = ("classify", "regress")

_SPEC_KEYS = ("family", "task", "seed")
_SHA256 = re.compile("[0-9a-f]{64}")


@dataclass(frozen=True)
class Family:
    """One model family: its tasks, ``fit(X, y, task, seed) -> parameters``,
    ``predict(parameters, X, task)``, and the parameters' JSON codec
    ``to_json(parameters, width)`` / ``from_json(data, width)``, ``width``
    being the feature count.  Fit and predict look up the ``glm``/``ensembles``
    functions when called, so wrappers installed on those modules (profilers)
    see every call.

    ``row_separable`` is True when a row's prediction has the same bits
    whatever other rows are predicted with it, so predictions of a row
    subset may be taken from a larger batch.  Tree walks are; the GLMs'
    ``X @ w`` is not, since BLAS may round a row's dot product differently
    from one batch to another."""

    tasks: tuple[str, ...]
    fit: Callable
    predict: Callable
    to_json: Callable
    from_json: Callable
    row_separable: bool


def _pack(array: np.ndarray, dtype) -> str:
    """``array`` as ``dtype``'s little-endian bytes, in base64."""
    return base64.b64encode(np.asarray(array, np.dtype(dtype).newbyteorder("<")).tobytes()).decode()


def _unpack(data: dict, key: str, dtype, limit: int | None = None) -> np.ndarray:
    """What ``_pack`` stored under ``key``, as native ``dtype``, of at most ``limit`` items."""
    text = read_field(data, key, str)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"key {key!r} must be a base64 string: {exc}") from None
    dtype = np.dtype(dtype)
    if len(raw) % dtype.itemsize:
        raise ValueError(f"key {key!r} holds {len(raw)} bytes, not whole {dtype} items")
    if limit is not None and len(raw) // dtype.itemsize > limit:
        raise ValueError(f"key {key!r} holds more than the family's {limit} items")
    return np.frombuffer(raw, dtype.newbyteorder("<")).astype(dtype)


def _linear_to_json(params: dict, width: int) -> dict:
    return {"weights": _pack(params["weights"], np.float64),
            "intercept": float(params["intercept"])}


def _linear_from_json(data: dict, feature_count: int) -> dict:
    weights = _unpack(data, "weights", np.float64)
    if weights.size != feature_count:
        raise ValueError(f"{weights.size} weights for {feature_count} features")
    return {"weights": weights, "intercept": read_field(data, "intercept", Real)}


def _table_to_json(params: dict, width: int, *scalars: str) -> dict:
    """An ensemble's node table; ``value_table`` holds the leaf values' distinct
    float64 bit patterns, ascending, and ``value_code`` each leaf's index."""
    trees = params["trees"]
    bits = np.ascontiguousarray(trees.value, dtype=np.float64).view(np.uint64)
    table, codes = np.unique(bits, return_inverse=True)
    return {**{key: float(params[key]) for key in scalars},
            "feature": _pack(trees.feature, np.min_scalar_type(-max(width, 1))),
            "threshold": _pack(trees.threshold, np.float64),
            "value_table": _pack(table.view(np.float64), np.float64),
            "value_code": _pack(codes, np.min_scalar_type(table.size - 1))}


def _table_from_json(fit: Callable, *scalars: str) -> Callable:
    """``from_json`` of the ensembles ``fit`` grows: a valid file holds as
    many trees as its ``n_trees`` default, none with a split node at depth
    ``max_depth`` (a root is at depth 0)."""
    defaults = inspect.signature(fit).parameters
    n_trees, max_depth = defaults["n_trees"].default, defaults["max_depth"].default
    nodes = n_trees * (2 ** (max_depth + 1) - 1)  # so no array holds more items

    def from_json(data: dict, feature_count: int) -> dict:
        out = {key: read_field(data, key, Real) for key in scalars}
        feature = _unpack(data, "feature", np.min_scalar_type(-max(feature_count, 1)), nodes)
        feature = feature.astype(np.int64)
        table = _unpack(data, "value_table", np.float64, nodes)
        codes = _unpack(data, "value_code", np.min_scalar_type(max(table.size - 1, 0)), nodes)
        if (codes >= table.size).any():
            raise ValueError(f"a leaf's value code is outside the {table.size}-entry value table")
        if ((feature < -1) | (feature >= feature_count)).any():
            raise ValueError(f"tree split feature out of range for {feature_count} features")
        trees = out["trees"] = NodeTable(feature, _unpack(data, "threshold", np.float64, nodes),
                                         table[codes])
        if trees.roots.size != n_trees:
            raise ValueError(f"{trees.roots.size} trees, not the family's {n_trees}")
        level = trees.roots
        for _ in range(max_depth):
            level = level[trees.split[level]]
            level = np.concatenate([trees.left[level], trees.right[level]])
        if trees.split[level].any():
            raise ValueError(f"a tree is deeper than the family's max_depth {max_depth}")
        return out

    return from_json


FAMILIES = {
    "glm_binomial": Family(
        tasks=("classify",),
        fit=lambda X, y, task, seed: glm.fit_binomial(X, y),
        predict=lambda params, X, task: glm.predict_proba(params, X),
        to_json=_linear_to_json,
        from_json=_linear_from_json,
        row_separable=False,
    ),
    "glm_gaussian": Family(
        tasks=("regress",),
        fit=lambda X, y, task, seed: glm.fit_gaussian(X, y),
        predict=lambda params, X, task: glm.predict_linear(params, X),
        to_json=_linear_to_json,
        from_json=_linear_from_json,
        row_separable=False,
    ),
    "random_forest": Family(
        tasks=TASKS,
        fit=lambda X, y, task, seed: ensembles.forest_fit(X, y, task, seed=seed),
        predict=lambda params, X, task: ensembles.forest_predict(params, X),
        to_json=_table_to_json,
        from_json=_table_from_json(ensembles.forest_fit),
        row_separable=True,
    ),
    "gbm": Family(
        tasks=TASKS,
        fit=lambda X, y, task, seed: ensembles.gbm_fit(X, y, task),
        predict=lambda params, X, task: ensembles.gbm_predict(params, X, task),
        to_json=lambda params, width: _table_to_json(params, width, "f0", "learning_rate"),
        from_json=_table_from_json(ensembles.gbm_fit, "f0", "learning_rate"),
        row_separable=True,
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    task: str
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task not in FAMILIES[self.family].tasks:
            raise ConfigError(
                f"family {self.family!r} does not support task {self.task!r}"
            )


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: ModelSpec
    feature_count: int
    parameters: dict
    dataset_sha256: str | None = None  # of the dataset.json trained from; saving needs it


def _check_training_data(spec: ModelSpec, X: np.ndarray, y: np.ndarray):
    if X.ndim != 2:
        raise DataError("training features must be a 2-D matrix")
    if y.shape != (X.shape[0],):
        raise DataError("training labels must align with feature rows")
    if X.shape[0] < 2:
        raise DataError("training needs at least 2 rows")
    if not np.isfinite(X).all():
        raise DataError("training features contain non-finite values")
    if spec.task == "classify":
        if not np.isin(y, (0.0, 1.0)).all():
            raise DataError("classification labels must be 0 or 1")
    elif not np.isfinite(y).all():
        raise DataError("regression targets must be finite")


def train(spec: ModelSpec, X, y, dataset_sha256: str | None = None) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_training_data(spec, X, y)
    params = FAMILIES[spec.family].fit(X, y, spec.task, spec.seed)
    return TrainedModel(spec, X.shape[1], params, dataset_sha256)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Probabilities for classification, real values for regression."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise DataError(
            f"prediction width {X.shape[-1] if X.ndim == 2 else '?'} does not match "
            f"the trained width {model.feature_count}"
        )
    if X.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    return FAMILIES[model.spec.family].predict(model.parameters, X, model.spec.task)


def save_model(model: TrainedModel, path: str | Path) -> None:
    if not _SHA256.fullmatch(str(model.dataset_sha256)):
        raise ValueError(f"a model file needs its dataset's SHA-256, got {model.dataset_sha256!r}")
    payload = {
        "version": MODEL_FILE_VERSION,
        "spec": {key: getattr(model.spec, key) for key in _SPEC_KEYS},
        "feature_count": model.feature_count,
        "dataset_sha256": model.dataset_sha256,
        "parameters": FAMILIES[model.spec.family].to_json(model.parameters, model.feature_count),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # One line without whitespace: node tables are most of a run's bytes.
    with atomic_write(path, encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path: str | Path) -> TrainedModel:
    path = Path(path)
    payload = read_json_object(path, DataError, "model")
    try:
        if read_field(payload, "version", Integral) != MODEL_FILE_VERSION:
            raise ValueError(f"unsupported model file version {payload['version']} "
                             f"(expected {MODEL_FILE_VERSION}); retrain it with `train`")
        spec_data = read_field(payload, "spec", dict)
        unknown = sorted(set(spec_data) - set(_SPEC_KEYS))
        if unknown:
            raise ValueError(f"unknown spec keys {unknown}")
        feature_count = read_field(payload, "feature_count", Integral, Range(0))
        digest = read_field(payload, "dataset_sha256", str)
        if not _SHA256.fullmatch(digest):
            raise ValueError(f"key 'dataset_sha256' must be a SHA-256 hex digest, got {digest!r}")
        spec = ModelSpec(
            family=read_field(spec_data, "family", str),
            task=read_field(spec_data, "task", str),
            seed=read_field(spec_data, "seed", Integral),
        )
        parameters = read_field(payload, "parameters", dict)
        return TrainedModel(spec, feature_count,
                            FAMILIES[spec.family].from_json(parameters, feature_count), digest)
    except (ConfigError, ValueError) as exc:
        raise DataError(f"{path} is not a valid model file: {exc}") from exc
