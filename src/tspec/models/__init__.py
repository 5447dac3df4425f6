"""Desk-scale supervised models with deterministic training and JSON files.

Each family is one entry of ``FAMILIES``: the tasks it supports, its default
hyperparameters, how it fits and predicts, and how its learned parameters
are written to and read from JSON.  Families: ``glm_binomial`` (logistic,
classification only), ``glm_gaussian`` (ridge least squares, regression
only), ``random_forest`` and ``gbm`` (both tasks).  Classification
predictions are probabilities in [0, 1]; callers decide at 0.5.  Model files
are versioned JSON carrying the spec and learned parameters; a save/load
round trip reproduces predictions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ConfigError, DataError, Range, read_json_object, write_json
from . import ensembles, glm
from .trees import Tree

MODEL_FILE_VERSION = 1

TASKS = ("classify", "regress")


_AT_LEAST_0 = Range(0)
_AT_LEAST_1 = Range(1)
_POSITIVE = Range(0, open_low=True)
_FRACTION = Range(0, 1, open_low=True)


@dataclass(frozen=True)
class Family:
    """One model family: its tasks, default hyperparameters and their valid
    ranges, ``fit(X, y, task, hyperparameters, seed) -> parameters``,
    ``predict(parameters, X, task)``, and the parameters' JSON codec
    ``to_json(parameters)`` / ``from_json(data, feature_count)``.  Fit and
    predict look up the ``glm``/``ensembles`` functions when called, so
    wrappers installed on those modules (profilers) see every call."""

    tasks: tuple[str, ...]
    defaults: dict
    ranges: dict
    fit: Callable
    predict: Callable
    to_json: Callable
    from_json: Callable


def _linear_to_json(params: dict) -> dict:
    return {
        "weights": [float(v) for v in params["weights"]],
        "intercept": float(params["intercept"]),
    }


def _linear_from_json(data: dict, feature_count: int) -> dict:
    weights = np.asarray(data["weights"], dtype=np.float64)
    if weights.shape != (feature_count,):
        raise ValueError(f"{weights.size} weights for {feature_count} features")
    return {"weights": weights, "intercept": float(data["intercept"])}


def _trees_to_json(params: dict, *scalars: str) -> dict:
    out = {key: float(params[key]) for key in scalars}
    out["trees"] = [t.to_dict() for t in params["trees"]]
    return out


def _trees_from_json(data: dict, feature_count: int, *scalars: str) -> dict:
    out = {key: float(data[key]) for key in scalars}
    out["trees"] = [Tree.from_dict(t, feature_count) for t in data["trees"]]
    return out


FAMILIES = {
    "glm_binomial": Family(
        tasks=("classify",),
        defaults={"l2": 1e-4, "max_iter": 50, "tol": 1e-8},
        ranges={"l2": _AT_LEAST_0, "max_iter": _AT_LEAST_1, "tol": _AT_LEAST_0},
        fit=lambda X, y, task, hp, seed: glm.fit_binomial(X, y, **hp),
        predict=lambda params, X, task: glm.predict_proba(params, X),
        to_json=_linear_to_json,
        from_json=_linear_from_json,
    ),
    "glm_gaussian": Family(
        tasks=("regress",),
        defaults={"ridge": 1e-6},
        ranges={"ridge": _AT_LEAST_0},
        fit=lambda X, y, task, hp, seed: glm.fit_gaussian(X, y, **hp),
        predict=lambda params, X, task: glm.predict_linear(params, X),
        to_json=_linear_to_json,
        from_json=_linear_from_json,
    ),
    "random_forest": Family(
        tasks=TASKS,
        defaults={"n_trees": 25, "max_depth": 10},
        ranges={"n_trees": _AT_LEAST_1, "max_depth": _AT_LEAST_0},
        fit=lambda X, y, task, hp, seed: ensembles.forest_fit(X, y, task, seed=seed, **hp),
        predict=lambda params, X, task: ensembles.forest_predict(params, X),
        to_json=_trees_to_json,
        from_json=_trees_from_json,
    ),
    "gbm": Family(
        tasks=TASKS,
        defaults={"n_trees": 50, "learning_rate": 0.1, "max_depth": 5, "subsample": 1.0},
        ranges={
            "n_trees": _AT_LEAST_1,
            "learning_rate": _POSITIVE,
            "max_depth": _AT_LEAST_0,
            "subsample": _FRACTION,
        },
        fit=lambda X, y, task, hp, seed: ensembles.gbm_fit(X, y, task, seed=seed, **hp),
        predict=lambda params, X, task: ensembles.gbm_predict(params, X, task),
        to_json=lambda params: _trees_to_json(params, "f0", "learning_rate"),
        from_json=lambda data, width: _trees_from_json(data, width, "f0", "learning_rate"),
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    task: str
    seed: int = 0
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        family = FAMILIES[self.family]
        if self.task not in family.tasks:
            raise ConfigError(
                f"family {self.family!r} does not support task {self.task!r}"
            )
        unknown = set(self.hyperparameters) - set(family.defaults)
        if unknown:
            raise ConfigError(
                f"unknown hyperparameters for {self.family!r}: {sorted(unknown)}"
            )
        for key, value in self.hyperparameters.items():
            # Each value must be of its default's kind, and a real one finite:
            # a model file's hyperparameters are refit when the sweep noises
            # training data, and an infinite l2 would stall the Newton solve.
            kind = Integral if isinstance(family.defaults[key], int) else Real
            problem = family.ranges[key].problem(value, kind)
            if problem:
                raise ConfigError(
                    f"hyperparameter {key!r} of {self.family!r} must be {problem}, got {value!r}"
                )

    def resolved_hyperparameters(self) -> dict:
        merged = dict(FAMILIES[self.family].defaults)
        merged.update(self.hyperparameters)
        return merged


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: ModelSpec
    feature_count: int
    parameters: dict
    version: int = MODEL_FILE_VERSION


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


def train(spec: ModelSpec, X, y) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_training_data(spec, X, y)
    params = FAMILIES[spec.family].fit(
        X, y, spec.task, spec.resolved_hyperparameters(), spec.seed
    )
    return TrainedModel(spec=spec, feature_count=X.shape[1], parameters=params)


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
    payload = {
        "version": model.version,
        "spec": {
            "family": model.spec.family,
            "task": model.spec.task,
            "seed": model.spec.seed,
            "hyperparameters": model.spec.resolved_hyperparameters(),
        },
        "feature_count": model.feature_count,
        "parameters": FAMILIES[model.spec.family].to_json(model.parameters),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, payload)


def load_model(path: str | Path) -> TrainedModel:
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    payload = read_json_object(path, DataError, "model")

    version = payload.get("version")
    if version != MODEL_FILE_VERSION:
        raise DataError(f"{path}: unsupported model file version {version!r}")
    try:
        spec = ModelSpec(
            family=payload["spec"]["family"],
            task=payload["spec"]["task"],
            seed=int(payload["spec"]["seed"]),
            hyperparameters=dict(payload["spec"]["hyperparameters"]),
        )
        feature_count = int(payload["feature_count"])
        return TrainedModel(
            spec=spec,
            feature_count=feature_count,
            parameters=FAMILIES[spec.family].from_json(payload["parameters"], feature_count),
            version=version,
        )
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path} is not a valid model file: {exc}") from exc
