"""Desk-scale supervised models with deterministic training and JSON files.

Families: ``glm_binomial`` (logistic, classification only), ``glm_gaussian``
(ridge least squares, regression only), ``random_forest`` and ``gbm`` (both
tasks).  Classification predictions are probabilities in [0, 1]; callers
decide at 0.5.  Model files are versioned JSON carrying the spec and learned
parameters; a save/load round trip reproduces predictions bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError, read_json_object
from . import ensembles, glm
from .trees import Tree

MODEL_FILE_VERSION = 1

FAMILIES = ("glm_binomial", "glm_gaussian", "random_forest", "gbm")
TASKS = ("classify", "regress")

_FAMILY_TASKS = {
    "glm_binomial": ("classify",),
    "glm_gaussian": ("regress",),
    "random_forest": TASKS,
    "gbm": TASKS,
}

_DEFAULTS = {
    "glm_binomial": {"l2": 1e-4, "learning_rate": 0.1, "max_iter": 500, "tol": 1e-8},
    "glm_gaussian": {"ridge": 1e-6},
    "random_forest": {"n_trees": 25, "max_depth": 10},
    "gbm": {"n_trees": 50, "learning_rate": 0.1, "max_depth": 5, "subsample": 1.0},
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    task: str
    seed: int = 0
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task not in _FAMILY_TASKS[self.family]:
            raise ConfigError(
                f"family {self.family!r} does not support task {self.task!r}"
            )
        unknown = set(self.hyperparameters) - set(_DEFAULTS[self.family])
        if unknown:
            raise ConfigError(
                f"unknown hyperparameters for {self.family!r}: {sorted(unknown)}"
            )

    def resolved_hyperparameters(self) -> dict:
        merged = dict(_DEFAULTS[self.family])
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
    hp = spec.resolved_hyperparameters()

    if spec.family == "glm_gaussian":
        params = glm.fit_gaussian(X, y, ridge=hp["ridge"])
    elif spec.family == "glm_binomial":
        params = glm.fit_binomial(
            X,
            y,
            l2=hp["l2"],
            learning_rate=hp["learning_rate"],
            max_iter=hp["max_iter"],
            tol=hp["tol"],
        )
    elif spec.family == "random_forest":
        params = ensembles.forest_fit(
            X, y, spec.task, n_trees=hp["n_trees"], max_depth=hp["max_depth"], seed=spec.seed
        )
    else:
        params = ensembles.gbm_fit(
            X,
            y,
            spec.task,
            n_trees=hp["n_trees"],
            learning_rate=hp["learning_rate"],
            max_depth=hp["max_depth"],
            subsample=hp["subsample"],
            seed=spec.seed,
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

    family = model.spec.family
    if family == "glm_gaussian":
        return glm.predict_linear(model.parameters, X)
    if family == "glm_binomial":
        return glm.predict_proba(model.parameters, X)
    if family == "random_forest":
        return ensembles.forest_predict(model.parameters, X)
    return ensembles.gbm_predict(model.parameters, X, model.spec.task)


def _parameters_to_jsonable(family: str, params: dict) -> dict:
    if family in ("glm_binomial", "glm_gaussian"):
        return {
            "weights": [float(v) for v in params["weights"]],
            "intercept": float(params["intercept"]),
        }
    if family == "random_forest":
        return {"trees": [t.to_dict() for t in params["trees"]]}
    return {
        "f0": float(params["f0"]),
        "learning_rate": float(params["learning_rate"]),
        "trees": [t.to_dict() for t in params["trees"]],
    }


def _parameters_from_jsonable(family: str, data: dict) -> dict:
    if family in ("glm_binomial", "glm_gaussian"):
        return {
            "weights": np.asarray(data["weights"], dtype=np.float64),
            "intercept": float(data["intercept"]),
        }
    if family == "random_forest":
        return {"trees": [Tree.from_dict(t) for t in data["trees"]]}
    return {
        "f0": float(data["f0"]),
        "learning_rate": float(data["learning_rate"]),
        "trees": [Tree.from_dict(t) for t in data["trees"]],
    }


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
        "parameters": _parameters_to_jsonable(model.spec.family, model.parameters),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


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
        return TrainedModel(
            spec=spec,
            feature_count=int(payload["feature_count"]),
            parameters=_parameters_from_jsonable(spec.family, payload["parameters"]),
            version=version,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is not a valid model file: {exc}") from exc
