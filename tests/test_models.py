"""Model tests: GLM fits, tree ensembles, determinism, JSON round trips."""

import json

import numpy as np
import pytest

from tspec import ConfigError, DataError
from tspec.models import (
    FAMILIES,
    ModelSpec,
    TrainedModel,
    ensembles,
    glm,
    load_model,
    predict,
    save_model,
    train,
)


def separable_problem(n=200, d=5, seed=42):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)
    return X, y


class TestSpecValidation:
    def test_family_task_matrix(self):
        ModelSpec("glm_binomial", "classify")
        ModelSpec("glm_gaussian", "regress")
        for family in ("random_forest", "gbm"):
            ModelSpec(family, "classify")
            ModelSpec(family, "regress")
        with pytest.raises(ConfigError):
            ModelSpec("glm_binomial", "regress")
        with pytest.raises(ConfigError):
            ModelSpec("glm_gaussian", "classify")

    def test_unknown_family_and_task(self):
        with pytest.raises(ConfigError):
            ModelSpec("xgboost", "classify")
        with pytest.raises(ConfigError):
            ModelSpec("gbm", "rank")

    def test_family_that_is_not_a_name(self):
        with pytest.raises(ConfigError, match="unknown model family"):
            ModelSpec(["gbm"], "classify")

    def test_unknown_hyperparameter(self):
        with pytest.raises(ConfigError):
            ModelSpec("gbm", "classify", hyperparameters={"depth": 3})

    @pytest.mark.parametrize("value", ["3", 2.5, True, None])
    def test_integer_hyperparameter_of_wrong_kind(self, value):
        with pytest.raises(ConfigError, match="n_trees"):
            ModelSpec("random_forest", "classify", hyperparameters={"n_trees": value})

    def test_real_hyperparameter_accepts_an_integer(self):
        spec = ModelSpec("gbm", "classify", hyperparameters={"subsample": 1, "n_trees": 3})
        assert spec.resolved_hyperparameters()["subsample"] == 1
        with pytest.raises(ConfigError, match="learning_rate"):
            ModelSpec("gbm", "classify", hyperparameters={"learning_rate": "0.1"})

    def test_default_hyperparameters(self):
        hp = ModelSpec("random_forest", "classify").resolved_hyperparameters()
        assert hp == {"n_trees": 25, "max_depth": 10}
        hp = ModelSpec("gbm", "regress").resolved_hyperparameters()
        assert hp["n_trees"] == 50 and hp["max_depth"] == 5


class TestGlmGaussian:
    def test_exact_linear_fit(self):
        model = train(ModelSpec("glm_gaussian", "regress"), [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        preds = predict(model, [[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(preds, [2.0, 4.0, 6.0], atol=1e-6, rtol=0)

    def test_residual_orthogonality_at_minimum_ridge(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=60)
        spec = ModelSpec("glm_gaussian", "regress", hyperparameters={"ridge": 0.0})
        model = train(spec, X, y)
        residuals = y - predict(model, X)
        assert np.abs(X.T @ residuals).max() <= 1e-6
        assert abs(residuals.sum()) <= 1e-6  # intercept column too

    def test_constant_target(self):
        model = train(ModelSpec("glm_gaussian", "regress"), np.eye(3), [4.0, 4.0, 4.0])
        np.testing.assert_allclose(predict(model, np.eye(3)), [4.0, 4.0, 4.0], atol=1e-9)


class TestGlmBinomial:
    def test_separable_reaches_perfect_training_accuracy(self):
        X = np.array([[-2.0], [-1.0], [-0.5], [1.5], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        model = train(ModelSpec("glm_binomial", "classify"), X, y)
        assert (((predict(model, X) >= 0.5).astype(float)) == y).all()

    def test_zero_weights_predict_half(self):
        model = TrainedModel(
            spec=ModelSpec("glm_binomial", "classify"),
            feature_count=3,
            parameters={"weights": np.zeros(3), "intercept": 0.0},
        )
        assert predict(model, np.random.default_rng(0).normal(size=(5, 3))).tolist() == [0.5] * 5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train(ModelSpec("glm_binomial", "classify"), [[1.0], [2.0]], [1.0, 1.0])


class TestEnsembles:
    def test_forest_constant_target(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        model = train(ModelSpec("random_forest", "regress", seed=1), X, np.full(20, 7.0))
        assert predict(model, rng.normal(size=(6, 3))).tolist() == [7.0] * 6

    @pytest.mark.parametrize("family", ["random_forest", "gbm"])
    def test_separable_training_accuracy(self, family):
        X, y = separable_problem()
        model = train(ModelSpec(family, "classify", seed=3), X, y)
        accuracy = (((predict(model, X) >= 0.5).astype(float)) == y).mean()
        assert accuracy >= 0.99

    @pytest.mark.parametrize("family", ["random_forest", "gbm"])
    def test_regression_fits_signal(self, family):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(150, 4))
        y = 3.0 * X[:, 0] + np.sin(X[:, 1])
        model = train(ModelSpec(family, "regress", seed=5), X, y)
        residual = y - predict(model, X)
        assert np.mean(residual**2) < 0.5 * np.var(y)

    def test_gbm_single_class_degenerates_to_constant(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 2))
        model = train(ModelSpec("gbm", "classify", seed=0), X, np.ones(10))
        assert (predict(model, X) > 0.99).all()


class TestPredictContract:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_determinism(self, family):
        task = {"glm_binomial": "classify", "glm_gaussian": "regress"}.get(family, "classify")
        X, y = separable_problem(n=80)
        if task == "regress":
            y = y + 0.1
        spec = ModelSpec(family, task, seed=11)
        a = predict(train(spec, X, y), X)
        b = predict(train(spec, X, y), X)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", ["glm_binomial", "random_forest", "gbm"])
    def test_classification_predictions_in_unit_interval(self, family):
        X, y = separable_problem(n=120, seed=8)
        model = train(ModelSpec(family, "classify", seed=2), X, y)
        probs = predict(model, np.random.default_rng(5).normal(size=(200, X.shape[1])) * 3)
        assert (probs >= 0.0).all() and (probs <= 1.0).all()

    def test_width_mismatch_rejected(self):
        X, y = separable_problem(n=30)
        model = train(ModelSpec("glm_binomial", "classify"), X, y)
        with pytest.raises(DataError, match="width"):
            predict(model, np.ones((2, X.shape[1] + 1)))

    def test_empty_input_empty_output(self):
        X, y = separable_problem(n=30)
        model = train(ModelSpec("glm_binomial", "classify"), X, y)
        assert predict(model, np.empty((0, X.shape[1]))).shape == (0,)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            train(ModelSpec("glm_binomial", "classify"), [[1.0]], [1.0])

    def test_non_binary_classification_labels_rejected(self):
        with pytest.raises(DataError):
            train(ModelSpec("random_forest", "classify"), [[1.0], [2.0]], [0.0, 2.0])


class TestModelIO:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip_bit_identical(self, family, tmp_path):
        task = {"glm_binomial": "classify", "glm_gaussian": "regress"}.get(family, "regress")
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float) if task == "classify" else X @ [1.0, 2.0, -1.0]
        model = train(ModelSpec(family, task, seed=6), X, y)
        path = tmp_path / f"{family}.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.normal(size=(40, 3))
        assert np.array_equal(predict(model, probe), predict(loaded, probe))
        assert loaded.spec.family == family

    def test_unknown_version_rejected(self, tmp_path):
        X, y = separable_problem(n=20)
        model = train(ModelSpec("glm_binomial", "classify"), X, y)
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_truncated_file_is_an_error_not_a_crash(self, tmp_path):
        X, y = separable_problem(n=20)
        model = train(ModelSpec("glm_binomial", "classify"), X, y)
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(DataError, match="not a valid model file"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_model(tmp_path / "absent.json")

    def test_missing_parameters_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1, "feature_count": 2}))
        with pytest.raises(DataError, match="not a valid model file"):
            load_model(path)


FAMILY_TASKS = [(family, task) for family, entry in FAMILIES.items() for task in entry.tasks]

# The module functions each family's fit and predict must call.
FAMILY_CALLS = {
    "glm_binomial": [(glm, "fit_binomial"), (glm, "predict_proba")],
    "glm_gaussian": [(glm, "fit_gaussian"), (glm, "predict_linear")],
    "random_forest": [(ensembles, "forest_fit"), (ensembles, "forest_predict")],
    "gbm": [(ensembles, "gbm_fit"), (ensembles, "gbm_predict")],
}


def family_problem(task, seed=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(float) if task == "classify" else X @ [1.0, 2.0, -1.0]
    return X, y, rng.normal(size=(40, 3))


class TestFamilyTable:
    def test_every_family_has_a_call_map(self):
        assert set(FAMILY_CALLS) == set(FAMILIES)

    @pytest.mark.parametrize("family,task", FAMILY_TASKS)
    def test_train_save_load_predict(self, family, task, tmp_path):
        X, y, probe = family_problem(task)
        model = train(ModelSpec(family, task, seed=6), X, y)
        path = tmp_path / f"{family}-{task}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.spec.family, loaded.spec.task) == (family, task)
        assert loaded.spec.resolved_hyperparameters() == FAMILIES[family].defaults
        assert loaded.feature_count == 3
        before, after = predict(model, probe), predict(loaded, probe)
        assert before.shape == (40,) and np.array_equal(before, after)
        if task == "classify":
            assert ((after >= 0.0) & (after <= 1.0)).all()
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("family,task", FAMILY_TASKS)
    def test_fit_and_predict_look_up_module_functions(self, family, task, monkeypatch):
        # A profiler wraps these functions by replacing the module attribute;
        # the family table must call whatever the attribute holds.
        calls = []
        for module, name in FAMILY_CALLS[family]:
            original = getattr(module, name)

            def spy(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        X, y, probe = family_problem(task)
        predict(train(ModelSpec(family, task), X, y), probe)
        assert calls == [name for _, name in FAMILY_CALLS[family]]


class TestModelFileChecks:
    """A model file's parameters must fit its ``feature_count``."""

    def _saved(self, tmp_path, family, task="classify"):
        X, y, _ = family_problem(task)
        path = tmp_path / "m.json"
        save_model(train(ModelSpec(family, task, seed=1), X, y), path)
        return path

    def _load_edited(self, path, edit):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return load_model(path)

    @pytest.mark.parametrize("weights", [[0.5], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]]])
    def test_glm_weight_count(self, tmp_path, weights):
        path = self._saved(tmp_path, "glm_binomial")
        with pytest.raises(DataError, match="weights for 3 features"):
            self._load_edited(path, lambda p: p["parameters"].update(weights=weights))

    @pytest.mark.parametrize("feature", [3, -2])
    def test_tree_split_feature_out_of_range(self, tmp_path, feature):
        path = self._saved(tmp_path, "gbm")

        def edit(p):
            p["parameters"]["trees"][0]["feature"][0] = feature

        with pytest.raises(DataError, match="split feature out of range"):
            self._load_edited(path, edit)

    @pytest.mark.parametrize("child", [0, 10**4, -1])
    def test_tree_child_out_of_range(self, tmp_path, child):
        # A child at or before its parent could loop forever in prediction.
        path = self._saved(tmp_path, "random_forest")

        def edit(p):
            tree = p["parameters"]["trees"][0]
            assert tree["feature"][0] >= 0  # the root splits
            tree["left"][0] = child

        with pytest.raises(DataError, match="child index out of range"):
            self._load_edited(path, edit)

    def test_tree_arrays_of_unequal_length(self, tmp_path):
        path = self._saved(tmp_path, "random_forest", "regress")
        with pytest.raises(DataError, match="one entry per node"):
            self._load_edited(path, lambda p: p["parameters"]["trees"][0]["value"].pop())

    def test_hyperparameter_of_wrong_kind(self, tmp_path):
        path = self._saved(tmp_path, "random_forest")
        with pytest.raises(DataError, match="n_trees"):
            self._load_edited(path, lambda p: p["spec"]["hyperparameters"].update(n_trees="a"))

    def test_infinite_seed(self, tmp_path):
        path = self._saved(tmp_path, "glm_binomial")
        path.write_text(path.read_text().replace('"seed": 1', '"seed": Infinity'))
        with pytest.raises(DataError, match="not a valid model file"):
            load_model(path)
