"""Model tests: GLM fits, tree ensembles, determinism, model file round trips."""

import base64
import hashlib
import inspect
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec import ConfigError, DataError
from tspec.errors import write_json
from tspec.models import (
    FAMILIES,
    MODEL_FILE_VERSION,
    ModelSpec,
    TrainedModel,
    ensembles,
    glm,
    load_model,
    predict,
    save_model,
    train,
)
from tspec.models.trees import NodeTable
from tests.conftest import code_type, node_lists, pack, set_node_lists, unpack
from tests.oracles import binomial_gradient, binomial_objective, fit_binomial_gd_oracle

# The digest a model file records of the dataset.json it was trained from.
DIGEST = hashlib.sha256(b"dataset.json").hexdigest()


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

    def test_default_hyperparameters(self):
        # Every family trains with its fit function's keyword defaults, the
        # fixed configuration that README "Models" lists.
        def defaults(fit):
            return {name: p.default for name, p in inspect.signature(fit).parameters.items()
                    if p.default is not inspect.Parameter.empty}

        assert defaults(glm.fit_binomial) == {"l2": 1e-4, "max_iter": 50, "tol": 1e-8}
        assert defaults(glm.fit_gaussian) == {"ridge": 1e-6}
        assert defaults(ensembles.forest_fit) == {"n_trees": 25, "max_depth": 10, "seed": 0}
        assert defaults(ensembles.gbm_fit) == {"n_trees": 50, "learning_rate": 0.1, "max_depth": 5}
        X, y = separable_problem(n=60)
        forest = train(ModelSpec("random_forest", "classify"), X, y).parameters
        gbm = train(ModelSpec("gbm", "regress"), X, y).parameters
        assert forest["trees"].roots.size == 25
        assert (gbm["trees"].roots.size, gbm["learning_rate"]) == (50, 0.1)


class TestGlmGaussian:
    def test_exact_linear_fit(self):
        model = train(ModelSpec("glm_gaussian", "regress"), [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0])
        preds = predict(model, [[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(preds, [2.0, 4.0, 6.0], atol=1e-6, rtol=0)

    def test_residual_orthogonality_at_minimum_ridge(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(size=60)
        residuals = y - glm.predict_linear(glm.fit_gaussian(X, y, ridge=0.0), X)
        assert np.abs(X.T @ residuals).max() <= 1e-6
        assert abs(residuals.sum()) <= 1e-6  # intercept column too

    def test_constant_target(self):
        model = train(ModelSpec("glm_gaussian", "regress"), np.eye(3), [4.0, 4.0, 4.0])
        np.testing.assert_allclose(predict(model, np.eye(3)), [4.0, 4.0, 4.0], atol=1e-9)


def objective_of(fit, X, y, l2):
    return binomial_objective(X, y, fit["weights"], fit["intercept"], l2)


def objectives_by_step(X, y, l2, steps=30):
    """Training objective after each of the first ``steps`` Newton steps:
    a fit capped at ``max_iter=k`` stops after step k."""
    return [
        objective_of(glm.fit_binomial(X, y, l2=l2, max_iter=k), X, y, l2)
        for k in range(steps + 1)
    ]


def separable_with_duplicate_column():
    X, y = separable_problem()
    return np.column_stack([X, X[:, 0]]), y


def mislabelled_outlier(seed):
    """Twelve rows split on the first feature, one of them far out with the
    wrong label; full Newton steps overshoot on these seeds."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 2))
    X[0] *= 20
    y = (X[:, 0] > 0).astype(float)
    y[0] = 1.0 - y[0]
    return X, y


HARD_PROBLEMS = {
    "separable": (separable_with_duplicate_column, 1e-4),
    "separable-l2=0": (separable_with_duplicate_column, 0.0),
    "outlier": (lambda: mislabelled_outlier(18), 1e-4),
    "outlier-l2=0": (lambda: mislabelled_outlier(187), 0.0),
}


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

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 80),
        width=st.integers(1, 5),
        l2=st.sampled_from([1e-4, 1e-3, 1e-2, 0.1, 1.0]),
        scale=st.sampled_from([0.1, 1.0, 5.0]),
        noise=st.sampled_from([0.0, 0.5, 3.0]),
    )
    def test_newton_fit_is_optimal(self, seed, n, width, l2, scale, noise):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, width)) * scale
        score = X @ rng.normal(size=width) + noise * rng.normal(size=n) + rng.normal()
        y = (score > 0).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        tol = 1e-8
        fit = glm.fit_binomial(X, y, l2=l2, tol=tol)
        gradient = binomial_gradient(X, y, fit["weights"], fit["intercept"], l2)
        assert np.abs(gradient).max() <= 100 * tol
        weights, intercept = fit_binomial_gd_oracle(X, y, l2)
        gd = binomial_objective(X, y, weights, intercept, l2)
        assert objective_of(fit, X, y, l2) <= gd + 1e-12

    def test_fit_holds_one_weighted_copy_of_its_rows(self):
        # Each Newton step once made its weighted rows B anew while the last
        # step's were alive: A = [X 1] and two Bs, 3.15 X at this size.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4000, 60))
        y = (X[:, 0] + rng.normal(size=4000) > 0).astype(float)
        tracemalloc.start()
        try:
            glm.fit_binomial(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * X.nbytes  # A and one B: 2.15 X

    def test_overflowing_features_are_a_data_error(self):
        # An infinite Hessian would stall the least-squares solve.
        X, y = separable_problem(n=30)
        with pytest.raises(DataError, match="overflowed"):
            glm.fit_binomial(X * 1e160, y)

    @pytest.mark.parametrize("problem", sorted(HARD_PROBLEMS))
    def test_hard_problems_stay_finite_and_descend(self, problem):
        # l2=0 on separable data and a duplicated column make the Hessian
        # singular; a mislabelled outlier makes full Newton steps overshoot.
        make, l2 = HARD_PROBLEMS[problem]
        X, y = make()
        fit = glm.fit_binomial(X, y, l2=l2)
        assert np.isfinite(fit["weights"]).all() and np.isfinite(fit["intercept"])
        steps = objectives_by_step(X, y, l2)
        assert steps[-1] < 0.5 * steps[0]
        assert (np.diff(steps) <= 1e-12).all(), steps


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
        model = train(ModelSpec(family, task, seed=6), X, y, DIGEST)
        path = tmp_path / f"{family}.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.normal(size=(40, 3))
        assert np.array_equal(predict(model, probe), predict(loaded, probe))
        assert loaded.spec.family == family

    def test_unknown_version_rejected(self, tmp_path):
        X, y = separable_problem(n=20)
        model = train(ModelSpec("glm_binomial", "classify"), X, y, DIGEST)
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_truncated_file_is_an_error_not_a_crash(self, tmp_path):
        X, y = separable_problem(n=20)
        model = train(ModelSpec("glm_binomial", "classify"), X, y, DIGEST)
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
        path.write_text(json.dumps({"version": MODEL_FILE_VERSION, "feature_count": 2}))
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

    def test_tree_families_are_row_separable(self):
        separable = {family for family, entry in FAMILIES.items() if entry.row_separable}
        assert separable == {"random_forest", "gbm"}

    @pytest.mark.parametrize(
        "family,task", [(f, t) for f, t in FAMILY_TASKS if FAMILIES[f].row_separable]
    )
    def test_row_subsets_predict_the_bits_of_the_full_batch(self, family, task):
        X, y, probe = family_problem(task)
        probe[::5, 1] = np.nan
        model = train(ModelSpec(family, task, seed=6), X, y)
        full = predict(model, probe)
        rng = np.random.default_rng(9)
        for size in (1, 2, 17, 39):
            rows = rng.choice(40, size=size, replace=False)
            assert predict(model, probe[rows]).tobytes() == full[rows].tobytes()

    @pytest.mark.parametrize("family,task", FAMILY_TASKS)
    def test_train_save_load_predict(self, family, task, tmp_path):
        X, y, probe = family_problem(task)
        model = train(ModelSpec(family, task, seed=6), X, y, DIGEST)
        path = tmp_path / f"{family}-{task}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.spec.family, loaded.spec.task) == (family, task)
        assert loaded.spec == model.spec
        assert json.loads(path.read_text())["spec"] == {"family": family, "task": task, "seed": 6}
        assert loaded.feature_count == 3
        before, after = predict(model, probe), predict(loaded, probe)
        assert before.shape == (40,) and np.array_equal(before, after)
        if task == "classify":
            assert ((after >= 0.0) & (after <= 1.0)).all()
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("family,task", FAMILY_TASKS)
    def test_saved_model_is_one_compact_line(self, family, task, tmp_path):
        X, y, _ = family_problem(task)
        path = tmp_path / "m.json"
        save_model(train(ModelSpec(family, task, seed=6), X, y, DIGEST), path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert text.index("\n") == len(text) - 1 and " " not in text

    @pytest.mark.parametrize("family", ["random_forest", "gbm"])
    def test_tree_file_holds_preorder_lists(self, family, tmp_path):
        # Version 6: a threshold per split node and a code per leaf into a
        # table of the distinct leaf values, each array packed; the links
        # are not stored, since the feature array fixes them.
        X, y, _ = family_problem("regress")
        model = train(ModelSpec(family, "regress", seed=6), X, y, DIGEST)
        save_model(model, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        table = payload["parameters"]
        scalars = {"f0", "learning_rate"} if family == "gbm" else set()
        assert set(table) == {"feature", "threshold", "value_table", "value_code"} | scalars
        feature = unpack(table["feature"], np.int8)  # 3 features
        values = unpack(table["value_table"], np.float64)
        codes = unpack(table["value_code"], code_type(values.size))
        splits = int((feature >= 0).sum())
        assert (len(unpack(table["threshold"], np.float64)), codes.size) == (
            splits, feature.size - splits)
        assert np.array_equal(values.view(np.uint64), np.unique(values.view(np.uint64)))
        assert values.size <= codes.size and (codes < values.size).all()
        trees = model.parameters["trees"]
        lists = node_lists(payload)
        assert lists["feature"] == trees.feature.tolist()
        assert lists["threshold"] == trees.threshold.tolist() == trees.cut[trees.split].tolist()
        assert lists["value"] == trees.value.tolist() == trees.leaf_value[~trees.split].tolist()

    @pytest.mark.parametrize("family,task", FAMILY_TASKS)
    def test_indented_file_of_the_same_version_predicts_the_same_bits(self, family, task,
                                                                      tmp_path):
        # Model files were indented JSON until the compact layout; a reader
        # of the document does not depend on its layout.
        X, y, probe = family_problem(task)
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_model(train(ModelSpec(family, task, seed=6), X, y, DIGEST), compact)
        payload = json.loads(compact.read_text())
        assert payload["version"] == MODEL_FILE_VERSION == 6
        write_json(indented, payload)
        assert indented.read_text().count("\n") > 10
        before, after = load_model(compact), load_model(indented)
        assert (after.spec, after.feature_count) == (before.spec, before.feature_count)
        assert predict(after, probe).tobytes() == predict(before, probe).tobytes()

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


# (family, hyperparameter, value) outside its range: a model file that set
# one once refit, when the sweep noised training data, into all-zero weights
# (l2 < 0), every Newton step (tol < 0) or no trees.
OUT_OF_RANGE = [
    ("glm_binomial", "l2", -1.0),
    ("glm_binomial", "tol", -1e-8),
    ("glm_binomial", "max_iter", 0),
    ("glm_gaussian", "ridge", -1e-6),
    ("random_forest", "n_trees", 0),
    ("random_forest", "max_depth", -1),
    ("gbm", "n_trees", 0),
    ("gbm", "learning_rate", 0.0),
    ("gbm", "learning_rate", -0.1),
    ("gbm", "max_depth", -3),
]

# (family, hyperparameter, value) at the edge of its range.
AT_THE_EDGE = [
    ("glm_binomial", "l2", 0.0),
    ("glm_binomial", "tol", 0),
    ("glm_binomial", "max_iter", 1),
    ("glm_gaussian", "ridge", 0.0),
    ("random_forest", "n_trees", 1),
    ("random_forest", "max_depth", 0),
    ("gbm", "n_trees", 1),
    ("gbm", "learning_rate", 1e-9),
    ("gbm", "max_depth", 0),
]

# What loading says of a model file whose spec holds hyperparameters.
SPEC_WITH_HYPERPARAMETERS = re.escape("unknown spec keys ['hyperparameters']")

# Each family's fit function, called with a keyword the family table never passes.
FIT = {
    "glm_binomial": lambda X, y, task, **kw: glm.fit_binomial(X, y, **kw),
    "glm_gaussian": lambda X, y, task, **kw: glm.fit_gaussian(X, y, **kw),
    "random_forest": ensembles.forest_fit,
    "gbm": ensembles.gbm_fit,
}


class TestHyperparameterRanges:
    @pytest.mark.parametrize("family,key,value", AT_THE_EDGE)
    def test_edge_values_fit_finite_models(self, family, key, value):
        for task in FAMILIES[family].tasks:
            X, y, probe = family_problem(task)
            params = FIT[family](X, y, task, **{key: value})
            assert np.isfinite(FAMILIES[family].predict(params, probe, task)).all()

    @pytest.mark.parametrize("family,key,value", OUT_OF_RANGE)
    def test_model_file_out_of_range_names_the_file(self, family, key, value, tmp_path):
        # A model file holds no hyperparameters, so one that sets any is refused.
        task = FAMILIES[family].tasks[0]
        X, y, _ = family_problem(task)
        path = tmp_path / "m.json"
        save_model(train(ModelSpec(family, task), X, y, DIGEST), path)
        payload = json.loads(path.read_text())
        payload["spec"]["hyperparameters"] = {key: value}
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=SPEC_WITH_HYPERPARAMETERS) as info:
            load_model(path)
        assert str(path) in str(info.value)


NODE_KEYS = ("feature", "threshold", "value")


def _edit_nodes(**changes):
    """An edit of a tree model file's node table: ``changes`` maps each
    preorder list's key to a function from the list to the new list."""
    def edit(payload):
        lists = node_lists(payload)
        for key, change in changes.items():
            lists[key] = change(lists[key])
        set_node_lists(payload, lists)
    return edit


def _edit_packed(key, change):
    """An edit of the base64 text of one packed array."""
    return lambda payload: payload["parameters"].update({key: change(payload["parameters"][key])})


# The last leaf made a split node: it has a threshold but no children.
_SPLIT_AT_THE_END = _edit_nodes(feature=lambda f: f[:-1] + [0], threshold=lambda t: t + [0.5],
                                value=lambda v: v[:-1])


def _first_tree(feature) -> tuple[int, int]:
    """The node count and leaf count of the first tree of a preorder
    feature list."""
    count = leaves = 0
    for i, f in enumerate(feature):
        count += 1 if f >= 0 else -1
        leaves += f < 0
        if count < 0:
            return i + 1, leaves


def _drop_first_trees_last_leaf(payload):
    lists = node_lists(payload)
    nodes, leaves = _first_tree(lists["feature"])
    del lists["feature"][nodes - 1], lists["value"][leaves - 1]
    set_node_lists(payload, lists)


def _first_tree_a_chain_of_six_splits(payload):
    """The first tree replaced by six nested left splits: a leaf at depth 6."""
    lists = node_lists(payload)
    nodes, leaves = _first_tree(lists["feature"])
    lists["feature"][:nodes] = [0] * 6 + [-1] * 7
    lists["threshold"][:nodes - leaves] = [0.0] * 6
    lists["value"][:leaves] = [0.0] * 7
    set_node_lists(payload, lists)


def _a_code_past_the_table(payload):
    table = payload["parameters"]
    size = unpack(table["value_table"], np.float64).size
    codes = unpack(table["value_code"], code_type(size)).copy()
    codes[-1] = size
    table["value_code"] = pack(codes, code_type(size))


def _version_5(payload):
    """The file as version 5 wrote it: the node table as lists of numbers."""
    lists = node_lists(payload)
    table = payload["parameters"]
    for key in ("value_table", "value_code"):
        del table[key]
    table.update(lists)
    payload["version"] = 5
    del payload["dataset_sha256"]


# case -> (family, edit of the model file, what the error says)
MALFORMED_PARAMETERS = {
    # Version 5's list of numbers in place of the packed array.
    "tree feature a list": (
        "random_forest",
        lambda p: p["parameters"].update(feature=node_lists(p)["feature"]),
        "key 'feature' must be a string, got [",
    ),
    "threshold not base64": ("gbm", _edit_packed("threshold", lambda t: "*" + t[1:]),
                             "key 'threshold' must be a base64 string"),
    "threshold base64 unpadded": ("random_forest", _edit_packed("threshold", lambda t: t + "A"),
                                  "key 'threshold' must be a base64 string"),
    "threshold bytes not whole float64s": (
        "gbm",
        _edit_packed("threshold", lambda t: pack(
            np.append(unpack(t, np.float64).view(np.uint8), 0), np.uint8)),
        "key 'threshold' holds",
    ),
    "value table bytes not whole float64s": (
        "random_forest",
        _edit_packed("value_table", lambda t: pack(unpack(t, np.float64).view(np.uint8)[:-3],
                                                   np.uint8)),
        "bytes, not whole float64 items",
    ),
    "a leaf code past the table": ("gbm", _a_code_past_the_table,
                                   "a leaf's value code is outside the"),
    # 25 trees of depth 10 hold at most 25 x 2,047 nodes.
    "feature longer than the node bound": (
        "random_forest",
        _edit_packed("feature", lambda f: pack(np.full(25 * 2047 + 1, -1), np.int8)),
        "key 'feature' holds more than the family's 51175 items",
    ),
    "gbm feature longer than the node bound": (
        "gbm",
        _edit_packed("feature", lambda f: pack(np.full(50 * 63 + 1, -1), np.int8)),
        "key 'feature' holds more than the family's 3150 items",
    ),
    "dataset digest missing": ("gbm", lambda p: p.pop("dataset_sha256"),
                               "key 'dataset_sha256' is missing"),
    "dataset digest not hex": ("glm_binomial", lambda p: p.update(dataset_sha256="g" * 64),
                               "key 'dataset_sha256' must be a SHA-256 hex digest"),
    "dataset digest upper case": (
        "random_forest", lambda p: p.update(dataset_sha256=p["dataset_sha256"].upper()),
        "key 'dataset_sha256' must be a SHA-256 hex digest"),
    "dataset digest short": ("glm_binomial",
                             lambda p: p.update(dataset_sha256=p["dataset_sha256"][:-1]),
                             "key 'dataset_sha256' must be a SHA-256 hex digest"),
    "dataset digest a number": ("gbm", lambda p: p.update(dataset_sha256=0),
                                "key 'dataset_sha256' must be a string, got 0"),
    "gbm f0 a string": (
        "gbm",
        lambda p: p["parameters"].update(f0=str(p["parameters"]["f0"])),
        "key 'f0' must be a finite number",
    ),
    "weights numeric strings": (
        "glm_binomial",
        lambda p: p["parameters"].update(
            weights=[str(w) for w in unpack(p["parameters"]["weights"], np.float64)]),
        "key 'weights' must be a string, got ['",
    ),
    "intercept true": (
        "glm_binomial",
        lambda p: p["parameters"].update(intercept=True),
        "key 'intercept' must be a finite number, got True",
    ),
    "version true": ("glm_binomial", lambda p: p.update(version=True),
                     "key 'version' must be an integer, got True"),
    "no trees": ("random_forest", _edit_nodes(**{k: lambda a: [] for k in NODE_KEYS}),
                 "an ensemble needs at least one tree"),
    "no roots": ("gbm", _edit_nodes(feature=lambda f: []), "an ensemble needs at least one tree"),
    # The first tree's root, a split node, leaves its threshold behind.
    "a root dropped": ("gbm", _edit_nodes(feature=lambda f: f[1:]), "thresholds and"),
    "a threshold too many": ("random_forest", _edit_nodes(threshold=lambda t: t + [0.5]),
                             "thresholds and"),
    "a value too few": ("gbm", _edit_nodes(value=lambda v: v[:-1]), "thresholds and"),
    "split feature too high": (
        "random_forest", _edit_nodes(feature=lambda f: [3] + f[1:]),
        "tree split feature out of range for 3 features",
    ),
    "ends inside a tree": ("gbm", _SPLIT_AT_THE_END, "the tree node sequence ends inside a tree"),
    # A split root past the last node, without its children.
    "root past the last node": (
        "random_forest", _edit_nodes(feature=lambda f: f + [0], threshold=lambda t: t + [0.5]),
        "the tree node sequence ends inside a tree",
    ),
    "version 5": ("random_forest", _version_5,
                  "unsupported model file version 5 (expected 6); retrain it with `train`"),
    "version 4": ("gbm", lambda p: p.update(version=4), "unsupported model file version 4"),
    "version 1": ("random_forest", lambda p: p.update(version=1),
                  "unsupported model file version 1"),
    # A version-2 GBM file also named its unused row subsample.
    "version 2": ("gbm", lambda p: (p.update(version=2), p["spec"].update(hyperparameters={
                      "n_trees": 50, "learning_rate": 0.1, "max_depth": 5, "subsample": 1.0})),
                  "unsupported model file version 2"),
    # A version-3 file held every hyperparameter in its spec.
    "version 3": ("glm_binomial", lambda p: (p.update(version=3), p["spec"].update(
                      hyperparameters={"l2": 1e-4, "max_iter": 50, "tol": 1e-8})),
                  "unsupported model file version 3"),
    "spec key unknown": ("random_forest", lambda p: p["spec"].update(n_trees=25, depth=10),
                         "unknown spec keys ['depth', 'n_trees']"),
    # The first tree takes the second as its missing subtree: once loaded
    # as 24 trees, predicting other values.
    "first tree's last leaf deleted": ("random_forest", _drop_first_trees_last_leaf,
                                       "24 trees, not the family's 25"),
    "a tree deeper than max_depth": ("gbm", _first_tree_a_chain_of_six_splits,
                                     "a tree is deeper than the family's max_depth 5"),
}


class TestModelFileChecks:
    """A model file's parameters must fit its ``feature_count``."""

    def _saved(self, tmp_path, family, task="classify"):
        X, y, _ = family_problem(task)
        path = tmp_path / "m.json"
        save_model(train(ModelSpec(family, task, seed=1), X, y, DIGEST), path)
        return path

    def _load_edited(self, path, edit):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return load_model(path)

    @pytest.mark.parametrize("weights", [[0.5], [0.1, 0.2, 0.3, 0.4], []])
    def test_glm_weight_count(self, tmp_path, weights):
        path = self._saved(tmp_path, "glm_binomial")
        with pytest.raises(DataError, match=f"{len(weights)} weights for 3 features"):
            self._load_edited(path, lambda p: p["parameters"].update(
                weights=pack(weights, np.float64)))

    @pytest.mark.parametrize("feature", [3, -2])
    def test_tree_split_feature_out_of_range(self, tmp_path, feature):
        path = self._saved(tmp_path, "gbm")
        with pytest.raises(DataError, match="split feature out of range"):
            self._load_edited(path, _edit_nodes(feature=lambda f: [feature] + f[1:]))

    def test_tree_arrays_of_unequal_length(self, tmp_path):
        path = self._saved(tmp_path, "random_forest", "regress")
        with pytest.raises(DataError, match="thresholds and .* values for .* split nodes and"):
            self._load_edited(path, _edit_nodes(value=lambda v: v[:-1]))

    @pytest.mark.parametrize("case", sorted(MALFORMED_PARAMETERS))
    def test_malformed_parameters_are_refused(self, tmp_path, case):
        # Each once loaded: truncated by np.asarray, parsed from strings or
        # taken as a number, and predicted without a word; an empty forest
        # once failed in prediction with exit 3.
        family, edit, want = MALFORMED_PARAMETERS[case]
        path = self._saved(tmp_path, family)
        with pytest.raises(DataError, match=re.escape(want)) as info:
            self._load_edited(path, edit)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key", ["seed", "feature_count"])
    @pytest.mark.parametrize("value", [7.9, 3.0, True, "3"])
    def test_integer_fields_are_not_coerced(self, tmp_path, key, value):
        # int() once loaded a seed of 7.9 as 7 and 3.0 features as 3.
        path = self._saved(tmp_path, "random_forest")

        def edit(p):
            (p["spec"] if key == "seed" else p)[key] = value

        want = f"{path} is not a valid model file: key {key!r} must be an integer, got {value!r}"
        with pytest.raises(DataError, match=re.escape(want)):
            self._load_edited(path, edit)

    def test_hyperparameter_of_wrong_kind(self, tmp_path):
        path = self._saved(tmp_path, "random_forest")
        with pytest.raises(DataError, match=SPEC_WITH_HYPERPARAMETERS):
            self._load_edited(path, lambda p: p["spec"].update(hyperparameters={"n_trees": "a"}))

    def test_gradient_descent_model_file(self, tmp_path):
        # Written before the Newton solver, with the gradient-descent
        # learning_rate among its hyperparameters.
        path = self._saved(tmp_path, "glm_binomial")
        with pytest.raises(DataError, match=SPEC_WITH_HYPERPARAMETERS) as info:
            self._load_edited(path, lambda p: p["spec"].update(
                hyperparameters={"l2": 1e-4, "learning_rate": 0.1}))
        assert str(path) in str(info.value)

    # json.dumps writes float("inf") as Infinity, which json.loads reads back.
    def test_infinite_real_hyperparameter(self, tmp_path):
        path = self._saved(tmp_path, "glm_binomial")
        with pytest.raises(DataError, match=SPEC_WITH_HYPERPARAMETERS):
            self._load_edited(path, lambda p: p["spec"].update(
                hyperparameters={"l2": float("inf")}))

    def test_infinite_seed(self, tmp_path):
        path = self._saved(tmp_path, "glm_binomial")
        with pytest.raises(DataError, match="not a valid model file"):
            self._load_edited(path, lambda p: p["spec"].update(seed=float("inf")))


@pytest.fixture(scope="module")
def ensemble_files(tmp_path_factory):
    """The text of a saved forest and GBM classifier, by family."""
    X, y, _ = family_problem("classify")
    texts = {}
    for family in ("random_forest", "gbm"):
        path = tmp_path_factory.mktemp(family) / "m.json"
        save_model(train(ModelSpec(family, "classify", seed=1), X, y, DIGEST), path)
        texts[family] = path.read_text()
    return texts


class TestTreeCountAndDepth:
    """A forest or GBM file holds exactly its family's tree count, no tree
    deeper than its ``max_depth``."""

    @pytest.mark.parametrize("family", ["random_forest", "gbm"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(delete=st.booleans(), data=st.data())
    def test_one_node_deleted_or_inserted_is_refused(self, tmp_path_factory, ensemble_files,
                                                     family, delete, data):
        # Each edit moves the sum of the +1 (split) / -1 (leaf) shape code
        # by one, so the file either does not decode or decodes as one tree
        # more or fewer.  A deleted last leaf of any tree but the last once
        # loaded as one tree fewer.
        payload = json.loads(ensemble_files[family])
        table = node_lists(payload)
        feature = table["feature"]
        at = data.draw(st.integers(0, len(feature) - delete), label="at")
        splits = sum(f >= 0 for f in feature[:at])  # thresholds, then values, before node at
        if delete:
            if feature.pop(at) >= 0:
                del table["threshold"][splits]
            else:
                del table["value"][at - splits]
        elif data.draw(st.booleans(), label="insert a split"):
            feature.insert(at, data.draw(st.integers(0, 2), label="split feature"))
            table["threshold"].insert(splits, 0.25)
        else:
            feature.insert(at, -1)
            table["value"].insert(at - splits, 0.5)
        set_node_lists(payload, table)
        path = tmp_path_factory.mktemp("edited") / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="is not a valid model file") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("family", ["random_forest", "gbm"])
    def test_a_one_class_fit_writes_every_tree(self, tmp_path, family):
        # Every tree of a one-class fit is a lone leaf; the file still holds
        # the family's count of them and loads.
        X, _, probe = family_problem("classify")
        model = train(ModelSpec(family, "classify"), X, np.ones(len(X)), DIGEST)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        count = {"random_forest": 25, "gbm": 50}[family]
        assert node_lists(json.loads((tmp_path / "m.json").read_text()))["feature"] == [-1] * count
        assert np.array_equal(predict(loaded, probe), predict(model, probe))


# Float64 bit patterns of every kind: zeros of both signs, subnormals,
# infinities, quiet and signalling NaNs with payloads and the largest finite.
SPECIAL_BITS = [0, 1 << 63, 1, (1 << 52) - 1, (1 << 63) | 1, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000, 0x7FF8000000000123,
                0xFFF0000000000001, 0x7FEFFFFFFFFFFFFF]
FLOAT_BITS = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


def _preorder_feature(splits, n_trees, max_depth, split_features):
    """The preorder feature array of ``n_trees`` trees whose shapes the
    booleans ``splits`` give, node by node (a node splits on True, unless at
    ``max_depth``; nodes past the booleans' end are leaves)."""
    flags, features, feature = iter(splits), iter(split_features), []

    def grow(depth):
        if depth < max_depth and next(flags, False):
            feature.append(next(features))
            grow(depth + 1)
            grow(depth + 1)
        else:
            feature.append(-1)

    for _ in range(n_trees):
        grow(0)
    return np.array(feature, dtype=np.int64)


class TestCodecRoundTrip:
    """Every array of a model file saves and loads bit for bit, and a loaded
    file saves to the same bytes."""

    @staticmethod
    def _round_trip(model, tmp_path_factory):
        path = tmp_path_factory.mktemp("codec") / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        save_model(loaded, path.with_name("again.json"))
        assert path.with_name("again.json").read_bytes() == path.read_bytes()
        assert (loaded.spec, loaded.feature_count) == (model.spec, model.feature_count)
        assert loaded.dataset_sha256 == model.dataset_sha256
        return loaded

    @pytest.mark.parametrize("family", ["random_forest", "gbm"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(width=st.sampled_from([1, 2, 127, 128, 129, 200, 32768, 32769]), data=st.data())
    def test_node_tables(self, tmp_path_factory, family, width, data):
        defaults = inspect.signature(FIT[family]).parameters
        n_trees, max_depth = defaults["n_trees"].default, defaults["max_depth"].default
        splits = data.draw(st.lists(st.booleans(), max_size=400), label="splits")
        split_features = st.lists(st.integers(0, width - 1), min_size=len(splits),
                                  max_size=len(splits))
        feature = _preorder_feature(splits, n_trees, max_depth,
                                    data.draw(split_features, label="split features"))
        split = int((feature >= 0).sum())

        def floats(size, label):
            # Leaf values repeat, as a fit's do, from a pool of patterns.
            pool = data.draw(st.lists(FLOAT_BITS, min_size=1, max_size=size), label=label)
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=size,
                                       max_size=size), label=label + " picks")
            return np.array(pool, dtype=np.uint64)[picks].view(np.float64)

        threshold = floats(split, "thresholds") if split else np.empty(0)
        value = floats(feature.size - split, "values")
        params = {"trees": NodeTable(feature, threshold, value)}
        if family == "gbm":
            params.update(f0=-0.0, learning_rate=0.1)
        model = TrainedModel(ModelSpec(family, "regress", seed=3), width, params, DIGEST)
        trees = self._round_trip(model, tmp_path_factory).parameters["trees"]
        assert np.array_equal(trees.feature, feature) and trees.feature.dtype == np.int64
        assert np.array_equal(trees.threshold.view(np.uint64), threshold.view(np.uint64))
        assert np.array_equal(trees.value.view(np.uint64), value.view(np.uint64))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(bits=st.lists(FLOAT_BITS, min_size=1, max_size=300),
           intercept=st.floats(allow_nan=False, allow_infinity=False))
    def test_glm_weights(self, tmp_path_factory, bits, intercept):
        weights = np.array(bits, dtype=np.uint64).view(np.float64)
        model = TrainedModel(ModelSpec("glm_binomial", "classify"), weights.size,
                             {"weights": weights, "intercept": intercept}, DIGEST)
        loaded = self._round_trip(model, tmp_path_factory).parameters
        assert np.array_equal(loaded["weights"].view(np.uint64), weights.view(np.uint64))
        assert np.float64(loaded["intercept"]).tobytes() == np.float64(intercept).tobytes()

    @pytest.mark.parametrize("width,kind", [(3, np.int8), (60, np.int8), (128, np.int8),
                                            (129, np.int16), (180, np.int16)])
    def test_feature_type_is_the_narrowest_that_holds_minus_the_width(self, tmp_path, width,
                                                                       kind):
        X = np.random.default_rng(2).normal(size=(40, width))
        model = train(ModelSpec("gbm", "regress"), X, X[:, -1], DIGEST)
        save_model(model, tmp_path / "m.json")
        feature = model.parameters["trees"].feature
        packed = json.loads((tmp_path / "m.json").read_text())["parameters"]["feature"]
        assert base64.b64decode(packed) == feature.astype(np.dtype(kind).newbyteorder("<")).tobytes()

    def test_a_model_without_its_dataset_digest_is_not_saved(self, tmp_path):
        X, y = separable_problem(n=20)
        with pytest.raises(ValueError, match="needs its dataset's SHA-256"):
            save_model(train(ModelSpec("glm_binomial", "classify"), X, y), tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()
