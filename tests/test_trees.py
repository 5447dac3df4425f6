"""The presorted split search grows exactly the trees of the per-node argsort
reference in ``tests/oracles.py``: same node dicts, same predictions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspec.models import trees
from tspec.models.ensembles import forest_fit, gbm_fit
from tspec.models.trees import Tree, build_tree, presort, tree_predict
from tspec.seeds import rng_for
from tests.oracles import (
    build_tree_argsort,
    forest_fit_oracle,
    gbm_fit_oracle,
    tree_predict_oracle,
)


def tied_problem(n, d, decimals, seed, constant_cols=(), duplicate=False):
    """Features rounded to ``decimals`` (heavy ties at 0), optional constant
    columns and bootstrap-style duplicated rows; a target with ties too."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), decimals)
    for j in constant_cols:
        X[:, j] = 1.5
    y = np.round(X[:, 0] - X[:, -1] + 0.3 * rng.normal(size=n), 1)
    if duplicate:
        boot = rng.integers(0, n, size=n)
        X, y = X[boot], y[boot]
    return X, y


def assert_same_tree(tree: Tree, reference: dict, X: np.ndarray):
    assert tree.to_dict() == reference
    got = tree_predict(tree, X)
    want = tree_predict_oracle(reference, X)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("decimals", [0, 1, 8])
@pytest.mark.parametrize("duplicate", [False, True])
def test_full_width_tree(decimals, duplicate):
    X, y = tied_problem(120, 6, decimals, seed=decimals, constant_cols=(2,), duplicate=duplicate)
    reference = build_tree_argsort(X, y, max_depth=6)
    assert_same_tree(build_tree(X, y, max_depth=6), reference, X)
    assert_same_tree(build_tree(X, y, max_depth=6, order=presort(X)), reference, X)


@pytest.mark.parametrize("max_features", [1, 3, 5])
@pytest.mark.parametrize("n", [40, 400])
def test_feature_subsets_share_the_rng_stream(max_features, n):
    # n=400 with depth 8 reaches nodes on both sides of the small-node cutoff.
    X, y = tied_problem(n, 7, 1, seed=n + max_features, constant_cols=(4,), duplicate=True)
    tree = build_tree(X, y, max_depth=8, max_features=max_features, rng=rng_for(3, "t"))
    reference = build_tree_argsort(X, y, 8, max_features, rng_for(3, "t"))
    assert_same_tree(tree, reference, X)


@pytest.mark.parametrize("min_samples_split", [2, 5, 30])
def test_min_samples_split(min_samples_split):
    X, y = tied_problem(90, 4, 0, seed=min_samples_split)
    tree = build_tree(X, y, max_depth=10, min_samples_split=min_samples_split)
    assert_same_tree(tree, build_tree_argsort(X, y, 10, min_samples_split=min_samples_split), X)


def test_all_columns_constant_is_a_single_leaf():
    X = np.ones((30, 3))
    y = np.arange(30.0)
    tree = build_tree(X, y, max_depth=4)
    assert tree.to_dict() == build_tree_argsort(X, y, 4)
    assert tree.feature.tolist() == [-1]


def test_tie_breaks_prefer_lowest_feature_then_threshold():
    # Both columns are equal and the first and last boundaries score 2/3.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    tree = build_tree(X, y, max_depth=1)
    assert tree.to_dict() == build_tree_argsort(X, y, 1)
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)


@pytest.mark.parametrize(
    "n, max_features, decimals",
    [(120, None, 0), (120, None, 1), (400, 2, 0), (400, 3, 1), (60, 1, 0)],
)
def test_every_node_scans_rows_in_stable_argsort_order(monkeypatch, n, max_features, decimals):
    """Node by node, the scan sees the values and targets a stable argsort of
    the node's ascending rows gives; distinct targets make tie order visible."""
    X, _ = tied_problem(n, 5, decimals, seed=n + decimals, constant_cols=(1,), duplicate=True)
    y = np.arange(n, dtype=np.float64) * 0.1
    seen = []

    def spy(xs, ys):
        seen.append((xs.copy(), ys.copy()))
        return real(xs, ys)

    real = trees._best_split
    monkeypatch.setattr(trees, "_best_split", spy)
    build_tree(X, y, 8, max_features, rng_for(1, "t"))
    reference = []
    build_tree_argsort(X, y, 8, max_features, rng_for(1, "t"), record=reference)
    assert len(seen) == len(reference) > 1
    for (xs, ys), (ref_xs, ref_ys) in zip(seen, reference):
        assert np.array_equal(xs, ref_xs.T)
        assert np.array_equal(ys, ref_ys.T)


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_forest_matches_reference(task):
    X, y = tied_problem(150, 9, 1, seed=11, constant_cols=(0,))
    if task == "classify":
        y = (y > 0).astype(np.float64)
        max_features = math.ceil(math.sqrt(9))
    else:
        max_features = math.ceil(9 / 3)
    params = forest_fit(X, y, task, n_trees=4, max_depth=6, seed=5)
    reference = forest_fit_oracle(X, y, max_features, 4, 6, lambda t: rng_for(5, "tree", t))
    for tree, want in zip(params["trees"], reference, strict=True):
        assert_same_tree(tree, want, X)


@pytest.mark.parametrize("subsample", [1.0, 0.5])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_gbm_matches_reference(task, subsample):
    X, y = tied_problem(160, 5, 1, seed=13, constant_cols=(3,))
    if task == "classify":
        y = (y > 0).astype(np.float64)
    params = gbm_fit(X, y, task, n_trees=6, max_depth=4, subsample=subsample, seed=9)
    f0, reference = gbm_fit_oracle(
        X, y, task, 6, 0.1, 4, subsample, lambda t: rng_for(9, "tree", t)
    )
    assert params["f0"] == f0
    for tree, want in zip(params["trees"], reference, strict=True):
        assert_same_tree(tree, want, X)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 80),
    d=st.integers(1, 6),
    decimals=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    duplicate=st.booleans(),
    max_features=st.one_of(st.none(), st.integers(1, 6)),
    min_samples_split=st.integers(2, 12),
    max_depth=st.integers(0, 7),
)
def test_random_problems_match_reference(
    n, d, decimals, seed, duplicate, max_features, min_samples_split, max_depth
):
    X, y = tied_problem(n, d, decimals, seed, constant_cols=range(2, d, 3), duplicate=duplicate)
    tree = build_tree(X, y, max_depth, max_features, rng_for(seed, "h"), min_samples_split)
    reference = build_tree_argsort(
        X, y, max_depth, max_features, rng_for(seed, "h"), min_samples_split
    )
    assert_same_tree(tree, reference, X)
