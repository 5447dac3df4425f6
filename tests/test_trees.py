"""The presorted, rank-coded split search grows exactly the trees of the
per-node argsort reference in ``tests/oracles.py``: same node dicts, same
predictions.  The level-wise ``tree_apply`` finds the leaves of the
row-at-a-time reference walk."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tspec.models import trees
from tspec.models.ensembles import forest_fit, gbm_fit
from tspec.models.trees import Tree, build_tree, presort, rank_codes, tree_apply, tree_predict
from tspec.seeds import rng_for
from tests.oracles import (
    build_tree_argsort,
    forest_fit_oracle,
    gbm_fit_oracle,
    tree_leaf_oracle,
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


@pytest.fixture
def scans(monkeypatch):
    """The (values, targets) blocks ``_best_split`` receives, in call order."""
    seen = []

    def spy(xs, ys):
        seen.append((xs.copy(), ys.copy()))
        return real(xs, ys)

    real = trees._best_split
    monkeypatch.setattr(trees, "_best_split", spy)
    return seen


def assert_same_scans(seen, reference, at_least):
    assert len(seen) == len(reference) > at_least
    for (xs, ys), (ref_xs, ref_ys) in zip(seen, reference):
        assert np.array_equal(xs, ref_xs.T)
        assert np.array_equal(ys, ref_ys.T)


@pytest.mark.parametrize(
    "n, max_features, decimals",
    [(120, None, 0), (120, None, 1), (400, 2, 0), (400, 3, 1), (60, 1, 0)],
)
def test_every_node_scans_rows_in_stable_argsort_order(scans, n, max_features, decimals):
    """Node by node, the scan sees the values and targets a stable argsort of
    the node's ascending rows gives; distinct targets make tie order visible."""
    X, _ = tied_problem(n, 5, decimals, seed=n + decimals, constant_cols=(1,), duplicate=True)
    y = np.arange(n, dtype=np.float64) * 0.1
    build_tree(X, y, 8, max_features, rng_for(1, "t"))
    reference = []
    build_tree_argsort(X, y, 8, max_features, rng_for(1, "t"), record=reference)
    assert_same_scans(scans, reference, at_least=1)


def forest_problem(kind, n=150, d=9, seed=11):
    """Forest inputs that stress the rank codes: heavy ties (0 decimals), a
    column that mixes -0.0 and 0.0, or bootstrap-style duplicated rows."""
    if kind == "ties":
        return tied_problem(n, d, 0, seed, constant_cols=(0,))
    if kind == "duplicates":
        return tied_problem(n, d, 1, seed, constant_cols=(0,), duplicate=True)
    X, y = tied_problem(n, d, 1, seed, constant_cols=(0,))
    rng = np.random.default_rng(seed)
    X[:, 1] = rng.choice([-0.0, 0.0, 0.5], size=n)
    X[:, 2] = np.where(X[:, 2] == 0.0, rng.choice([-0.0, 0.0], size=n), X[:, 2])
    return X, y + X[:, 1]


FOREST_KINDS = ["ties", "signed_zero", "duplicates"]


def forest_max_features(task, width):
    return math.ceil(math.sqrt(width)) if task == "classify" else math.ceil(width / 3)


def assert_forest_matches(X, y, task, n_trees, max_depth, seed):
    params = forest_fit(X, y, task, n_trees=n_trees, max_depth=max_depth, seed=seed)
    reference = forest_fit_oracle(
        X, y, forest_max_features(task, X.shape[1]), n_trees, max_depth,
        lambda t: rng_for(seed, "tree", t),
    )
    for tree, want in zip(params["trees"], reference, strict=True):
        assert_same_tree(tree, want, X)


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_forest_matches_reference(task):
    X, y = tied_problem(150, 9, 1, seed=11, constant_cols=(0,))
    if task == "classify":
        y = (y > 0).astype(np.float64)
    assert_forest_matches(X, y, task, n_trees=4, max_depth=6, seed=5)


@pytest.mark.parametrize("kind", FOREST_KINDS)
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_forest_rank_codes_match_reference(task, kind):
    X, y = forest_problem(kind)
    if task == "classify":
        y = (y > 0).astype(np.float64)
    assert_forest_matches(X, y, task, n_trees=4, max_depth=6, seed=5)


@pytest.mark.parametrize("kind", FOREST_KINDS)
def test_forest_nodes_scan_rows_in_stable_argsort_order(scans, kind):
    """Every forest node sees the values and targets of a stable argsort of
    its bootstrap rows; distinct targets make the order of tied rows
    visible."""
    X, _ = forest_problem(kind)
    y = np.arange(X.shape[0], dtype=np.float64) * 0.1
    forest_fit(X, y, "regress", n_trees=3, max_depth=6, seed=7)
    reference = []
    forest_fit_oracle(
        X, y, forest_max_features("regress", X.shape[1]), 3, 6,
        lambda t: rng_for(7, "tree", t), record=reference,
    )
    assert_same_scans(scans, reference, at_least=3)


def test_forest_with_wide_rank_codes():
    # Column 0 has over 65,535 distinct values, so the codes are 32-bit.
    rng = np.random.default_rng(4)
    n = 70_000
    X = np.column_stack(
        [rng.normal(size=n), np.round(rng.normal(size=n), 1), rng.integers(0, 3, size=n)]
    ).astype(np.float64)
    assert np.unique(X[:, 0]).size > 65_535
    assert rank_codes(X).dtype == np.uint32
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.2).astype(np.float64)
    assert_forest_matches(X, y, "classify", n_trees=1, max_depth=3, seed=2)


@settings(max_examples=60, deadline=None)
@given(
    X=arrays(
        np.float64,
        st.tuples(st.integers(0, 30), st.integers(1, 4)),
        elements=st.sampled_from([-2.5, -0.0, 0.0, 0.25, 7.0]) | st.floats(-1e6, 1e6),
    )
)
def test_rank_codes_are_dense_value_ranks(X):
    codes = rank_codes(X)
    assert codes.dtype == np.uint16 and codes.shape == X.T.shape
    for column, code in zip(X.T, codes):
        distinct = np.unique(column)  # -0.0 and 0.0 are one value
        assert np.array_equal(code, np.searchsorted(distinct, column))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forest_refuses_non_finite_features(bad):
    X, y = tied_problem(40, 4, 1, seed=1)
    X[7, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        forest_fit(X, y, "regress", n_trees=2)


@pytest.mark.parametrize("subsample", [1.0, 0.5])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_gbm_matches_reference(task, subsample):
    # With subsample 1 a classification round reuses its Newton step's leaf
    # ids for the score update; the later rounds' trees depend on it.
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



@st.composite
def random_trees(draw):
    """A valid ``Tree`` and its feature count: any shape, from a single leaf
    to chains deeper than any fit, numbered depth-first or breadth-first
    (every child id above its parent's either way)."""
    width = draw(st.integers(1, 4))
    thresholds = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 3.0]) | st.floats()
    splits = draw(st.integers(0, 60))
    chain = draw(st.booleans())  # every left child is a leaf

    def grow():
        nonlocal splits
        node = {"value": draw(st.floats(-10, 10)), "children": []}
        if splits and (chain or draw(st.booleans())):
            splits -= 1
            node["feature"] = draw(st.integers(0, width - 1))
            node["threshold"] = draw(thresholds)
            left = {"value": 0.0, "children": []} if chain else grow()
            node["children"] = [left, grow()]
        return node

    nodes = [grow()]
    if draw(st.booleans()):  # breadth-first
        for node in nodes:
            nodes.extend(node["children"])
    else:
        def depth_first(node):
            yield node
            for child in node["children"]:
                yield from depth_first(child)

        nodes = list(depth_first(nodes[0]))
    ids = {id(node): i for i, node in enumerate(nodes)}
    kids = [[ids[id(c)] for c in node["children"]] or [-1, -1] for node in nodes]
    data = {
        "feature": [node.get("feature", -1) for node in nodes],
        "threshold": [node.get("threshold", 0.0) for node in nodes],
        "left": [k[0] for k in kids],
        "right": [k[1] for k in kids],
        "value": [node["value"] for node in nodes],
    }
    return Tree.from_dict(data, width), width


def prediction_rows(draw, n, width, tree):
    """n rows with NaN, +-inf, the tree's own thresholds and other floats."""
    cells = st.sampled_from([np.nan, np.inf, -np.inf, *tree.threshold.tolist()]) | st.floats()
    return draw(arrays(np.float64, (n, width), elements=cells))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), drawn=random_trees(), n=st.integers(0, 25))
def test_tree_apply_on_random_trees(data, drawn, n):
    tree, width = drawn
    X = prediction_rows(data.draw, n, width, tree)
    leaves = tree_apply(tree, X)
    assert leaves.dtype == np.int64
    assert np.array_equal(leaves, tree_leaf_oracle(tree.to_dict(), X))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 80),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    max_features=st.one_of(st.none(), st.integers(1, 5)),
    max_depth=st.integers(0, 8),
    rows=st.integers(0, 40),
)
def test_tree_apply_on_fitted_trees(data, n, d, seed, max_features, max_depth, rows):
    X, y = tied_problem(n, d, 1, seed, duplicate=True)
    tree = build_tree(X, y, max_depth, max_features, rng_for(seed, "a"))
    assert np.array_equal(tree_apply(tree, X), tree_leaf_oracle(tree.to_dict(), X))
    Xp = prediction_rows(data.draw, rows, d, tree)
    assert np.array_equal(tree_apply(tree, Xp), tree_leaf_oracle(tree.to_dict(), Xp))


def test_nan_features_go_right():
    tree = Tree.from_dict(
        {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
         "right": [2, -1, -1], "value": [0.0, 1.0, 2.0]},
        feature_count=1,
    )
    X = np.array([[np.nan], [-np.inf], [np.inf], [0.5]])
    assert tree_apply(tree, X).tolist() == [2, 1, 2, 1]
