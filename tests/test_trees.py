"""The presorted, rank-coded split search grows exactly the trees of the
per-node argsort reference in ``tests/oracles.py``: same node dicts, same
predictions.  The blocked complex scan of one node finds the split of the
one-block float scan there.  The step-at-a-time walk finds the leaves of
the row-at-a-time reference walk, for one tree (``tree_apply``) and for
groups of trees (forest and boosting sums, bit for bit).  Boosting rounds
that take the last round's child row orders grow the reference's trees
too.  Forests grown across worker processes, and GBMs whose split scans
are spread over them by feature, are the one-process ensembles byte for
byte, and fail as the one-process loop fails."""

import json
import math
import os
import signal
import threading
import time
import tracemalloc
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tspec import (ModelSpec, SyntheticScenario, cli, derive_seed, generate_synthetic,
                   load_model, predict, save_model, train)
from tspec.models import ensembles, trees
from tspec.models.ensembles import forest_fit, gbm_fit
from tspec.models.glm import _sigmoid
from tspec.models.trees import (
    NodeTable,
    Presorted,
    build_tree,
    presort,
    rank_codes,
    tied_columns,
    tree_apply,
    tree_predict,
)
from tspec.seeds import rng_for
from tests.conftest import method_artifacts, scenario_to_dict, three_attack_scenario
from tests.oracles import (
    best_split_scan_oracle,
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


NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def as_dict(tree: NodeTable) -> dict:
    """A one-tree table in the node-list form of ``tests/oracles.py``."""
    assert tree.roots.tolist() == [0]
    return {name: getattr(tree, name).tolist() for name in NODE_ARRAYS}


def tree_slices(table: NodeTable) -> list[NodeTable]:
    """Each tree of ``table`` as a one-tree table: its slice of the node
    arrays, child ids counted from its own root."""
    ends = [*table.roots[1:].tolist(), table.feature.size]
    slices = []
    for root, end in zip(table.roots.tolist(), ends):
        nodes = slice(root, end)
        local = [np.where(ids[nodes] >= 0, ids[nodes] - root, ids[nodes])
                 for ids in (table.left, table.right)]
        slices.append(NodeTable(table.feature[nodes], table.threshold[nodes], *local,
                                table.value[nodes], np.zeros(1, dtype=np.int64)))
    return slices


def checked_tree(feature_count, **lists) -> NodeTable:
    """A one-tree table of node lists, checked as a model file's."""
    arrays = {name: np.array(lists[name], dtype=np.float64 if name in ("threshold", "value")
                             else np.int64) for name in NODE_ARRAYS}
    return NodeTable.checked(feature_count, roots=np.zeros(1, dtype=np.int64), **arrays)


def assert_same_tree(tree: NodeTable, reference: dict, X: np.ndarray):
    assert as_dict(tree) == reference
    got = tree_predict(tree, X)
    want = tree_predict_oracle(reference, X)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("decimals", [0, 1, 8])
@pytest.mark.parametrize("duplicate", [False, True])
def test_full_width_tree(decimals, duplicate):
    X, y = tied_problem(120, 6, decimals, seed=decimals, constant_cols=(2,), duplicate=duplicate)
    reference = build_tree_argsort(X, y, max_depth=6)
    assert_same_tree(build_tree(X, y, max_depth=6), reference, X)
    assert_same_tree(build_tree(X, y, max_depth=6, presorted=Presorted(X)), reference, X)


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
    assert as_dict(tree) == build_tree_argsort(X, y, 4)
    assert tree.feature.tolist() == [-1]


def test_tie_breaks_prefer_lowest_feature_then_threshold():
    # Both columns are equal and the first and last boundaries score 2/3.
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    tree = build_tree(X, y, max_depth=1)
    assert as_dict(tree) == build_tree_argsort(X, y, 1)
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)


def pack(y):
    """Targets as the scan reads them: ``y + 1j * y * y``."""
    packed = np.empty(y.size, dtype=np.complex128)
    packed.real = y
    packed.imag = y * y
    return packed


@st.composite
def scan_inputs(draw):
    """One node's scan inputs and a block size: heavily tied values and
    targets, some of them huge, from a wide and short node to a narrow and
    tall one."""
    n = draw(st.integers(2, 60))
    width = draw(st.integers(1, 12))
    values = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-100, 100)
    X = draw(arrays(np.float64, (n, width), elements=values))
    # Targets near 1e154 and above overflow the sums of squares.
    targets = st.sampled_from([0.0, 1.0]) | st.floats(-50, 50) | st.sampled_from([6e153, -1e200])
    y = draw(arrays(np.float64, n, elements=targets))
    idx = np.flatnonzero(draw(arrays(np.bool_, n)))
    if idx.size < 2:
        idx = np.arange(n)
    feats = np.sort(draw(st.permutations(range(width)))[: draw(st.integers(1, width))])
    rows = idx[np.argsort(X[idx][:, feats].T, axis=1, kind="stable")]
    xs = X.T[feats[:, None], rows]
    # Flagging a feature that holds no tie only costs time, so flag extras.
    tied = (xs[:, 1:] == xs[:, :-1]).any(axis=1) | draw(arrays(np.bool_, feats.size))
    cells = draw(st.integers(1, 2 * feats.size * idx.size))
    return np.ascontiguousarray(X.T), y, feats, rows, tied, cells


@settings(max_examples=300, deadline=None)
@given(inputs=scan_inputs())
def test_blocked_scan_matches_one_block_scan(inputs):
    XT, y, feats, rows, tied, cells = inputs
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        want = best_split_scan_oracle(XT[feats[:, None], rows], y[rows])
        patch.setattr(trees, "_BLOCK_CELLS", cells)
        got = trees._best_split(XT, pack(y), feats, rows, tied)
    if want is None:  # no candidate, or -inf: build_tree makes a leaf
        assert not np.isfinite(got[2])
    else:
        assert got == (int(feats[want[0]]), want[1], want[2])


@pytest.mark.parametrize("huge", [6e153, 1e200])
def test_overflowing_targets_give_no_split_in_any_block(monkeypatch, huge):
    # Sums of 6e153 square to inf, so some scores are -inf; squares of 1e200
    # overflow, so every score is inf or NaN.  The one-block scan's minimum
    # is not finite, so there is no split.
    monkeypatch.setattr(trees, "_BLOCK_CELLS", 8)
    XT = np.random.default_rng(0).normal(size=(4, 8))
    y = np.array([huge] * 4 + [0.0, 1.0, 2.0, 3.0])
    rows = np.argsort(XT, axis=1, kind="stable")
    with np.errstate(over="ignore", invalid="ignore"):
        assert best_split_scan_oracle(XT[np.arange(4)[:, None], rows], y[rows]) is None
        score = trees._best_split(XT, pack(y), np.arange(4), rows, np.zeros(4, bool))[2]
        assert not np.isfinite(score)


def test_thresholds_between_features_near_the_float64_maximum(tmp_path):
    # 0.5 * (a + b) overflows to inf for these features; a split at inf sends
    # every row left and leaves a NaN leaf mean, and the file would not load.
    X = np.array([[1.6e308], [1.7e308], [1.65e308], [1.62e308]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    spec = ModelSpec("random_forest", "classify", hyperparameters={"n_trees": 1})
    model = train(spec, X, y)  # RuntimeWarnings are errors in this suite
    tree = model.parameters["trees"]
    assert tree.roots.tolist() == [0]
    assert np.isfinite(tree.value).all()
    splits = tree.threshold[tree.feature >= 0]
    assert splits.size and ((X.min() <= splits) & (splits <= X.max())).all()
    save_model(model, tmp_path / "forest.json")
    assert np.array_equal(predict(load_model(tmp_path / "forest.json"), X), predict(model, X))


def test_equal_best_scores_in_two_blocks_go_to_the_lower_feature(monkeypatch):
    # Columns 1 and 4 are equal and split y best; blocks of two features put
    # them in different blocks, and the later block must not win the tie.
    rng = np.random.default_rng(3)
    n = 64
    X = rng.normal(size=(n, 6))
    y = (X[:, 1] > 0.2).astype(np.float64)
    X[:, 4] = X[:, 1]
    monkeypatch.setattr(trees, "_BLOCK_CELLS", 2 * n)
    tree = build_tree(X, y, max_depth=3)
    assert tree.feature[0] == 1
    assert_same_tree(tree, build_tree_argsort(X, y, 3), X)


def assert_gbm_matches(X, y, task, n_trees, max_depth, subsample, seed):
    """``gbm_fit`` grows the reference boosting's trees; returns them."""
    params = gbm_fit(
        X, y, task, n_trees=n_trees, max_depth=max_depth, subsample=subsample, seed=seed
    )
    f0, reference = gbm_fit_oracle(
        X, y, task, n_trees, 0.1, max_depth, subsample, lambda t: rng_for(seed, "tree", t)
    )
    assert params["f0"] == f0
    fitted = tree_slices(params["trees"])
    for tree, want in zip(fitted, reference, strict=True):
        assert_same_tree(tree, want, X)
    return fitted


def gbm_tied_problem(seed, tree_rng):
    """Columns 0-2 rounded to one decimal (ties everywhere), 3-4 continuous
    (no ties) and column 5 with one tie: rows a and b share the value 0.0
    at which y jumps, y is 0 at the lower row and 1 at the higher, so only
    the tie mask keeps the boundary between them out.  The second half
    sample of ``tree_rng`` holds both rows, the first not both: the first
    sample's tie flags would miss the tie."""
    rng = np.random.default_rng(seed)
    n = 160
    X = rng.normal(size=(n, 6))
    X[:, :3] = np.round(X[:, :3], 1)
    first, second = (set(tree_rng(t).choice(n, size=n // 2, replace=False)) for t in (0, 1))
    a, b = min(second - first), max(second)
    X[[a, b], 5] = 0.0
    y = (X[:, 5] > 0).astype(np.float64)
    flip = rng.choice(n, size=12, replace=False)
    y[flip] = 1.0 - y[flip]
    y[[a, b]] = 0.0, 1.0
    return X, y


@pytest.mark.parametrize("subsample", [1.0, 0.5])
def test_gbm_on_columns_with_and_without_ties(subsample):
    tree_rng = lambda t: rng_for(4, "tree", t)  # noqa: E731
    X, y = gbm_tied_problem(seed=21, tree_rng=tree_rng)
    assert tied_columns(X, presort(X)).tolist() == [True] * 3 + [False] * 2 + [True]
    assert_gbm_matches(X, y, "classify", n_trees=8, max_depth=5, subsample=subsample, seed=4)


@pytest.fixture
def scans(monkeypatch):
    """Per ``_best_split`` call, in call order: the node's values, targets
    and squared targets as the scan reads them (feature i's row order from
    ``rows``, targets from the packed real part, squares from the imaginary
    part), and its tie flags."""
    seen = []

    def spy(XT, packed, feats, rows, tied):
        seen.append((XT[feats[:, None], rows], packed.real[rows], packed.imag[rows], tied.copy()))
        return real(XT, packed, feats, rows, tied)

    real = trees._best_split
    monkeypatch.setattr(trees, "_best_split", spy)
    return seen


def assert_same_scans(seen, reference, at_least):
    """Every node scans the reference's sorted values and targets, reads
    each target's square, and flags every feature whose sorted values hold a
    tie."""
    assert len(seen) == len(reference) > at_least
    for (xs, ys, squares, tied), (ref_xs, ref_ys) in zip(seen, reference):
        assert np.array_equal(xs, ref_xs.T)
        assert np.array_equal(ys, ref_ys.T)
        assert np.array_equal(squares, ref_ys.T * ref_ys.T)
        assert tied[(ref_xs[1:] == ref_xs[:-1]).any(axis=0)].all()


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
    for tree, want in zip(tree_slices(params["trees"]), reference, strict=True):
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


def use_cpus(monkeypatch, count):
    """Give this process ``count`` CPUs, as its affinity mask would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("kind", FOREST_KINDS)
def test_forest_nodes_scan_rows_in_stable_argsort_order(monkeypatch, scans, kind):
    """Every forest node sees the values and targets of a stable argsort of
    its bootstrap rows; distinct targets make the order of tied rows
    visible.  One CPU: the spy sees only the scans of this process."""
    use_cpus(monkeypatch, 1)
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


def table_bytes(table: NodeTable) -> list[bytes]:
    return [getattr(table, name).tobytes() for name in (*NODE_ARRAYS, "roots")]


def forest_bytes(X, y, task, n_trees=5, seed=5) -> list[bytes]:
    return table_bytes(forest_fit(X, y, task, n_trees=n_trees, max_depth=6, seed=seed)["trees"])


def counted_forks(monkeypatch) -> list:
    """A list that gains an entry at each ``os.fork`` of this process."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.mark.parametrize("task", ["classify", "regress"])
def test_forests_are_the_same_on_any_number_of_cpus(monkeypatch, task):
    """Forests grown on 1, 2 and 3 CPUs, and on more CPUs than trees, are
    the same tables byte for byte; one worker is forked per CPU beyond the
    first, up to one process per tree."""
    X, y = forest_problem("duplicates")
    if task == "classify":
        y = (y > 0).astype(np.float64)
    forks = counted_forks(monkeypatch)
    grown = {}
    for cpus in (1, 2, 3, 8):
        use_cpus(monkeypatch, cpus)
        forks.clear()
        grown[cpus] = forest_bytes(X, y, task)
        assert len(forks) == min(cpus, 5) - 1
    assert all(tables == grown[1] for tables in grown.values())


def test_forest_without_an_affinity_mask_forks_nothing(monkeypatch):
    X, y = forest_problem("ties")
    use_cpus(monkeypatch, 1)
    serial = forest_bytes(X, y, "regress")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without an affinity mask"))
    assert forest_bytes(X, y, "regress") == serial


def test_forest_beside_another_thread_forks_nothing(monkeypatch):
    """A fork copies the locks other threads hold (a threaded OpenBLAS
    hangs in the fork while another thread multiplies matrices), so the
    trees are grown in this process while another Python thread runs."""
    X, y = forest_problem("ties")
    use_cpus(monkeypatch, 1)
    serial = forest_bytes(X, y, "regress")
    use_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
        assert forest_bytes(X, y, "regress") == serial
    finally:
        release.set()
        other.join()


def fail_trees(monkeypatch, seed, failures):
    """Make ``ensembles.build_tree`` call ``failures[t]()`` before growing
    tree t of a forest fit with ``seed``."""
    tree_of = {derive_seed(seed, "tree", t): t for t in range(32)}
    real = ensembles.build_tree

    def build(*args, rng, **kwargs):
        fail = failures.get(tree_of.get(rng.bit_generator.seed_seq.entropy))
        if fail is not None:
            fail()
        return real(*args, rng=rng, **kwargs)

    monkeypatch.setattr(ensembles, "build_tree", build)


def raising(kind, message):
    def fail():
        raise kind(message)
    return fail


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_lowest_failing_tree_raises_on_any_number_of_cpus(monkeypatch, cpus):
    """Trees 1, 2 and 3 raise; tree 1's error comes out, as from a serial
    loop, although on 2 CPUs this process grows tree 2 itself and fails
    first."""
    X, y = forest_problem("ties")
    fail_trees(monkeypatch, 5, {1: raising(ValueError, "tree 1"),
                                2: raising(KeyError, "tree 2"),
                                3: raising(ValueError, "tree 3")})
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match=r"^tree 1$"):
        forest_bytes(X, y, "regress")
    assert_no_child_left()


def test_an_exception_pickle_cannot_carry_is_raised_itself(monkeypatch):
    """A worker sends back only the trees it grew; this process grows the
    failing tree again and raises its own exception, as on one CPU."""
    class Unpicklable(Exception):  # a local class cannot be pickled
        pass

    X, y = forest_problem("ties")
    fail_trees(monkeypatch, 5, {1: raising(Unpicklable, "tree 1")})
    use_cpus(monkeypatch, 2)
    with pytest.raises(Unpicklable, match=r"^tree 1$"):
        forest_bytes(X, y, "regress")
    assert_no_child_left()


def test_a_worker_that_dies_costs_time_not_bytes(monkeypatch):
    """A worker killed before it sends its trees: this process grows them,
    and the forest has the bytes of one grown on one CPU."""
    X, y = forest_problem("ties")
    use_cpus(monkeypatch, 1)
    serial = forest_bytes(X, y, "regress")
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    fail_trees(monkeypatch, 5, {1: die})
    use_cpus(monkeypatch, 2)
    assert forest_bytes(X, y, "regress") == serial
    assert_no_child_left()


def test_leaving_early_kills_and_reaps_the_workers(monkeypatch):
    """An interrupt while this process grows its own trees does not wait
    for a worker that would take a minute."""
    X, y = forest_problem("ties")
    fail_trees(monkeypatch, 5, {0: raising(KeyboardInterrupt, "stop"),
                                1: lambda: time.sleep(60)})
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        forest_bytes(X, y, "regress")
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.fixture(scope="module")
def sspe_dataset(tmp_path_factory):
    """An SSPE dataset of the acceptance scenario, built through the CLI at
    seed 7: windows of 10, d_model 8."""
    work = tmp_path_factory.mktemp("forest_cli")
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(three_attack_scenario())))
    assert cli.main(["synth", "--scenario", str(scenario), "--seed", "7",
                     "--out", str(work / "raw")]) == 0
    assert cli.main(["build-dataset", "--input", str(work / "raw" / "synthetic.csv"),
                     "--schema", str(work / "raw" / "schema.json"), "--method", "sspe",
                     "--d-model", "8", "--window", "10", "--seed", "7",
                     "--out", str(work / "sspe")]) == 0
    return work / "sspe"


def train_detect(dataset, out, capsys, family="random_forest") -> tuple[int, str]:
    """(exit code, stderr) of training a detect ``family`` at seed 7."""
    capsys.readouterr()
    rc = cli.main(["train", "--dataset", str(dataset), "--task", "detect",
                   "--families", family, "--seed", "7", "--out", str(out)])
    return rc, capsys.readouterr().err


def test_cli_forest_has_the_same_bytes_on_one_and_two_cpus(monkeypatch, sspe_dataset,
                                                           tmp_path, capsys):
    models = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        assert train_detect(sspe_dataset, tmp_path / str(cpus), capsys) == (0, "")
        models.append((tmp_path / str(cpus) / "models" / "detect" / "random_forest.json")
                      .read_bytes())
    assert models[0] == models[1]


def test_cli_failing_tree_exits_as_the_serial_run(monkeypatch, sspe_dataset, tmp_path, capsys):
    """Tree 1 raises: on 2 CPUs a worker grows it, and the command prints
    the serial run's error and exit code, and leaves no lock and no
    process."""
    fail_trees(monkeypatch, derive_seed(7, "train", "detect", "random_forest"),
               {1: raising(ValueError, "tree 1 failed")})
    outcomes = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        outcomes.append(train_detect(sspe_dataset, tmp_path / str(cpus), capsys))
        assert not [*tmp_path.rglob(".lock"), *sspe_dataset.rglob(".lock")]
        assert_no_child_left()
    error = "tspec: unexpected error: ValueError('tree 1 failed')\n"
    assert outcomes[0] == outcomes[1] == (3, error)


@pytest.mark.parametrize("subsample", [1.0, 0.5])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_gbm_matches_reference(task, subsample):
    # With subsample 1 a classification round reuses its Newton step's leaf
    # ids for the score update; the later rounds' trees depend on it.
    X, y = tied_problem(160, 5, 1, seed=13, constant_cols=(3,))
    if task == "classify":
        y = (y > 0).astype(np.float64)
    assert_gbm_matches(X, y, task, n_trees=6, max_depth=4, subsample=subsample, seed=9)


def kept_orders(presorted):
    """The child row orders ``presorted`` keeps, one pair per split node of
    the last tree grown with it."""
    kept, pending = [], [presorted.last]
    while pending:
        split = pending.pop()
        if split is not None:
            kept.append(split.orders)
            pending.extend(split.below)
    return kept


def nodes_with_child_orders(tree, max_depth):
    """Split nodes whose children are not too deep to need row orders."""
    count, pending = 0, [(0, 0)]
    while pending:
        node, depth = pending.pop()
        if tree.feature[node] >= 0:
            count += depth + 1 < max_depth
            pending += [(tree.left[node], depth + 1), (tree.right[node], depth + 1)]
    return count


@pytest.fixture
def carried(monkeypatch):
    """Per tree ``gbm_fit`` grows: how many child order pairs it took over
    from the tree before through their shared ``Presorted``.  Checks that a
    tree keeps exactly one pair per split node with children that need
    orders, in the narrowest unsigned type."""
    rounds = []
    real = ensembles.build_tree

    def spy(X, y, max_depth, *args, presorted, **kwargs):
        before = kept_orders(presorted)  # held, so no id is reused below
        tree = real(X, y, max_depth, *args, presorted=presorted, **kwargs)
        after = kept_orders(presorted)
        assert len(after) == nodes_with_child_orders(tree, max_depth)
        narrow = np.min_scalar_type(X.shape[0] - 1)
        assert all(rows.dtype == narrow for pair in after for rows in pair)
        ids = {id(pair) for pair in before}
        rounds.append(sum(id(pair) in ids for pair in after))
        return tree

    monkeypatch.setattr(ensembles, "build_tree", spy)
    return rounds


def split_paths(tree):
    """(feature, threshold) of every split node, by its path from the root:
    the (feature, threshold, went left) steps that reach it."""
    splits, pending = {}, [(0, ())]
    while pending:
        node, path = pending.pop()
        feat = int(tree.feature[node])
        if feat >= 0:
            thr = float(tree.threshold[node])
            splits[path] = (feat, thr)
            pending += [
                (tree.left[node], (*path, (feat, thr, True))),
                (tree.right[node], (*path, (feat, thr, False))),
            ]
    return splits


def boosting_problem(noisy, task, n=200, seed=0):
    """Six columns at one decimal.  Separable: y says whether x0 + x1 > 0.
    Noisy: x0 plus noise; regression adds x2."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, 6)), 1)
    if not noisy:
        return X, (X[:, 0] + X[:, 1] > 0).astype(np.float64)
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.float64)
    return X, y if task == "classify" else y + X[:, 2]


@pytest.mark.parametrize("subsample", [1.0, 0.5])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_repeated_splits_take_the_last_rounds_orders(carried, task, subsample):
    X, y = boosting_problem(noisy=False, task=task, seed=2)
    assert_gbm_matches(X, y, task, n_trees=10, max_depth=4, subsample=subsample, seed=3)
    if subsample < 1.0:  # each tree fits other rows, with a Presorted of its own
        assert carried == [0] * 10
    else:  # the splits repeat, and every round after the first takes orders over
        assert carried[0] == 0 and min(carried[1:]) >= 1
        assert sum(carried) >= 40


@pytest.mark.parametrize("subsample", [1.0, 0.5])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_splits_that_change_and_come_back(carried, task, subsample):
    # A split that differs from the last round's drops that round's orders
    # under it; when the next round returns to the older split, it filters.
    X, y = boosting_problem(noisy=True, task=task, seed=0)
    fitted = assert_gbm_matches(X, y, task, n_trees=12, max_depth=4, subsample=subsample, seed=3)
    if subsample < 1.0:
        assert carried == [0] * 12
        return
    splits = [split_paths(tree) for tree in fitted]
    came_back = [
        path
        for t in range(2, len(splits))
        for path, split in splits[t].items()
        if splits[t - 1].get(path, split) != split and splits[t - 2].get(path) == split
    ]
    assert came_back and sum(carried) > 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 5),
    decimals=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    task=st.sampled_from(["classify", "regress"]),
    subsample=st.sampled_from([1.0, 0.5]),
    n_trees=st.integers(1, 10),
    max_depth=st.integers(0, 5),
)
def test_random_boosting_problems_match_reference(
    n, d, decimals, seed, task, subsample, n_trees, max_depth
):
    X, y = tied_problem(n, d, decimals, seed, constant_cols=range(2, d, 3))
    if task == "classify":
        y = (y > 0).astype(np.float64)
    assert_gbm_matches(X, y, task, n_trees, max_depth, subsample, seed)


def test_carried_orders_keep_the_fit_within_its_former_peak():
    # 5.83 MB was the tracemalloc peak of this fit before the fit kept any
    # orders between rounds (numpy 2.4); keeping them as int64, or keeping
    # the last tree's orders under splits that changed, went past 7 MB.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(840, 180))
    y = (X[:, 0] + X[:, 1] + 0.5 * rng.normal(size=840) > 0).astype(np.float64)
    tracemalloc.start()
    try:
        gbm_fit(X, y, "classify", n_trees=50, max_depth=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.0e6


def gbm_problem(task):
    """Six columns at one decimal with duplicated rows: column 2 is constant
    and column 4 repeats column 0, so equal best scores fall in different
    feature blocks."""
    X, y = tied_problem(120, 6, 1, seed=17, constant_cols=(2,), duplicate=True)
    X[:, 4] = X[:, 0]
    return X, (y > 0).astype(np.float64) if task == "classify" else y


def gbm_bytes(X, y, task, subsample=1.0) -> list[bytes]:
    params = gbm_fit(X, y, task, n_trees=8, max_depth=4, subsample=subsample, seed=6)
    return [np.float64(params["f0"]).tobytes(), *table_bytes(params["trees"])]


@pytest.mark.parametrize("subsample", [1.0, 0.5])
@pytest.mark.parametrize("task", ["classify", "regress"])
def test_gbms_are_the_same_on_any_number_of_cpus(monkeypatch, task, subsample):
    """GBMs whose split scans are spread over 1, 2 and 3 CPUs, and over more
    CPUs than features, are the same tables byte for byte; one worker is
    forked per CPU beyond the first, up to one process per feature."""
    X, y = gbm_problem(task)
    forks = counted_forks(monkeypatch)
    grown = {}
    for cpus in (1, 2, 3, 8):
        use_cpus(monkeypatch, cpus)
        forks.clear()
        grown[cpus] = gbm_bytes(X, y, task, subsample)
        assert len(forks) == min(cpus, 6) - 1
        assert_no_child_left()
    assert all(tables == grown[1] for tables in grown.values())


def test_an_overflowing_score_in_a_later_block_still_makes_a_leaf(monkeypatch):
    """Targets of 2**510: four of them sum to 2**512, whose square overflows.
    Column 1 puts the four positive ones first, so one of its splits scores
    -inf, and the one-process scan makes the root a leaf.  Column 0's only
    split scores finite and better than the root, so a process that dropped
    its block's -inf would split there instead."""
    h = 2.0**510
    y = np.array([h] * 4 + [0.0] * 4 + [-h] * 4)
    X = np.column_stack([np.isin(np.arange(12), [2, 3, 8, 9, 10, 11]), np.arange(12)])
    X = X.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        assert build_tree(X[:, :1], y, max_depth=1).feature.tolist() == [0, -1, -1]
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            table = gbm_fit(X, y, "regress", n_trees=1, max_depth=1)["trees"]
            assert table.feature.tolist() == [-1]


def test_gbm_without_an_affinity_mask_forks_nothing(monkeypatch):
    X, y = gbm_problem("regress")
    use_cpus(monkeypatch, 1)
    serial = gbm_bytes(X, y, "regress")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without an affinity mask"))
    assert gbm_bytes(X, y, "regress") == serial


def test_gbm_beside_another_thread_forks_nothing(monkeypatch):
    X, y = gbm_problem("regress")
    use_cpus(monkeypatch, 1)
    serial = gbm_bytes(X, y, "regress")
    use_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
        assert gbm_bytes(X, y, "regress") == serial
    finally:
        release.set()
        other.join()


def fail_scans(monkeypatch, fail):
    """Make each split scan call ``fail(call, feats)`` first: ``call`` counts
    the scans of the calling process from 1 (a forked worker goes on from
    the count at its fork), ``feats`` are the features it scans."""
    real = trees._best_split
    calls = []

    def scan(XT, packed, feats, rows, tied):
        calls.append(None)
        fail(len(calls), feats)
        return real(XT, packed, feats, rows, tied)

    monkeypatch.setattr(trees, "_best_split", scan)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_gbm_worker_killed_mid_fit_costs_time_not_bytes(monkeypatch, cpus):
    """Workers killed at their 20th scan, a tree or so into the fit: this
    process fits the GBM again alone, with the bytes of one CPU."""
    X, y = gbm_problem("classify")
    use_cpus(monkeypatch, 1)
    serial = gbm_bytes(X, y, "classify")
    parent = os.getpid()

    def die(call, feats):
        if os.getpid() != parent and call == 20:
            os.kill(os.getpid(), signal.SIGKILL)

    fail_scans(monkeypatch, die)
    use_cpus(monkeypatch, cpus)
    assert gbm_bytes(X, y, "classify") == serial
    assert_no_child_left()


@pytest.mark.parametrize("feature", [0, 5])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_failing_gbm_scan_raises_as_the_serial_run(monkeypatch, cpus, feature):
    """The scans of ``feature`` raise from the 10th on: this process's own
    block (feature 0) or a worker's (feature 5).  Either way the serial
    run's exception comes out, and no worker is left."""
    X, y = gbm_problem("regress")

    def fail(call, feats):
        if call >= 10 and feature in feats:
            raise ValueError(f"scan of feature {feature}")

    fail_scans(monkeypatch, fail)
    use_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match=rf"^scan of feature {feature}$"):
        gbm_bytes(X, y, "regress")
    assert_no_child_left()


def test_leaving_a_gbm_fit_early_kills_and_reaps_the_workers(monkeypatch):
    """An interrupt in this process's first scan does not wait for a worker
    whose scan would take a minute."""
    X, y = gbm_problem("regress")
    parent = os.getpid()

    def fail(call, feats):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    fail_scans(monkeypatch, fail)
    use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        gbm_bytes(X, y, "regress")
    assert time.monotonic() - start < 30
    assert_no_child_left()


def running(pid) -> bool:
    """Whether process ``pid`` exists and is not a zombie (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def test_gbm_workers_leave_when_the_fitting_process_dies(monkeypatch, tmp_path):
    """A process fitting on 3 CPUs is killed at its 5th scan; each worker
    reads an EOF from it and leaves."""
    X, y = gbm_problem("regress")
    noted = tmp_path / "pids"

    def note_and_die(call, feats):
        if call == 1:  # every process, before it sends its first split
            with open(noted, "a") as pids:
                pids.write(f"{os.getpid()}\n")
        if call == 5 and 0 in feats:
            os.kill(os.getpid(), signal.SIGKILL)

    fail_scans(monkeypatch, note_and_die)
    use_cpus(monkeypatch, 3)
    fitter = os.fork()
    if fitter == 0:
        try:
            gbm_bytes(X, y, "regress")
        finally:
            os._exit(0)
    assert os.waitpid(fitter, 0)[1] == signal.SIGKILL
    workers = {int(pid) for pid in noted.read_text().split()} - {fitter}
    assert len(workers) == 2
    deadline = time.monotonic() + 30
    try:
        while any(running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived the fitting process"
            time.sleep(0.01)
    finally:  # a worker that stayed would hold this test run's output open
        for pid in workers:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("text, cpus", [
    ("max 100000\n", None),
    ("150000 100000\n", 2),
    ("50000 100000\n", 1),
    ("400000 100000\n", 4),
    ("", None),
    ("150000 0\n", None),
    (None, None),  # no file: no cgroup v2 CPU controller
])
def test_the_cpu_quota_is_read_from_cpu_max(monkeypatch, tmp_path, text, cpus):
    path = tmp_path / "cpu.max"
    if text is not None:
        path.write_text(text)
    monkeypatch.setattr(ensembles, "_CPU_MAX", str(path))
    assert ensembles._cpu_quota() == cpus


@pytest.mark.parametrize("quota", [1, 2, 3])
def test_the_cpu_quota_caps_the_processes_of_both_fits(monkeypatch, quota):
    """On 8 CPUs under a quota of ``quota`` CPUs, forests and GBMs fork one
    worker fewer than the quota, and keep their bytes."""
    X, y = gbm_problem("regress")
    use_cpus(monkeypatch, 1)
    serial = forest_bytes(X, y, "regress"), gbm_bytes(X, y, "regress")
    forks = counted_forks(monkeypatch)
    use_cpus(monkeypatch, 8)
    monkeypatch.setattr(ensembles, "_cpu_quota", lambda: quota)
    assert forest_bytes(X, y, "regress") == serial[0]
    assert len(forks) == quota - 1
    forks.clear()
    assert gbm_bytes(X, y, "regress") == serial[1]
    assert len(forks) == quota - 1


def test_cli_gbm_has_the_same_bytes_on_one_and_two_cpus(monkeypatch, sspe_dataset,
                                                        tmp_path, capsys):
    models = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        assert train_detect(sspe_dataset, tmp_path / str(cpus), capsys, "gbm") == (0, "")
        models.append((tmp_path / str(cpus) / "models" / "detect" / "gbm.json").read_bytes())
    assert models[0] == models[1]


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
def random_trees(draw, width=None):
    """A valid one-tree table and its feature count (``width``, or drawn): any
    shape, from a single leaf to chains deeper than any fit, numbered
    depth-first or breadth-first (every child id above its parent's either
    way)."""
    width = draw(st.integers(1, 4)) if width is None else width
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
    # Built directly: a model file may hold only finite thresholds, but the
    # walk must also handle NaN and infinite ones.
    tree = NodeTable(
        feature=np.array([node.get("feature", -1) for node in nodes], dtype=np.int64),
        threshold=np.array([node.get("threshold", 0.0) for node in nodes], dtype=np.float64),
        left=np.array([k[0] for k in kids], dtype=np.int64),
        right=np.array([k[1] for k in kids], dtype=np.int64),
        value=np.array([node["value"] for node in nodes], dtype=np.float64),
        roots=np.zeros(1, dtype=np.int64),
    )
    return tree, width


def prediction_rows(draw, n, width, *trees):
    """n rows with NaN, +-inf, +-0.0, the trees' own thresholds and other
    floats."""
    own = [v for tree in trees for v in tree.threshold.tolist()]
    cells = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, *own]) | st.floats()
    return draw(arrays(np.float64, (n, width), elements=cells))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), drawn=random_trees(), n=st.integers(0, 25))
def test_tree_apply_on_random_trees(data, drawn, n):
    tree, width = drawn
    X = prediction_rows(data.draw, n, width, tree)
    leaves = tree_apply(tree, X)
    assert leaves.dtype == np.int64
    assert np.array_equal(leaves, tree_leaf_oracle(as_dict(tree), X))


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
    assert np.array_equal(tree_apply(tree, X), tree_leaf_oracle(as_dict(tree), X))
    Xp = prediction_rows(data.draw, rows, d, tree)
    assert np.array_equal(tree_apply(tree, Xp), tree_leaf_oracle(as_dict(tree), Xp))


def test_nan_features_go_right():
    tree = checked_tree(1, feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                        right=[2, -1, -1], value=[0.0, 1.0, 2.0])
    X = np.array([[np.nan], [-np.inf], [np.inf], [0.5]])
    assert tree_apply(tree, X).tolist() == [2, 1, 2, 1]


def summed_oracle(trees, X, start, scale=None):
    """``start`` plus every tree's reference prediction (times ``scale``
    when given), added one tree after another."""
    out = np.full(X.shape[0], start)
    for tree in trees:
        values = tree_predict_oracle(as_dict(tree), X)
        out += values if scale is None else scale * values
    return out


def assert_ensembles_match_oracle(trees, X):
    """The ensembles of the one-tree tables ``trees``, joined into one
    table, predict the sums of the reference walks."""
    table = NodeTable.join(trees)
    forest = ensembles.forest_predict({"trees": table}, X)
    assert forest.tobytes() == (summed_oracle(trees, X, 0.0) / len(trees)).tobytes()
    params = {"f0": 0.3, "learning_rate": 0.1, "trees": table}
    scores = summed_oracle(trees, X, 0.3, 0.1)
    assert ensembles.gbm_predict(params, X, "regress").tobytes() == scores.tobytes()
    assert ensembles.gbm_predict(params, X, "classify").tobytes() == _sigmoid(scores).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 3),
    count=st.integers(1, 6),
    n=st.integers(1, 20),
    pairs=st.sampled_from([1, 5, 16, trees._WALK_PAIRS]),
)
def test_ensembles_sum_the_reference_walks(data, width, count, n, pairs):
    # Small walk budgets split the trees into many groups, down to one tree
    # a group; the sums must not depend on the grouping.
    drawn = [data.draw(random_trees(width))[0] for _ in range(count)]
    X = prediction_rows(data.draw, n, width, *drawn)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trees, "_WALK_PAIRS", pairs)
        assert_ensembles_match_oracle(drawn, X)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), width=st.integers(1, 3), count=st.integers(2, 5))
def test_a_child_in_the_next_tree_is_refused(data, width, count):
    # Each moved child id is in range and after its parent, where the former
    # per-tree check saw no fault; a walk would end in the next tree, and
    # predict one of its leaves without a word.
    table = NodeTable.join([data.draw(random_trees(width))[0] for _ in range(count)])
    arrays = {name: getattr(table, name).copy() for name in (*NODE_ARRAYS, "roots")}
    assert NodeTable.checked(width, **arrays).roots.size == count  # a joined table passes
    splits = np.flatnonzero(table.split[: table.roots[-1]])  # in every tree but the last
    assume(splits.size > 0)
    node = data.draw(st.sampled_from(splits.tolist()))
    after = table.roots[np.searchsorted(table.roots, node, side="right")]
    side = data.draw(st.sampled_from(["left", "right"]))
    arrays[side][node] = data.draw(st.integers(int(after), table.feature.size - 1))
    with pytest.raises(ValueError, match="out of range of its tree"):
        NodeTable.checked(width, **arrays)


def test_ensembles_over_several_walk_groups():
    # 40 fitted trees and 1,000 rows are 40,000 (tree, row) pairs: three
    # groups at the default budget.  NaN, thresholds, +-0.0 and a leaf-only
    # tree included.
    X, y = tied_problem(300, 4, 1, seed=3, duplicate=True)
    fitted = [build_tree(X, y, 6, 2, rng_for(3, "walk", t)) for t in range(39)]
    leaf = checked_tree(4, feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[0.25])
    fitted.insert(17, leaf)
    rng = np.random.default_rng(4)
    rows = np.round(rng.normal(size=(1000, 4)), 1)
    rows[::7, 0] = np.nan
    rows[1::11, 1] = -0.0
    rows[2::13, 2] = fitted[0].threshold[0]
    assert 40 * 1000 > 2 * trees._WALK_PAIRS
    assert_ensembles_match_oracle(fitted, rows)
    assert_ensembles_match_oracle(fitted, rows[:1])


@pytest.fixture(scope="module")
def forest_test_rows():
    """The SSPE test rows of the ``forest`` benchmark workload (the
    acceptance scenario tiled 4x, windows of 10, d_model 16: 1,473 x 60)
    and the default 25-tree regression forest fit on its training rows."""
    base = three_attack_scenario()
    segments = tuple(
        replace(seg, start=seg.start + k * base.duration)
        for k in range(4)
        for seg in base.segments
    )
    scenario = SyntheticScenario(4 * base.duration, base.feature_count, segments)
    timeline = generate_synthetic(scenario, derive_seed(0, "synth"))
    art = method_artifacts(timeline, "sspe", 0, (), ("random_forest",), window=10, d_model=16)
    assert art.test.features.shape == (1473, 60)
    return art.regress_models["random_forest"], art.test.features


def test_ensemble_prediction_stays_within_its_memory_bound(forest_test_rows):
    # tracemalloc peaks of forest_predict over 25 regression trees (numpy
    # 2.4): the former tree-by-tree loop took 6.61 MB on 100,164 rows and
    # 0.10 MB on 1,473; the grouped walk 5.46 MB and 0.94 MB.
    model, X = forest_test_rows
    for rows, bound in ((np.tile(X, (68, 1)), 6.6e6), (X, 1.5e6)):
        assert rows.shape[1] == 60 and rows.flags.c_contiguous
        tracemalloc.start()
        try:
            ensembles.forest_predict(model.parameters, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (rows.shape, peak)
