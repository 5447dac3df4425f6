"""Tree ensembles: bootstrapped random forest and gradient boosting.

Both are deterministic, the forest under a fixed seed, and keep their
bytes on any number of CPUs.  Both fit in ``_process_count`` processes
through one primitive, ``processes._in_processes``, which falls back to a
serial fit when any process fails.  Each forest tree draws its bootstrap
sample and per-node feature subsets from an RNG stream derived from (seed,
tree index), so building trees in any order -- or concurrently -- yields
the same ensemble as a serial pass: each process of ``forest_fit`` grows
its share of the trees.  A boosting tree fits the residuals of the trees before it, so
``gbm_fit`` splits the work inside each tree instead: every process runs
the whole boosting loop but scans only its own block of features, and at
each node the processes agree on the best split of all blocks through
``_in_processes``'s exchange.
"""

from __future__ import annotations

import math

import numpy as np

from ..processes import _in_processes, _map_in_processes
from ..seeds import rng_for
from .glm import _sigmoid
from .trees import (
    NodeTable,
    Presorted,
    add_leaf_values,
    build_tree,
    rank_codes,
    tree_apply,
    tree_predict,
)

_EPS = 1e-12


def forest_fit(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    n_trees: int = 25,
    max_depth: int = 10,
    seed: int = 0,
) -> dict:
    """Random forest; per-node feature subsets of ceil(sqrt(D)) for
    classification and ceil(D/3) for regression, bootstrap with replacement.

    X's rank codes are computed once and gathered through each bootstrap, so
    every tree sorts small integer keys.  Trees are grown in W processes
    (``_map_in_processes``), process k growing trees k, k + W, ...; each is a
    pure function of ``rng_for(seed, "tree", t)``, so the ensemble has the
    bytes of a serial fit, and a failure anywhere refits it serially.
    Raises ``ValueError`` unless X is finite.
    """
    n, width = X.shape
    codes = rank_codes(X)
    if task == "classify":
        max_features = math.ceil(math.sqrt(width))
    else:
        max_features = math.ceil(width / 3)

    def grow(t: int) -> NodeTable:
        rng = rng_for(seed, "tree", t)
        boot = rng.integers(0, n, size=n)
        return build_tree(
            X[boot],
            y[boot],
            max_depth=max_depth,
            max_features=max_features,
            rng=rng,
            codes=codes.take(boot, axis=1),
        )

    trees = _map_in_processes(grow, n_trees)
    return {"trees": NodeTable.join(trees)}


def forest_predict(params: dict, X: np.ndarray) -> np.ndarray:
    """Mean of the trees' leaf values, summed in tree order."""
    trees = params["trees"]
    out = np.zeros(X.shape[0])
    add_leaf_values(trees, X, out)
    return out / trees.roots.size


def gbm_fit(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    n_trees: int = 50,
    learning_rate: float = 0.1,
    max_depth: int = 5,
) -> dict:
    """Gradient boosting with depth-limited trees, each fit on every row.

    Regression boosts squared loss on residuals; classification boosts
    logistic loss in log-odds space with a Newton step per leaf.  A single
    class present degenerates gracefully to a (clipped) constant predictor.
    Each tree's split scan is spread over W processes by feature
    (``_in_processes``): with W contiguous feature blocks, the first no
    larger than the others, process k scans block k and takes each node's
    best split of all blocks from the exchange.  Every process runs this
    boosting loop, so the trees are those of one process byte for byte;
    the calling process's are kept.
    """
    n, width = X.shape
    if task == "classify":
        p0 = min(max(float(y.mean()), _EPS), 1.0 - _EPS)
        f0 = math.log(p0 / (1.0 - p0))
    else:
        f0 = float(y.mean())
    # Every tree fits all of X, so one sort, one set of tie flags and the
    # last tree's child row orders serve them all, and one X.T, made before
    # any fork, serves every process.
    XT = np.ascontiguousarray(X.T)

    def boost(k: int, workers: int, exchange) -> list[NodeTable] | None:
        block = slice(k * width // workers, (k + 1) * width // workers)
        presorted = Presorted(XT.T, block, exchange)
        scores = np.full(n, f0)
        trees: list[NodeTable] = []
        for _ in range(n_trees):
            if task == "classify":
                prob = _sigmoid(scores)
                residual = y - prob
                tree = build_tree(X, residual, max_depth=max_depth, presorted=presorted)
                # Newton leaf values: sum(residual) / sum(p * (1 - p)) per leaf.
                leaves = tree_apply(tree, X)
                place = np.cumsum(~tree.split) - 1  # a leaf's index in ``value``
                hess = prob * (1.0 - prob)
                value = tree.value.copy()
                for leaf in np.unique(leaves):
                    members = leaves == leaf
                    value[place[leaf]] = residual[members].sum() / max(hess[members].sum(), _EPS)
                tree = NodeTable(tree.feature, tree.threshold, value)
                scores += learning_rate * tree_predict(tree, X, leaves)  # same splits, same leaves
            else:
                tree = build_tree(X, y - scores, max_depth=max_depth, presorted=presorted)
                scores += learning_rate * tree_predict(tree, X)
            trees.append(tree)
        return trees if k == 0 else None  # a worker's trees are this process's

    trees = _in_processes(boost, width)[0]
    return {"f0": f0, "learning_rate": learning_rate, "trees": NodeTable.join(trees)}


def gbm_predict(params: dict, X: np.ndarray, task: str) -> np.ndarray:
    """``f0`` plus each tree's leaf value times the learning rate, added in
    tree order; the sigmoid of that for classification."""
    scores = np.full(X.shape[0], params["f0"])
    add_leaf_values(params["trees"], X, scores, params["learning_rate"])
    if task == "classify":
        return _sigmoid(scores)
    return scores
