"""Tree ensembles: bootstrapped random forest and gradient boosting.

Both are deterministic under a fixed seed.  Each forest tree draws its
bootstrap sample and per-node feature subsets from an RNG stream derived
from (seed, tree index), so building trees in any order -- or concurrently
-- yields the same ensemble as a serial pass.
"""

from __future__ import annotations

import math

import numpy as np

from ..seeds import rng_for
from .glm import _sigmoid
from .trees import Tree, build_tree, presort, rank_codes, tree_apply, tree_predict

_EPS = 1e-12


def forest_fit(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    n_trees: int = 25,
    max_depth: int = 10,
    seed: int = 0,
) -> dict:
    """Random forest; feature subsample ceil(sqrt(D)) for classification and
    ceil(D/3) for regression, bootstrap with replacement.

    X's rank codes are computed once and gathered through each bootstrap, so
    every tree sorts small integer keys.  Raises ``ValueError`` unless X is
    finite.
    """
    n, width = X.shape
    codes = rank_codes(X)
    if task == "classify":
        max_features = math.ceil(math.sqrt(width))
    else:
        max_features = math.ceil(width / 3)
    trees = []
    for t in range(n_trees):
        rng = rng_for(seed, "tree", t)
        boot = rng.integers(0, n, size=n)
        trees.append(
            build_tree(
                X[boot],
                y[boot],
                max_depth=max_depth,
                max_features=max_features,
                rng=rng,
                codes=codes.take(boot, axis=1),
            )
        )
    return {"trees": trees}


def forest_predict(params: dict, X: np.ndarray) -> np.ndarray:
    trees = params["trees"]
    out = np.zeros(X.shape[0])
    for tree in trees:
        out += tree_predict(tree, X)
    return out / len(trees)


def gbm_fit(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    n_trees: int = 50,
    learning_rate: float = 0.1,
    max_depth: int = 5,
    subsample: float = 1.0,
    seed: int = 0,
) -> dict:
    """Gradient boosting with depth-limited trees.

    Regression boosts squared loss on residuals; classification boosts
    logistic loss in log-odds space with a Newton step per leaf.  A single
    class present degenerates gracefully to a (clipped) constant predictor.
    """
    n = X.shape[0]
    if task == "classify":
        p0 = min(max(float(y.mean()), _EPS), 1.0 - _EPS)
        f0 = math.log(p0 / (1.0 - p0))
    else:
        f0 = float(y.mean())

    scores = np.full(n, f0)
    trees: list[Tree] = []
    # Without subsampling every tree fits all of X, so one sort serves them all.
    order = presort(X) if subsample >= 1.0 else None
    rows = np.arange(n)
    Xt = X
    for t in range(n_trees):
        if subsample < 1.0:
            rng = rng_for(seed, "tree", t)
            rows = np.sort(rng.choice(n, size=int(round(subsample * n)), replace=False))
            Xt = X[rows]

        if task == "classify":
            prob = _sigmoid(scores)
            residual = y - prob
            target = residual[rows]
            tree = build_tree(Xt, target, max_depth=max_depth, order=order)
            # Newton leaf values: sum(residual) / sum(p * (1 - p)) per leaf.
            # A row's leaf does not depend on the other rows walked, so one
            # walk of X serves the Newton step and the score update.
            all_leaves = tree_apply(tree, X)
            leaves = all_leaves[rows]
            hess = prob[rows] * (1.0 - prob[rows])
            value = tree.value.copy()
            for leaf in np.unique(leaves):
                members = leaves == leaf
                value[leaf] = target[members].sum() / max(hess[members].sum(), _EPS)
            tree = Tree(tree.feature, tree.threshold, tree.left, tree.right, value)
            step = value[all_leaves]
        else:
            residual = y - scores
            tree = build_tree(Xt, residual[rows], max_depth=max_depth, order=order)
            step = tree_predict(tree, X)

        scores += learning_rate * step
        trees.append(tree)
    return {"f0": f0, "learning_rate": learning_rate, "trees": trees}


def gbm_predict(params: dict, X: np.ndarray, task: str) -> np.ndarray:
    scores = np.full(X.shape[0], params["f0"])
    for tree in params["trees"]:
        scores += params["learning_rate"] * tree_predict(tree, X)
    if task == "classify":
        return _sigmoid(scores)
    return scores
