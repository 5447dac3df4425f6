"""Tree ensembles: bootstrapped random forest and gradient boosting.

Both are deterministic under a fixed seed.  Each forest tree draws its
bootstrap sample and per-node feature subsets from an RNG stream derived
from (seed, tree index), so building trees in any order -- or concurrently
-- yields the same ensemble as a serial pass.  ``forest_fit`` grows its
trees in one process per CPU the process may run on.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from contextlib import suppress

import numpy as np

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


def _grown(grow, indices: range) -> list:
    """``grow(i)`` for each of ``indices`` up to the first that raises."""
    done = []
    with suppress(Exception):  # grown again, and raised, by _grow_in_processes
        for i in indices:
            done.append(grow(i))
    return done


def _worker(grow, indices: range, read: int, write: int):
    """Body of a forked worker: pickles to ``write`` what ``_grown`` gives
    for ``indices``.  It closes its copy of ``read``, so that its write fails
    if the parent dies, and leaves with ``os._exit(0)`` on every path, so it
    runs none of the parent's ``finally`` blocks (the CLI's unlink its
    output locks) and no exit handler."""
    try:
        os.close(read)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(_grown(grow, indices), pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _grow_in_processes(grow, count: int) -> list:
    """``[grow(0), ..., grow(count - 1)]``, computed in one process per CPU
    of this process's affinity mask, at most ``count``, and returned in
    index order.  ``grow`` must be a pure function of its index.

    Worker k, forked, computes indices k, k + W, ... and pickles them to its
    own pipe; this process computes share 0 itself, then reads each pipe in
    turn and reaps its worker.  Each process stops at its first index that
    raises.  Then this process grows, in ascending order, every index that
    no process returned (it raised, or its worker died), so the lowest
    failing index raises its own exception, as in a serial loop.  However
    this function is left, the workers not yet reaped are killed and reaped.

    W is 1, so that this process computes every index and nothing is
    forked, with one CPU, on a platform without affinity masks (not Linux),
    and while another Python thread runs: a fork copies the locks that
    thread may hold, and with numpy's threaded OpenBLAS a fork while another
    thread multiplies matrices hangs in ``os.fork`` itself.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    serial = getaffinity is None or threading.active_count() > 1
    workers = max(1, min(count, 1 if serial else len(getaffinity(0))))
    children = []  # (pid, pipe, indices) of each worker not yet reaped, in order
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _worker(grow, range(k, count, workers), read, write)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), range(k, count, workers)))
        share = range(0, count, workers)
        results = dict(zip(share, _grown(grow, share)))
        while children:
            pid, pipe, indices = children[0]
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            del children[0]
            with suppress(Exception):  # a worker that died: a truncated payload
                results.update(zip(indices, pickle.loads(data)))
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return [results[i] if i in results else grow(i) for i in range(count)]


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
    every tree sorts small integer keys.  Trees are grown in one process per
    CPU of the affinity mask (``_grow_in_processes``); each is a pure
    function of ``rng_for(seed, "tree", t)``, so the ensemble has the bytes
    of a serial fit.  Raises ``ValueError`` unless X is finite.
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

    return {"trees": NodeTable.join(_grow_in_processes(grow, n_trees))}


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
    trees: list[NodeTable] = []
    # Without subsampling every tree fits all of X, so one sort, one set of
    # tie flags, one copy of X.T and the last tree's child row orders serve
    # them all; otherwise each tree computes its own.
    presorted = Presorted(X) if subsample >= 1.0 else None
    rows = np.arange(n)
    Xt = X
    for t in range(n_trees):
        if subsample < 1.0:
            rng = rng_for(seed, "tree", t)
            # At least one row: a subsample that rounds to none would fit NaN trees.
            size = max(1, int(round(subsample * n)))
            rows = np.sort(rng.choice(n, size=size, replace=False))
            Xt = X[rows]

        if task == "classify":
            prob = _sigmoid(scores)
            residual = y - prob
            target = residual[rows]
            tree = build_tree(Xt, target, max_depth=max_depth, presorted=presorted)
            # Newton leaf values over the rows the tree was fit on:
            # sum(residual) / sum(p * (1 - p)) per leaf.
            leaves = tree_apply(tree, Xt)
            hess = prob[rows] * (1.0 - prob[rows])
            for leaf in np.unique(leaves):
                members = leaves == leaf
                tree.value[leaf] = target[members].sum() / max(hess[members].sum(), _EPS)
        else:
            residual = y - scores
            tree = build_tree(Xt, residual[rows], max_depth=max_depth, presorted=presorted)

        scores += learning_rate * tree_predict(tree, X)
        trees.append(tree)
    return {"f0": f0, "learning_rate": learning_rate, "trees": NodeTable.join(trees)}


def gbm_predict(params: dict, X: np.ndarray, task: str) -> np.ndarray:
    """``f0`` plus each tree's leaf value times the learning rate, added in
    tree order; the sigmoid of that for classification."""
    scores = np.full(X.shape[0], params["f0"])
    add_leaf_values(params["trees"], X, scores, params["learning_rate"])
    if task == "classify":
        return _sigmoid(scores)
    return scores
