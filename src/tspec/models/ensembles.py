"""Tree ensembles: bootstrapped random forest and gradient boosting.

Both are deterministic under a fixed seed and keep their bytes on any
number of CPUs.  Both fit in ``_process_count`` processes through one
primitive, ``_in_processes``, which falls back to a serial fit when any
process fails.  Each forest tree draws its bootstrap sample and per-node
feature subsets from an RNG stream derived from (seed, tree index), so
building trees in any order -- or concurrently -- yields the same ensemble
as a serial pass: each process of ``forest_fit`` grows its share of the
trees.  A boosting tree fits the residuals of the trees before it, so
``gbm_fit`` splits the work inside each tree instead: every process runs
the whole boosting loop but scans only its own block of features, and at
each node the processes agree on the best split of all blocks through
``_in_processes``'s exchange.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
import threading
from contextlib import suppress
from functools import partial

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

# The CPU bandwidth limit of this process's cgroup.  cgroup v2: "<quota>
# <period>" in microseconds, or "max <period>" for none.  cgroup v1, read
# when v2's file is missing: the quota and the period in files of their
# own, a quota of -1 for none.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _cpu_quota() -> int | None:
    """How many CPUs this process's cgroup may keep busy at once,
    ``ceil(quota / period)`` of ``_CPU_MAX``, or of ``_CFS_QUOTA`` and
    ``_CFS_PERIOD`` where it is missing; None without a limit or without a
    readable file."""
    try:
        try:
            quota, period = _read(_CPU_MAX).split()
        except FileNotFoundError:
            quota, period = _read(_CFS_QUOTA), _read(_CFS_PERIOD)
        if int(quota) < 0:
            return None
        return -(-int(quota) // int(period))
    except (OSError, ValueError, ZeroDivisionError):
        return None


def _process_count(limit: int) -> int:
    """How many processes a fit spreads over: one per CPU of this process's
    affinity mask, no more than its cgroup's CPU quota runs at once (more
    would only wait, each holding its own memory), and at most ``limit``.

    1, so that nothing is forked, on a platform without affinity masks (not
    Linux) and while another Python thread runs: a fork copies the locks
    that thread may hold, and with numpy's threaded OpenBLAS a fork while
    another thread multiplies matrices hangs in the fork itself.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is None or threading.active_count() > 1:
        return 1
    cpus = len(getaffinity(0))
    return max(1, min(limit, cpus, _cpu_quota() or cpus))


def _kill_and_reap(pids) -> None:
    for pid in pids:
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)


# A node's (feature, threshold, score), as the processes of ``_in_processes``
# send it to each other through pipes.  A write of at most PIPE_BUF bytes is
# atomic, so a read gets a whole split or, once the writer is gone, nothing.
_SPLIT = struct.Struct("=qdd")


def _receive_split(fd: int) -> tuple:
    data = os.read(fd, _SPLIT.size)
    if len(data) < _SPLIT.size:  # end of file: the writer is gone
        raise EOFError
    return _SPLIT.unpack(data)


def _best_of_blocks(links: list, found) -> tuple:
    """The calling process's exchange: the best of its own block's split and
    each worker's, in block order with a strict ``<`` (ties go to the lowest
    feature, as in one scan of every block), sent back to every worker.
    ``links`` holds this process's (read, write) ends of each worker's
    pipes."""
    for read, _ in links:
        other = _receive_split(read)
        if other[2] < found[2]:
            found = other
    for _, write in links:
        os.write(write, _SPLIT.pack(*found))  # EPIPE raises: Python ignores SIGPIPE
    return found


def _from_parent(link: tuple, found) -> tuple:
    """A worker's exchange: its block's best split out, the best of all in."""
    os.write(link[1], _SPLIT.pack(*found))
    return _receive_split(link[0])


def _in_processes(work, limit: int) -> list:
    """``[work(0, W, exchange), ..., work(W - 1, W, exchange)]``, each in a
    process of its own, with W = ``_process_count(limit)``.

    W - 1 forked workers run ``work(k, W, exchange)`` for k = 1 .. W - 1 and
    pickle their results back through their pipes; this process runs
    ``work(0, W, exchange)``, then reads each worker's result in order.
    ``exchange(found)`` takes the best split of a node over the caller's
    block of features and returns the best of every block: each worker
    sends its own to this process, which sends back the best of them all
    (``_best_of_blocks``).  Processes that call it must all call it at the
    same nodes; with W = 1 it is None.

    If any process raises, a worker dies or its result comes back
    truncated, this process kills and reaps every worker and returns
    ``[work(0, 1, None)]``: the serial run's result, or the serial run's
    exception.  A ``KeyboardInterrupt`` comes out as it is.  However this
    function is left, no worker outlives it.
    """
    workers = _process_count(limit)
    if workers == 1:
        return [work(0, 1, None)]
    pids, links = [], []  # each worker's, in order
    fds = []  # every pipe end this process holds
    try:
        with suppress(Exception):  # run serially below, once every worker is gone
            for k in range(1, workers):
                fds += os.pipe()  # worker to this process: splits, then its result
                fds += os.pipe()  # this process to worker: the best splits
                up_read, up_write, down_read, down_write = fds[-4:]
                pid = os.fork()
                if pid == 0:
                    # Worker k keeps only its own two pipe ends, so that this
                    # process's death reaches it as an end of file or EPIPE,
                    # and leaves with os._exit on every path: it runs none of
                    # the caller's finally blocks (the CLI's unlink its output
                    # locks) and no exit handler.  A failure sends nothing.
                    try:
                        for fd in fds:
                            if fd not in (down_read, up_write):
                                os.close(fd)
                        result = work(k, workers, partial(_from_parent, (down_read, up_write)))
                        with open(up_write, "wb") as pipe:
                            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    finally:
                        os._exit(0)
                pids.append(pid)
                for fd in (up_write, down_read):
                    fds.remove(fd)
                    os.close(fd)
                links.append((up_read, down_write))
            results = [work(0, workers, partial(_best_of_blocks, links))]
            for read, _ in links:
                with open(read, "rb", closefd=False) as pipe:
                    results.append(pickle.loads(pipe.read()))
            return results
    finally:
        for fd in fds:
            os.close(fd)
        _kill_and_reap(pids)
    return [work(0, 1, None)]


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
    every tree sorts small integer keys.  Trees are grown in W processes
    (``_in_processes``), process k growing trees k, k + W, ...; each is a
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

    def grow(k: int, workers: int, exchange) -> list[NodeTable]:
        trees = []
        for t in range(k, n_trees, workers):
            rng = rng_for(seed, "tree", t)
            boot = rng.integers(0, n, size=n)
            trees.append(build_tree(
                X[boot],
                y[boot],
                max_depth=max_depth,
                max_features=max_features,
                rng=rng,
                codes=codes.take(boot, axis=1),
            ))
        return trees

    shares = _in_processes(grow, n_trees)
    trees = [shares[t % len(shares)][t // len(shares)] for t in range(n_trees)]
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
    subsample: float = 1.0,
    seed: int = 0,
) -> dict:
    """Gradient boosting with depth-limited trees.

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
    # Without subsampling every tree fits all of X, so one sort, one set of
    # tie flags and the last tree's child row orders serve them all, and one
    # X.T, made before any fork, serves every process; otherwise each tree
    # sorts its own rows.
    XT = np.ascontiguousarray(X.T) if subsample >= 1.0 else None

    def boost(k: int, workers: int, exchange) -> list[NodeTable] | None:
        block = slice(k * width // workers, (k + 1) * width // workers)
        scores = np.full(n, f0)
        trees: list[NodeTable] = []
        presorted = None if XT is None else Presorted(XT.T, block, exchange)
        rows = np.arange(n)
        Xt = X
        for t in range(n_trees):
            if subsample < 1.0:
                rng = rng_for(seed, "tree", t)
                # At least one row: a subsample that rounds to none would fit NaN trees.
                size = max(1, int(round(subsample * n)))
                rows = np.sort(rng.choice(n, size=size, replace=False))
                Xt = X[rows]
                presorted = Presorted(Xt, block, exchange)

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
