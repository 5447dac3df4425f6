"""Tree ensembles: bootstrapped random forest and gradient boosting.

Both are deterministic under a fixed seed and keep their bytes on any
number of CPUs.  Each forest tree draws its bootstrap sample and per-node
feature subsets from an RNG stream derived from (seed, tree index), so
building trees in any order -- or concurrently -- yields the same ensemble
as a serial pass: ``forest_fit`` grows its trees in one process per CPU
(``_grow_in_processes``).  A boosting tree fits the residuals of the trees
before it, so ``gbm_fit`` splits the work inside each tree instead: one
process per CPU runs the whole boosting loop but scans only its own block
of features, and at each node the processes agree on the best split of all
blocks (``_scan_in_processes``).  ``_process_count`` says how many
processes either may use.
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

# The CPU bandwidth limit of this process's cgroup (cgroup v2): "<quota>
# <period>" in microseconds, or "max <period>" for none.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpu_quota() -> int | None:
    """How many CPUs this process's cgroup may keep busy at once,
    ``ceil(quota / period)`` of ``_CPU_MAX``; None without a limit ("max")
    or without a readable file."""
    try:
        with open(_CPU_MAX) as f:
            quota, period = f.read().split()
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
    another thread multiplies matrices hangs in ``os.fork`` itself.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is None or threading.active_count() > 1:
        return 1
    cpus = len(getaffinity(0))
    return max(1, min(limit, cpus, _cpu_quota() or cpus))


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


def _kill_and_reap(pids) -> None:
    for pid in pids:
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _grow_in_processes(grow, count: int) -> list:
    """``[grow(0), ..., grow(count - 1)]``, computed in ``_process_count(count)``
    processes and returned in index order.  ``grow`` must be a pure function
    of its index.

    Worker k, forked, computes indices k, k + W, ... and pickles them to its
    own pipe; this process computes share 0 itself, then reads each pipe in
    turn and reaps its worker.  Each process stops at its first index that
    raises.  Then this process grows, in ascending order, every index that
    no process returned (it raised, or its worker died), so the lowest
    failing index raises its own exception, as in a serial loop.  However
    this function is left, the workers not yet reaped are killed and reaped.
    """
    workers = _process_count(count)
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
        for _, pipe, _ in children:
            pipe.close()
        _kill_and_reap([pid for pid, _, _ in children])
    return [results[i] if i in results else grow(i) for i in range(count)]


# A node's (feature, threshold, score), as the processes of
# ``_scan_in_processes`` send it to each other through pipes.  A write of
# at most PIPE_BUF bytes is atomic, so a read gets a whole split or, once
# the writer is gone, nothing.
_SPLIT = struct.Struct("=qdd")


class _Lost(Exception):
    """The other end of a ``_scan_in_processes`` pipe is gone."""


def _send_split(fd: int, found) -> None:
    try:
        os.write(fd, _SPLIT.pack(*found))
    except OSError as error:  # EPIPE: Python ignores SIGPIPE
        raise _Lost from error


def _receive_split(fd: int) -> tuple:
    data = os.read(fd, _SPLIT.size)
    if len(data) < _SPLIT.size:  # end of file
        raise _Lost
    return _SPLIT.unpack(data)


def _best_of_blocks(links: list, found) -> tuple:
    """The best of this process's block's split and each worker's, in block
    order with a strict ``<`` (ties go to the lowest feature, as in one scan
    of every block), sent back to every worker.  ``links`` holds this
    process's (read, write) ends of each worker's pipes."""
    for read, _ in links:
        other = _receive_split(read)
        if other[2] < found[2]:
            found = other
    for _, write in links:
        _send_split(write, found)
    return found


def _from_parent(link: tuple, found) -> tuple:
    """A worker's exchange: its block's best split out, the best of all in."""
    _send_split(link[1], found)
    return _receive_split(link[0])


def _scan_worker(fit, block: slice, link: tuple, fds: list):
    """Body of a forked ``_scan_in_processes`` worker: ``fit`` on ``block``,
    its result dropped.  It closes every fd of ``fds`` but the (read, write)
    ends of ``link``, so that the parent's death reaches every worker as an
    end of file, and leaves with ``os._exit`` on every path, as ``_worker``
    does."""
    try:
        for fd in fds:
            if fd not in link:
                os.close(fd)
        fit(block, partial(_from_parent, link))
    finally:
        os._exit(0)


def _scan_in_processes(fit, width: int):
    """``fit(block, exchange)`` of one tree ensemble, with each node's split
    scan spread over ``_process_count(width)`` processes by feature.

    ``fit`` grows the same trees in every process given the same split at
    every node: it scans the features of ``block`` (a slice of the
    ``width``) and passes a node's best split to ``exchange``, which
    returns the best of all blocks, or it scans every feature and
    ``exchange`` is None.  With W processes the features fall into W
    contiguous blocks, the first no larger than the others.  W - 1 forked
    workers run ``fit`` on blocks 1 to W - 1 and this process on block 0;
    at each node each worker sends its block's best to this process, which
    sends back the best of them all (``_best_of_blocks``), and this
    process's result is returned.

    A worker that raises, dies or is killed closes its pipes.  At that end
    of file this process kills and reaps every worker and runs ``fit`` on
    every feature alone: the same bytes, and any exception is the serial
    run's.  However this function is left, no worker outlives it.
    """
    workers = _process_count(width)
    bounds = [k * width // workers for k in range(workers + 1)]
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pids, links = [], []  # each worker's, in block order
    fds = []  # every pipe end this process holds
    try:
        for block in blocks[1:]:
            fds += os.pipe()  # worker to this process
            fds += os.pipe()  # this process to worker
            up_read, up_write, down_read, down_write = fds[-4:]
            pid = os.fork()
            if pid == 0:
                _scan_worker(fit, block, (down_read, up_write), fds)
            pids.append(pid)
            for fd in (up_write, down_read):
                fds.remove(fd)
                os.close(fd)
            links.append((up_read, down_write))
        with suppress(_Lost):
            return fit(blocks[0], partial(_best_of_blocks, links) if links else None)
    finally:
        for fd in fds:
            os.close(fd)
        _kill_and_reap(pids)
    return fit(slice(None), None)


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
    Each tree's split scan is spread over processes by feature
    (``_scan_in_processes``); every process runs this boosting loop, so the
    trees are those of one process byte for byte.
    """
    n = X.shape[0]
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

    def boost(block: slice, exchange) -> list[NodeTable]:
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
        return trees

    trees = _scan_in_processes(boost, X.shape[1])
    return {"f0": f0, "learning_rate": learning_rate, "trees": NodeTable.join(trees)}


def gbm_predict(params: dict, X: np.ndarray, task: str) -> np.ndarray:
    """``f0`` plus each tree's leaf value times the learning rate, added in
    tree order; the sigmoid of that for classification."""
    scores = np.full(X.shape[0], params["f0"])
    add_leaf_values(params["trees"], X, scores, params["learning_rate"])
    if task == "classify":
        return _sigmoid(scores)
    return scores
