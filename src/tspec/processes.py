"""Work spread over every CPU through one fork-and-exchange primitive.

``_in_processes(work, limit)`` runs ``work(k, W, exchange)`` in W processes
and gathers their results; ``_map_in_processes(item, count)`` builds on it
to compute ``item(i)`` for i in ``range(count)``, process k taking items k,
k + W, ....  Forest trees, GBM split scans and noise-sweep cells all run
through it.  Each share is a pure function of its inputs, so a failure
anywhere falls back to one serial run with the same bytes.

While a process runs its share of a call with W > 1, a nested call in that
process runs serially (W = 1): a sweep cell that refits a forest never
forks, and the process count never multiplies.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
from contextlib import suppress
from functools import partial

# The CPU bandwidth limit of this process's cgroup.  cgroup v2: "<quota>
# <period>" in microseconds, or "max <period>" for none.  cgroup v1, read
# when v2's file is missing: the quota and the period in files of their
# own, a quota of -1 for none.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"

# True while this process runs a share of an ``_in_processes`` call of more
# than one process (in a worker: always), so that nested calls run serially.
_in_share = False
# In a worker: the pid of the process that forked it; None in any other.
_forked_from: int | None = None


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
    """How many processes a call spreads over: one per CPU of this process's
    affinity mask, no more than its cgroup's CPU quota runs at once (more
    would only wait, each holding its own memory), and at most ``limit``.

    1, so that nothing is forked, inside a share of another call (see the
    module's docstring), on a platform without affinity masks (not Linux)
    and while another Python thread runs: a fork copies the locks that
    thread may hold, and with numpy's threaded OpenBLAS a fork while another
    thread multiplies matrices hangs in the fork itself.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if _in_share or getaffinity is None or threading.active_count() > 1:
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
    exception.  A ``KeyboardInterrupt`` or ``SystemExit`` comes out as it
    is.  However this function is left, no worker outlives it.
    """
    global _in_share, _forked_from
    workers = _process_count(limit)
    if workers == 1:
        return [work(0, 1, None)]
    parent = os.getpid()
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
                        _in_share, _forked_from = True, parent
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
            _in_share = True
            try:
                results = [work(0, workers, partial(_best_of_blocks, links))]
            finally:
                _in_share = False
            for read, _ in links:
                with open(read, "rb", closefd=False) as pipe:
                    results.append(pickle.loads(pipe.read()))
            return results
    finally:
        for fd in fds:
            os.close(fd)
        _kill_and_reap(pids)
    return [work(0, 1, None)]


def _map_in_processes(item, count: int) -> list:
    """``[item(0), ..., item(count - 1)]`` through ``_in_processes(...,
    count)``: process k of W computes items k, k + W, ..., and the shares
    are interleaved back into item order.  Each item must be a pure
    function of its index, so that the list has the same bytes on any W
    and a failure anywhere gives the serial run's list or exception.  A
    worker whose caller has died leaves before its next item."""

    def share(k: int, workers: int, exchange) -> list:
        results = []
        for i in range(k, count, workers):
            if _forked_from is not None and os.getppid() != _forked_from:
                os._exit(0)  # the caller has died: the rest would go to no one
            results.append(item(i))
        return results

    shares = _in_processes(share, count)
    return [shares[i % len(shares)][i // len(shares)] for i in range(count)]
