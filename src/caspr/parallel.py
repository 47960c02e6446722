"""Forked workers that run the tiles of a model pass: data-parallel training
steps and `embed`.

A WorkerPool forks its workers once, each with a copy of the parent's memory
and one tile function. A call deals its jobs (tiles) to the workers by cost,
longest first, and returns every job's result in job order, whichever worker
ran it, so a pooled pass gives the bytes of the same tiles run in process.
Workers keep the numpy error state the pool was made under. Every way a
worker can fail is one typed error naming it, and after any error every
worker is stopped.
"""
from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import time

from .errors import CasprError

# A worker's deadline in a call: this many times the slowest time per tile of any
# finished call, and never less than the floor, which is all the first call gets, for
# each tile it was sent. A worker that misses it is taken for hung.
DEADLINE_FACTOR = 20
DEADLINE_FLOOR_S = 60.0

# A pool sized to the host takes at most this many workers. It was measured only on a
# 2-core host with one BLAS thread, and the affinity mask does not show a cgroup CPU quota:
# a container held to 2 CPUs on a 64-core machine would otherwise fork a worker per tile.
MAX_CORES = 2


def usable_cores():
    """The CPUs this process may run on, at most MAX_CORES."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        cores = os.cpu_count() or 1
    return min(cores, MAX_CORES)


def deal(costs, workers):
    """The worker of each job: longest first, each to the least-loaded worker so far."""
    owner, loads = [0] * len(costs), [0] * workers
    for j in sorted(range(len(costs)), key=lambda j: -costs[j]):
        owner[j] = loads.index(min(loads))
        loads[owner[j]] += costs[j]
    return owner


def _worker_loop(conn, tile_fn, worker_idx):
    """Serve calls in a forked worker: each brings a share of jobs, and gets tile_fn(*job)
    of every job back, or the error of the first that fails; None asks the worker to stop."""
    while (jobs := conn.recv()) is not None:
        try:
            result = [tile_fn(*job) for job in jobs]
        except CasprError as exc:
            result = exc  # the parent re-raises it
        except Exception as exc:  # anything else still reaches the parent as one typed error
            result = CasprError(f"data-parallel worker {worker_idx} failed: {type(exc).__name__}: {exc}")
        conn.send(result)
    conn.close()


class WorkerPool:
    """`workers` forked processes that run `tile_fn` on the jobs a call deals them."""

    def __init__(self, tile_fn, workers):
        ctx = mp.get_context("fork")
        self.conns, self.procs = [], []
        self.slowest_tile_s = 0.0
        try:
            for wi in range(workers):
                parent, child = ctx.Pipe()
                self.conns.append(parent)
                proc = ctx.Process(target=_worker_loop, args=(child, tile_fn, wi), daemon=True)
                with child:  # the worker's end, which the parent does not keep
                    proc.start()
                self.procs.append(proc)
        except OSError as exc:
            self.close()
            raise CasprError(f"data-parallel worker {wi} could not start: {exc}") from exc

    def run(self, jobs, costs):
        """tile_fn(*job) for each of `jobs`, in job order; costs[j] is job j's share of the
        work. A worker's error is raised as it is, and stops every worker. An object that
        several jobs of one worker hold is sent to it once, as pickling keeps shared references."""
        owner = deal(costs, len(self.conns))
        shares = {wi: [j for j in range(len(jobs)) if owner[j] == wi] for wi in sorted(set(owner))}
        results = [None] * len(jobs)
        tic = time.perf_counter()
        try:
            for wi, share in shares.items():
                self._send(wi, [jobs[j] for j in share])
            for wi, share in shares.items():
                for j, result in zip(share, self._recv(wi, len(share), tic)):
                    results[j] = result
        except CasprError:
            for proc in self.procs:  # no result of this call will be read, so no worker needs answering
                proc.terminate()
            raise
        return results

    def _send(self, wi, msg):
        try:
            self.conns[wi].send(msg)
        except OSError:
            raise CasprError(f"data-parallel worker {wi} exited before it got its tiles") from None

    def _recv(self, wi, tiles, tic):
        """Worker wi's results for its `tiles` jobs of the call sent at `tic`, within its deadline."""
        allowed = tiles * max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * self.slowest_tile_s)
        try:
            if not self.conns[wi].poll(max(0.0, tic + allowed - time.perf_counter())):
                raise CasprError(f"data-parallel worker {wi} sent no result within {allowed:.1f} s "
                                 f"and is taken for hung; every worker is stopped")
            result = self.conns[wi].recv()
        except (EOFError, OSError):
            raise CasprError(f"data-parallel worker {wi} exited before it returned its tiles") from None
        if isinstance(result, CasprError):
            raise result
        self.slowest_tile_s = max(self.slowest_tile_s, (time.perf_counter() - tic) / tiles)
        return result

    def close(self):
        """Ask every worker to stop and reap it; one that has not exited within 10 s is terminated."""
        for conn in self.conns:
            with contextlib.suppress(OSError):  # the worker is gone already
                conn.send(None)
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in self.conns:
            conn.close()
