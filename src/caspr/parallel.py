"""The workers that run the tiles of every model pass: training steps and `embed`.

A WorkerPool forks min(workers, host CPUs) processes once, each with a copy of
the parent's memory and one tile function, or is this process where that is 1;
it is the one place that caps the process count.
A call deals its jobs (tiles, shortest first) to them in snake order and returns
every job's result in job order, whichever process ran it, so a pass gives the
same bytes at any worker count. Forked workers keep the numpy
error state the pool was made under. A tile's error is typed the same way at
any worker count; every way a worker can fail is one typed error naming it,
and after any error every worker is stopped.
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

# embed, which sizes its pool to its tiles, asks for at most this many workers. It was
# measured only on a 2-core host with one BLAS thread, and the affinity mask does not show a
# cgroup CPU quota: held to 2 CPUs on a 64-core machine, embed would fork up to 64.
MAX_CORES = 2


def host_cores():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _results(tile_fn, jobs, worker_idx):
    """tile_fn(*job) of every job, or the typed error of the first that fails, for the caller to raise."""
    try:
        return [tile_fn(*job) for job in jobs]
    except CasprError as exc:
        return exc
    except Exception as exc:  # anything else is still one typed error; in process it keeps exc's traceback
        error = CasprError(f"worker {worker_idx} failed: {type(exc).__name__}: {exc}")
        error.__cause__ = exc
        return error


def _worker_loop(conn, tile_fn, worker_idx):
    """Serve calls in a forked worker: each brings a share of jobs and gets its _results
    back; None asks the worker to stop."""
    while (jobs := conn.recv()) is not None:
        conn.send(_results(tile_fn, jobs, worker_idx))
    conn.close()


class WorkerPool:
    """`workers` workers that run `tile_fn` on the jobs a call deals them. `workers` is the
    count a caller cuts its work for; the pool forks min(workers, host_cores()) processes,
    or none where that is one and this process runs every job. Closing it stops them."""

    def __init__(self, tile_fn, workers):
        self.tile_fn, self.workers = tile_fn, workers
        self.conns, self.procs = [], []
        self.slowest_tile_s = 0.0
        processes = min(workers, host_cores())
        if processes == 1:
            return
        ctx = mp.get_context("fork")
        try:
            for wi in range(processes):
                parent, child = ctx.Pipe()
                self.conns.append(parent)
                proc = ctx.Process(target=_worker_loop, args=(child, tile_fn, wi), daemon=True)
                with child:  # the worker's end, which the parent does not keep
                    proc.start()
                self.procs.append(proc)
        except OSError as exc:
            self.close()
            raise CasprError(f"worker {wi} could not start: {exc}") from exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def run(self, jobs):
        """tile_fn(*job) for each of `jobs`, in job order. A worker's error is raised as it
        is, and stops every worker. An object that several jobs of one worker hold is sent
        to it once, as pickling keeps shared references.

        Jobs come shortest first (transformer.tiles sorts them), so they are dealt in snake
        order from the longest: over w processes, the longest w go to 0, 1, ..., w-1, the
        next w to w-1, ..., 0, and so on. That pairs long tiles with short ones; where a job's
        cost rises with its place, no two processes' loads differ by more than the dearest job."""
        if not self.procs:
            results = _results(self.tile_fn, jobs, 0)
            if isinstance(results, CasprError):
                raise results
            return results
        shares = [[] for _ in range(min(len(self.procs), len(jobs)))]
        for j in range(len(jobs)):
            turn, wi = divmod(len(jobs) - 1 - j, len(shares))
            shares[-1 - wi if turn % 2 else wi].append(j)
        results = [None] * len(jobs)
        tic = time.perf_counter()
        try:
            for wi, share in enumerate(shares):
                self._send(wi, [jobs[j] for j in share])
            for wi, share in enumerate(shares):
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
            raise CasprError(f"worker {wi} exited before it got its tiles") from None

    def _recv(self, wi, tiles, tic):
        """Worker wi's results for its `tiles` jobs of the call sent at `tic`, within its deadline."""
        allowed = tiles * max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * self.slowest_tile_s)
        try:
            if not self.conns[wi].poll(max(0.0, tic + allowed - time.perf_counter())):
                raise CasprError(f"worker {wi} sent no result within {allowed:.1f} s "
                                 f"and is taken for hung; every worker is stopped")
            result = self.conns[wi].recv()
        except (EOFError, OSError):
            raise CasprError(f"worker {wi} exited before it returned its tiles") from None
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
