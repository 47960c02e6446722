"""The tile pool: dealing, the in-process pool, pooled embed, worker failures and clean-up."""
import multiprocessing as mp
import os
import time
from multiprocessing import context
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from caspr import parallel, pretrain, transformer as tf
from caspr.cli import main
from caspr.errors import CasprError

from test_cli import read_csv, workspace  # noqa: F401  (workspace: the synth -> fit -> pretrain fixture)
from test_pretrain import MODEL, TILE_CASES, length_batch, tiny_dataset, tiny_fitted


class TestDealing:
    def test_snake_order_runs_every_job_once_within_the_largest_cost(self, monkeypatch):
        """Jobs of rising cost through real pools: each job runs once, and two workers' loads
        differ by at most the largest cost; widths 8/10/12/15 pair as {8, 15} and {10, 12}."""
        monkeypatch.setattr(parallel, "host_cores", lambda: 3)  # so that 3 workers are 3 processes
        rng = np.random.default_rng(0)
        # [0, 10, 10]: a snake begun at the shortest job would give worker 1 both 10s
        cases = [[0, 10, 10]] + [np.sort(rng.integers(0, 1000, rng.integers(1, 21))) for _ in range(40)]
        for workers in (2, 3):
            with parallel.WorkerPool(lambda j: (j, os.getpid()), workers) as pool:
                for costs in cases:
                    out = pool.run([(j,) for j in range(len(costs))])
                    assert [j for j, _ in out] == list(range(len(costs)))
                    loads = dict.fromkeys((proc.pid for proc in pool.procs), 0)
                    for cost, (_, pid) in zip(costs, out):
                        loads[pid] += cost
                    assert len(loads) == workers and max(loads.values()) - min(loads.values()) <= max(costs)
                if workers == 2:
                    owner = [pid for _, pid in pool.run([(width,) for width in (8, 10, 12, 15)])]
                    assert owner[0] == owner[3] != owner[1] == owner[2]
        assert not mp.active_children()

    def test_a_one_worker_pool_starts_no_process(self, monkeypatch):
        """It runs the jobs here; train at one worker and embed at one core succeed."""
        def no_start(proc):
            raise AssertionError("a one-worker pool started a process")

        monkeypatch.setattr(context.ForkProcess, "start", no_start)
        with parallel.WorkerPool(lambda j: (j, os.getpid()), 1) as pool:
            assert pool.run([(0,), (1,)]) == [(0, os.getpid()), (1, os.getpid())]
        cfg = tf.ModelConfig(**MODEL)
        _, log = pretrain.train(tiny_dataset(n=12), cfg, pretrain.TrainConfig(epochs=1, seed=0, batch_size=6))
        assert len(log) == 1
        weights = tf.build_weights(cfg, tiny_fitted(statics=1), np.random.default_rng(1))
        monkeypatch.setattr(tf, "TILE", 2)
        assert pooled_embed(length_batch([3, 6, 1, 2, 5], cfg), weights, 1).shape == (5, cfg.emb_out)
        assert not mp.active_children()


def test_a_pool_forks_no_more_processes_than_the_host_has_cpus(monkeypatch):
    """Six workers on a 2-CPU host are 2 processes, which run all 6 jobs; a third start would fail."""
    real_start, starts = context.ForkProcess.start, []

    def start(proc):
        starts.append(proc)
        if len(starts) > 3:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        real_start(proc)

    monkeypatch.setattr(parallel, "host_cores", lambda: 2)
    monkeypatch.setattr(context.ForkProcess, "start", start)
    with parallel.WorkerPool(lambda j: (j, os.getpid()), 6) as pool:
        assert pool.workers == 6
        out = pool.run([(j,) for j in range(6)])
    assert len(starts) == 2
    assert [j for j, _ in out] == list(range(6))
    assert {pid for _, pid in out} == {proc.pid for proc in starts}
    assert not mp.active_children()


def test_a_pool_sized_to_the_host_takes_at_most_max_cores(monkeypatch):
    """embed sizes its pool to its tiles: 6 tiles on a 64-CPU host fork MAX_CORES processes."""
    real_start, starts = context.ForkProcess.start, []

    def start(proc):
        starts.append(proc)
        real_start(proc)

    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(64)))
    monkeypatch.setattr(context.ForkProcess, "start", start)
    monkeypatch.setattr(tf, "TILE", 2)
    cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, emb_out=4)
    weights = tf.build_weights(cfg, tiny_fitted(statics=1), np.random.default_rng(1))
    assert tf.embed(length_batch([3, 6, 1, 2, 5, 4, 2, 1, 6, 3, 5, 4], cfg), weights).shape == (12, 4)
    assert len(starts) == parallel.MAX_CORES
    assert not mp.active_children()


def test_a_call_s_deadline_grows_with_the_slowest_tile_so_far(monkeypatch):
    """With the floor at 0.3 s, tiles of 0.1 s raise the next call's deadline to at least
    DEADLINE_FACTOR × 0.1 = 2 s a tile, so a 0.8 s tile, past the floor, returns its result."""
    monkeypatch.setattr(parallel, "DEADLINE_FLOOR_S", 0.3)
    with parallel.WorkerPool(lambda s: time.sleep(s) or s, 2) as pool:
        assert pool.run([(0.1,), (0.1,)]) == [0.1, 0.1]
        assert pool.run([(0.8,)]) == [0.8]
    assert not mp.active_children()


def pooled_embed(batch, weights, cores):
    with mock.patch.multiple(parallel, MAX_CORES=cores, host_cores=lambda: cores):
        return tf.embed(batch, weights)


class TestPooledEmbed:
    @settings(max_examples=15, deadline=None)
    @given(**TILE_CASES)
    @example(lengths=[0, 6, 0, 3, 0, 0, 1], tile=2)  # all-pad rows, and a tile of them
    def test_output_is_the_same_bytes_at_1_2_and_3_workers(self, lengths, tile):
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=6, emb_out=4)
        batch = length_batch(lengths, cfg)
        weights = tf.build_weights(cfg, tiny_fitted(statics=1), np.random.default_rng(1))
        with mock.patch.object(tf, "TILE", tile):
            out = [pooled_embed(batch, weights, cores).tobytes() for cores in (1, 2, 3)]
        assert out[1] == out[0] and out[2] == out[0]
        assert not mp.active_children()

    def test_a_failing_tile_stops_every_worker(self, monkeypatch):
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, emb_out=4)
        batch = length_batch([3, 6, 1, 2, 5, 4], cfg)
        weights = tf.build_weights(cfg, tiny_fitted(statics=1), np.random.default_rng(1))
        monkeypatch.setattr(tf, "TILE", 2)
        monkeypatch.setattr(tf, "_embed_tile", lambda *args: 1 / 0)
        with pytest.raises(CasprError, match="worker 0 failed: ZeroDivisionError"):
            pooled_embed(batch, weights, 3)
        assert not mp.active_children()


def embed_argv(workspace, tmp_path):
    return ["embed", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
            "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(tmp_path / "emb.csv")]


def pretrain_argv(workspace, tmp_path, workers=2):
    return ["pretrain", "--config", str(workspace["cfg"]), "--workers", str(workers),
            "--fitted", str(workspace["fitted"]), "--data", str(workspace["data_dir"] / "data.csv"),
            "--out", str(tmp_path / "run")]


def rank_argv(workspace, tmp_path):
    """Each entity's relevant item is its last one."""
    records = read_csv(workspace["data_dir"] / "data.csv")
    entity, item = records[0].index("entity"), records[0].index("item")
    last_item = {rec[entity]: rec[item] for rec in records[1:]}
    relevance = tmp_path / "relevance.csv"
    relevance.write_text("entity,relevant_items\n" + "".join(f"{e},{i}\n" for e, i in sorted(last_item.items())))
    return ["rank", "--checkpoint", str(workspace["run_dir"] / "checkpoint.bin"),
            "--data", str(workspace["data_dir"] / "data.csv"), "--relevance", str(relevance),
            "--out", str(tmp_path / "rank.csv")]


def out_of_memory(*args):
    raise MemoryError("cannot allocate")


class TestCommands:
    """Pooled commands through cli.main: 60 entities in tiles of 16 run on 2 workers."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(tf, "TILE", 16)
        monkeypatch.setattr(parallel, "host_cores", lambda: 2)

    @pytest.mark.parametrize("argv", [embed_argv, pretrain_argv, rank_argv])
    def test_no_worker_outlives_a_command(self, workspace, tmp_path, argv):
        assert main(argv(workspace, tmp_path)) == 0
        assert not mp.active_children()

    def test_a_failing_embed_worker_is_one_error_line(self, workspace, tmp_path, capfd, monkeypatch):
        """In process on a one-CPU host, as on two."""
        monkeypatch.setattr(tf, "_embed_tile", out_of_memory)
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "host_cores", lambda: cores)
            assert main(embed_argv(workspace, tmp_path)) == 1
            err = capfd.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: CasprError: worker 0 failed: MemoryError"), cores
            assert not mp.active_children()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_pretrain_worker_is_one_error_line(self, workspace, tmp_path, capfd, monkeypatch, workers):
        monkeypatch.setattr(pretrain, "_tile_gradients", out_of_memory)
        assert main(pretrain_argv(workspace, tmp_path, workers)) == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: CasprError: worker 0 failed: MemoryError")
        assert not mp.active_children()

    @pytest.mark.parametrize("argv", [embed_argv, pretrain_argv])
    def test_a_worker_that_cannot_start_stops_the_started_ones(self, workspace, tmp_path, capfd, monkeypatch, argv):
        real_start, starts = context.ForkProcess.start, []

        def start(proc):
            starts.append(proc)
            if len(starts) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            real_start(proc)

        monkeypatch.setattr(context.ForkProcess, "start", start)
        assert main(argv(workspace, tmp_path)) == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: CasprError: worker 1 could not start")
        assert not starts[0].is_alive() and not mp.active_children()
