"""The forked tile pool: dealing, pooled embed, worker failures and clean-up."""
import multiprocessing as mp
from multiprocessing import context
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caspr import parallel, transformer as tf
from caspr.cli import main
from caspr.errors import CasprError

from test_cli import read_csv, workspace  # noqa: F401  (workspace: the synth -> fit -> pretrain fixture)
from test_pretrain import TILE_CASES, length_batch, tiny_fitted


def loads(costs, owner, workers):
    out = [0] * workers
    for cost, wi in zip(costs, owner):
        out[wi] += cost
    return out


class TestDeal:
    @settings(max_examples=300, deadline=None)
    @given(costs=st.lists(st.integers(0, 1000), min_size=1, max_size=20), workers=st.integers(1, 5))
    def test_every_job_has_one_worker_and_loads_stay_within_the_greedy_bound(self, costs, workers):
        """A worker's last job went to the least-loaded worker, so no load passes the mean by more than one job."""
        owner = parallel.deal(costs, workers)
        assert len(owner) == len(costs) and all(0 <= wi < workers for wi in owner)
        assert max(loads(costs, owner, workers)) <= sum(costs) / workers + max(costs)

    @settings(max_examples=150, deadline=None)
    @given(**TILE_CASES, workers=st.integers(2, 4))
    def test_the_two_longest_tiles_go_to_different_workers(self, lengths, tile, workers):
        """On a batch's tiles; where the second-longest cost is tied, one of its tiles is apart."""
        with mock.patch.object(tf, "TILE", tile):
            costs = [part.cost for _, part in length_batch(lengths, tf.ModelConfig(t=6)).tiles()]
        if len(costs) < 2:
            return
        owner = parallel.deal(costs, workers)
        first = max(range(len(costs)), key=lambda j: (costs[j], -j))
        second = max(c for j, c in enumerate(costs) if j != first)
        assert any(owner[j] != owner[first] for j, c in enumerate(costs) if j != first and c == second)

    def test_cut_widths_8_10_12_15_balance_on_two_workers(self):
        """i mod 2 gives one worker the 10 and 15 tiles; dealing pairs 15 with 8 and 12 with 10."""
        costs = [128 * width ** 2 for width in (8, 10, 12, 15)]
        assert parallel.deal(costs, 2) == [0, 1, 1, 0]


def test_a_pool_sized_to_the_host_takes_at_most_max_cores(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(64)))
    assert parallel.usable_cores() == parallel.MAX_CORES


def pooled_embed(batch, weights, cores):
    with mock.patch.object(parallel, "usable_cores", lambda: cores):
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


def pretrain_argv(workspace, tmp_path):
    return ["pretrain", "--config", str(workspace["cfg"]), "--workers", "2", "--fitted", str(workspace["fitted"]),
            "--data", str(workspace["data_dir"] / "data.csv"), "--out", str(tmp_path / "run")]


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


class TestCommands:
    """Pooled commands through cli.main: 60 entities in tiles of 16 run on 2 workers."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(tf, "TILE", 16)
        monkeypatch.setattr(parallel, "usable_cores", lambda: 2)

    @pytest.mark.parametrize("argv", [embed_argv, pretrain_argv, rank_argv])
    def test_no_worker_outlives_a_command(self, workspace, tmp_path, argv):
        assert main(argv(workspace, tmp_path)) == 0
        assert not mp.active_children()

    def test_a_failing_embed_worker_is_one_error_line(self, workspace, tmp_path, capfd, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(tf, "_embed_tile", out_of_memory)
        assert main(embed_argv(workspace, tmp_path)) == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: CasprError: data-parallel worker 0 failed: MemoryError")
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
        assert len(err) == 1 and err[0].startswith("error: CasprError: data-parallel worker 1 could not start")
        assert not starts[0].is_alive() and not mp.active_children()
