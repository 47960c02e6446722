import math
import os
import pickle

import numpy as np
import pytest

from caspr import pretrain, transformer as tf
from caspr.autodiff import Tensor, adam_step, init_moments
from caspr.errors import (
    BadMagic,
    CasprError,
    ConfigError,
    ParseError,
    ShapeMismatch,
    TruncatedFile,
    VersionMismatch,
)
from caspr.ingest import SequenceDataset
from caspr.pretrain import (
    TrainConfig,
    apply_mask,
    compute_gradients,
    load_checkpoint,
    reconstruction_loss,
    save_checkpoint,
    train,
)

from test_transformer import make_sequence, random_sequences, small_weights, tiny_fitted


def tiny_dataset(n=12, seed=0, t=6, statics=0):
    fitted = tiny_fitted(statics=statics)
    seqs = random_sequences(np.random.default_rng(seed), n, t, fitted, statics=statics)
    return SequenceDataset(seqs, fitted)


class TestApplyMask:
    def test_zero_rate_is_noop(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = tf.prepare_batch(random_sequences(np.random.default_rng(0), 4, cfg.t, fitted),
                                 fitted, cfg)
        masked, plan = apply_mask(batch, 0.0, np.random.default_rng(0))
        assert not plan.any()
        np.testing.assert_array_equal(masked.keep, batch.keep)

    def test_full_rate_masks_every_real_position(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = tf.prepare_batch(random_sequences(np.random.default_rng(1), 4, cfg.t, fitted),
                                 fitted, cfg)
        _, plan = apply_mask(batch, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(plan, batch.real)

    def test_pad_positions_never_masked(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = tf.prepare_batch(random_sequences(np.random.default_rng(2), 32, cfg.t, fitted),
                                 fitted, cfg)
        _, plan = apply_mask(batch, 0.9, np.random.default_rng(0))
        assert not (plan & ~batch.real).any()

    def test_force_one_on_short_sequences(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        seqs = [make_sequence(f"e{i}", [0.1], [1], cfg.t) for i in range(64)]
        batch = tf.prepare_batch(seqs, fitted, cfg)
        _, plan = apply_mask(batch, 0.05, np.random.default_rng(0))
        assert (plan.sum(axis=1) >= 1).all()

    def test_empirical_rate_matches_probability(self):
        fitted = tiny_fitted()
        cfg = tf.ModelConfig(t=15, precision="f64")
        rng = np.random.default_rng(3)
        seqs = [make_sequence(f"e{i}", rng.normal(size=15), rng.integers(1, 4, size=15), 15)
                for i in range(7000)]
        batch = tf.prepare_batch(seqs, fitted, cfg)
        _, plan = apply_mask(batch, 0.3, np.random.default_rng(0))
        positions = batch.real.sum()
        assert positions >= 1e5
        rate = plan.sum() / positions
        assert 0.29 <= rate <= 0.31

    def test_fixed_mode_exact_count(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted, t=10)
        seqs = [make_sequence("a", np.zeros(10), np.ones(10, dtype=int), 10)]
        batch = tf.prepare_batch(seqs, fitted, cfg)
        _, plan = apply_mask(batch, 0.3, np.random.default_rng(0), mode="fixed")
        assert plan.sum() == 3


class TestReconstructionLoss:
    def _batch_and_preds(self, cfg, fitted, values, codes, logits_fn, preds_num=None):
        seqs = [make_sequence("a", values, codes, cfg.t)]
        batch = tf.prepare_batch(seqs, fitted, cfg)
        preds = {}
        if preds_num is not None:
            preds["x0"] = Tensor(preds_num[..., None])
        if logits_fn is not None:
            preds["c0"] = Tensor(logits_fn(batch))
        return batch, preds

    def test_perfect_numeric_reconstruction_zero_loss(self):
        fitted = tiny_fitted(vocab_sizes=())
        cfg, _ = small_weights(fitted)
        values = [0.5, -0.25, 1.0]
        seqs = [make_sequence("a", values, [0, 0, 0], cfg.t)]
        for s in seqs[0].steps:
            s.cats = np.array([], dtype=np.int64)
        batch = tf.prepare_batch(seqs, fitted, cfg)
        preds = {"x0": Tensor(batch.nums.copy())}
        plan = np.zeros_like(batch.real)
        loss = reconstruction_loss(preds, batch, plan)
        assert loss.item() == 0.0

    def test_uniform_logits_give_log_vocab(self):
        fitted = tiny_fitted(n_num=0, vocab_sizes=(3,))
        cfg, _ = small_weights(fitted)
        seqs = [make_sequence("a", [0.0, 0.0], [1, 2], cfg.t)]
        for s in seqs[0].steps:
            s.nums = np.array([])
        batch = tf.prepare_batch(seqs, fitted, cfg)
        preds = {"c0": Tensor(np.zeros((1, cfg.t, 4)), dtype="f64")}
        loss = reconstruction_loss(preds, batch, np.zeros_like(batch.real))
        np.testing.assert_allclose(loss.item(), math.log(4), rtol=1e-12)

    def test_combined_fixture(self):
        # one real position: numeric error 0.5 plus uniform 4-class CE
        fitted = tiny_fitted(n_num=1, vocab_sizes=(3,))
        cfg, _ = small_weights(fitted)
        seqs = [make_sequence("a", [1.0], [2], cfg.t)]
        batch = tf.prepare_batch(seqs, fitted, cfg)
        num_pred = batch.nums[..., 0].copy()
        num_pred[0, -1] += 0.5
        preds = {
            "x0": Tensor(num_pred[..., None], dtype="f64"),
            "c0": Tensor(np.zeros((1, cfg.t, 4)), dtype="f64"),
        }
        loss = reconstruction_loss(preds, batch, np.zeros_like(batch.real))
        np.testing.assert_allclose(loss.item(), 0.25 + math.log(4), rtol=1e-12)

    def test_masked_scope_restricts_to_plan(self):
        fitted = tiny_fitted(vocab_sizes=())
        cfg, _ = small_weights(fitted)
        seqs = [make_sequence("a", [1.0, 2.0], [0, 0], cfg.t)]
        for s in seqs[0].steps:
            s.cats = np.array([], dtype=np.int64)
        batch = tf.prepare_batch(seqs, fitted, cfg)
        pred = batch.nums.copy()
        pred[0, -1, 0] += 3.0  # error only on the final position
        plan = np.zeros_like(batch.real)
        plan[0, -2] = True  # scope excludes the erroneous position
        loss = reconstruction_loss({"x0": Tensor(pred)}, batch, plan, loss_scope="masked")
        assert loss.item() == 0.0


def test_fully_masked_short_sequences_keep_gradients_bounded():
    """A sequence whose every real step is masked enters as all zeros; the
    layer norms must stay away from their zero-variance singularity."""
    fitted = tiny_fitted()
    cfg, weights = small_weights(fitted, t=5)
    seqs = [make_sequence(f"e{i}", [0.5, -0.5], [1, 2], 5) for i in range(4)]
    batch = tf.prepare_batch(seqs, fitted, cfg)
    plan = batch.real.copy()  # mask everything
    masked = batch.with_keep(np.zeros_like(batch.keep))
    grads, num, _ = compute_gradients(weights, masked, plan, train=False)
    assert np.isfinite(num)
    assert max(np.abs(g).max() for g in grads.values()) < 1e4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        fitted = tiny_fitted()
        _, weights = small_weights(fitted)
        before = weights.clone_arrays()
        grads = {name: np.zeros_like(p.data) for name, p in weights.items()}
        adam_step(weights, grads, init_moments(weights), TrainConfig(epochs=1).lr, 1)
        for name, arr in weights.clone_arrays().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_closed_form(self):
        p = Tensor(np.array([1.0]), dtype="f64", requires_grad=True)

        class W:
            def items(self):
                return [("p", p)]

        moments = {"p": (np.zeros(1), np.zeros(1))}
        adam_step(W(), {"p": np.array([0.1])}, moments, TrainConfig(epochs=1).lr, 1)
        np.testing.assert_allclose(p.data[0] - 1.0, -9.99999e-4, atol=1e-9)

    def test_default_learning_rate(self):
        assert TrainConfig(epochs=1).lr == 1e-3


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = tiny_dataset()
        ck, _ = train(ds, tf.ModelConfig(hidden=8, ff_dim=8, layers=1, heads=2, t=6,
                                         dropout=0.0, precision="f64"),
                      TrainConfig(epochs=2, seed=1, batch_size=6))
        path = tmp_path / "ck.bin"
        save_checkpoint(ck, path)
        again = load_checkpoint(path)
        assert set(again.tensors) == set(ck.tensors)
        for name, arr in ck.tensors.items():
            assert arr.dtype == again.tensors[name].dtype
            assert (arr == again.tensors[name]).all()
        for name, (m, v) in ck.moments.items():
            assert (m == again.moments[name][0]).all()
            assert (v == again.moments[name][1]).all()
        assert again.epoch == ck.epoch and again.adam_steps == ck.adam_steps
        assert again.rng_state == ck.rng_state

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.bin"
        path.write_bytes(b"CSPR1" + (9).to_bytes(4, "little") + b"\x00" * 16)
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        ds = tiny_dataset()
        ck, _ = train(ds, tf.ModelConfig(hidden=8, ff_dim=8, layers=1, heads=2, t=6,
                                         dropout=0.0), TrainConfig(epochs=1, seed=1, batch_size=6))
        path = tmp_path / "full.bin"
        save_checkpoint(ck, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(data[: len(data) - 7])
        with pytest.raises(TruncatedFile):
            load_checkpoint(cut)


MODEL = dict(hidden=8, ff_dim=16, layers=2, heads=2, t=6, dropout=0.1, precision="f32")


class TestTrain:
    def test_zero_epochs_returns_initialized_checkpoint(self):
        ds = tiny_dataset()
        ck, log = train(ds, tf.ModelConfig(**MODEL), TrainConfig(epochs=0, seed=5, batch_size=6))
        assert log == []
        assert ck.epoch == 0 and ck.adam_steps == 0
        assert ck.tensors  # initialized weights present

    def test_same_seed_identical_logs(self):
        ds = tiny_dataset()
        cfg = tf.ModelConfig(**MODEL)
        _, log_a = train(ds, cfg, TrainConfig(epochs=3, seed=9, batch_size=6))
        _, log_b = train(ds, cfg, TrainConfig(epochs=3, seed=9, batch_size=6))
        assert [l for _, l, _ in log_a] == [l for _, l, _ in log_b]

    def test_overfit_single_batch_halves_loss(self):
        ds = tiny_dataset(n=8, seed=2)
        cfg = tf.ModelConfig(**MODEL)
        _, log = train(ds, cfg, TrainConfig(epochs=200, seed=0, batch_size=8))
        losses = [l for _, l, _ in log]
        assert losses[-1] < 0.5 * losses[0]

    def test_overfit_recovers_categorical_codes(self):
        # single repeated batch: argmax of the categorical head must match
        # the true codes on >=95% of unmasked real positions
        ds = tiny_dataset(n=8, seed=3)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=6,
                             dropout=0.0, precision="f64")
        ck, _ = train(ds, cfg, TrainConfig(epochs=600, seed=1, batch_size=8))
        weights = tf.build_weights(cfg, ds.fitted, np.random.default_rng(0))
        weights.load_arrays(ck.tensors)

        batch = tf.prepare_batch(ds.sequences, ds.fitted, cfg)
        masked, plan = apply_mask(batch, cfg.mask_p, np.random.default_rng(0))
        enc = tf.encoder_forward(masked, weights)
        dec = tf.decoder_forward(masked, enc, weights)
        preds = tf.reconstruction_heads(dec, weights)
        logits = preds["c0"].data
        visible = batch.real & ~plan
        hits = (logits.argmax(axis=-1) == batch.cats[..., 0])[visible]
        assert hits.mean() >= 0.95

    def test_divergence_aborts_with_last_good_checkpoint(self):
        ds = tiny_dataset(n=8, seed=5)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, dropout=0.0)
        with np.errstate(all="ignore"):
            with pytest.raises(pretrain.DivergenceError) as exc:
                train(ds, cfg, TrainConfig(epochs=50, seed=0, batch_size=8, lr=1e8))
        assert exc.value.checkpoint is not None
        assert exc.value.checkpoint.tensors

    def test_resume_continues_log_exactly(self, tmp_path):
        ds = tiny_dataset(n=10, seed=4)
        cfg = tf.ModelConfig(**MODEL)
        _, full_log = train(ds, cfg, TrainConfig(epochs=6, seed=3, batch_size=5))

        ck_half, half_log = train(ds, cfg, TrainConfig(epochs=3, seed=3, batch_size=5))
        path = tmp_path / "half.bin"
        save_checkpoint(ck_half, path)
        resumed = load_checkpoint(path)
        _, rest_log = train(ds, cfg, TrainConfig(epochs=6, seed=3, batch_size=5), init=resumed)

        combined = [l for _, l, _ in half_log] + [l for _, l, _ in rest_log]
        assert combined == [l for _, l, _ in full_log]
        assert [e for e, _, _ in rest_log] == [4, 5, 6]


class TestDataParallel:
    def test_worker_starvation_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=2, workers=4)

    def test_averaged_shard_gradients_equal_full_batch(self):
        ds = tiny_dataset(n=16, seed=6)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=6,
                             dropout=0.0, precision="f64")
        _, weights = small_weights(ds.fitted, hidden=8, ff_dim=16, layers=2, heads=2, t=6)
        batch = tf.prepare_batch(ds.sequences, ds.fitted, cfg)
        masked, plan = apply_mask(batch, 0.3, np.random.default_rng(1))

        full_grads, _, full_den = compute_gradients(weights, masked, plan, train=False)

        for w in (2, 4):
            shards = np.array_split(np.arange(16), w)
            combined = None
            den_total = 0.0
            parts = []
            for shard in shards:
                sub = tf.prepare_batch([ds.sequences[i] for i in shard], ds.fitted, cfg)
                sub_masked = sub.with_keep(masked.keep[shard])
                grads, _, den = compute_gradients(weights, sub_masked, plan[shard], train=False)
                parts.append((grads, den))
                den_total += den
            for grads, den in parts:
                scale = den / den_total
                if combined is None:
                    combined = {k: g * scale for k, g in grads.items()}
                else:
                    for k, g in grads.items():
                        combined[k] += g * scale
            assert den_total == full_den
            for name in full_grads:
                np.testing.assert_allclose(combined[name], full_grads[name], atol=1e-9)

    def test_parallel_two_workers_trains_and_matches_serial_shape(self):
        ds = tiny_dataset(n=12, seed=7)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6,
                             dropout=0.0, precision="f64")
        serial_ck, serial_log = train(ds, cfg, TrainConfig(epochs=2, seed=11, batch_size=6))
        par_ck, par_log = train(ds, cfg, TrainConfig(epochs=2, seed=11, batch_size=6, workers=2))
        assert len(par_log) == len(serial_log)
        for (_, ls, _), (_, lp, _) in zip(serial_log, par_log):
            np.testing.assert_allclose(lp, ls, rtol=1e-9)
        for name in serial_ck.tensors:
            np.testing.assert_allclose(par_ck.tensors[name], serial_ck.tensors[name],
                                       rtol=1e-8, atol=1e-10)

    def test_worker_divergence_carries_last_good_checkpoint(self):
        ds = tiny_dataset(n=8, seed=5)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, dropout=0.0)
        with np.errstate(all="ignore"):
            with pytest.raises(pretrain.DivergenceError) as exc:
                train(ds, cfg, TrainConfig(epochs=50, seed=0, batch_size=8, lr=1e8, workers=2))
        assert exc.value.checkpoint is not None
        assert exc.value.checkpoint.tensors

    def test_worker_dying_mid_step_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(pretrain, "compute_gradients", lambda *a, **k: os._exit(3))
        with pytest.raises(CasprError, match="worker 0"):
            train(tiny_dataset(), tf.ModelConfig(**MODEL),
                  TrainConfig(epochs=1, seed=0, batch_size=6, workers=2))

    def test_every_error_survives_the_pipe(self):
        for exc in (ShapeMismatch("matmul", (2, 3), (4, 5)), ParseError("bad ts", 7),
                    pretrain.DivergenceError("nan", checkpoint=None)):
            again = pickle.loads(pickle.dumps(exc))
            assert type(again) is type(exc) and str(again) == str(exc)
            assert again.__dict__ == exc.__dict__

    def test_dropout_resume_matches_straight_run(self, tmp_path):
        ds = tiny_dataset(n=12, seed=8)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6,
                             dropout=0.1, precision="f64")
        straight_ck, straight_log = train(ds, cfg, TrainConfig(epochs=4, seed=2, batch_size=6, workers=2))
        half_ck, half_log = train(ds, cfg, TrainConfig(epochs=2, seed=2, batch_size=6, workers=2))
        path = tmp_path / "half.bin"
        save_checkpoint(half_ck, path)
        resumed_ck, rest_log = train(ds, cfg, TrainConfig(epochs=4, seed=2, batch_size=6, workers=2),
                                     init=load_checkpoint(path))
        assert [l for _, l, _ in half_log + rest_log] == [l for _, l, _ in straight_log]
        for name, arr in straight_ck.tensors.items():
            assert arr.tobytes() == resumed_ck.tensors[name].tobytes()
