import json
import math
import os
import pickle
import struct
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caspr import autodiff as ad, cli, ingest, pretrain, synthgen, transformer as tf
from caspr.autodiff import Tensor, adam_step, init_moments
from caspr.errors import (
    BadMagic,
    CasprError,
    ConfigError,
    ContractViolation,
    CorruptFile,
    IoError,
    ParseError,
    SchemaMismatch,
    ShapeMismatch,
    TruncatedFile,
    VersionMismatch,
)
from caspr.pretrain import (
    TrainConfig,
    apply_mask,
    compute_gradients,
    load_checkpoint,
    reconstruction_loss,
    save_checkpoint,
    train,
)

from records import chunks
from test_transformer import make_dataset, random_dataset, small_weights, tiny_fitted, whole_batch


def tiny_dataset(n=12, seed=0, t=6, statics=0):
    return random_dataset(np.random.default_rng(seed), n, t, tiny_fitted(statics=statics), statics=statics)


class TestApplyMask:
    def test_zero_rate_is_noop(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = whole_batch(random_dataset(np.random.default_rng(0), 4, cfg.t, fitted), cfg)
        masked, plan = apply_mask(batch, 0.0, np.random.default_rng(0))
        assert not plan.any()
        np.testing.assert_array_equal(masked.keep, batch.keep)

    def test_full_rate_masks_every_real_position(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = whole_batch(random_dataset(np.random.default_rng(1), 4, cfg.t, fitted), cfg)
        _, plan = apply_mask(batch, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(plan, batch.real)

    def test_pad_positions_never_masked(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = whole_batch(random_dataset(np.random.default_rng(2), 32, cfg.t, fitted), cfg)
        _, plan = apply_mask(batch, 0.9, np.random.default_rng(0))
        assert not (plan & ~batch.real).any()

    def test_force_one_on_short_sequences(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = whole_batch(make_dataset(fitted, cfg.t, *[(f"e{i}", [0.1], [1]) for i in range(64)]), cfg)
        _, plan = apply_mask(batch, 0.05, np.random.default_rng(0))
        assert (plan.sum(axis=1) >= 1).all()

    def test_empirical_rate_matches_probability(self):
        fitted = tiny_fitted()
        cfg = tf.ModelConfig(t=15, precision="f64")
        rng = np.random.default_rng(3)
        ds = make_dataset(fitted, 15, *[(f"e{i}", rng.normal(size=15), rng.integers(1, 4, size=15))
                                        for i in range(7000)])
        batch = whole_batch(ds, cfg)
        _, plan = apply_mask(batch, 0.3, np.random.default_rng(0))
        positions = batch.real.sum()
        assert positions >= 1e5
        rate = plan.sum() / positions
        assert 0.29 <= rate <= 0.31


class TestReconstructionLoss:
    def test_perfect_numeric_reconstruction_zero_loss(self):
        fitted = tiny_fitted(vocab_sizes=())
        cfg, _ = small_weights(fitted)
        values = [0.5, -0.25, 1.0]
        batch = whole_batch(make_dataset(fitted, cfg.t, ("a", values, ())), cfg)
        preds = {"x0": Tensor(batch.nums.copy())}
        loss = reconstruction_loss(preds, batch)
        assert float(loss.data) == 0.0

    def test_uniform_logits_give_log_vocab(self):
        fitted = tiny_fitted(n_num=0, vocab_sizes=(3,))
        cfg, _ = small_weights(fitted)
        batch = whole_batch(make_dataset(fitted, cfg.t, ("a", (), [1, 2])), cfg)
        preds = {"c0": Tensor(np.zeros((1, cfg.t, 4)), dtype="f64")}
        loss = reconstruction_loss(preds, batch)
        np.testing.assert_allclose(float(loss.data), math.log(4), rtol=1e-12)

    def test_combined_fixture(self):
        # one real position: numeric error 0.5 plus uniform 4-class CE
        fitted = tiny_fitted(n_num=1, vocab_sizes=(3,))
        cfg, _ = small_weights(fitted)
        batch = whole_batch(make_dataset(fitted, cfg.t, ("a", [1.0], [2])), cfg)
        num_pred = batch.nums[..., 0].copy()
        num_pred[0, -1] += 0.5
        preds = {
            "x0": Tensor(num_pred[..., None], dtype="f64"),
            "c0": Tensor(np.zeros((1, cfg.t, 4)), dtype="f64"),
        }
        loss = reconstruction_loss(preds, batch)
        np.testing.assert_allclose(float(loss.data), 0.25 + math.log(4), rtol=1e-12)


    def test_matches_numpy_mean_of_terms(self):
        """Random heads against a plain-numpy mean, over real positions, of each head's term."""
        rng = np.random.default_rng(5)
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted)
        batch = whole_batch(random_dataset(rng, 5, cfg.t, fitted), cfg)
        num = rng.normal(size=batch.real.shape + (1,))
        logits = 3.0 * rng.normal(size=batch.real.shape + (4,))
        loss = reconstruction_loss({"x0": Tensor(num, dtype="f64"), "c0": Tensor(logits, dtype="f64")}, batch)
        log_p = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
        picked = np.take_along_axis(log_p, batch.cats[..., :1], axis=-1)[..., 0]
        terms = (num[..., 0] - batch.nums[..., 0]) ** 2 - picked
        assert 0 < batch.real.sum() < batch.real.size
        np.testing.assert_allclose(float(loss.data), terms[batch.real].mean(), rtol=1e-12)

def test_fully_masked_short_sequences_keep_gradients_bounded():
    """A sequence whose every real step is masked enters as all zeros; the
    layer norms must stay away from their zero-variance singularity."""
    fitted = tiny_fitted()
    cfg, weights = small_weights(fitted, t=5)
    batch = whole_batch(make_dataset(fitted, 5, *[(f"e{i}", [0.5, -0.5], [1, 2]) for i in range(4)]), cfg)
    masked = batch.masked(batch.real)  # mask everything
    grad, num, _ = compute_gradients(weights, masked)
    assert np.isfinite(num)
    assert max(np.abs(g).max() for g in weights.views(grad).values()) < 1e4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        fitted = tiny_fitted()
        _, weights = small_weights(fitted)
        before = weights.flat.copy()
        grads = np.zeros_like(weights.flat)
        adam_step(weights.flat, grads, init_moments(weights.flat), TrainConfig(epochs=1).lr, 1)
        np.testing.assert_array_equal(weights.flat, before)

    def test_first_step_closed_form(self):
        p = np.array([1.0])
        moments = init_moments(p)
        adam_step(p, np.array([0.1]), moments, TrainConfig(epochs=1).lr, 1)
        np.testing.assert_allclose(p[0] - 1.0, -9.99999e-4, atol=1e-9)

    def test_default_learning_rate(self):
        assert TrainConfig(epochs=1).lr == 1e-3

    def test_flat_update_bit_identical_to_per_name_loop(self):
        """The flat update against the per-tensor loop it replaced, over several steps."""
        rng = np.random.default_rng(17)
        shapes = {"a": (3, 4), "b": (4,), "c": (2, 2, 5)}
        init = {k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()}
        steps = [{k: rng.normal(size=s).astype(np.float32) for k, s in shapes.items()} for _ in range(4)]

        ref = {k: v.copy() for k, v in init.items()}
        ref_moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in ref.items()}
        for step, grads in enumerate(steps, start=1):
            c1 = 1.0 - ad.ADAM_BETA1 ** step
            c2 = 1.0 - ad.ADAM_BETA2 ** step
            for name, p in ref.items():
                g = grads[name]
                m, v = ref_moments[name]
                m *= ad.ADAM_BETA1
                m += (1.0 - ad.ADAM_BETA1) * g
                v *= ad.ADAM_BETA2
                v += (1.0 - ad.ADAM_BETA2) * g * g
                p -= (0.01 * (m / c1) / (np.sqrt(v / c2) + ad.ADAM_EPS)).astype(p.dtype)

        params = ad.FlatParams(shapes.items(), np.concatenate([init[k].ravel() for k in shapes]))
        moments = init_moments(params.flat)
        for step, grads in enumerate(steps, start=1):
            adam_step(params.flat, np.concatenate([grads[k].ravel() for k in shapes]), moments, 0.01, step)
        for name, p in params.items():
            assert p.data.tobytes() == ref[name].tobytes()
        for flat, named in zip(moments, zip(*ref_moments.values())):
            assert flat.tobytes() == np.concatenate([x.ravel() for x in named]).tobytes()


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = tiny_dataset()
        ck, _ = train(ds, tf.ModelConfig(hidden=8, ff_dim=8, layers=1, heads=2, t=6,
                                         dropout=0.0, precision="f64"),
                      TrainConfig(epochs=2, seed=1, batch_size=6))
        path = tmp_path / "ck.bin"
        save_checkpoint(ck, path)
        again = load_checkpoint(path)
        for arr, loaded in zip((ck.flat, *ck.moments), (again.flat, *again.moments), strict=True):
            assert loaded.dtype == arr.dtype == np.float64
            assert loaded.tobytes() == arr.tobytes()
        assert again.epoch == ck.epoch and again.adam_steps == ck.adam_steps
        assert again.rng_state == ck.rng_state

    def test_roundtrip_keeps_the_layout_of_unsorted_columns(self, tmp_path):
        """Columns out of name order: the loaded schema orders the layout as the saved one did."""
        rows, _ = synthgen.generate_rows(synthgen.SynthConfig(n_entities=6, seed=0))
        schema = ingest.Schema.from_json(synthgen.SCHEMA_JSON)
        raw = [{k: str(v) for k, v in r.items()} for r in rows]
        fitted = ingest.fit_schema(chunks(raw, schema), schema)
        cfg = tf.ModelConfig(hidden=4, ff_dim=4, layers=1, heads=2, t=6)
        assert [name for name, _, _ in tf.layout(cfg, fitted)][:2] == ["emb/item", "emb/channel"]
        ck, _ = train(ingest.build_dataset(chunks(raw, schema), fitted, 6), cfg,
                      TrainConfig(epochs=1, seed=1, batch_size=6))
        save_checkpoint(ck, tmp_path / "ck.bin")
        again = load_checkpoint(tmp_path / "ck.bin")
        assert list(tf.layout(again.model_cfg, again.fitted)) == list(tf.layout(cfg, fitted))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        for version in (1, 2, 9):
            path = tmp_path / f"v{version}.bin"
            path.write_bytes(b"CSPR1" + version.to_bytes(4, "little") + b"\x00" * 16)
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


def small_checkpoint_bytes(tmp_path):
    ds = tiny_dataset(n=6)
    ck, _ = train(ds, tf.ModelConfig(hidden=4, ff_dim=4, layers=1, heads=2, t=6, emb_out=2),
                  TrainConfig(epochs=1, seed=1, batch_size=6))
    path = tmp_path / "small.bin"
    save_checkpoint(ck, path)
    return path.read_bytes()


def craft_checkpoint(header, payload, version=pretrain.CHECKPOINT_VERSION):
    """Checkpoint bytes from a header object and the parameter bytes that follow it."""
    blob = json.dumps(header).encode("utf-8")
    return b"".join([b"CSPR1", struct.pack("<I", version), struct.pack("<Q", len(blob)), blob, payload])


class TestCheckpointHardening:
    """load_checkpoint raises only IoError subclasses on malformed content."""

    @pytest.fixture
    def parts(self, tmp_path):
        data = small_checkpoint_bytes(tmp_path)
        (blob_len,) = struct.unpack("<Q", data[9:17])
        return json.loads(data[17:17 + blob_len]), data[17 + blob_len:]

    def load(self, tmp_path, data):
        path = tmp_path / "crafted.bin"
        path.write_bytes(data)
        return load_checkpoint(path)

    def test_crafted_roundtrip_loads(self, tmp_path, parts):
        header, payload = parts
        ck = self.load(tmp_path, craft_checkpoint(header, payload))
        assert np.concatenate([ck.flat, *ck.moments]).astype("<f4").tobytes() == payload

    def test_file_is_header_and_three_flat_arrays(self, tmp_path):
        data = small_checkpoint_bytes(tmp_path)
        ck = load_checkpoint(tmp_path / "small.bin")
        (blob_len,) = struct.unpack("<Q", data[9:17])
        size = sum(math.prod(shape) for _, shape, _ in tf.layout(ck.model_cfg, ck.fitted))
        assert ck.flat.shape == ck.moments[0].shape == ck.moments[1].shape == (size,)
        assert len(data) == 17 + blob_len + 3 * size * np.dtype(np.float32).itemsize

    @pytest.mark.parametrize("defect, what", [
        ("missing_key", "header must be an object"),
        ("bad_json", "malformed header"),
        ("bad_field", "malformed header field"),
        ("trailing_bytes", "3 bytes after the parameters"),
        ("zero_heads", "heads must be an integer >= 1"),
        ("no_vocab_column", "vocab: no entry for column 'c0'"),
        ("no_means_column", "means: no entry for column 'x0'"),
        ("zero_embed_dim", "embed dim of column 'c0' is 0"),
        ("precision_alias", "precision must be one of f32, f64"),
    ])
    def test_defect_is_corrupt_file(self, tmp_path, parts, defect, what):
        header, payload = parts
        if defect == "missing_key":
            del header["adam_steps"]
        elif defect == "bad_field":
            header["model"]["hidden"] = 5  # not divisible by heads
        elif defect == "trailing_bytes":
            payload += b"\x00" * 3
        elif defect == "zero_heads":
            header["model"]["heads"] = 0
        elif defect == "no_vocab_column":
            del header["fitted"]["vocab"]["c0"]
        elif defect == "no_means_column":
            del header["fitted"]["means"]["x0"]
        elif defect == "zero_embed_dim":
            header["fitted"]["embed_dims"]["c0"] = 0
        elif defect == "precision_alias":
            header["model"]["precision"] = "float32"  # the payload's own dtype, under a name no writer uses
        data = craft_checkpoint(header, payload)
        if defect == "bad_json":
            data = data.replace(b'"epoch"', b'"epoch\xff', 1)
        with pytest.raises(CorruptFile, match=what):
            self.load(tmp_path, data)

    @pytest.mark.parametrize("cut", [1, 4, 100])
    def test_short_payload_is_truncated_file(self, tmp_path, parts, cut):
        header, payload = parts
        with pytest.raises(TruncatedFile, match="the parameters"):
            self.load(tmp_path, craft_checkpoint(header, payload[:-cut]))

    def test_huge_header_over_short_file_allocates_nothing_for_it(self, tmp_path, parts):
        """A header for a 4096-wide model is refused from its arithmetic, not by reading the file."""
        header, payload = parts
        header["model"].update(hidden=4096, ff_dim=4096, heads=8, emb_out=4096)
        cfg = tf.ModelConfig(**header["model"])
        size = sum(math.prod(shape) for _, shape, _ in tf.layout(cfg, ingest.FittedSchema.from_json(header["fitted"])))
        path = tmp_path / "huge.bin"
        path.write_bytes(craft_checkpoint(header, payload))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFile):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 3 * size * 4 > 10 ** 9 and peak < 10 ** 6

    def test_version_2_file_exits_5(self, tmp_path, parts, capsys):
        header, payload = parts
        path = tmp_path / "v2.bin"
        path.write_bytes(craft_checkpoint(header, payload, version=2))
        with pytest.raises(VersionMismatch, match="version 2"):
            load_checkpoint(path)
        code = cli.main(["embed", "--checkpoint", str(path), "--data", str(tmp_path / "data.csv"),
                         "--out", str(tmp_path / "emb.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 5
        assert len(err) == 1 and err[0].startswith("error: VersionMismatch")

    def test_fuzz_truncation_and_byte_flips(self, tmp_path):
        data = small_checkpoint_bytes(tmp_path)
        rng = np.random.default_rng(0)
        cases = [data[:n] for n in range(0, len(data), 17)]
        # two flips of every byte of the magic, version, header and first
        # tensor records, then one flip at a sample of later positions
        flips = [(pos, mask) for pos in range(900) for mask in (0x01, 0xFF)]
        flips += [(int(pos), 0xFF) for pos in rng.integers(900, len(data), 200)]
        for pos, mask in flips:
            flipped = bytearray(data)
            flipped[pos] ^= mask
            cases.append(bytes(flipped))
        path = tmp_path / "fuzz.bin"
        outcomes = {"loaded": 0, "rejected": 0}
        for case in cases:
            path.write_bytes(case)
            try:
                load_checkpoint(path)
                outcomes["loaded"] += 1
            except IoError:
                outcomes["rejected"] += 1
        assert outcomes["loaded"] and outcomes["rejected"]


def length_batch(lengths, cfg, seed=0):
    """prepare_batch over a dataset whose row i holds lengths[i] trailing real steps, 0 being an
    all-pad row, which build_dataset never emits; one numeric, one categorical, one static column."""
    rng = np.random.default_rng(seed)
    b, t = len(lengths), cfg.t
    real = np.arange(t) >= t - np.asarray(lengths, dtype=np.int64).reshape(b, 1)
    ds = ingest.SequenceDataset(
        fitted=tiny_fitted(statics=1), entities=np.array([f"e{i:03d}" for i in range(b)], dtype=object),
        real=real, nums=np.where(real[..., None], rng.normal(size=(b, t, 1)), 0.0),
        cats=np.where(real[..., None], rng.integers(1, 4, size=(b, t, 1)), 0), statics=rng.normal(size=(b, 1)))
    return tf.prepare_batch(ds, slice(None), cfg)


TILE_CASES = dict(lengths=st.lists(st.integers(0, 6), min_size=1, max_size=13), tile=st.integers(1, 5))


class TestTiles:
    @settings(max_examples=150, deadline=None)
    @given(**TILE_CASES, workers=st.integers(1, 4))
    @example(lengths=[0, 6, 0, 3, 0, 0, 1], tile=3, workers=1)  # a tile of all-pad rows, a partial last tile
    @example(lengths=[0, 0, 0, 0, 0], tile=2, workers=1)
    @example(lengths=[0, 6, 0, 3, 0, 0, 1], tile=5, workers=3)  # tiles of ceil(7 / 3) = 3 < TILE
    def test_tiles_cover_the_batch_sorted_and_trimmed(self, lengths, tile, workers):
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, emb_out=4)
        batch = length_batch(lengths, cfg)
        with mock.patch.object(tf, "TILE", tile):
            pairs = list(batch.tiles(workers))
        size = min(tile, math.ceil(len(lengths) / workers))
        rows = np.concatenate([r for r, _ in pairs])
        assert sorted(rows) == list(range(len(lengths)))
        if len(lengths) <= size:
            assert len(pairs) == 1 and pairs[0][1] is batch
        for r, part in pairs:
            width = part.real.shape[1]
            assert 1 <= len(r) <= size and width >= 1
            assert not batch.real[r, :cfg.t - width].any()  # only pad slots were cut
            for name in ("pos", "nums", "cats", "real", "keep"):
                np.testing.assert_array_equal(getattr(part, name), getattr(batch, name)[r, cfg.t - width:])
            np.testing.assert_array_equal(part.entities, batch.entities[r])
            np.testing.assert_array_equal(part.statics, batch.statics[r])
            has_real = part.real.any(axis=1)
            if len(lengths) > size:
                assert part.real[:, 0].any() or not has_real.any()  # no all-pad leading slot
            assert (part.pos[has_real, -1] == 1.0).all()  # the recent-end anchor holds

    @settings(max_examples=100, deadline=None)
    @given(**TILE_CASES)
    @example(lengths=[0, 6, 0, 3, 0, 0, 1], tile=3)
    def test_tiled_embed_returns_batch_row_order(self, lengths, tile):
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=6, emb_out=4, precision="f32")
        batch = length_batch(lengths, cfg)
        weights = tf.build_weights(cfg, tiny_fitted(statics=1), np.random.default_rng(1))
        one = tf.embed(batch, weights)
        with mock.patch.object(tf, "TILE", tile):
            tiled = tf.embed(batch, weights)
        assert tiled.shape == (len(lengths), 4) and tiled.dtype == np.float32
        # Not always bitwise: OpenBLAS's GEMV (layer_norm's row statistics) takes
        # the last rows % 8 of a call through another kernel at f32.
        np.testing.assert_allclose(tiled, one, rtol=1e-5, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(lengths=st.integers(1, 3).flatmap(lambda k: st.lists(st.integers(0, 8), min_size=8 * k, max_size=8 * k)))
    @example(lengths=[0, 8, 0, 3, 0, 0, 1, 5] * 2)
    def test_tiled_embed_is_the_one_tile_pass_bitwise(self, lengths):
        """With t = 8 and whole tiles of 8, every GEMV call has a multiple of 8 rows, as at
        TILE = 128 on the benchmark logs, so the tiled vectors are the one-pass bytes."""
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=8, emb_out=4, precision="f32")
        batch = length_batch(lengths, cfg)
        weights = tf.build_weights(cfg, tiny_fitted(statics=1), np.random.default_rng(1))
        one = tf.embed(batch, weights)
        with mock.patch.object(tf, "TILE", 8):
            tiled = tf.embed(batch, weights)
        assert tiled.tobytes() == one.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**TILE_CASES)
    @example(lengths=[0, 6, 0, 3, 0, 0, 1], tile=3)
    @example(lengths=[0, 0, 0, 0, 0], tile=2)
    def test_tiled_gradients_match_the_one_tile_pass(self, lengths, tile):
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=6, emb_out=4, dropout=0.0, precision="f64")
        batch = length_batch(lengths, cfg)
        weights = tf.build_weights(cfg, tiny_fitted(statics=1), np.random.default_rng(1))
        masked, _ = apply_mask(batch, 0.3, np.random.default_rng(2))
        if not masked.real.any():  # nothing to score, however it is tiled
            for size in (tf.TILE, tile):
                with mock.patch.object(tf, "TILE", size), pytest.raises(ContractViolation, match="no positions"):
                    compute_gradients(weights, masked)
            return
        one_grad, one_num, one_den = compute_gradients(weights, masked)
        with mock.patch.object(tf, "TILE", tile):
            grad, num, den = compute_gradients(weights, masked)
        assert den == one_den
        np.testing.assert_allclose(num, one_num, rtol=1e-9)
        np.testing.assert_allclose(grad, one_grad, rtol=1e-9, atol=1e-9 * np.abs(one_grad).max())

    def test_tiled_gradients_match_one_tile(self, monkeypatch):
        ds = tiny_dataset(n=16, seed=6)
        cfg, weights = small_weights(ds.fitted)
        masked, _ = apply_mask(whole_batch(ds, cfg), 0.3, np.random.default_rng(1))
        one_grad, one_num, one_den = compute_gradients(weights, masked)
        one_grads = weights.views(one_grad)
        monkeypatch.setattr(tf, "TILE", 5)  # tiles of 5, 5, 5 and 1 entities
        grad, num, den = compute_gradients(weights, masked)
        assert den == one_den
        np.testing.assert_allclose(num, one_num, rtol=1e-12)
        for name, g in weights.views(grad).items():
            np.testing.assert_allclose(g, one_grads[name], rtol=0, atol=1e-9)

    def test_one_tile_batch_is_the_plain_pass_byte_for_byte(self):
        """A batch of at most TILE entities gets the bytes of one un-tiled forward + backward."""
        ds = tiny_dataset(n=12, seed=5)
        cfg = tf.ModelConfig(**MODEL)  # dropout on, so the rng draws must match too
        weights = tf.build_weights(cfg, ds.fitted, np.random.default_rng(2))
        masked, _ = apply_mask(whole_batch(ds, cfg), 0.3, np.random.default_rng(1))
        grad, num, den = compute_gradients(weights, masked, key=(7,))
        grads = weights.views(grad)

        rng = np.random.default_rng([7, 0])  # the dropout key of tile 0
        weights.zero_grad()
        x = tf.project_inputs(masked, weights)
        enc = tf.encoder_forward(masked, weights, rng=rng, inputs=x)
        dec = tf.decoder_forward(masked, enc, weights, rng=rng, inputs=x)
        loss = reconstruction_loss(tf.reconstruction_heads(dec, weights), masked)
        ad.backward(loss)
        assert den == float(masked.real.sum())
        assert num == float(loss.data) * den
        for name, p in weights.items():
            assert grads[name].tobytes() == p.grad.tobytes()

    def test_tiled_data_parallel_loss_matches_serial(self, monkeypatch):
        """Steps of 12 run as the same three tiles of 4 serially and on 2 workers."""
        monkeypatch.setattr(tf, "TILE", 4)
        ds = tiny_dataset(n=24, seed=3)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, dropout=0.0, precision="f64")
        _, serial_log = train(ds, cfg, TrainConfig(epochs=2, seed=4, batch_size=12))
        _, par_log = train(ds, cfg, TrainConfig(epochs=2, seed=4, batch_size=12, workers=2))
        for (_, ls, _), (_, lp, _) in zip(serial_log, par_log, strict=True):
            assert abs(lp - ls) < 1e-9

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_sorted_shards_give_repeatable_checkpoints(self, monkeypatch, tmp_path, dropout):
        """Steps of 12 on 2 workers run as length-sorted, trimmed tiles of 4; two runs give the
        same checkpoint.bin bytes, and without dropout the loss log of a serial run."""
        monkeypatch.setattr(tf, "TILE", 4)
        ds = tiny_dataset(n=24, seed=8)
        assert len(set(ds.real.sum(axis=1))) > 3  # the lengths vary, so sorting moves rows
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, dropout=dropout, precision="f64")
        logs = []
        for run in range(2):
            ck, log = train(ds, cfg, TrainConfig(epochs=2, seed=5, batch_size=12, workers=2))
            save_checkpoint(ck, tmp_path / f"run{run}.bin")
            logs.append([loss for _, loss, _ in log])
        assert (tmp_path / "run0.bin").read_bytes() == (tmp_path / "run1.bin").read_bytes()
        assert logs[0] == logs[1]
        if not dropout:
            _, serial = train(ds, cfg, TrainConfig(epochs=2, seed=5, batch_size=12))
            np.testing.assert_allclose([loss for _, loss, _ in serial], logs[0], rtol=1e-9)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_data_parallel_checkpoint_is_the_serial_bytes(self, monkeypatch, tmp_path, workers):
        """Steps of 12 cut into the same tiles of 4 at 1, 2 and 3 workers, and tile i of a step
        draws the same dropout wherever it runs, so at f32 with dropout on the checkpoints match."""
        monkeypatch.setattr(tf, "TILE", 4)
        ds = tiny_dataset(n=48, seed=8)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, dropout=0.1, precision="f32")
        for w in (1, workers):
            ck, _ = train(ds, cfg, TrainConfig(epochs=2, seed=5, batch_size=12, workers=w))
            save_checkpoint(ck, tmp_path / f"w{w}.bin")
        assert (tmp_path / f"w{workers}.bin").read_bytes() == (tmp_path / "w1.bin").read_bytes()

    def test_tiled_serial_run_is_repeatable(self, monkeypatch):
        monkeypatch.setattr(tf, "TILE", 5)
        ds = tiny_dataset(n=24, seed=4)
        cfg = tf.ModelConfig(**MODEL)  # dropout draws run tile by tile
        runs = [train(ds, cfg, TrainConfig(epochs=2, seed=3, batch_size=12)) for _ in range(2)]
        (ck_a, log_a), (ck_b, log_b) = runs
        assert [l for _, l, _ in log_a] == [l for _, l, _ in log_b]
        assert ck_a.flat.tobytes() == ck_b.flat.tobytes()


MODEL = dict(hidden=8, ff_dim=16, layers=2, heads=2, t=6, dropout=0.1, precision="f32")


class TestTrain:
    def test_zero_epochs_returns_initialized_checkpoint(self):
        ds = tiny_dataset()
        ck, log = train(ds, tf.ModelConfig(**MODEL), TrainConfig(epochs=0, seed=5, batch_size=6))
        assert log == []
        assert ck.epoch == 0 and ck.adam_steps == 0
        assert ck.flat.size and ck.flat.any()  # initialized weights present

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
        weights = tf.ModelWeights(cfg, ds.fitted, ck.flat)

        batch = whole_batch(ds, cfg)
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
        assert np.isfinite(exc.value.checkpoint.flat).all()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_on_an_epochs_last_step_keeps_the_start(self, workers):
        """One batch per epoch and one epoch: no later forward pass sees the weights lr=1e300 leaves."""
        ds = tiny_dataset(n=8, seed=5)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, dropout=0.0)
        with np.errstate(all="ignore"):
            with pytest.raises(pretrain.DivergenceError, match="epoch 1") as exc:
                train(ds, cfg, TrainConfig(epochs=1, seed=0, batch_size=8, lr=1e300, workers=workers))
        assert exc.value.checkpoint.epoch == 0
        assert np.isfinite(exc.value.checkpoint.flat).all()

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

    def test_resumed_parameters_stay_views_of_flat(self, monkeypatch):
        ds = tiny_dataset(n=6)
        cfg = tf.ModelConfig(**MODEL)
        ck, _ = train(ds, cfg, TrainConfig(epochs=1, seed=3, batch_size=6))
        seen = []
        real = pretrain.compute_gradients

        def spy(weights, *args, **kwargs):
            seen.append(all(p.data.base is weights.flat for _, p in weights.items()))
            return real(weights, *args, **kwargs)

        monkeypatch.setattr(pretrain, "compute_gradients", spy)
        train(ds, cfg, TrainConfig(epochs=2, seed=3, batch_size=6), init=ck)
        assert seen and all(seen)

    def test_resume_rejects_another_layout(self):
        ds = tiny_dataset(n=6)
        cfg = tf.ModelConfig(**MODEL)
        ck, _ = train(ds, cfg, TrainConfig(epochs=1, seed=3, batch_size=6))
        wider = tf.ModelConfig(**{**MODEL, "ff_dim": 2 * MODEL["ff_dim"]})
        with pytest.raises(SchemaMismatch, match="layout"):
            train(ds, wider, TrainConfig(epochs=2, seed=3, batch_size=6), init=ck)


class TestDataParallel:
    def test_worker_starvation_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=2, workers=4)

    def test_averaged_shard_gradients_equal_full_batch(self):
        ds = tiny_dataset(n=16, seed=6)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=6,
                             dropout=0.0, precision="f64")
        _, weights = small_weights(ds.fitted, hidden=8, ff_dim=16, layers=2, heads=2, t=6)
        batch = whole_batch(ds, cfg)
        masked, plan = apply_mask(batch, 0.3, np.random.default_rng(1))

        full_grad, _, full_den = compute_gradients(weights, masked)
        full_grads = weights.views(full_grad)

        for w in (2, 4):
            shards = np.array_split(np.arange(16), w)
            combined = None
            den_total = 0.0
            parts = []
            for shard in shards:
                sub_masked = tf.prepare_batch(ds, shard, cfg).masked(plan[shard])
                grad, _, den = compute_gradients(weights, sub_masked)
                parts.append((weights.views(grad), den))
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
        np.testing.assert_allclose(par_ck.flat, serial_ck.flat, rtol=1e-8, atol=1e-10)

    def test_worker_divergence_carries_last_good_checkpoint(self):
        ds = tiny_dataset(n=8, seed=5)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6, dropout=0.0)
        with np.errstate(all="ignore"):
            with pytest.raises(pretrain.DivergenceError) as exc:
                train(ds, cfg, TrainConfig(epochs=50, seed=0, batch_size=8, lr=1e8, workers=2))
        assert exc.value.checkpoint is not None
        assert np.isfinite(exc.value.checkpoint.flat).all()

    def test_worker_dying_mid_step_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(pretrain, "_tile_gradients", lambda *a, **k: os._exit(3))
        with pytest.raises(CasprError, match="worker 0"):
            train(tiny_dataset(), tf.ModelConfig(**MODEL),
                  TrainConfig(epochs=1, seed=0, batch_size=6, workers=2))

    def test_worker_dead_before_a_step_is_a_typed_error(self, monkeypatch):
        """A worker killed between two steps is named, and the live worker is still answered for."""
        real_gradients = pretrain._WorkerPool.gradients

        def then_kill_worker_1(pool, *args):
            result = real_gradients(pool, *args)
            pool.procs[1].kill()
            pool.procs[1].join(timeout=10)
            assert not pool.procs[1].is_alive()
            return result

        monkeypatch.setattr(pretrain._WorkerPool, "gradients", then_kill_worker_1)
        with pytest.raises(CasprError, match="worker 1") as exc:
            train(tiny_dataset(), tf.ModelConfig(**MODEL),
                  TrainConfig(epochs=1, seed=0, batch_size=6, workers=2))
        assert type(exc.value) is CasprError

    def test_hung_worker_is_a_typed_error_within_the_deadline(self, monkeypatch):
        """Worker 1 answers two steps, then sleeps. With the floor lowered to 2 s, the third
        step's deadline is 2 s; missing it stops every worker and names the one that hung."""
        real_loop = pretrain._worker_loop

        def sleepy_loop(conn, weights, worker_idx):
            if worker_idx == 1:
                real_send, sends = conn.send, []

                def send(obj):
                    sends.append(obj)
                    if len(sends) == 3:
                        time.sleep(3600)
                    real_send(obj)

                conn.send = send
            real_loop(conn, weights, worker_idx)

        monkeypatch.setattr(pretrain, "_worker_loop", sleepy_loop)
        monkeypatch.setattr(pretrain, "STEP_DEADLINE_FLOOR_S", 2.0)
        procs = []
        real_init = pretrain._WorkerPool.__init__

        def keep_procs(pool, *args):
            real_init(pool, *args)
            procs.extend(pool.procs)

        monkeypatch.setattr(pretrain._WorkerPool, "__init__", keep_procs)
        tic = time.perf_counter()
        with pytest.raises(CasprError, match="worker 1 sent no gradient within .* hung") as exc:
            train(tiny_dataset(n=24), tf.ModelConfig(**MODEL),
                  TrainConfig(epochs=1, seed=0, batch_size=6, workers=2))
        assert type(exc.value) is CasprError
        assert time.perf_counter() - tic < 60
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_every_error_survives_the_pipe(self):
        for exc in (ShapeMismatch("matmul", (2, 3), (4, 5)), ParseError("bad ts", 7),
                    pretrain.DivergenceError("nan", checkpoint=None)):
            again = pickle.loads(pickle.dumps(exc))
            assert type(again) is type(exc) and str(again) == str(exc)
            assert again.__dict__ == exc.__dict__

    def test_short_last_batch_uses_fewer_workers(self):
        """9 entities in batches of 4 leave a last batch of 1 for 2 workers."""
        ds = tiny_dataset(n=9, seed=2)
        cfg = tf.ModelConfig(hidden=8, ff_dim=16, layers=1, heads=2, t=6,
                             dropout=0.0, precision="f64")
        _, serial_log = train(ds, cfg, TrainConfig(epochs=2, seed=4, batch_size=4))
        _, par_log = train(ds, cfg, TrainConfig(epochs=2, seed=4, batch_size=4, workers=2))
        np.testing.assert_allclose([l for _, l, _ in par_log], [l for _, l, _ in serial_log],
                                   rtol=1e-12, atol=0)

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
        assert straight_ck.flat.tobytes() == resumed_ck.flat.tobytes()
