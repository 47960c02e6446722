import contextlib
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from caspr import autodiff as ad
from caspr import transformer as tf
from caspr.autodiff import Tensor
from caspr.errors import ConfigError, ContractViolation, SchemaMismatch, ShapeMismatch
from caspr.ingest import ColumnSpec, FittedSchema, Schema, build_dataset
from records import chunks


def tiny_fitted(n_num=1, vocab_sizes=(3,), statics=0):
    cols = [ColumnSpec("entity", "entity_id"), ColumnSpec("ts", "timestamp")]
    cols += [ColumnSpec(f"x{i}", "numerical") for i in range(n_num)]
    cols += [ColumnSpec(f"c{i}", "categorical") for i in range(len(vocab_sizes))]
    cols += [ColumnSpec(f"s{i}", "static_numerical") for i in range(statics)]
    schema = Schema(cols)
    vocab = {f"c{i}": [f"v{j}" for j in range(n)] for i, n in enumerate(vocab_sizes)}
    means = {f"x{i}": 0.0 for i in range(n_num)} | {f"s{i}": 0.0 for i in range(statics)}
    stds = {f"x{i}": 1.0 for i in range(n_num)} | {f"s{i}": 1.0 for i in range(statics)}
    return FittedSchema(schema, vocab=vocab, means=means, stds=stds)


def entity_records(fitted, entity, values, codes, statics=(), ts_start=0):
    """Raw records of one entity under tiny_fitted, whose zero means and unit stds keep
    values exact: step i holds numerics values[i] and codes codes[i] (0 = out of vocab)."""
    k = max(len(values), len(codes))
    nums = np.asarray(values, dtype=np.float64).reshape(k, len(fitted.seq_numeric_cols))
    cats = np.asarray(codes, dtype=np.int64).reshape(k, len(fitted.seq_categorical_cols))
    records = []
    for i in range(k):
        rec = {"entity": entity, "ts": str(ts_start + i)}
        rec |= {c: repr(float(v)) for c, v in zip(fitted.seq_numeric_cols, nums[i])}
        rec |= {c: fitted.vocab[c][code - 1] if code else "<oov>"
                for c, code in zip(fitted.seq_categorical_cols, cats[i])}
        rec |= {c: repr(float(v)) for c, v in zip(fitted.static_numeric_cols, statics)}
        records.append(rec)
    return records


def make_dataset(fitted, t, *entities):
    """build_dataset over the entity_records of each (entity, values, codes[, statics]) tuple."""
    records = [r for args in entities for r in entity_records(fitted, *args)]
    return build_dataset(chunks(records, fitted.schema), fitted, t)


def random_dataset(rng, n, t, fitted, max_len=None, statics=0):
    """n entities e000, e001, ... (rows in that order) of 1..max_len random steps."""
    entities = []
    vocab_n = len(fitted.vocab["c0"])
    for i in range(n):
        k = int(rng.integers(1, (max_len or t) + 1))
        values = rng.normal(size=k)
        codes = rng.integers(1, vocab_n + 1, size=k)
        st = tuple(rng.normal(size=statics))
        entities.append((f"e{i:03d}", values, codes, st))
    return make_dataset(fitted, t, *entities)


def whole_batch(ds, cfg):
    return tf.prepare_batch(ds, slice(None), cfg)


def without_real_steps(batch):
    """The batch with every slot a pad slot, a row build_dataset never emits."""
    none = np.zeros_like(batch.real)
    return dataclasses.replace(batch, real=none, keep=none)


def fill_pad_slots(batch, rng, vocab_n):
    """The batch with random numerics and in-range codes (0..vocab_n) in its pad slots."""
    pad = ~batch.real
    return dataclasses.replace(
        batch,
        nums=np.where(pad[..., None], rng.normal(size=batch.nums.shape), batch.nums).astype(batch.nums.dtype),
        cats=np.where(pad[..., None], rng.integers(0, vocab_n + 1, size=batch.cats.shape), batch.cats),
    )


def positions(batch, weights):
    """The position scalar project_inputs gives each slot of `batch`, 0 at pad and masked
    slots: with the numerics, every other weight and the bias at zero and in_proj/w's
    position row at (1, 0, ...), hidden unit 0 is the position itself."""
    probe = tf.ModelWeights(weights.cfg, weights.fitted, np.zeros_like(weights.flat))
    probe["in_proj/w"].data[0, 0] = 1.0
    return tf.project_inputs(dataclasses.replace(batch, nums=np.zeros_like(batch.nums)), probe).data[..., 0]


def small_weights(fitted, seed=0, **overrides):
    defaults = dict(hidden=8, ff_dim=16, layers=2, heads=2, dropout=0.0, t=6,
                    emb_out=4, precision="f64")
    defaults.update(overrides)
    cfg = tf.ModelConfig(**defaults)
    return cfg, tf.build_weights(cfg, fitted, np.random.default_rng(seed))


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = tf.ModelConfig()
        assert (cfg.hidden, cfg.ff_dim, cfg.layers, cfg.heads) == (16, 32, 6, 8)
        assert cfg.dropout == 0.1 and cfg.t == 15 and cfg.mask_p == 0.3
        assert cfg.hidden // cfg.heads == 2

    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ConfigError):
            tf.ModelConfig(hidden=10, heads=4)

    @pytest.mark.parametrize("name, value", [("hidden", 0), ("ff_dim", 0), ("heads", 0), ("heads", -2),
                                             ("emb_out", 0), ("layers", -1), ("hidden", 16.0)])
    def test_sizes_are_integers_in_range(self, name, value):
        what = f"field '{name}' must be int, got float" if isinstance(value, float) else f"{name} must be an integer"
        with pytest.raises(ConfigError, match=what):
            tf.ModelConfig(**{name: value})

    @pytest.mark.parametrize("precision", ["f16", "float64", "float32", "d", "F32", 32, None, ["f32"]])
    def test_precision_is_f32_or_f64(self, precision):
        what = "precision must be one of f32, f64" if isinstance(precision, str) else "field 'precision' must be str"
        with pytest.raises(ConfigError, match=what):
            tf.ModelConfig(precision=precision)


class TestProjectInputs:
    def test_position_scalar_last_slot_is_one(self):
        """With every other input zero, the projection is the position scalar times its weight row."""
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, t=15)
        batch = whole_batch(make_dataset(fitted, 15, ("a", [0.5] * 15, [1] * 15)), cfg)
        pos = positions(batch, weights)
        assert pos[0, -1] == 1.0
        np.testing.assert_allclose(pos[0], (np.arange(15) + 1) / 15)

    def test_batch_is_a_row_gather_at_model_precision(self):
        fitted = tiny_fitted(statics=1)
        cfg, _ = small_weights(fitted, precision="f32")
        ds = random_dataset(np.random.default_rng(2), 5, cfg.t, fitted, statics=1)
        idx = np.array([3, 0, 3])
        batch = tf.prepare_batch(ds, idx, cfg)
        assert list(batch.entities) == ["e003", "e000", "e003"]
        np.testing.assert_array_equal(batch.real, ds.real[idx])
        np.testing.assert_array_equal(batch.cats, ds.cats[idx])
        for got, rows in ((batch.nums, ds.nums[idx]), (batch.statics, ds.statics[idx])):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, rows.astype(np.float32))
        np.testing.assert_array_equal(batch.keep, ds.real[idx])
        assert batch.fitted is ds.fitted
        sliced = tf.prepare_batch(ds, slice(1, 3), cfg)
        np.testing.assert_array_equal(sliced.nums, tf.prepare_batch(ds, [1, 2], cfg).nums)

    def test_dataset_of_another_length_rejected(self):
        fitted = tiny_fitted()
        cfg, _ = small_weights(fitted, t=6)
        ds = make_dataset(fitted, 5, ("a", [0.5], [1]))
        with pytest.raises(SchemaMismatch, match="t=5"):
            tf.prepare_batch(ds, [0], cfg)

    def test_output_shape_default_config(self):
        fitted = tiny_fitted()
        cfg = tf.ModelConfig(precision="f64")
        weights = tf.build_weights(cfg, fitted, np.random.default_rng(0))
        out = tf.project_inputs(whole_batch(random_dataset(np.random.default_rng(1), 3, 15, fitted), cfg), weights)
        assert out.shape == (3, 15, 16)

    def test_all_pad_projects_to_zero_input(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        batch = without_real_steps(whole_batch(make_dataset(fitted, cfg.t, ("a", [0.5], [1])), cfg))
        assert not batch.keep.any()
        out = tf.project_inputs(batch, weights)
        expected = weights["in_proj/b"].data[None, None, :]
        np.testing.assert_allclose(out.data, np.broadcast_to(expected, out.shape))

    def test_rows_not_at_the_model_dtype_are_refused(self):
        """The built dataset holds f64 numbers; an f32 model takes only rows prepare_batch cast."""
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, precision="f32")
        ds = random_dataset(np.random.default_rng(3), 3, cfg.t, fitted)
        for run in (tf.project_inputs, tf.embed):
            with pytest.raises(ContractViolation, match="rows hold float64 numbers, the model runs at f32"):
                run(ds, weights)
        assert tf.embed(whole_batch(ds, cfg), weights).shape == (3, cfg.emb_out)

    def test_rows_wider_than_the_model_window_are_refused(self):
        """At f64 the built dataset has the model's dtype, so only its width tells a longer window."""
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, t=6)
        ds = random_dataset(np.random.default_rng(4), 3, 8, fitted)
        with pytest.raises(SchemaMismatch, match="rows have 8 slots, the model expects t=6"):
            tf.embed(ds, weights)

    def test_schema_mismatch_detected(self):
        fitted2 = tiny_fitted(n_num=2)
        cfg, weights = small_weights(tiny_fitted(n_num=1))
        batch = whole_batch(make_dataset(fitted2, cfg.t, ("a", [[1.0, 2.0]], [1])), cfg)
        with pytest.raises(SchemaMismatch):
            tf.project_inputs(batch, weights)


class TestScaledDotAttention:
    def test_single_key_returns_v(self):
        q = Tensor(np.array([[[1.0, 2.0]]]))
        k = Tensor(np.array([[[0.3, -0.4]]]))
        v = Tensor(np.array([[[5.0, 6.0]]]))
        out = ad.attention(q, k, v, np.zeros((1, 1, 1, k.shape[1])), heads=1)
        np.testing.assert_allclose(out.data, v.data)

    def test_zero_scores_average_values(self):
        q = Tensor(np.zeros((1, 1, 2)))
        k = Tensor(np.zeros((1, 3, 2)))
        v = Tensor(np.arange(6.0).reshape(1, 3, 2))
        out = ad.attention(q, k, v, np.zeros((1, 1, 1, k.shape[1])), heads=1)
        np.testing.assert_allclose(out.data[0, 0], v.data[0].mean(axis=0))

    def test_two_key_fixture(self):
        q = Tensor(np.array([[[1.0, 0.0]]]))
        k = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        v = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        out = ad.attention(q, k, v, np.zeros((1, 1, 1, k.shape[1])), heads=1)
        np.testing.assert_allclose(out.data[0, 0], [0.66976155, 0.33023845], atol=1e-6)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        scores = ad.softmax(Tensor(rng.normal(size=(4, 5, 5))), axis=-1)
        assert (scores.data >= 0).all()
        np.testing.assert_allclose(scores.data.sum(axis=-1), 1.0, atol=1e-6)


class TestMultiHead:
    def test_single_head_equals_plain_attention_plus_wo(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, heads=1)
        rng = np.random.default_rng(4)
        h = Tensor(rng.normal(size=(2, cfg.t, cfg.hidden)))
        layer = {k: weights[f"enc0/attn/{k}"] for k in ("wq", "wk", "wv", "wo")}
        mask = np.zeros((2, 1, cfg.t, cfg.t))
        out = tf.multi_head(h, h, mask, layer, heads=1)
        direct = ad.matmul(
            ad.attention(ad.matmul(h, layer["wq"]), ad.matmul(h, layer["wk"]), ad.matmul(h, layer["wv"]),
                         mask, heads=1),
            layer["wo"])
        np.testing.assert_allclose(out.data, direct.data, atol=1e-12)

    def test_shape_preserved(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, heads=4)
        rng = np.random.default_rng(5)
        h = Tensor(rng.normal(size=(3, cfg.t, cfg.hidden)))
        layer = {k: weights[f"enc0/attn/{k}"] for k in ("wq", "wk", "wv", "wo")}
        assert tf.multi_head(h, h, np.zeros((3, 1, cfg.t, cfg.t)), layer, heads=4).shape == h.shape

    def test_default_head_width(self):
        cfg = tf.ModelConfig()
        assert cfg.hidden == 16 and cfg.heads == 8 and cfg.hidden // cfg.heads == 2


class TestEncoder:
    def test_zero_layers_is_projection(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, layers=0)
        batch = whole_batch(random_dataset(np.random.default_rng(6), 2, cfg.t, fitted), cfg)
        enc = tf.encoder_forward(batch, weights)
        proj = tf.project_inputs(batch, weights)
        np.testing.assert_allclose(enc.data, proj.data)

    def test_default_output_shape(self):
        fitted = tiny_fitted()
        cfg = tf.ModelConfig(precision="f64")
        weights = tf.build_weights(cfg, fitted, np.random.default_rng(0))
        batch = whole_batch(random_dataset(np.random.default_rng(7), 4, 15, fitted), cfg)
        assert tf.encoder_forward(batch, weights).shape == (4, 15, 16)

    def test_inference_is_deterministic(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, dropout=0.5)
        batch = whole_batch(random_dataset(np.random.default_rng(8), 2, cfg.t, fitted), cfg)
        a = tf.encoder_forward(batch, weights)
        b = tf.encoder_forward(batch, weights)
        assert (a.data == b.data).all()

    def test_dropout_changes_training_output(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, dropout=0.5)
        batch = whole_batch(random_dataset(np.random.default_rng(9), 2, cfg.t, fitted), cfg)
        rng = np.random.default_rng(0)
        a = tf.encoder_forward(batch, weights, rng=rng)
        b = tf.encoder_forward(batch, weights, rng=rng)
        assert not (a.data == b.data).all()


def drawn_in_turn(weights, rng):
    """A sublayer as each pass ran it with a mask of its own: draw the
    output's dropout keep mask from `rng`, then residual add and layer norm."""
    p = weights.cfg.dropout

    def sublayer(x, out, prefix):
        keep = (rng.random(out.shape) >= p).astype(out.dtype) / (1.0 - p)
        return ad.layer_norm(x, weights[f"{prefix}/g"], weights[f"{prefix}/b"], residual=out, keep=keep)

    return sublayer


def reference_encoder(batch, weights, rng, x):
    cfg, sublayer = weights.cfg, drawn_in_turn(weights, rng)
    h, mask = x, tf.attention_mask(batch.real, x.dtype)
    for i in range(cfg.layers):
        h = sublayer(h, tf.multi_head(h, h, mask, tf._layer_weights(weights, f"enc{i}/attn"), cfg.heads),
                     f"enc{i}/ln1")
        h = sublayer(h, tf._ffn(h, weights, f"enc{i}/ffn"), f"enc{i}/ln2")
    return h


def reference_decoder(batch, enc, weights, rng, x):
    cfg, sublayer = weights.cfg, drawn_in_turn(weights, rng)
    h, mask = x, tf.attention_mask(batch.real, x.dtype, causal=True)
    for i in range(cfg.layers):
        h = sublayer(h, tf.multi_head(h, h, mask, tf._layer_weights(weights, f"dec{i}/self"), cfg.heads),
                     f"dec{i}/ln1")
        h = sublayer(h, tf.multi_head(h, enc, mask, tf._layer_weights(weights, f"dec{i}/cross"), cfg.heads),
                     f"dec{i}/ln2")
        h = sublayer(h, tf._ffn(h, weights, f"dec{i}/ffn"), f"dec{i}/ln3")
    return h


class TestDropoutDraws:
    """A pass draws all its sublayers' dropout masks at once, from the stream
    that one draw per sublayer in turn would take."""

    def pass_bytes(self, batch, weights, rng, encoder, decoder):
        """Encoder output, decoder output and flat gradient of Σ decoder output, as bytes."""
        weights.zero_grad()
        x = tf.project_inputs(batch, weights)
        enc = encoder(batch, weights, rng, x)
        dec = decoder(batch, enc, weights, rng, x)
        ad.backward(ad.scalar(dec.data.sum(), [dec], [np.ones_like(dec.data)]))
        return enc.data.tobytes(), dec.data.tobytes(), weights.grad.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 48])
    def test_one_draw_per_pass_equals_a_draw_per_sublayer(self, n):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, dropout=0.25, heads=4, precision="f32")
        batch = whole_batch(random_dataset(np.random.default_rng(n), n, cfg.t, fitted), cfg)
        rngs = [np.random.default_rng([5, n]) for _ in range(2)]
        got = self.pass_bytes(batch, weights, rngs[0],
                              lambda b, w, r, x: tf.encoder_forward(b, w, rng=r, inputs=x),
                              lambda b, e, w, r, x: tf.decoder_forward(b, e, w, rng=r, inputs=x))
        ref = self.pass_bytes(batch, weights, rngs[1], reference_encoder, reference_decoder)
        assert got == ref
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_zero_dropout_with_an_rng_is_the_pass_without(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, dropout=0.0, precision="f32")
        batch = whole_batch(random_dataset(np.random.default_rng(11), 3, cfg.t, fitted), cfg)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        enc = tf.encoder_forward(batch, weights, rng=rng)
        assert tf.decoder_forward(batch, enc, weights, rng=rng).data.tobytes() == \
            tf.decoder_forward(batch, tf.encoder_forward(batch, weights), weights).data.tobytes()
        assert rng.bit_generator.state == state


class TestAttentionMasks:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9)),
           st.sampled_from([np.float32, np.float64]))
    def test_no_query_row_is_blocked(self, real, dtype):
        """Over any pad pattern, both masks keep a key open in every query row:
        a real query its own key, a pad query every key."""
        b, t = real.shape
        for mask in (tf.attention_mask(real, dtype), tf.attention_mask(real, dtype, causal=True)):
            assert mask.shape == (b, 1, t, t) and mask.dtype == dtype
            open_ = mask[:, 0] == 0.0
            assert (open_ | (mask[:, 0] == dtype(tf.NEG_INF))).all()
            assert open_.any(axis=-1).all()
            assert open_[:, np.arange(t), np.arange(t)][real].all()
            assert open_[~real].all()

    def test_heads_copy_the_mask_per_head_in_the_score_layout(self):
        """With heads, the mask is one copy per head, stored as attention's
        contiguous (tk, B, heads, tq) scores."""
        real = np.array([[False, True, True], [True, True, True]])
        for causal in (False, True):
            one = tf.attention_mask(real, np.float32, causal=causal)
            per_head = tf.attention_mask(real, np.float32, causal=causal, heads=3)
            assert per_head.shape == (2, 3, 3, 3) and per_head.transpose(3, 0, 1, 2).flags.c_contiguous
            assert (per_head == one).all()


class TestDecoderCausality:
    def test_causal_mask_lower_triangular(self):
        real = np.ones((1, 3), dtype=bool)
        mask = tf.attention_mask(real, np.float64, causal=True)
        allow = mask[0, 0] == 0.0
        np.testing.assert_array_equal(allow, np.tril(np.ones((3, 3), dtype=bool)))

    def test_perturbing_later_position_leaves_earlier_outputs(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        rng = np.random.default_rng(10)
        ds = make_dataset(fitted, cfg.t, ("a", rng.normal(size=cfg.t), rng.integers(1, 4, size=cfg.t)))
        batch = whole_batch(ds, cfg)
        enc = tf.encoder_forward(batch, weights)
        base = tf.decoder_forward(batch, enc, weights).data.copy()

        perturbed = whole_batch(ds, cfg)
        perturbed.nums = perturbed.nums.copy()
        perturbed.nums[0, 2, 0] += 1.0  # slot index 2 = position 3
        out = tf.decoder_forward(perturbed, enc, weights).data
        np.testing.assert_array_equal(out[0, :2], base[0, :2])
        assert np.abs(out[0, 2:] - base[0, 2:]).max() > 0

    def test_full_perturbation_sweep(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, t=5)
        rng = np.random.default_rng(11)
        ds = make_dataset(fitted, cfg.t, ("a", rng.normal(size=cfg.t), rng.integers(1, 4, size=cfg.t)))
        batch = whole_batch(ds, cfg)
        enc = tf.encoder_forward(batch, weights)
        base = tf.decoder_forward(batch, enc, weights).data.copy()
        for j in range(cfg.t):
            pert = whole_batch(ds, cfg)
            pert.nums = pert.nums.copy()
            pert.nums[0, j, 0] += 0.7
            out = tf.decoder_forward(pert, enc, weights).data
            np.testing.assert_array_equal(out[0, :j], base[0, :j])
            assert np.abs(out[0, j] - base[0, j]).max() > 0


class TestReconstructionHeads:
    def test_output_arity(self):
        fitted = tiny_fitted(n_num=2, vocab_sizes=(5,))
        cfg, weights = small_weights(fitted)
        batch = whole_batch(make_dataset(fitted, cfg.t, ("a", [[0.1, 0.3], [0.2, 0.4]], [1, 2])), cfg)
        dec = tf.decoder_forward(batch, tf.encoder_forward(batch, weights), weights)
        preds = tf.reconstruction_heads(dec, weights)
        assert preds["x0"].shape == (1, cfg.t, 1)
        assert preds["x1"].shape == (1, cfg.t, 1)
        assert preds["c0"].shape == (1, cfg.t, 6)

    def test_logits_finite(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        batch = whole_batch(random_dataset(np.random.default_rng(12), 3, cfg.t, fitted), cfg)
        dec = tf.decoder_forward(batch, tf.encoder_forward(batch, weights), weights)
        for pred in tf.reconstruction_heads(dec, weights).values():
            assert np.isfinite(pred.data).all()


class TestEmbed:
    def test_vector_length_is_emb_out(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, emb_out=16)
        ds = random_dataset(np.random.default_rng(13), 2, cfg.t, fitted)
        vecs = tf.embed(whole_batch(ds, cfg), weights)
        assert vecs.shape == (2, 16)
        assert tf.embed(tf.prepare_batch(ds, [], cfg), weights).shape == (0, 16)  # one empty tile

    def test_identical_sequences_identical_vectors(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        ds = make_dataset(fitted, cfg.t, ("a", [0.3, -0.2], [1, 2]), ("b", [0.3, -0.2], [1, 2]))
        va, vb = tf.embed(whole_batch(ds, cfg), weights)
        np.testing.assert_array_equal(va, vb)

    def test_batch_permutation_no_leakage(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        ds = random_dataset(np.random.default_rng(14), 5, cfg.t, fitted)
        recs = dict(zip(ds.entities, tf.embed(whole_batch(ds, cfg), weights)))
        perm = tf.prepare_batch(ds, np.arange(5)[::-1], cfg)
        recs_perm = dict(zip(perm.entities, tf.embed(perm, weights)))
        solo = {e: tf.embed(tf.prepare_batch(ds, [i], cfg), weights)[0] for i, e in enumerate(ds.entities)}
        for entity in recs:
            np.testing.assert_allclose(recs[entity], recs_perm[entity], atol=1e-12)
            np.testing.assert_allclose(recs[entity], solo[entity], atol=1e-12)

    def test_pad_invariance(self):
        """Whatever sits in the pad slots moves neither the embedding nor the decoder's real positions."""
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted, t=10)
        batch = whole_batch(random_dataset(np.random.default_rng(16), 4, cfg.t, fitted, max_len=7), cfg)
        noisy = fill_pad_slots(batch, np.random.default_rng(17), vocab_n=3)
        assert (noisy.nums != batch.nums).any()
        np.testing.assert_allclose(tf.embed(noisy, weights), tf.embed(batch, weights), atol=1e-6)
        dec = [tf.decoder_forward(b, tf.encoder_forward(b, weights), weights).data for b in (batch, noisy)]
        np.testing.assert_allclose(dec[1][batch.real], dec[0][batch.real], atol=1e-6)

    def test_all_pad_pools_to_zero(self):
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        batch = without_real_steps(whole_batch(make_dataset(fitted, cfg.t, ("a", [0.5], [1])), cfg))
        vec = tf.embed(batch, weights)[0]
        # pooled part is zero, so the vector equals the head applied to zeros
        zeros = np.zeros((1, cfg.hidden))
        h1 = np.maximum(zeros @ weights["emb_head/w1"].data + weights["emb_head/b1"].data, 0)
        expected = h1 @ weights["emb_head/w2"].data + weights["emb_head/b2"].data
        np.testing.assert_allclose(vec, expected[0], atol=1e-12)

    def test_mean_pool_matches_per_entity_loop(self):
        rng = np.random.default_rng(18)
        for dtype in (np.float32, np.float64):
            enc = Tensor(rng.normal(size=(6, 9, 4)).astype(dtype))
            real = rng.random((6, 9)) < 0.5
            real[0] = False
            reference = np.zeros((6, 4), dtype=dtype)
            for bi, row in enumerate(real):
                if row.any():
                    reference[bi] = enc.data[bi][row].mean(axis=0)
            pooled = tf._mean_pool(enc, SimpleNamespace(real=real))
            assert pooled.dtype == dtype and pooled.tobytes() == reference.tobytes()

    def test_statics_concatenated(self):
        fitted = tiny_fitted(statics=2)
        cfg, weights = small_weights(fitted)
        ds = make_dataset(fitted, cfg.t, ("a", [0.1], [1], (1.0, -1.0)), ("b", [0.1], [1], (0.0, 0.0)))
        v1, v2 = tf.embed(whole_batch(ds, cfg), weights)
        assert np.abs(v1 - v2).max() > 0

    def test_no_grad_matches_graph_path_and_builds_no_closures(self, monkeypatch):
        fitted = tiny_fitted(statics=1)
        cfg, weights = small_weights(fitted, precision="f32")
        batch = whole_batch(random_dataset(np.random.default_rng(15), 4, cfg.t, fitted, statics=1), cfg)
        made = []
        make = ad._make

        def recording_make(data, parents, backward_fn):
            made.append(make(data, parents, backward_fn))
            return made[-1]

        monkeypatch.setattr(ad, "_make", recording_make)
        fast = tf.embed(batch, weights)
        assert made and all(t._backward is None and t._parents == () for t in made)

        made.clear()
        monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
        graph = tf.embed(batch, weights)
        assert any(t._backward is not None for t in made)  # the reference did build a graph
        assert fast.shape == graph.shape and fast.tobytes() == graph.tobytes()


class TestWeights:
    """ModelWeights keeps every parameter as a view into one flat buffer."""

    @staticmethod
    def assert_views_of_flat(weights):
        offset = 0
        for _, p in weights.items():
            assert p.data.base is weights.flat
            assert np.shares_memory(p.data, weights.flat[offset:offset + p.data.size])
            offset += p.data.size
        assert offset == weights.flat.size

    def test_views_after_build_and_load(self):
        fitted = tiny_fitted(statics=1)
        cfg, weights = small_weights(fitted)
        self.assert_views_of_flat(weights)
        _, other = small_weights(fitted, seed=1)
        weights.flat[...] = other.flat
        self.assert_views_of_flat(weights)
        np.testing.assert_array_equal(weights["in_proj/w"].data, other["in_proj/w"].data)

    def test_constructor_packs_named_arrays(self):
        """ModelWeights lays a copy of a flat array out as the named tensors of the layout."""
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        again = tf.ModelWeights(cfg, fitted, weights.flat)
        assert list(again.params) == [name for name, _, _ in tf.layout(cfg, fitted)]
        assert not np.shares_memory(again.flat, weights.flat)
        for name, p in weights.items():
            np.testing.assert_array_equal(again[name].data, p.data)
        self.assert_views_of_flat(again)

    def test_missing_or_misshapen_tensor_rejected(self):
        """A flat array too short to hold every tensor, too long, or not 1-D is refused."""
        fitted = tiny_fitted()
        cfg, weights = small_weights(fitted)
        for flat in (weights.flat[:-1], np.append(weights.flat, 0.0), weights.flat[None]):
            with pytest.raises(ShapeMismatch, match="flat parameters"):
                tf.ModelWeights(cfg, fitted, flat)

    def test_build_draws_each_tensor_in_layout_order(self):
        """build_weights draws into views of one flat array what per-tensor draws in layout order give."""
        fitted = tiny_fitted(statics=1)
        cfg, weights = small_weights(fitted, precision="f32")
        rng = np.random.default_rng(0)
        for name, shape, init in tf.layout(cfg, fitted):
            if init == "xavier":
                bound = np.sqrt(6.0 / (shape[0] + shape[1]))
                arr = rng.uniform(-bound, bound, size=shape).astype(np.float32)
            elif init in ("table", "bias"):
                arr = rng.uniform(-0.05, 0.05, size=shape).astype(np.float32)
                if init == "table":
                    arr[0] = 0.0
            else:
                arr = (np.ones if init == "ones" else np.zeros)(shape, dtype=np.float32)
            assert weights[name].data.tobytes() == arr.tobytes(), name
