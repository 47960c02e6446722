"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (the summary lines bypass
output capture). The heavyweight pipeline (2000 entities, 30 epochs) is
shared between the representation-contrast and loss-descent criteria.
"""
import math
import os
import time

import numpy as np
import pytest

from caspr import ingest, metrics, pretrain, rfm, synthgen, transformer as tf
from caspr.cli import evaluate_features
from caspr.pretrain import TrainConfig, apply_mask, compute_gradients, load_checkpoint, save_checkpoint, train
from caspr.transformer import ModelConfig

from records import chunks, rfm_events
from test_rfm import EVENTS, EXPECTED, REFERENCE
from test_transformer import fill_pad_slots


def report(capfd, num, name, passed, detail=""):
    with capfd.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[criterion {num}] {name}: {status}{'  ' + detail if detail else ''}")


def load_synth(cfg, t):
    rows, labels = synthgen.generate_rows(cfg)
    schema = ingest.Schema.from_json(synthgen.SCHEMA_JSON)
    raw = [{k: str(v) for k, v in r.items()} for r in rows]
    fitted = ingest.fit_schema(chunks(raw, schema), schema)
    return ingest.build_dataset(chunks(raw, schema), fitted, t), labels, raw


# ---------------------------------------------------------------------- 1

def test_criterion_1_gradient_correctness(capfd):
    start = time.perf_counter()
    ds, _, _ = load_synth(synthgen.SynthConfig(
        n_entities=8, seed=1, item_vocab=5, channel_vocab=3,
        t_mean=4.0, min_len=2, max_len=6), t=5)
    cfg = ModelConfig(hidden=4, ff_dim=8, layers=2, heads=2, t=5,
                      dropout=0.0, emb_out=4, precision="f64")
    weights = tf.build_weights(cfg, ds.fitted, np.random.default_rng(0))
    batch = tf.prepare_batch(ds, slice(None), cfg)
    masked, _ = apply_mask(batch, 0.3, np.random.default_rng(1))

    def loss_value():
        enc = tf.encoder_forward(masked, weights)
        dec = tf.decoder_forward(masked, enc, weights)
        preds = tf.reconstruction_heads(dec, weights)
        return float(pretrain.reconstruction_loss(preds, masked).data)

    grads = weights.views(compute_gradients(weights, masked)[0])

    h = 1e-5
    worst = 0.0
    n_params = 0
    for name, p in weights.items():
        analytic = grads[name]
        for i in range(p.data.size):
            orig = p.data.flat[i]
            p.data.flat[i] = orig + h
            lp = loss_value()
            p.data.flat[i] = orig - h
            lm = loss_value()
            p.data.flat[i] = orig
            numeric = (lp - lm) / (2 * h)
            rel = abs(analytic.flat[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
            n_params += 1
    elapsed = time.perf_counter() - start

    ok = worst < 1e-4 and elapsed < 60.0
    report(capfd, 1, "gradient correctness", ok,
           f"max rel err {worst:.2e} over {n_params} params in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


# ------------------------------------------------------------------- 2, 4

PIPELINE_EPOCHS = 30
PIPELINE_TRAIN = dict(epochs=PIPELINE_EPOCHS, seed=0, batch_size=48)


@pytest.fixture(scope="module")
def pipeline2000():
    """Criterion-2 dataset and its complete pretraining run."""
    ds, labels, raw = load_synth(synthgen.SynthConfig(n_entities=2000, seed=7), t=15)
    start = time.perf_counter()
    ck, log = train(ds, ModelConfig(), TrainConfig(**PIPELINE_TRAIN))
    train_seconds = time.perf_counter() - start

    weights = tf.build_weights(ck.model_cfg, ck.fitted, np.random.default_rng(0))
    weights.flat[...] = ck.flat
    features = np.concatenate([tf.embed(tf.prepare_batch(ds, slice(s, s + 512), ck.model_cfg), weights)
                               for s in range(0, len(ds.entities), 512)])
    y = np.array([labels[e] for e in ds.entities], dtype=np.float64)

    by_entity = {}
    for r in raw:
        by_entity.setdefault(r["entity"], []).append((int(r["ts"]), float(r["amount"])))
    entities, rfm_features = rfm.rfm_table(rfm_events(by_entity))
    rfm_y = np.array([labels[e] for e in entities], dtype=np.float64)

    return {"dataset": ds, "log": log, "train_seconds": train_seconds,
            "features": features, "y": y,
            "rfm_features": rfm_features, "rfm_y": rfm_y}


def test_criterion_2_representation_contrast(capfd, pipeline2000):
    p = pipeline2000
    caspr_auroc = evaluate_features(p["features"], p["y"], "binary", seed=0)["auroc"]
    rfm_auroc = evaluate_features(p["rfm_features"], p["rfm_y"], "binary", seed=0)["auroc"]
    total = p["train_seconds"]
    ok = caspr_auroc >= 0.80 and rfm_auroc <= 0.60 and total < 600.0
    report(capfd, 2, "representation contrast", ok,
           f"embedding AUROC {caspr_auroc:.3f} (>=0.80), RFM AUROC {rfm_auroc:.3f} (<=0.60), "
           f"{PIPELINE_EPOCHS} epochs in {total:.0f}s")
    assert caspr_auroc >= 0.80
    assert rfm_auroc <= 0.60
    assert total < 600.0


def test_criterion_4_loss_descent_and_repeatability(capfd, pipeline2000):
    p = pipeline2000
    losses = [l for _, l, _ in p["log"]]
    ratio = losses[-1] / losses[0]
    # same seed, same data: the first epochs of a rerun must match exactly
    _, prefix_log = train(p["dataset"], ModelConfig(),
                          TrainConfig(**{**PIPELINE_TRAIN, "epochs": 3}))
    repeat_ok = [l for _, l, _ in prefix_log] == losses[:3]
    ok = ratio <= 0.5 and repeat_ok
    report(capfd, 4, "loss descent", ok,
           f"epoch-mean loss {losses[0]:.3f} -> {losses[-1]:.3f} (ratio {ratio:.3f}) "
           f"within {len(losses)} epochs; rerun prefix identical: {repeat_ok}")
    assert ratio <= 0.5
    assert repeat_ok


# ---------------------------------------------------------------------- 3

def test_criterion_3_masking_statistics(capfd):
    ds, _, _ = load_synth(synthgen.SynthConfig(n_entities=7000, seed=2, min_len=15, max_len=15),
                          t=15)
    cfg = ModelConfig()
    batch = tf.prepare_batch(ds, slice(None), cfg)
    _, plan = apply_mask(batch, 0.3, np.random.default_rng(0))
    positions = int(batch.real.sum())
    rate = plan.sum() / positions
    ok = positions >= 100_000 and 0.29 <= rate <= 0.31
    report(capfd, 3, "masking statistics", ok,
           f"empirical rate {rate:.4f} over {positions} non-pad positions")
    assert positions >= 100_000
    assert 0.29 <= rate <= 0.31


# ---------------------------------------------------------------------- 5

def test_criterion_5_data_parallel_equivalence(capfd):
    start = time.perf_counter()
    ds, _, _ = load_synth(synthgen.SynthConfig(n_entities=32, seed=4), t=8)
    cfg = ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=8, dropout=0.0,
                      emb_out=8, precision="f64")
    weights = tf.build_weights(cfg, ds.fitted, np.random.default_rng(3))
    batch = tf.prepare_batch(ds, slice(None), cfg)
    masked, plan = apply_mask(batch, 0.3, np.random.default_rng(5))
    full_grads = weights.views(compute_gradients(weights, masked)[0])

    worst = 0.0
    for w in (2, 4):
        combined = None
        den_total = 0.0
        parts = []
        for shard in np.array_split(np.arange(len(ds.entities)), w):
            sub = tf.prepare_batch(ds, shard, cfg).masked(plan[shard])
            grad, _, den = compute_gradients(weights, sub)
            parts.append((weights.views(grad), den))
            den_total += den
        for grads, den in parts:
            scale = den / den_total
            if combined is None:
                combined = {k: g * scale for k, g in grads.items()}
            else:
                for k, g in grads.items():
                    combined[k] += g * scale
        for name in full_grads:
            worst = max(worst, float(np.abs(combined[name] - full_grads[name]).max()))
    grad_ok = worst < 1e-9

    # the live multi-process path must reproduce serial training at f64
    _, serial_log = train(ds, cfg, TrainConfig(epochs=2, seed=6, batch_size=16))
    _, par_log = train(ds, cfg, TrainConfig(epochs=2, seed=6, batch_size=16, workers=2))
    live_ok = all(abs(a[1] - b[1]) < 1e-9 for a, b in zip(serial_log, par_log))

    elapsed = time.perf_counter() - start
    ok = grad_ok and live_ok and elapsed < 300.0
    report(capfd, 5, "data-parallel gradient equivalence", ok,
           f"max grad diff {worst:.2e} (W=2,4); parallel==serial loss: {live_ok}; {elapsed:.0f}s")
    assert grad_ok
    assert live_ok
    assert elapsed < 300.0


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup clause is defined for hosts with >=4 cores")
def test_criterion_5_scaling_speedup(capfd):
    start = time.perf_counter()
    bench_ds, _, _ = load_synth(synthgen.SynthConfig(n_entities=2048, seed=3), t=15)
    times = {}
    for w in (1, 4):
        _, log = train(bench_ds, ModelConfig(),
                       TrainConfig(epochs=2, seed=0, batch_size=512, workers=w))
        times[w] = min(wall for _, _, wall in log)
    speedup = times[1] / times[4]
    worker_time_up = 4 * times[4] > times[1]
    elapsed = time.perf_counter() - start
    ok = speedup >= 1.8 and worker_time_up and elapsed < 300.0
    report(capfd, 5, "data-parallel scaling", ok,
           f"4-worker speedup x{speedup:.2f} (>=1.8), total worker-time rises: "
           f"{worker_time_up}; {elapsed:.0f}s")
    assert speedup >= 1.8
    assert worker_time_up
    assert elapsed < 300.0


# ---------------------------------------------------------------------- 6

def test_criterion_6_metric_oracles(capfd):
    checks = []
    checks.append(abs(metrics.auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) < 1e-9)
    checks.append(abs(metrics.auroc([0.5] * 4, [0, 1, 0, 1]) - 0.5) < 1e-9)
    checks.append(abs(metrics.f1_positive([0.9, 0.9, 0.1], [1, 0, 0]) - 2.0 / 3.0) < 1e-9)
    checks.append(abs(metrics.rmse([1.0, 2.0], [3.0, 2.0]) - math.sqrt(2.0)) < 1e-9)
    rep = metrics.ranking_metrics(
        [metrics.RankingCase(ranked_items=["a", "b", "c"], relevant={"a", "c"})])
    ndcg_expected = (1.0 + 0.5) / (1.0 + 1.0 / math.log2(3.0))
    checks.append(abs(rep["ndcg_at_3"] - ndcg_expected) < 1e-9)
    rep1 = metrics.ranking_metrics(
        [metrics.RankingCase(ranked_items=["a", "b", "c", "d", "e"], relevant={"a"})])
    checks.append(all(abs(rep1[k] - 1.0) < 1e-9
                      for k in ("map", "prec_at_1", "success5_count", "ndcg_at_3")))
    ok = all(checks)
    report(capfd, 6, "metric oracles", ok,
           f"AUROC 0.75 fixture, NDCG@3 {rep['ndcg_at_3']:.4f} (~0.9197), all exact to 1e-9")
    assert ok


# ---------------------------------------------------------------------- 7

def test_criterion_7_causality_and_pad_invariance(capfd):
    worst_causal = 0.0
    worst_pad = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        hidden = int(rng.choice([4, 8]))
        heads = int(rng.choice([1, 2]))
        layers = int(rng.integers(1, 3))
        t = int(rng.integers(4, 9))
        cfg = ModelConfig(hidden=hidden, ff_dim=2 * hidden, layers=layers, heads=heads,
                          t=t, dropout=0.0, emb_out=4, precision="f64")
        fitted = ingest.FittedSchema(
            ingest.Schema([ingest.ColumnSpec("entity", "entity_id"),
                           ingest.ColumnSpec("ts", "timestamp"),
                           ingest.ColumnSpec("x", "numerical"),
                           ingest.ColumnSpec("c", "categorical")]),
            vocab={"c": ["a", "b", "c"]}, means={"x": 0.0}, stds={"x": 1.0})
        weights = tf.build_weights(cfg, fitted, rng)

        def batch_of(values, codes):
            records = [{"entity": "e", "ts": str(i), "x": repr(float(v)), "c": "abc"[c - 1]}
                       for i, (v, c) in enumerate(zip(values, codes))]
            dataset = ingest.build_dataset(chunks(records, fitted.schema), fitted, t)
            return tf.prepare_batch(dataset, slice(None), cfg)

        values = rng.normal(size=t)
        codes = rng.integers(1, 4, size=t)
        batch = batch_of(values, codes)
        enc = tf.encoder_forward(batch, weights)
        base = tf.decoder_forward(batch, enc, weights).data

        for j in range(t):
            pert = batch_of(values, codes)
            pert.nums = pert.nums.copy()
            pert.nums[0, j, 0] += 0.5
            out = tf.decoder_forward(pert, enc, weights).data
            if j > 0:
                worst_causal = max(worst_causal, float(np.abs(out[0, :j] - base[0, :j]).max()))

        # random content in the pad slots must move neither the embedding nor
        # the decoder output at real positions
        k = max(1, t - 2)
        short = batch_of(values[:k], codes[:k])
        noisy = fill_pad_slots(short, rng, vocab_n=3)
        va = tf.embed(short, weights)[0]
        vb = tf.embed(noisy, weights)[0]
        dec_a = tf.decoder_forward(short, tf.encoder_forward(short, weights), weights).data[short.real]
        dec_b = tf.decoder_forward(noisy, tf.encoder_forward(noisy, weights), weights).data[short.real]
        worst_pad = max(worst_pad, float(np.abs(va - vb).max()), float(np.abs(dec_a - dec_b).max()))

    ok = worst_causal < 1e-9 and worst_pad < 1e-6
    report(capfd, 7, "causality and pad invariance", ok,
           f"10 seeds: max causal leak {worst_causal:.2e} (<1e-9), "
           f"max pad drift {worst_pad:.2e} (<1e-6)")
    assert worst_causal < 1e-9
    assert worst_pad < 1e-6


# ---------------------------------------------------------------------- 8

def test_criterion_8_checkpoint_roundtrip_and_resume(capfd, tmp_path):
    ds, _, _ = load_synth(synthgen.SynthConfig(n_entities=24, seed=9), t=8)
    cfg = ModelConfig(hidden=8, ff_dim=16, layers=2, heads=2, t=8, emb_out=8)
    full_ck, full_log = train(ds, cfg, TrainConfig(epochs=6, seed=2, batch_size=12))

    half_ck, half_log = train(ds, cfg, TrainConfig(epochs=3, seed=2, batch_size=12))
    path = tmp_path / "half.bin"
    save_checkpoint(half_ck, path)
    loaded = load_checkpoint(path)

    bitwise = all(a.tobytes() == b.tobytes() and a.dtype == b.dtype
                  for a, b in zip((loaded.flat, *loaded.moments), (half_ck.flat, *half_ck.moments)))

    _, rest_log = train(ds, cfg, TrainConfig(epochs=6, seed=2, batch_size=12), init=loaded)
    resumed = [l for _, l, _ in half_log] + [l for _, l, _ in rest_log]
    uninterrupted = [l for _, l, _ in full_log]
    resume_ok = resumed == uninterrupted

    ok = bitwise and resume_ok
    report(capfd, 8, "checkpoint roundtrip", ok,
           f"bitwise identity: {bitwise}; resumed loss log identical: {resume_ok}")
    assert bitwise
    assert resume_ok


# ---------------------------------------------------------------------- 9

def test_criterion_9_rfm_fixture(capfd):
    entities, matrix = rfm.rfm_table(rfm_events(EVENTS), REFERENCE)
    worst = max(float(np.abs(vec - np.array(EXPECTED[entity])).max()) for entity, vec in zip(entities, matrix))
    ok = worst < 1e-9
    report(capfd, 9, "RFM fixture", ok, f"3-entity fixture max abs diff {worst:.2e}")
    assert worst < 1e-9
