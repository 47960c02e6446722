"""Encoder-decoder sequence model over per-entity activity steps.

Each step is concat(position scalar, z-scored numerics, categorical
embeddings) projected into the hidden size. The encoder is a stack of
{self-attention, FFN} blocks, the decoder {causal self-attention, causal
cross-attention over the encoder output, FFN}; every sublayer is wrapped in
residual + post layer norm. Reconstruction heads emit one scalar per
numeric column and vocab+1 logits per categorical column at each position.
The embedding head mean-pools encoder output over non-pad positions,
concatenates the static attributes and applies two dense layers, which
pretraining never trains.

Inputs are ingest.SequenceDataset rows (see prepare_batch and tiles), with
padding on the oldest side. Pad and masked positions enter the model as
all-zero step vectors; pad positions alone are excluded from attention
keys, loss and pooling, so a masked step is still a key and is scored by
the loss. Positions are derived from each slot's place in the window,
anchored at the recent end: the latest real step is at 1.0 in any tile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import Tensor
from .errors import ConfigError, ContractViolation, NumericError, SchemaMismatch, check_field_types, too_large
from .ingest import SequenceDataset, embed_dim_for

NEG_INF = -1e9

# Entities per model pass. Per-entity cost grows with batch size once the
# (B, heads, t, t) attention arrays and the layer activations leave cache;
# on the default model, 128 was the fastest (or tied) of 32..512 for both a
# training step and embed. Every model pass runs on the row tiles of `tiles`.
TILE = 128


@dataclass
class ModelConfig:
    hidden: int = 16
    ff_dim: int = 32
    layers: int = 6
    heads: int = 8
    dropout: float = 0.1
    t: int = 15
    mask_p: float = 0.3
    emb_out: int = 16
    precision: str = "f32"

    def __post_init__(self):
        check_field_types(self)
        for name, least in (("hidden", 1), ("ff_dim", 1), ("heads", 1), ("emb_out", 1), ("layers", 0), ("t", 1)):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden ({self.hidden}) must be divisible by heads ({self.heads})")
        if not 0.0 <= self.mask_p <= 1.0:
            raise ConfigError(f"mask_p must be in [0, 1], got {self.mask_p}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.precision not in ad.DTYPES:
            raise ConfigError(f"precision must be one of {', '.join(ad.DTYPES)}, got {self.precision!r}")

    @property
    def dtype(self):
        return ad.DTYPES[self.precision]


def prepare_batch(dataset, idx, cfg):
    """Rows `idx` (an index array or a slice) of `dataset`, with nums and statics at cfg.precision."""
    t = dataset.real.shape[1]
    if t != cfg.t:
        raise SchemaMismatch(f"dataset was built with t={t}, the model expects t={cfg.t}")
    return SequenceDataset(dataset.fitted, dataset.entities[idx], dataset.real[idx], dataset.keep[idx],
                           dataset.nums[idx].astype(cfg.dtype), dataset.cats[idx],
                           dataset.statics[idx].astype(cfg.dtype))


def tiles(batch, workers=1):
    """(rows, tile) pairs that cover `batch` in tiles of at most
    min(TILE, ceil(B / workers)) entities.

    A batch no larger than that (an empty one too) is one tile, itself.
    A larger one is stable-sorted by real length, and each tile is
    batch[rows] cut to its last max(longest, 1) slots: pad sits on the oldest
    side and pad keys are blocked, so no real position's output changes.
    """
    n, t = batch.real.shape
    size = min(TILE, -(-n // workers))
    if n <= size:
        yield np.arange(n), batch
        return
    lengths = batch.real.sum(axis=1)
    for rows in np.split(np.argsort(lengths, kind="stable"), range(size, n, size)):
        cut = t - max(int(lengths[rows[-1]]), 1)
        real, keep, nums, cats = (a[rows, cut:] for a in (batch.real, batch.keep, batch.nums, batch.cats))
        yield rows, SequenceDataset(batch.fitted, batch.entities[rows], real, keep, nums, cats, batch.statics[rows])


def layout(cfg, fitted):
    """(name, shape, init) for every learnable tensor, in the fixed parameter order.

    init is "table" (embedding), "xavier" (weight), "bias", "ones" or "zeros".
    """
    h, f = cfg.hidden, cfg.ff_dim
    for col in fitted.seq_categorical_cols:
        yield f"emb/{col}", (len(fitted.vocab[col]) + 1, embed_dim_for(len(fitted.vocab[col]))), "table"
    yield "in_proj/w", (fitted.step_width, h), "xavier"
    yield "in_proj/b", (h,), "bias"

    def attn_block(prefix):
        for name in ("wq", "wk", "wv", "wo"):
            yield f"{prefix}/{name}", (h, h), "xavier"

    def ffn_block(prefix):
        yield f"{prefix}/w1", (h, f), "xavier"
        yield f"{prefix}/b1", (f,), "bias"
        yield f"{prefix}/w2", (f, h), "xavier"
        yield f"{prefix}/b2", (h,), "bias"

    def norm_block(prefix):
        yield f"{prefix}/g", (h,), "ones"
        yield f"{prefix}/b", (h,), "zeros"

    for i in range(cfg.layers):
        yield from attn_block(f"enc{i}/attn")
        yield from norm_block(f"enc{i}/ln1")
        yield from ffn_block(f"enc{i}/ffn")
        yield from norm_block(f"enc{i}/ln2")
    for i in range(cfg.layers):
        yield from attn_block(f"dec{i}/self")
        yield from norm_block(f"dec{i}/ln1")
        yield from attn_block(f"dec{i}/cross")
        yield from norm_block(f"dec{i}/ln2")
        yield from ffn_block(f"dec{i}/ffn")
        yield from norm_block(f"dec{i}/ln3")

    for col in fitted.seq_numeric_cols:
        yield f"head/num/{col}/w", (h, 1), "xavier"
        yield f"head/num/{col}/b", (1,), "bias"
    for col in fitted.seq_categorical_cols:
        n_out = len(fitted.vocab[col]) + 1
        yield f"head/cat/{col}/w", (h, n_out), "xavier"
        yield f"head/cat/{col}/b", (n_out,), "bias"

    s = fitted.statics_width
    yield "emb_head/w1", (h + s, cfg.emb_out), "xavier"
    yield "emb_head/b1", (cfg.emb_out,), "bias"
    yield "emb_head/w2", (cfg.emb_out, cfg.emb_out), "xavier"
    yield "emb_head/b2", (cfg.emb_out,), "bias"


class ModelWeights(ad.FlatParams):
    """The model's named parameters, as views into a copy of `flat` at the
    model's precision; `flat` holds every tensor of layout(cfg, fitted) in order."""

    def __init__(self, cfg, fitted, flat):
        self.cfg = cfg
        self.fitted = fitted
        shapes = [(name, shape) for name, shape, _ in layout(cfg, fitted)]
        super().__init__(shapes, np.asarray(flat, dtype=cfg.dtype))


def build_weights(cfg, fitted, rng):
    """Initialize all learnable tensors (Xavier linear, +-0.05 embeddings).

    Linear biases get the same small uniform noise as embeddings: a fully
    masked (all-zero) sequence then produces rows with nonzero per-row
    variance, keeping every layer norm away from its zero-variance point
    where backward gradients blow up as 1/sqrt(eps) per norm. Each tensor
    is drawn into its view of the flat array, in layout order.
    """
    size = sum(math.prod(shape) for _, shape, _ in layout(cfg, fitted))
    with too_large(f"a model of {size} parameters"):
        flat = np.zeros(size, dtype=cfg.dtype)
    weights = ModelWeights(cfg, fitted, flat)
    for name, shape, init in layout(cfg, fitted):
        arr = weights[name].data
        if init == "xavier":
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            arr[...] = rng.uniform(-bound, bound, size=shape)
        elif init in ("table", "bias"):
            arr[...] = rng.uniform(-0.05, 0.05, size=shape)
            if init == "table":
                arr[0] = 0.0  # padding/OOV row starts at zero, stays trainable
        elif init == "ones":
            arr[...] = 1.0
    return weights


def project_inputs(batch, weights):
    """Step vectors, slot j of w at position (t - w + j + 1) / t, projected into the hidden size."""
    fitted, cfg = weights.fitted, weights.cfg
    if batch.nums.shape[2] != len(fitted.seq_numeric_cols) or batch.cats.shape[2] != len(fitted.seq_categorical_cols):
        raise SchemaMismatch(
            f"batch has {batch.nums.shape[2]} numeric / {batch.cats.shape[2]} categorical columns, "
            f"weights expect {len(fitted.seq_numeric_cols)} / {len(fitted.seq_categorical_cols)}"
        )
    if batch.nums.dtype != cfg.dtype:
        raise ContractViolation(f"rows hold {batch.nums.dtype} numbers, the model runs at {cfg.precision}")
    n, w = batch.real.shape
    if w > cfg.t:  # a window wider than the model's has no position for its oldest slots
        raise SchemaMismatch(f"rows have {w} slots, the model expects t={cfg.t}")
    pos = ((np.arange(cfg.t - w, cfg.t) + 1) / cfg.t).astype(cfg.dtype)
    tables = [weights[f"emb/{col}"] for col in fitted.seq_categorical_cols]
    # pad and masked slots enter as zero rows, and their gradients die there too
    x = ad.embedding([np.broadcast_to(pos[:, None], (n, w, 1)), batch.nums], tables, batch.cats, batch.keep)
    return ad.matmul(x, weights["in_proj/w"], weights["in_proj/b"])


def multi_head(h, context, mask, layer, heads):
    """Q/K/V projections, fused multi-head attention, W^O.

    `mask` comes from attention_mask.
    """
    q = ad.matmul(h, layer["wq"])
    k = ad.matmul(context, layer["wk"])
    v = ad.matmul(context, layer["wv"])
    return ad.matmul(ad.attention(q, k, v, mask, heads), layer["wo"])


def _layer_weights(weights, prefix):
    return {name: weights[f"{prefix}/{name}"] for name in ("wq", "wk", "wv", "wo")}


def _dropout_keeps(rng, p, n, shape, dtype):
    """The dropout keep masks of a pass's `n` sublayers in order, scaled by
    1/(1-p): one (n, *shape) array, or n Nones without an rng or at p = 0.

    They are one rng.random((n, *shape)) draw, which takes the stream that
    n draws of `shape` in turn would, so each sublayer gets the same mask.
    """
    if rng is None or p == 0.0:
        return [None] * n
    keep = (rng.random((n, *shape)) >= p).astype(dtype)
    keep /= 1.0 - p
    return keep


def _sublayer(x, out, weights, ln_prefix, keep):
    """Dropout on the sublayer output by `keep`, one of _dropout_keeps, residual add
    and post layer norm, as one node."""
    return ad.layer_norm(x, weights[f"{ln_prefix}/g"], weights[f"{ln_prefix}/b"], residual=out, keep=keep)


def _ffn(x, weights, prefix):
    inner = ad.relu(ad.matmul(x, weights[f"{prefix}/w1"], weights[f"{prefix}/b1"]))
    return ad.matmul(inner, weights[f"{prefix}/w2"], weights[f"{prefix}/b2"])


def attention_mask(real, dtype, causal=False, heads=1):
    """(B, heads, t, t) additive mask at `dtype` that every layer reuses: pad
    keys blocked, and with `causal` every later key too; pad queries left open.

    A pass builds it once with the model's heads. It is a view of one copy
    per head laid out as attention's (tk, B, heads, tq) scores, so that each
    layer adds it in place without broadcasting.
    No query row is ever fully blocked: a real query keeps its own key open
    (it is on the diagonal) and a pad query keeps every key open.
    """
    b, t = real.shape
    keys = np.broadcast_to(real.T[:, :, None], (t, b, t))  # [key, entity, query]
    if causal:
        keys = keys & np.triu(np.ones((t, t), dtype=bool))[:, None, :]
    mask = np.where(keys | ~real, 0.0, NEG_INF).astype(dtype)
    return np.repeat(mask[:, :, None], heads, axis=2).transpose(1, 2, 3, 0)


def encoder_forward(batch, weights, rng=None, inputs=None):
    """Stack of {self-attention, FFN} blocks over the projected input.

    Dropout runs exactly when `rng` is given, with masks drawn once for the
    pass. `inputs` is project_inputs(batch, weights) when the caller has it
    already; the decoder starts from the same projection.
    """
    cfg = weights.cfg
    h = project_inputs(batch, weights) if inputs is None else inputs
    mask = attention_mask(batch.real, h.dtype, heads=cfg.heads)
    keeps = iter(_dropout_keeps(rng, cfg.dropout, 2 * cfg.layers, h.shape, h.dtype))
    for i in range(cfg.layers):
        attn = multi_head(h, h, mask, _layer_weights(weights, f"enc{i}/attn"), cfg.heads)
        h = _sublayer(h, attn, weights, f"enc{i}/ln1", next(keeps))
        h = _sublayer(h, _ffn(h, weights, f"enc{i}/ffn"), weights, f"enc{i}/ln2", next(keeps))
    return h


def decoder_forward(batch, encoder_out, weights, rng=None, inputs=None):
    """Causal self-attention, causal cross-attention over encoder output, FFN;
    dropout runs exactly when `rng` is given, with masks drawn once for the pass."""
    cfg = weights.cfg
    h = project_inputs(batch, weights) if inputs is None else inputs
    mask = attention_mask(batch.real, h.dtype, causal=True, heads=cfg.heads)
    keeps = iter(_dropout_keeps(rng, cfg.dropout, 3 * cfg.layers, h.shape, h.dtype))
    for i in range(cfg.layers):
        self_attn = multi_head(h, h, mask, _layer_weights(weights, f"dec{i}/self"), cfg.heads)
        h = _sublayer(h, self_attn, weights, f"dec{i}/ln1", next(keeps))
        cross = multi_head(h, encoder_out, mask, _layer_weights(weights, f"dec{i}/cross"), cfg.heads)
        h = _sublayer(h, cross, weights, f"dec{i}/ln2", next(keeps))
        h = _sublayer(h, _ffn(h, weights, f"dec{i}/ffn"), weights, f"dec{i}/ln3", next(keeps))
    return h


def reconstruction_heads(decoder_out, weights):
    """Per-column predictions: scalars for numerics, logits for categoricals."""
    fitted = weights.fitted
    preds = {}
    for col in fitted.seq_numeric_cols:
        preds[col] = ad.matmul(decoder_out, weights[f"head/num/{col}/w"], weights[f"head/num/{col}/b"])
    for col in fitted.seq_categorical_cols:
        preds[col] = ad.matmul(decoder_out, weights[f"head/cat/{col}/w"], weights[f"head/cat/{col}/b"])
    return preds


def _mean_pool(enc, batch):
    """Mean of the encoder output over each entity's real positions; an all-pad entity pools to zero."""
    real = batch.real[..., None]
    return (enc.data * real).sum(axis=1) / np.maximum(real.sum(axis=1), 1).astype(enc.dtype)


def _embed_tile(weights, batch):
    """Entity vectors of one tile: pool encoder output, join statics, 2 dense layers."""
    with ad.no_grad():
        pooled = _mean_pool(encoder_forward(batch, weights), batch)
        joined = Tensor(np.concatenate([pooled, batch.statics], axis=1))
        hidden = ad.relu(ad.matmul(joined, weights["emb_head/w1"], weights["emb_head/b1"]))
        return ad.matmul(hidden, weights["emb_head/w2"], weights["emb_head/b2"]).data


def embed(batch, weights):
    """Inference-mode entity vectors, a (B, emb_out) array in batch row order.

    The tiles of tiles(batch) run under ad.no_grad(), so they build no
    backward graph, on a WorkerPool of min(#tiles, parallel.MAX_CORES) workers.
    Each tile is the same pass wherever it runs, so the output does not
    depend on the core count.
    """
    rows, cut = zip(*tiles(batch))
    workers = min(len(cut), parallel.MAX_CORES)
    # forked workers hold the tiles through fork, so a job is only a tile's index
    with parallel.WorkerPool(lambda i: _embed_tile(weights, cut[i]), workers) as pool:
        parts = pool.run([(i,) for i in range(len(cut))])
    out = np.concatenate(parts)[np.argsort(np.concatenate(rows))]
    if not np.isfinite(out).all():
        raise NumericError("embedding head produced non-finite values")
    return out
