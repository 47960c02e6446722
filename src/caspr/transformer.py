"""Encoder-decoder sequence model over per-entity activity steps.

Each step is concat(position scalar, z-scored numerics, categorical
embeddings) projected into the hidden size. The encoder is a stack of
{self-attention, FFN} blocks, the decoder {causal self-attention, causal
cross-attention over the encoder output, FFN}; every sublayer is wrapped in
residual + post layer norm. Reconstruction heads emit one scalar per
numeric column and vocab+1 logits per categorical column at each position.
The embedding head mean-pools encoder output over non-pad positions,
concatenates the static attributes and applies two dense layers.

Padding sits on the oldest side; pad (and masked) positions enter the model
as all-zero step vectors and are excluded from attention keys, loss and
pooling. Position scalars are anchored at the recent end, so the latest
real step always carries scalar 1.0 regardless of pad length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericError, SchemaMismatch

NEG_INF = -1e9

# Entities per model pass. Per-entity cost grows with batch size once the
# (B, heads, t, t) attention arrays and the layer activations leave cache;
# on the default model, 128 was the fastest (or tied) of 32..512 for both a
# training step and embed. Every model pass runs in row tiles (Batch.tiles).
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
        for name, least in (("hidden", 1), ("ff_dim", 1), ("heads", 1), ("emb_out", 1), ("layers", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden ({self.hidden}) must be divisible by heads ({self.heads})")
        if not 0.0 <= self.mask_p <= 1.0:
            raise ConfigError(f"mask_p must be in [0, 1], got {self.mask_p}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not isinstance(self.precision, str) or self.precision not in ad.DTYPES:
            raise ConfigError(f"precision must be one of {', '.join(ad.DTYPES)}, got {self.precision!r}")

    @property
    def d_k(self):
        return self.hidden // self.heads

    @property
    def dtype(self):
        return ad.DTYPES[self.precision]


@dataclass
class Batch:
    """Model-ready rows of a SequenceDataset at the model's dtype."""

    entities: np.ndarray  # (B,) entity ids
    pos: np.ndarray       # (B, t) position scalar per slot, 0 at pad
    nums: np.ndarray      # (B, t, n_num) z-scored values, 0 at pad
    cats: np.ndarray      # (B, t, n_cat) int codes, 0 at pad
    real: np.ndarray      # (B, t) bool, True where a real step sits
    keep: np.ndarray      # (B, t) float, 1 where the model may see the step
    statics: np.ndarray   # (B, s)

    def masked(self, plan):
        """The batch with the planned real positions hidden: keep = real & ~plan."""
        keep = (self.real & ~plan).astype(self.keep.dtype)
        return Batch(self.entities, self.pos, self.nums, self.cats, self.real, keep, self.statics)

    def tiles(self, workers=1):
        """(rows, tile) pairs that cover the batch in tiles of at most
        min(TILE, ceil(B / workers)) entities.

        A batch no larger than that (an empty one too) is one tile, itself.
        A larger one is stable-sorted by real length, and each tile is
        batch[rows] cut to its last max(longest, 1) slots: pad sits on the oldest
        side and pad keys are blocked, so no real position's output changes.
        """
        n, t = self.real.shape
        size = min(TILE, -(-n // workers))
        if n <= size:
            yield np.arange(n), self
            return
        lengths = self.real.sum(axis=1)
        for rows in np.split(np.argsort(lengths, kind="stable"), range(size, n, size)):
            cut = t - max(int(lengths[rows[-1]]), 1)
            trim = (a[rows, cut:] for a in (self.pos, self.nums, self.cats, self.real, self.keep))
            yield rows, Batch(self.entities[rows], *trim, self.statics[rows])


def prepare_batch(dataset, idx, cfg):
    """Gather rows `idx` (an index array or a slice) of `dataset` at cfg.precision.

    Real steps occupy the trailing slots; slot i (1-based) carries position
    scalar i/t, so the most recent step is always at scalar 1.0.
    """
    t = dataset.real.shape[1]
    if t != cfg.t:
        raise SchemaMismatch(f"dataset was built with t={t}, the model expects t={cfg.t}")
    dtype = cfg.dtype
    real = dataset.real[idx]
    pos = real * ((np.arange(t) + 1) / t)
    return Batch(
        entities=dataset.entities[idx],
        pos=pos.astype(dtype),
        nums=dataset.nums[idx].astype(dtype),
        cats=dataset.cats[idx],
        real=real,
        keep=real.astype(dtype),
        statics=dataset.statics[idx].astype(dtype),
    )


def layout(cfg, fitted):
    """(name, shape, init) for every learnable tensor, in the fixed parameter order.

    init is "table" (embedding), "xavier" (weight), "bias", "ones" or "zeros".
    """
    h, f = cfg.hidden, cfg.ff_dim
    for col in fitted.seq_categorical_cols:
        yield f"emb/{col}", (len(fitted.vocab[col]) + 1, fitted.embed_dims[col]), "table"
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
    weights = ModelWeights(cfg, fitted, np.zeros(size, dtype=cfg.dtype))
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
    """Assemble step vectors and project them into the hidden size."""
    fitted, cfg = weights.fitted, weights.cfg
    if batch.nums.shape[2] != len(fitted.seq_numeric_cols) or batch.cats.shape[2] != len(fitted.seq_categorical_cols):
        raise SchemaMismatch(
            f"batch has {batch.nums.shape[2]} numeric / {batch.cats.shape[2]} categorical columns, "
            f"weights expect {len(fitted.seq_numeric_cols)} / {len(fitted.seq_categorical_cols)}"
        )
    parts = [Tensor(batch.pos[..., None]), Tensor(batch.nums)]
    for ci, col in enumerate(fitted.seq_categorical_cols):
        parts.append(ad.embedding(weights[f"emb/{col}"], batch.cats[..., ci]))
    x = ad.concat(parts, axis=2) if len(parts) > 1 else parts[0]
    # zero out pad and masked slots in one stroke, killing their gradients too
    keep = np.broadcast_to(batch.keep[..., None], x.shape).astype(x.dtype)
    x = ad.mul(x, keep)
    return ad.matmul(x, weights["in_proj/w"], weights["in_proj/b"])


def multi_head(h, context, mask, layer, heads):
    """Q/K/V projections, fused multi-head attention, W^O.

    `mask` comes from encoder_mask or causal_mask (or is None).
    """
    q = ad.matmul(h, layer["wq"])
    k = ad.matmul(context, layer["wk"])
    v = ad.matmul(context, layer["wv"])
    return ad.matmul(ad.attention(q, k, v, mask, heads), layer["wo"])


def _layer_weights(weights, prefix):
    return {name: weights[f"{prefix}/{name}"] for name in ("wq", "wk", "wv", "wo")}


def _sublayer(x, out, weights, ln_prefix, p, rng):
    """Dropout on the sublayer output when an rng is given, residual add and post layer norm, as one node."""
    keep = None
    if rng is not None and p > 0.0:
        keep = (rng.random(out.shape) >= p).astype(out.dtype) / (1.0 - p)
    return ad.layer_norm(x, weights[f"{ln_prefix}/g"], weights[f"{ln_prefix}/b"], residual=out, keep=keep)


def _ffn(x, weights, prefix):
    inner = ad.relu(ad.matmul(x, weights[f"{prefix}/w1"], weights[f"{prefix}/b1"]))
    return ad.matmul(inner, weights[f"{prefix}/w2"], weights[f"{prefix}/b2"])


def encoder_mask(real, dtype):
    """(B, 1, t, t) additive mask at `dtype`, one for every head and layer: pad keys
    blocked, pad queries left open.

    No query row is ever fully blocked: a real query keeps its own key open
    and a pad query keeps every key open.
    """
    b, t = real.shape
    allowed = np.broadcast_to(real[:, None, :], (b, t, t)) | ~real[:, :, None]
    return np.where(allowed, 0.0, NEG_INF).astype(dtype)[:, None]


def causal_mask(real, dtype):
    """encoder_mask intersected with the lower-triangular allow pattern; a
    real query's own key is on the diagonal, so it stays open."""
    b, t = real.shape
    tri = np.tril(np.ones((t, t), dtype=bool))
    allowed = (np.broadcast_to(real[:, None, :], (b, t, t)) & tri[None, :, :]) | ~real[:, :, None]
    return np.where(allowed, 0.0, NEG_INF).astype(dtype)[:, None]


def encoder_forward(batch, weights, rng=None, inputs=None):
    """Stack of {self-attention, FFN} blocks over the projected input.

    Dropout runs exactly when `rng` is given. `inputs` is
    project_inputs(batch, weights) when the caller has it already; the
    decoder starts from the same projection.
    """
    cfg = weights.cfg
    h = project_inputs(batch, weights) if inputs is None else inputs
    mask = encoder_mask(batch.real, h.dtype)
    for i in range(cfg.layers):
        attn = multi_head(h, h, mask, _layer_weights(weights, f"enc{i}/attn"), cfg.heads)
        h = _sublayer(h, attn, weights, f"enc{i}/ln1", cfg.dropout, rng)
        h = _sublayer(h, _ffn(h, weights, f"enc{i}/ffn"), weights, f"enc{i}/ln2", cfg.dropout, rng)
    return h


def decoder_forward(batch, encoder_out, weights, rng=None, inputs=None):
    """Causal self-attention, causal cross-attention over encoder output, FFN;
    dropout runs exactly when `rng` is given."""
    cfg = weights.cfg
    h = project_inputs(batch, weights) if inputs is None else inputs
    mask = causal_mask(batch.real, h.dtype)
    for i in range(cfg.layers):
        self_attn = multi_head(h, h, mask, _layer_weights(weights, f"dec{i}/self"), cfg.heads)
        h = _sublayer(h, self_attn, weights, f"dec{i}/ln1", cfg.dropout, rng)
        cross = multi_head(h, encoder_out, mask, _layer_weights(weights, f"dec{i}/cross"), cfg.heads)
        h = _sublayer(h, cross, weights, f"dec{i}/ln2", cfg.dropout, rng)
        h = _sublayer(h, _ffn(h, weights, f"dec{i}/ffn"), weights, f"dec{i}/ln3", cfg.dropout, rng)
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


def embed(batch, weights):
    """Inference-mode entity vectors: pool encoder output, join statics, 2 dense layers.

    Returns a (B, emb_out) array in batch row order, put back together from
    Batch.tiles(). Runs under ad.no_grad(), so it builds no backward graph.
    """
    rows, parts = [], []
    with ad.no_grad():
        for tile_rows, part in batch.tiles():
            pooled = _mean_pool(encoder_forward(part, weights), part)
            joined = Tensor(np.concatenate([pooled, part.statics.astype(pooled.dtype)], axis=1))
            hidden = ad.relu(ad.matmul(joined, weights["emb_head/w1"], weights["emb_head/b1"]))
            parts.append(ad.matmul(hidden, weights["emb_head/w2"], weights["emb_head/b2"]).data)
            rows.append(tile_rows)
    out = np.concatenate(parts)[np.argsort(np.concatenate(rows))]
    if not np.isfinite(out).all():
        raise NumericError("embedding head produced non-finite values")
    return out
