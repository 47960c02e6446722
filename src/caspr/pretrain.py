"""Masked-recovery pretraining: masking, reconstruction loss, the training
loop, binary checkpoints and synchronous data-parallel gradients.

Training zeroes a random subset of real positions, runs the masked batch
through encoder and decoder, and reconstructs the original values at every
non-pad position (squared error for numerics, cross-entropy over vocab+1
logits for categoricals). There is one training step, compute_gradients: it
cuts each batch into row tiles with step_tiles, runs them on a
parallel.WorkerPool (in process at one worker, else on forked workers), and
`combine` reduces their gradients in tile order into one Adam update. So a
data-parallel run that cuts the serial run's tiles is that run byte for
byte, and the two fail the same way.
"""
from __future__ import annotations

import functools
import json
import math
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import adam_step, init_moments
from .errors import (
    BadMagic,
    CasprError,
    ConfigError,
    ContractViolation,
    CorruptFile,
    DivergenceError,
    NumericError,
    SchemaMismatch,
    TruncatedFile,
    VersionMismatch,
    check_field_types,
)
from .ingest import FittedSchema
from .transformer import (
    ModelConfig,
    build_weights,
    decoder_forward,
    encoder_forward,
    layout,
    prepare_batch,
    project_inputs,
    reconstruction_heads,
    tiles,
)

CHECKPOINT_MAGIC = b"CSPR1"
CHECKPOINT_VERSION = 3   # 3: the parameters are three flat arrays, not per-tensor records


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 10
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size < self.workers:
            raise ConfigError(f"batch_size ({self.batch_size}) must be >= workers ({self.workers})")


def apply_mask(batch, mask_p, rng):
    """Pick positions to hide and zero them out of the model's view.

    Each real position is masked independently with probability mask_p. A
    sequence with at least one real step always gets at least one masked
    position when mask_p > 0, otherwise short sequences would contribute no
    recovery signal at all.
    """
    if not 0.0 <= mask_p <= 1.0:
        raise ConfigError(f"mask_p must be in [0, 1], got {mask_p}")
    real = batch.real
    plan = np.zeros_like(real)
    if mask_p > 0.0:
        plan = (rng.random(real.shape) < mask_p) & real
        needs_force = real.any(axis=1) & ~plan.any(axis=1)
        for bi in np.flatnonzero(needs_force):
            slots = np.flatnonzero(real[bi])
            plan[bi, slots[rng.integers(len(slots))]] = True
    return batch.masked(plan), plan


def reconstruction_loss(preds, batch):
    """Mean over real positions of squared numeric error plus categorical CE.

    `preds` lists numeric heads, then categorical, each in batch column
    order, as reconstruction_heads returns them: the first
    batch.nums.shape[2] heads are numeric, whatever their width (the head
    of an empty vocab also has one output). The result is one scalar node;
    each head's gradient comes from its loss kernel.
    """
    w = batch.real.astype(batch.nums.dtype)
    denom = float(w.sum())
    if denom == 0:
        raise ContractViolation("reconstruction_loss: no positions to score")
    scale = np.asarray(1.0 / denom, dtype=w.dtype)
    values, grads = [], []
    n_num = batch.nums.shape[2]
    for i, (col, pred) in enumerate(preds.items()):
        if np.isnan(pred.data).any():
            raise NumericError(f"NaN in reconstruction head {col!r}")
        if i < n_num:
            value, grad = ad.squared_error(pred.data.reshape(w.shape), batch.nums[..., i], w, scale)
        else:
            value, grad = ad.cross_entropy(pred.data, batch.cats[..., i - n_num], w, scale)
        values.append(value)
        grads.append(grad.reshape(pred.shape))
    loss = ad.scalar(sum(values[1:], values[0]) * scale, preds.values(), grads)
    if np.isnan(loss.data).any():
        raise NumericError("reconstruction loss is NaN")
    return loss


def compute_gradients(weights, batch, key=None, pool=None):
    """Forward + backward on one (already masked) batch, tile by tile, on `pool`, a
    parallel.WorkerPool of partial(_tile_gradients, weights), or in process without one;
    dropout runs exactly when a dropout `key` is given (see step_tiles).

    Returns (flat grad, loss numerator, real-position count), the triple
    `combine` reduces; the numerator is loss * count so tile results combine
    exactly. Per-name views of the grad are ``weights.views(grad)``.
    """
    if pool is None:
        pool = parallel.WorkerPool(functools.partial(_tile_gradients, weights), 1)  # forks nothing
    jobs = [(weights.flat, tile, tile_key) for tile, tile_key in step_tiles(batch, key, pool.workers)]
    return combine(pool.run(jobs))


def step_tiles(batch, key, workers=1):
    """(tile, dropout key) for each tile of tiles(batch, workers) that holds a real position.

    Tile i of the step keyed (seed, epoch, step) gets the key [seed, epoch,
    step, i], whichever process runs it; a key of None means no dropout. A
    batch with no real position at all is kept whole, to fail in
    reconstruction_loss.
    """
    scored = [(i, tile) for i, (_, tile) in enumerate(tiles(batch, workers)) if tile.real.any()] or [(0, batch)]
    return [(tile, None if key is None else [*key, i]) for i, tile in scored]


def _tile_gradients(weights, flat, batch, key):
    """(flat grad, loss numerator, real-position count) of one tile at the parameters `flat`;
    the grad is a fresh `weights.grad`."""
    weights.flat[...] = flat
    rng = None if key is None else np.random.default_rng(key)
    weights.zero_grad()
    x = project_inputs(batch, weights)
    enc = encoder_forward(batch, weights, rng=rng, inputs=x)
    dec = decoder_forward(batch, enc, weights, rng=rng, inputs=x)
    preds = reconstruction_heads(dec, weights)
    loss = reconstruction_loss(preds, batch)
    ad.backward(loss)
    n_real = float(batch.real.sum())
    return weights.grad, float(loss.data) * n_real, n_real


def combine(parts):
    """Reduce (flat grad, loss numerator, real-position count) triples of row tiles into one.

    Each grad is the gradient of its own part's mean loss, so weighting it
    by the part's share of the real positions reproduces the gradient of
    the whole batch's mean (the loss is a flat mean over positions). Parts
    are added in list order, which makes the result reproducible.
    """
    den_total = sum(den for _, _, den in parts)
    grad = parts[0][0] * (parts[0][2] / den_total)
    for part_grad, _, den in parts[1:]:
        grad += part_grad * (den / den_total)
    return grad, sum(num for _, num, _ in parts), den_total


@dataclass
class Checkpoint:
    """Training state; `flat` and Adam's `moments` (m, v) are laid out like ModelWeights.flat."""

    model_cfg: ModelConfig
    fitted: FittedSchema
    flat: np.ndarray
    moments: tuple[np.ndarray, np.ndarray]
    rng_state: dict       # the run rng's PCG64 state: the next permutation and mask draws
    epoch: int = 0
    adam_steps: int = 0


def checkpoint_from(weights, moments, rng, epoch, adam_steps):
    """Snapshot of training state: copies of the flat weights and moments."""
    return Checkpoint(
        model_cfg=weights.cfg,
        fitted=weights.fitted,
        flat=weights.flat.copy(),
        moments=tuple(x.copy() for x in moments),
        rng_state=rng.bit_generator.state,
        epoch=epoch,
        adam_steps=adam_steps,
    )


def save_checkpoint(ck, path):
    """Binary layout: magic, u32 version, u64-length JSON header, then the
    flat weights, m and v, each little-endian at the model's dtype. The
    header keeps the fitted schema's column order, which orders the layout."""
    header = {
        "model": asdict(ck.model_cfg),
        "fitted": ck.fitted.to_json(),
        "rng_state": ck.rng_state,
        "epoch": ck.epoch,
        "adam_steps": ck.adam_steps,
    }
    blob = json.dumps(header).encode("utf-8")
    dtype = np.dtype(ck.model_cfg.dtype).newbyteorder("<")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in (ck.flat, *ck.moments):
            fh.write(arr.astype(dtype, copy=False).tobytes())


HEADER_KEYS = ("model", "fitted", "rng_state", "epoch", "adam_steps")


def load_checkpoint(path):
    """Parse a checkpoint; any malformed content raises an IoError subclass.

    The header fixes the payload size, so a file of another size is refused
    before anything is allocated for the parameters."""
    with open(path, "rb") as fh:
        data = fh.read()

    view = memoryview(data)
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(data):
            raise TruncatedFile(f"{path}: truncated while reading {what}")
        chunk = view[off:off + n]
        off += n
        return chunk

    magic = bytes(take(5, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"{path}: checkpoint version {version}, this build reads {CHECKPOINT_VERSION}")
    (blob_len,) = struct.unpack("<Q", take(8, "header length"))
    try:
        header = json.loads(bytes(take(blob_len, "header")).decode("utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise CorruptFile(f"{path}: malformed header: {exc}") from None
    if not isinstance(header, dict) or any(k not in header for k in HEADER_KEYS):
        raise CorruptFile(f"{path}: header must be an object with keys {', '.join(HEADER_KEYS)}")
    try:
        model_cfg = ModelConfig(**header["model"])
        fitted = FittedSchema.from_json(header["fitted"])
        dtype = np.dtype(model_cfg.dtype).newbyteorder("<")
        epoch, adam_steps = int(header["epoch"]), int(header["adam_steps"])
        if epoch < 0 or adam_steps < 0:
            raise ValueError(f"epoch ({epoch}) and adam_steps ({adam_steps}) must be >= 0")
        bit_generator = np.random.PCG64(0)
        bit_generator.state = header["rng_state"]  # refuses anything train's rng could not resume from
    except (CasprError, ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
        raise CorruptFile(f"{path}: malformed header field: {type(exc).__name__}: {exc}") from None

    room = (len(data) - off) // (3 * dtype.itemsize)  # parameters the rest of the file can hold
    size = 0
    for _, shape, _ in layout(model_cfg, fitted):  # stops at the first tensor the file cannot hold
        size += math.prod(shape)
        if size > room:
            raise TruncatedFile(f"{path}: truncated while reading the parameters")
    payload = take(3 * size * dtype.itemsize, "the parameters")
    if off != len(data):
        raise CorruptFile(f"{path}: {len(data) - off} bytes after the parameters")
    flat, m, v = np.frombuffer(payload, dtype=dtype).astype(dtype.newbyteorder("=")).reshape(3, size)
    return Checkpoint(model_cfg=model_cfg, fitted=fitted, flat=flat, moments=(m, v),
                      rng_state=bit_generator.state, epoch=epoch, adam_steps=adam_steps)


# train turns each non-finite value a step makes into a typed error; pool workers inherit this state
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(dataset, model_cfg, train_cfg, init=None):
    """Run pretraining; returns (final checkpoint, per-epoch loss log).

    Log rows are (epoch, mean_loss, wall_seconds). The permutation and the
    masks come from one seeded rng and dropout from per-tile keys, so at
    any worker count the loss column is reproducible and resuming from a
    checkpoint continues the uninterrupted log exactly.
    """
    n = len(dataset.entities)
    if not n:
        raise ConfigError("train: empty dataset")
    rng = np.random.default_rng(train_cfg.seed)
    weights = build_weights(model_cfg, dataset.fitted, rng)
    moments = init_moments(weights.flat)
    epoch_start = adam_steps = 0
    if init is not None:
        if list(layout(init.model_cfg, init.fitted)) != list(layout(model_cfg, dataset.fitted)):
            raise SchemaMismatch("the checkpoint's parameter layout differs from this run's")
        weights.flat[...] = init.flat
        moments = tuple(np.array(x, dtype=weights.flat.dtype) for x in init.moments)
        rng.bit_generator.state = init.rng_state
        epoch_start, adam_steps = init.epoch, init.adam_steps
    log = []
    last_good = checkpoint_from(weights, moments, rng, epoch_start, adam_steps)
    with parallel.WorkerPool(functools.partial(_tile_gradients, weights), train_cfg.workers) as pool:
        for epoch in range(epoch_start, train_cfg.epochs):
            tic = time.perf_counter()
            perm = rng.permutation(n)
            loss_num = loss_den = 0.0
            for step, start in enumerate(range(0, n, train_cfg.batch_size)):
                batch = prepare_batch(dataset, perm[start:start + train_cfg.batch_size], model_cfg)
                masked, _ = apply_mask(batch, model_cfg.mask_p, rng)
                key = (train_cfg.seed, epoch, step)
                try:
                    grad, num, den = compute_gradients(weights, masked, key=key, pool=pool)
                except NumericError as exc:
                    raise DivergenceError(str(exc), checkpoint=last_good) from exc
                if not np.isfinite(num):
                    raise DivergenceError(f"loss diverged at epoch {epoch + 1}", checkpoint=last_good)
                adam_steps += 1
                adam_step(weights.flat, grad, moments, train_cfg.lr, adam_steps)
                loss_num += num
                loss_den += den
            if not np.isfinite(weights.flat).all():  # the next forward pass would find it, if there is one
                raise DivergenceError(f"weights diverged at epoch {epoch + 1}", checkpoint=last_good)
            log.append((epoch + 1, loss_num / loss_den, time.perf_counter() - tic))
            last_good = checkpoint_from(weights, moments, rng, epoch + 1, adam_steps)
    return last_good, log
