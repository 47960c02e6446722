"""Masked-recovery pretraining: masking, reconstruction loss, the training
loop, binary checkpoints and synchronous data-parallel gradients.

Training zeroes a random subset of real positions, runs the masked batch
through encoder and decoder, and reconstructs the original values at every
non-pad position (squared error for numerics, cross-entropy over vocab+1
logits for categoricals). There is one training loop. With workers > 1 only
the source of a batch's gradients changes: forked workers receive identical
weights each step and return shard gradients, and one reduction feeds one
optimizer update, so replicas never drift and failures surface exactly as
in serial mode. The same reduction combines the row tiles of at most
transformer.TILE entities that a step or shard is split into; a step or
shard of more than TILE entities is sorted by sequence length, and each
tile runs only over its real slots (transformer.Batch.tiles).
"""
from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import asdict, dataclass

import multiprocessing as mp

import numpy as np

from . import autodiff as ad
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
)

__all__ = [
    "TrainConfig", "Checkpoint", "DivergenceError", "apply_mask",
    "reconstruction_loss", "train", "save_checkpoint", "load_checkpoint",
    "compute_gradients", "combine",
]

CHECKPOINT_MAGIC = b"CSPR1"
CHECKPOINT_VERSION = 3   # 3: the parameters are three flat arrays, not per-tensor records


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 256     # 8192 matches the large-scale benchmark setting
    epochs: int = 10
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
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


def compute_gradients(weights, batch, rng=None):
    """Forward + backward on one (already masked) batch, TILE entities at a time;
    dropout runs exactly when `rng` is given.

    Returns (flat grad, loss numerator, real-position count), the triple
    `combine` reduces; the numerator is loss * count so tile and shard
    results combine exactly. A tile of only all-pad rows has nothing to
    score and is left out. Per-name views of the grad are
    ``weights.views(grad)``.
    """
    # a batch with no real position at all still fails in reconstruction_loss
    parts = [part for _, part in batch.tiles() if part.real.any()] or [batch]
    return combine([_tile_gradients(weights, part, rng) for part in parts])


def _tile_gradients(weights, batch, rng):
    """(flat grad, loss numerator, real-position count) of one tile; the grad is a fresh `weights.grad`."""
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
    """Reduce (flat grad, loss numerator, real-position count) triples of row tiles or shards into one.

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
    rng_state: dict | None = None
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
                      rng_state=header["rng_state"], epoch=epoch, adam_steps=adam_steps)


def train(dataset, model_cfg, train_cfg, init=None):
    """Run pretraining; returns (final checkpoint, per-epoch loss log).

    Log rows are (epoch, mean_loss, wall_seconds). The permutation, the masks
    and (with one worker) dropout all come from one seeded rng, so at any
    worker count the loss column is reproducible run to run and resuming
    from a checkpoint continues the uninterrupted log exactly.
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
        if init.rng_state is not None:
            rng.bit_generator.state = init.rng_state
        epoch_start, adam_steps = init.epoch, init.adam_steps
    log = []
    last_good = checkpoint_from(weights, moments, rng, epoch_start, adam_steps)
    pool = _WorkerPool(dataset, weights, train_cfg) if train_cfg.workers > 1 else None
    try:
        for epoch in range(epoch_start, train_cfg.epochs):
            tic = time.perf_counter()
            perm = rng.permutation(n)
            loss_num = loss_den = 0.0
            for step, start in enumerate(range(0, n, train_cfg.batch_size)):
                idx = perm[start:start + train_cfg.batch_size]
                batch = prepare_batch(dataset, idx, model_cfg)
                masked, plan = apply_mask(batch, model_cfg.mask_p, rng)
                try:
                    if pool is None:
                        grad, num, den = compute_gradients(weights, masked, rng=rng)
                    else:
                        grad, num, den = pool.gradients(weights, idx, plan, epoch, step)
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
    finally:
        if pool is not None:
            pool.close()
    return last_good, log


# ---------------------------------------------------------------------------
# synchronous data-parallel gradients

def _worker_loop(conn, dataset, weights, seed, worker_idx):
    """Serve steps on the worker's forked copy of `weights`, overwritten by each step's flat parameters."""
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            conn.close()
            return
        _, flat, idx, plan, epoch, step = msg
        masked = prepare_batch(dataset, idx, weights.cfg).masked(plan)
        rng = np.random.default_rng([seed, epoch, step, worker_idx])
        weights.flat[...] = flat
        try:
            result = compute_gradients(weights, masked, rng=rng)
        except CasprError as exc:
            result = exc  # the parent re-raises it inside the training loop
        except Exception as exc:  # anything else still reaches the parent as one typed error
            result = CasprError(f"data-parallel worker {worker_idx} failed: {type(exc).__name__}: {exc}")
        conn.send(result)


# A step's deadline: this many times the slowest finished step, and never less than the floor,
# which is all the first step gets. A worker that misses it is taken for hung.
STEP_DEADLINE_FACTOR = 20
STEP_DEADLINE_FLOOR_S = 60.0


class _WorkerPool:
    """Forked workers that turn each batch into one reduced gradient.

    Each step shards the batch, sends every worker the flat parameter array
    and its shard, and reduces the flat shard gradients with `combine`, the
    reduction compute_gradients applies to row tiles; a worker tiles its own
    shard the same way. A batch with fewer entities than workers, such as an
    epoch's short last batch, goes to the first len(batch) workers only.
    Reduction runs in fixed worker-index order for reproducibility. A step
    that misses its deadline stops every worker and is one CasprError.
    """

    def __init__(self, dataset, weights, train_cfg):
        ctx = mp.get_context("fork")
        self.conns, self.procs = [], []
        for wi in range(train_cfg.workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(child, dataset, weights, train_cfg.seed, wi),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)
        self.slowest_step_s = 0.0

    def gradients(self, weights, idx, plan, epoch, step):
        """(flat grad, loss numerator, real-position count) for one batch."""
        w_count = min(len(idx), len(self.conns))
        shards = np.array_split(np.arange(len(idx)), w_count)
        tic = time.perf_counter()
        deadline = tic + self._allowed_s()
        sent = [self._send(wi, ("step", weights.flat, idx[shard], plan[shard], epoch, step))
                for wi, shard in enumerate(shards)]
        # every worker that took the step is answered for, or all are stopped, before anything is raised
        results = [self._recv(wi, deadline) if error is None else error for wi, error in enumerate(sent)]
        self.slowest_step_s = max(self.slowest_step_s, time.perf_counter() - tic)
        for r in results:
            if isinstance(r, CasprError):
                raise r
        return combine(results)  # fixed worker-index order

    def _send(self, wi, msg):
        """None once `msg` is on its way, else the error for a worker that is gone."""
        try:
            self.conns[wi].send(msg)
        except OSError:
            return CasprError(f"data-parallel worker {wi} exited before its step")
        return None

    def _recv(self, wi, deadline):
        try:
            if self.conns[wi].poll(max(0.0, deadline - time.perf_counter())):
                return self.conns[wi].recv()
        except (EOFError, OSError):
            return CasprError(f"data-parallel worker {wi} exited mid-step")
        for proc in self.procs:  # no result of this step will be read, so no worker needs answering
            proc.terminate()
        raise CasprError(f"data-parallel worker {wi} sent no gradient within {self._allowed_s():.1f} s "
                         f"and is taken for hung; every worker is stopped")

    def _allowed_s(self):
        return max(STEP_DEADLINE_FLOOR_S, STEP_DEADLINE_FACTOR * self.slowest_step_s)

    def close(self):
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
