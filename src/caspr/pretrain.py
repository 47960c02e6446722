"""Masked-recovery pretraining: masking, reconstruction loss, the training
loop, binary checkpoints and synchronous data-parallel gradients.

Training zeroes a random subset of real positions, runs the masked batch
through encoder and decoder, and reconstructs the original values at every
non-pad position (squared error for numerics, cross-entropy over vocab+1
logits for categoricals). There is one training loop. With workers > 1 only
the source of a batch's gradients changes: forked workers receive identical
weights each step and return shard gradients, and one reduction feeds one
optimizer update, so replicas never drift and failures surface exactly as
in serial mode.
"""
from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass, field

import multiprocessing as mp

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, adam_step, init_moments
from .errors import (
    BadMagic,
    CasprError,
    ConfigError,
    ContractViolation,
    DivergenceError,
    NumericError,
    TruncatedFile,
    VersionMismatch,
)
from .ingest import FittedSchema
from .transformer import (
    ModelConfig,
    ModelWeights,
    build_weights,
    decoder_forward,
    encoder_forward,
    prepare_batch,
    reconstruction_heads,
)

__all__ = [
    "TrainConfig", "Checkpoint", "DivergenceError", "apply_mask",
    "reconstruction_loss", "train", "save_checkpoint", "load_checkpoint",
    "compute_gradients",
]

CHECKPOINT_MAGIC = b"CSPR1"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 256     # 8192 matches the large-scale benchmark setting
    epochs: int = 10
    seed: int = 0
    workers: int = 1
    mask_mode: str = "bernoulli"   # bernoulli | fixed (exact per-sequence rate)
    loss_scope: str = "all"        # all | masked non-pad positions

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.batch_size < self.workers:
            raise ConfigError(f"batch_size ({self.batch_size}) must be >= workers ({self.workers})")
        if self.mask_mode not in ("bernoulli", "fixed"):
            raise ConfigError(f"unknown mask_mode {self.mask_mode!r}")
        if self.loss_scope not in ("all", "masked"):
            raise ConfigError(f"unknown loss_scope {self.loss_scope!r}")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)


def apply_mask(batch, mask_p, rng, mode="bernoulli"):
    """Pick positions to hide and zero them out of the model's view.

    Each real position is masked independently with probability mask_p
    ("bernoulli") or an exact per-sequence count is drawn ("fixed"). A
    sequence with at least one real step always gets at least one masked
    position when mask_p > 0, otherwise short sequences would contribute no
    recovery signal at all.
    """
    if not 0.0 <= mask_p <= 1.0:
        raise ConfigError(f"mask_p must be in [0, 1], got {mask_p}")
    real = batch.real
    plan = np.zeros_like(real)
    if mask_p > 0.0:
        if mode == "bernoulli":
            plan = (rng.random(real.shape) < mask_p) & real
            needs_force = real.any(axis=1) & ~plan.any(axis=1)
            for bi in np.flatnonzero(needs_force):
                slots = np.flatnonzero(real[bi])
                plan[bi, slots[rng.integers(len(slots))]] = True
        else:
            for bi in range(real.shape[0]):
                slots = np.flatnonzero(real[bi])
                if len(slots) == 0:
                    continue
                n_mask = min(len(slots), max(1, round(mask_p * len(slots))))
                plan[bi, rng.choice(slots, size=n_mask, replace=False)] = True
    keep = (real & ~plan).astype(batch.keep.dtype)
    return batch.with_keep(keep), plan


def reconstruction_loss(preds, batch, plan, loss_scope="all"):
    """Mean over scored positions of squared numeric error plus categorical CE."""
    weight = (batch.real if loss_scope == "all" else (plan & batch.real))
    w = weight.astype(batch.nums.dtype)
    denom = float(w.sum())
    if denom == 0:
        raise ContractViolation("reconstruction_loss: no positions to score")
    total = None
    for col, pred in preds.items():
        if np.isnan(pred.data).any():
            raise NumericError(f"NaN in reconstruction head {col!r}")
        if pred.shape[-1] == 1:  # numeric head
            ci = _numeric_index(preds, col)
            diff = ad.sub(ad.reshape(pred, pred.shape[:2]), Tensor(batch.nums[..., ci]))
            term = ad.sum_(ad.mul(ad.mul(diff, diff), Tensor(w)))
        else:
            ci = _categorical_index(preds, col)
            lsm = ad.log_softmax(pred, axis=-1)
            onehot = np.zeros(pred.shape, dtype=pred.data.dtype)
            codes = batch.cats[..., ci]
            b_idx, t_idx = np.indices(codes.shape)
            onehot[b_idx, t_idx, codes] = 1.0
            picked = ad.sum_(ad.mul(lsm, Tensor(onehot)), axis=-1)
            term = ad.mul(ad.sum_(ad.mul(picked, Tensor(w))), -1.0)
        total = term if total is None else ad.add(total, term)
    loss = ad.mul(total, 1.0 / denom)
    if np.isnan(loss.data).any():
        raise NumericError("reconstruction loss is NaN")
    return loss


# Head dicts iterate numeric columns first, then categoricals, matching the
# column order used when the batch arrays were built.
def _numeric_index(preds, col):
    return [c for c, p in preds.items() if p.shape[-1] == 1].index(col)


def _categorical_index(preds, col):
    return [c for c, p in preds.items() if p.shape[-1] != 1].index(col)


def compute_gradients(weights, batch, plan, loss_scope="all", train=True, rng=None):
    """Forward + backward on one (already masked) batch.

    Returns (grads by name, loss numerator, scored-position count); the
    numerator is loss * count so shard results combine exactly.
    """
    weights.zero_grad()
    enc = encoder_forward(batch, weights, train=train, rng=rng)
    dec = decoder_forward(batch, enc, weights, train=train, rng=rng)
    preds = reconstruction_heads(dec, weights)
    loss = reconstruction_loss(preds, batch, plan, loss_scope)
    ad.backward(loss)
    npad = float(batch.real.sum()) if loss_scope == "all" else float((plan & batch.real).sum())
    grads = {name: (p.grad if p.grad is not None else np.zeros_like(p.data)) for name, p in weights.items()}
    return grads, float(loss.data) * npad, npad


@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    fitted: FittedSchema
    tensors: dict[str, np.ndarray]          # model weights by name
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    rng_state: dict | None = None
    epoch: int = 0
    adam_steps: int = 0


def checkpoint_from(weights, moments, rng, epoch, adam_steps):
    return Checkpoint(
        model_cfg=weights.cfg,
        fitted=weights.fitted,
        tensors=weights.clone_arrays(),
        moments={k: (m.copy(), v.copy()) for k, (m, v) in moments.items()},
        rng_state=rng.bit_generator.state,
        epoch=epoch,
        adam_steps=adam_steps,
    )


def save_checkpoint(ck, path):
    """Binary layout: magic, u32 version, u64-length JSON header, tensor records."""
    header = {
        "model": ck.model_cfg.to_json(),
        "fitted": ck.fitted.to_json(),
        "rng_state": ck.rng_state,
        "epoch": ck.epoch,
        "adam_steps": ck.adam_steps,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    records = dict(ck.tensors)
    for name, (m, v) in ck.moments.items():
        records[f"adam/m/{name}"] = m
        records[f"adam/v/{name}"] = v
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name, arr in records.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            tag = 0 if arr.dtype == np.float32 else 1
            fh.write(struct.pack("<B", tag))
            fh.write(arr.astype("<f4" if tag == 0 else "<f8", copy=False).tobytes())


def load_checkpoint(path):
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
        raise VersionMismatch(f"{path}: unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack("<Q", take(8, "header length"))
    header = json.loads(bytes(take(blob_len, "header")).decode("utf-8"))

    records = {}
    while off < len(data):
        (name_len,) = struct.unpack("<H", take(2, "tensor name length"))
        name = bytes(take(name_len, "tensor name")).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1, "tensor rank"))
        dims = [struct.unpack("<Q", take(8, "tensor dim"))[0] for _ in range(rank)]
        (tag,) = struct.unpack("<B", take(1, "dtype tag"))
        dtype = np.dtype("<f4") if tag == 0 else np.dtype("<f8")
        count = int(np.prod(dims)) if dims else 1
        payload = take(count * dtype.itemsize, f"tensor {name!r} payload")
        records[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()

    tensors = {k: v for k, v in records.items() if not k.startswith("adam/")}
    moments = {}
    for k, v in records.items():
        if k.startswith("adam/m/"):
            moments.setdefault(k[len("adam/m/"):], [None, None])[0] = v
        elif k.startswith("adam/v/"):
            moments.setdefault(k[len("adam/v/"):], [None, None])[1] = v
    return Checkpoint(
        model_cfg=ModelConfig.from_json(header["model"]),
        fitted=FittedSchema.from_json(header["fitted"]),
        tensors=tensors,
        moments={k: (m, v) for k, (m, v) in moments.items()},
        rng_state=header["rng_state"],
        epoch=int(header["epoch"]),
        adam_steps=int(header["adam_steps"]),
    )


def train(dataset, model_cfg, train_cfg, init=None):
    """Run pretraining; returns (final checkpoint, per-epoch loss log).

    Log rows are (epoch, mean_loss, wall_seconds). The permutation, the masks
    and (with one worker) dropout all come from one seeded rng, so at any
    worker count the loss column is reproducible run to run and resuming
    from a checkpoint continues the uninterrupted log exactly.
    """
    if not dataset.sequences:
        raise ConfigError("train: empty dataset")
    seqs, fitted = dataset.sequences, dataset.fitted
    rng = np.random.default_rng(train_cfg.seed)
    weights = build_weights(model_cfg, fitted, rng)
    moments = init_moments(weights)
    epoch_start = adam_steps = 0
    if init is not None:
        weights.load_arrays(init.tensors)
        moments.update({name: (m.copy(), v.copy()) for name, (m, v) in init.moments.items()})
        if init.rng_state is not None:
            rng.bit_generator.state = init.rng_state
        epoch_start, adam_steps = init.epoch, init.adam_steps
    log = []
    last_good = checkpoint_from(weights, moments, rng, epoch_start, adam_steps)
    pool = _WorkerPool(dataset, model_cfg, train_cfg) if train_cfg.workers > 1 else None
    try:
        for epoch in range(epoch_start, train_cfg.epochs):
            tic = time.perf_counter()
            perm = rng.permutation(len(seqs))
            loss_num = loss_den = 0.0
            for step, start in enumerate(range(0, len(seqs), train_cfg.batch_size)):
                idx = perm[start:start + train_cfg.batch_size]
                batch = prepare_batch([seqs[i] for i in idx], fitted, model_cfg)
                masked, plan = apply_mask(batch, model_cfg.mask_p, rng, train_cfg.mask_mode)
                try:
                    if pool is None:
                        grads, num, den = compute_gradients(
                            weights, masked, plan, loss_scope=train_cfg.loss_scope, train=True, rng=rng)
                    else:
                        grads, num, den = pool.gradients(weights, idx, plan, epoch, step)
                except NumericError as exc:
                    raise DivergenceError(str(exc), checkpoint=last_good) from exc
                if not np.isfinite(num):
                    raise DivergenceError(f"loss diverged at epoch {epoch + 1}", checkpoint=last_good)
                adam_steps += 1
                adam_step(weights, grads, moments, train_cfg.lr, adam_steps)
                loss_num += num
                loss_den += den
            log.append((epoch + 1, loss_num / loss_den, time.perf_counter() - tic))
            last_good = checkpoint_from(weights, moments, rng, epoch + 1, adam_steps)
    finally:
        if pool is not None:
            pool.close()
    return last_good, log


# ---------------------------------------------------------------------------
# synchronous data-parallel gradients

def _worker_loop(conn, sequences, fitted, model_cfg, loss_scope, seed, worker_idx):
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            conn.close()
            return
        _, arrays, idx, plan, epoch, step = msg
        batch = prepare_batch([sequences[i] for i in idx], fitted, model_cfg)
        masked = batch.with_keep((batch.real & ~plan).astype(batch.keep.dtype))
        rng = np.random.default_rng([seed, epoch, step, worker_idx])
        weights = _bare_weights(model_cfg, fitted, arrays)
        try:
            result = compute_gradients(weights, masked, plan,
                                       loss_scope=loss_scope, train=True, rng=rng)
        except CasprError as exc:
            result = exc  # the parent re-raises it inside the training loop
        conn.send(result)


def _bare_weights(model_cfg, fitted, arrays):
    """Weights object wrapping received arrays without re-running init RNG."""
    w = ModelWeights(model_cfg, fitted)
    for name, arr in arrays.items():
        w._add(name, arr)
    return w


class _WorkerPool:
    """Forked workers that turn each batch into one reduced gradient.

    Each step shards the batch, sends every worker the current weights and
    its shard, and combines the shard gradients weighted by their
    scored-position counts, which reproduces the full-batch gradient exactly
    (the loss is a flat mean over positions). Reduction runs in fixed
    worker-index order for reproducibility.
    """

    def __init__(self, dataset, model_cfg, train_cfg):
        ctx = mp.get_context("fork")
        self.conns, self.procs = [], []
        for wi in range(train_cfg.workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(child, dataset.sequences, dataset.fitted, model_cfg,
                      train_cfg.loss_scope, train_cfg.seed, wi),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def gradients(self, weights, idx, plan, epoch, step):
        """(grads, loss numerator, scored-position count) for one batch."""
        w_count = len(self.conns)
        if len(idx) < w_count:
            raise ConfigError(f"batch of {len(idx)} cannot feed {w_count} workers (shard starvation)")
        arrays = {name: p.data for name, p in weights.items()}
        for wi, shard in enumerate(np.array_split(np.arange(len(idx)), w_count)):
            self.conns[wi].send(("step", arrays, [int(idx[i]) for i in shard],
                                 plan[shard], epoch, step))
        results = [self._recv(wi) for wi in range(w_count)]
        for r in results:
            if isinstance(r, CasprError):
                raise r
        den_total = sum(r[2] for r in results)
        grads = None
        for shard_grads, _, den in results:  # fixed worker-index order
            scale = den / den_total
            if grads is None:
                grads = {k: g * scale for k, g in shard_grads.items()}
            else:
                for k, g in shard_grads.items():
                    grads[k] += g * scale
        return grads, sum(r[1] for r in results), den_total

    def _recv(self, wi):
        try:
            return self.conns[wi].recv()
        except (EOFError, OSError):
            return CasprError(f"data-parallel worker {wi} exited mid-step")

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
