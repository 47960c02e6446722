"""Deterministic synthetic activity logs with an order-only planted signal.

Under the trend_churn signal, each entity draws a multiset of purchase
amounts; churners (label 1) see them arranged in decreasing order over
time, retainers in increasing order. Per-entity marginal amount statistics
are therefore identical across the label flip, timestamps are drawn
label-independently, and only the sequence order carries the label. Item
ids follow the amount's quantile (with noise) and the channel follows a
per-entity preference, so both categorical columns are predictable from
context and reconstruction has something to learn.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_field_types, too_large

EPOCH0 = 1_600_000_000  # fixed anchor so output is seed-deterministic
AMOUNT_LOG_MU = 3.0     # purchase amounts are lognormal(mu, sigma)
AMOUNT_LOG_SIGMA = 0.6


@dataclass
class SynthConfig:
    n_entities: int = 2000
    t_mean: float = 10.0
    seed: int = 7
    signal: str = "trend_churn"   # trend_churn | none
    item_vocab: int = 12
    channel_vocab: int = 4
    max_len: int = 15
    min_len: int = 3

    def __post_init__(self):
        check_field_types(self)
        for name, least in (("n_entities", 2), ("seed", 0), ("item_vocab", 1), ("channel_vocab", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not math.isfinite(self.t_mean):
            raise ConfigError(f"t_mean must be finite, got {self.t_mean}")
        if self.signal not in ("trend_churn", "none"):
            raise ConfigError(f"unknown signal {self.signal!r}")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ConfigError("need 1 <= min_len <= max_len")


SCHEMA_JSON = {
    "columns": {
        "entity": "entity_id",
        "ts": "timestamp",
        "amount": "numerical",
        "item": "categorical",
        "channel": "categorical",
    },
    "monetary": "amount",
    "item": "item",
}


def _item_for_amount(amount, cfg, rng):
    """Quantile-binned item id with a 15% uniform flip."""
    z = (math.log(amount) - AMOUNT_LOG_MU) / AMOUNT_LOG_SIGMA
    q = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    idx = min(cfg.item_vocab - 1, int(q * cfg.item_vocab))
    if rng.random() < 0.15:
        idx = int(rng.integers(cfg.item_vocab))
    return idx


def generate_rows(cfg):
    """Yield (rows, labels): rows as dicts, labels as {entity: 0/1}."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_entities
    labels_flat = np.zeros(n, dtype=np.int64)
    labels_flat[: n // 2] = 1
    rng.shuffle(labels_flat)

    rows = []
    labels = {}
    for ei in range(n):
        entity = f"e{ei:05d}"
        label = int(labels_flat[ei])
        labels[entity] = label
        k = min(max(round(rng.normal(cfg.t_mean, 3.0)), cfg.min_len), cfg.max_len)

        amounts = np.sort(rng.lognormal(AMOUNT_LOG_MU, AMOUNT_LOG_SIGMA, size=k))
        if cfg.signal == "trend_churn":
            ordered = amounts[::-1] if label == 1 else amounts
        else:
            ordered = rng.permutation(amounts)

        # a year of start phases keeps calendar-bucket boundary crossings
        # uniformly placed, so bucketed spend statistics stay label-neutral
        start = EPOCH0 + rng.uniform(0.0, 365.0) * 86400.0
        gaps = rng.uniform(0.5, 4.0, size=k - 1) * 86400.0
        ts = np.concatenate([[start], start + np.cumsum(gaps)]).astype(np.int64)

        preferred = int(rng.integers(cfg.channel_vocab))
        for j in range(k):
            channel = preferred
            if rng.random() >= 0.8:
                channel = int(rng.integers(cfg.channel_vocab))
            rows.append({
                "entity": entity,
                "ts": int(ts[j]),
                "amount": float(ordered[j]),
                "item": f"item_{_item_for_amount(float(ordered[j]), cfg, rng):03d}",
                "channel": f"ch_{channel}",
            })
    return rows, labels


def generate(cfg, out_dir):
    """Write data.csv, labels.csv and schema.json atomically; returns their paths."""
    from .cli import atomic_write  # imported here because cli imports this module

    with too_large(f"a synthetic log of {cfg.n_entities} entities of up to {cfg.max_len} events "
                   f"over {cfg.item_vocab} items and {cfg.channel_vocab} channels"):
        rows, labels = generate_rows(cfg)
    data_path = os.path.join(out_dir, "data.csv")
    labels_path = os.path.join(out_dir, "labels.csv")
    schema_path = os.path.join(out_dir, "schema.json")

    def write_data(fh):
        fh.write("entity,ts,amount,item,channel\n")
        for r in rows:
            fh.write(f"{r['entity']},{r['ts']},{r['amount']:.4f},{r['item']},{r['channel']}\n")

    def write_labels(fh):
        fh.write("entity,label\n")
        for entity in sorted(labels):
            fh.write(f"{entity},{labels[entity]}\n")

    atomic_write(data_path, write_data)
    atomic_write(labels_path, write_labels)
    atomic_write(schema_path, lambda fh: fh.write(json.dumps(SCHEMA_JSON, indent=2, sort_keys=True) + "\n"))
    return data_path, labels_path, schema_path
