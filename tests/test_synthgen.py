import hashlib

import numpy as np
import pytest

from caspr import rfm
from caspr.errors import ConfigError
from caspr.synthgen import SCHEMA_JSON, SynthConfig, generate, generate_rows
from records import rfm_events


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_label_balance():
    _, labels = generate_rows(SynthConfig(n_entities=501, seed=0))
    ones = sum(labels.values())
    assert abs(ones - 501 / 2) <= 1


def test_fixed_seed_byte_identical_outputs(tmp_path):
    cfg = SynthConfig(n_entities=40, seed=11)
    a = generate(cfg, tmp_path / "a")
    b = generate(cfg, tmp_path / "b")
    for pa, pb in zip(a, b):
        assert sha256(pa) == sha256(pb)


def test_different_seed_changes_output(tmp_path):
    a = generate(SynthConfig(n_entities=40, seed=1), tmp_path / "a")
    b = generate(SynthConfig(n_entities=40, seed=2), tmp_path / "b")
    assert sha256(a[0]) != sha256(b[0])


SEEDED_LOG_SHA256 = {  # seed -> (data.csv, labels.csv) of a 50-entity log
    1: ("30f4087f0af0325576695d1e3779f459ee5556ef8c0d0e1f0d8ea80f3d5dace8",
        "b271720b9da5409c59c9e9220fbb08d03ad1c8185d145d47114feb0012912d30"),
    7: ("0de51d9264ff80f13510dc3d8c488a58e9aad388a65226df489f657cc5de8ea1",
        "3b522899bb357c37785cae67a8ae1c02b46ecf287d362c3715742b7e78206b04"),
}


@pytest.mark.parametrize("seed", sorted(SEEDED_LOG_SHA256))
def test_seeded_log_keeps_its_bytes(tmp_path, seed):
    """A change to the random stream or the text of a row changes every seeded artifact downstream."""
    data, labels, _ = generate(SynthConfig(n_entities=50, seed=seed), tmp_path)
    assert (sha256(data), sha256(labels)) == SEEDED_LOG_SHA256[seed]


def test_amount_multiset_is_label_independent_per_flip():
    # the same entity draw under flipped label orders the same amounts
    cfg = SynthConfig(n_entities=30, seed=5)
    rows, labels = generate_rows(cfg)
    by_entity = {}
    for r in rows:
        by_entity.setdefault(r["entity"], []).append(r["amount"])
    for entity, amounts in by_entity.items():
        ordered = sorted(amounts)
        arranged = amounts if labels[entity] == 0 else amounts[::-1]
        assert arranged == ordered  # monotone per label direction


def test_signal_none_orders_randomly():
    rows, _ = generate_rows(SynthConfig(n_entities=50, seed=6, signal="none"))
    by_entity = {}
    for r in rows:
        by_entity.setdefault(r["entity"], []).append(r["amount"])
    monotone = sum(
        amounts == sorted(amounts) or amounts == sorted(amounts, reverse=True)
        for amounts in by_entity.values() if len(amounts) > 2
    )
    assert monotone < 10


def test_monetary_rfm_statistics_match_across_classes():
    """Order-invariant monetary features carry no label signal.

    The identity is exact in distribution (same amount multisets, label-
    independent timestamps); the 0.05-sigma bound sits near one standard
    error of the class-mean difference at this sample size, so this runs as
    a seeded regression check.
    """
    cfg = SynthConfig(n_entities=2000, seed=10)
    rows, labels = generate_rows(cfg)
    by_entity = {}
    for r in rows:
        by_entity.setdefault(r["entity"], []).append((r["ts"], r["amount"]))
    entities, vectors = rfm.rfm_table(rfm_events(by_entity))
    y = np.array([labels[e] for e in entities])
    monetary = [i for i, name in enumerate(rfm.FEATURE_NAMES) if name.startswith("mon_")]
    for i in monetary:
        col = vectors[:, i]
        diff = abs(col[y == 1].mean() - col[y == 0].mean())
        assert diff < 0.05 * col.std(), rfm.FEATURE_NAMES[i]


def test_timestamps_sorted_within_entity():
    rows, _ = generate_rows(SynthConfig(n_entities=20, seed=8))
    by_entity = {}
    for r in rows:
        by_entity.setdefault(r["entity"], []).append(r["ts"])
    for ts in by_entity.values():
        assert ts == sorted(ts)


def test_schema_declares_roles():
    assert SCHEMA_JSON["monetary"] == "amount"
    assert SCHEMA_JSON["item"] == "item"
    assert SCHEMA_JSON["columns"]["entity"] == "entity_id"


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_entities=1)
    with pytest.raises(ConfigError):
        SynthConfig(signal="bogus")
    for field, value in [("item_vocab", 0), ("channel_vocab", 0), ("seed", -1), ("t_mean", float("nan")),
                         ("t_mean", float("-inf"))]:  # values generate_rows would crash on
        with pytest.raises(ConfigError, match=field):
            SynthConfig(**{field: value})
