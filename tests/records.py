"""In-memory activity logs in the forms the library reads from a CSV file.

`chunks` turns a list of record dicts into what `ingest.read_columns`
yields, for `fit_schema` and `build_dataset`; `rfm_events` turns
{entity: [(ts, amount), ...]} into what `rfm.rfm_events_from_csv` returns,
for `rfm_table`.
"""
import numpy as np


def chunks(records, schema):
    """read_columns' chunks of record dicts (column name -> cell string): one chunk, or none."""
    return [(0, {c.name: [rec[c.name] for rec in records] for c in schema.columns})] if records else []


def rfm_events(by_entity):
    """rfm_events_from_csv's (sorted entity ids, each event's index into them, ts, amount) arrays.

    Events are listed entity by entity, in sorted id order, each entity's in
    its list's order.
    """
    entities = sorted(by_entity)
    events = [(i, ts, amount) for i, e in enumerate(entities) for ts, amount in by_entity[e]]
    owner, ts, amount = zip(*events)
    return (np.array(entities, dtype=object), np.array(owner, dtype=np.int64),
            np.array(ts, dtype=np.float64), np.array(amount, dtype=np.float64))
