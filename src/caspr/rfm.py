"""Recency/frequency/monetary baseline features, one fixed 19-float vector
per entity.

All durations are fractional days. Weekly buckets are Monday-aligned ISO
weeks and monthly buckets calendar months (UTC), spanning the entity's first
activity through the reference time with empty periods counted as zero.
Standard deviations use the population convention (divide by n) so
single-event entities yield 0 rather than NaN.

The table is one vectorized pass: every entity's events sit in one array
sorted by (entity, time), and each feature is a reduction over the entity's
segment of it. Bucket statistics read only the non-empty buckets, so memory
is O(events) however many weeks an entity spans.
"""
from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from .errors import SchemaMismatch
from .ingest import read_columns, read_events

SECONDS_PER_DAY = 86400.0

# Event times that have a calendar date, leaving the default reference time
# (a day after the latest event) inside year 9999 too.
FIRST_TS = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
END_TS = int(datetime(9999, 1, 1, tzinfo=timezone.utc).timestamp())
CALENDAR = (FIRST_TS, END_TS, "the years 1 to 9998")

FEATURE_NAMES = [
    "rec_days_since_last",
    "rec_days_since_first",
    "rec_span_days",
    "freq_gap_min_days",
    "freq_gap_max_days",
    "freq_gap_mean_days",
    "freq_gap_std_days",
    "freq_weekly_count_mean",
    "freq_weekly_count_std",
    "freq_monthly_count_mean",
    "freq_monthly_count_std",
    "mon_amount_min",
    "mon_amount_max",
    "mon_amount_mean",
    "mon_amount_std",
    "mon_weekly_spend_mean",
    "mon_weekly_spend_std",
    "mon_monthly_spend_mean",
    "mon_monthly_spend_std",
]


def _bucket_moments(bucket, is_start, owner, amount, n_buckets):
    """Mean and population std of each entity's event count and spend per bucket.

    `bucket` is each event's bucket index, non-decreasing within an entity,
    and `n_buckets` how many consecutive buckets each entity spans. Only the
    non-empty buckets are summed; the empty ones are zeros, which add
    n_empty * mean**2 to the squared deviations. Returns (count mean, count
    std, spend mean, spend std) arrays.
    """
    new_run = is_start.copy()
    new_run[1:] |= bucket[1:] != bucket[:-1]
    run = np.cumsum(new_run) - 1
    run_owner = owner[new_run]
    n_empty = n_buckets - np.bincount(run_owner)
    moments = []
    for per_run in (np.bincount(run).astype(np.float64), np.bincount(run, weights=amount)):
        mean = np.bincount(run_owner, weights=per_run) / n_buckets
        sq_dev = np.bincount(run_owner, weights=(per_run - mean[run_owner]) ** 2)
        moments += [mean, np.sqrt((sq_dev + n_empty * mean**2) / n_buckets)]
    return moments


def _feature_matrix(ts, amount, owner, starts, counts, reference_ts):
    """(entities, 19) features, ordered as FEATURE_NAMES, of events sorted by (owner, ts)."""
    is_start = np.zeros(len(ts), dtype=bool)
    is_start[starts] = True
    first, last = ts[starts], ts[starts + counts - 1]

    # an entity's gaps sit on its rows after the first; gaps are >= 0, so a 0
    # on its first row is neutral for the sum and the max
    gap = np.diff(ts, prepend=ts[0]) / SECONDS_PER_DAY
    inner_gap = np.where(is_start, 0.0, gap)
    n_gaps = np.maximum(counts - 1, 1)
    gap_mean = np.add.reduceat(inner_gap, starts) / n_gaps
    gap_dev = np.where(is_start, 0.0, gap - gap_mean[owner])
    gap_min = np.where(counts > 1, np.minimum.reduceat(np.where(is_start, np.inf, gap), starts), 0.0)
    gap_max = np.maximum.reduceat(inner_gap, starts)
    gap_std = np.sqrt(np.add.reduceat(gap_dev**2, starts) / n_gaps)

    amount_mean = np.add.reduceat(amount, starts) / counts
    amount_std = np.sqrt(np.add.reduceat((amount - amount_mean[owner]) ** 2, starts) / counts)

    # whole seconds truncated as int() does, then floored to the UTC day
    day = ts.astype(np.int64) // 86400
    ref_day = int(reference_ts) // 86400
    # epoch day 0 is a Thursday, so (day + 3) // 7 counts Monday-aligned weeks:
    # consecutive indices are consecutive ISO (year, week) keys
    week = (day + 3) // 7
    month = day.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    ref_month = np.datetime64(ref_day, "D").astype("datetime64[M]").astype(np.int64)
    wc_mean, wc_std, ws_mean, ws_std = _bucket_moments(
        week, is_start, owner, amount, (ref_day + 3) // 7 - week[starts] + 1)
    mc_mean, mc_std, ms_mean, ms_std = _bucket_moments(
        month, is_start, owner, amount, ref_month - month[starts] + 1)

    return np.column_stack([
        (reference_ts - last) / SECONDS_PER_DAY,
        (reference_ts - first) / SECONDS_PER_DAY,
        (last - first) / SECONDS_PER_DAY,
        gap_min, gap_max, gap_mean, gap_std,
        wc_mean, wc_std, mc_mean, mc_std,
        np.minimum.reduceat(amount, starts), np.maximum.reduceat(amount, starts), amount_mean, amount_std,
        ws_mean, ws_std, ms_mean, ms_std,
    ])


def rfm_events_from_csv(data_path, schema):
    """(sorted entity ids, each row's index into them, ts, monetary amount) arrays, in file order."""
    if schema.monetary is None:
        raise SchemaMismatch("schema has no monetary column for RFM features")
    entities, owner, ts, amount, _ = read_events(read_columns(data_path, schema), schema, [schema.monetary],
                                                 ts_bounds=CALENDAR)
    return entities, owner, ts.astype(np.float64), amount[0]


def rfm_table(events, reference_ts=None):
    """(entity ids, (entities, 19) feature matrix), one row per entity, sorted by id.

    `events` is the arrays of rfm_events_from_csv. When reference_ts is
    omitted it defaults to the dataset's maximum timestamp plus one day.
    Events with equal timestamps keep their input order.
    """
    entities, owner, ts, amount = events
    order = np.lexsort((ts, owner))  # stable, so equal times keep their input order
    owner, ts, amount = owner[order], ts[order], amount[order]
    counts = np.bincount(owner, minlength=len(entities))
    if reference_ts is None:
        reference_ts = ts.max() + SECONDS_PER_DAY
    if reference_ts < ts.max():
        raise SchemaMismatch("reference_ts precedes the latest activity")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite feature, refused below
        matrix = _feature_matrix(ts, amount, owner, np.cumsum(counts) - counts, counts, reference_ts)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        row, col = bad[0]
        raise SchemaMismatch(f"rfm_features produced a non-finite {FEATURE_NAMES[col]} "
                             f"for entity {entities[row]!r}")
    return entities, matrix
