"""Recency/frequency/monetary baseline features, one fixed 19-float vector
per entity.

All durations are fractional days. Weekly buckets are ISO weeks and monthly
buckets calendar months (UTC), spanning the entity's first activity through
the reference time with empty periods counted as zero. Standard deviations
use the population convention (divide by n) so single-event entities yield
0 rather than NaN.
"""
from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import EmptyEntity, ParseError, SchemaMismatch
from .ingest import iter_raw_rows, parse_timestamp, _parse_number

SECONDS_PER_DAY = 86400.0

# Event times that have a calendar date, leaving the default reference time
# (a day after the latest event) and the week after it inside year 9999 too.
FIRST_TS = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
END_TS = int(datetime(9999, 1, 1, tzinfo=timezone.utc).timestamp())

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


def _utc_date(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


def _iso_week_key(d):
    iso = d.isocalendar()
    return (iso[0], iso[1])


def _iter_iso_weeks(first, last):
    """Every ISO (year, week) from first's week through last's week."""
    monday = first - timedelta(days=first.weekday())
    keys = []
    while monday <= last:
        keys.append(_iso_week_key(monday))
        monday += timedelta(days=7)
    return keys


def _iter_months(first, last):
    keys = []
    y, m = first.year, first.month
    while (y, m) <= (last.year, last.month):
        keys.append((y, m))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return keys


def _bucket_stats(values_by_key, all_keys):
    series = np.array([values_by_key.get(k, 0.0) for k in all_keys], dtype=np.float64)
    return float(series.mean()), float(series.std())


def rfm_features(events, reference_ts):
    """Compute the 19-feature vector for one entity.

    `events` is a list of (ts, amount) pairs; reference_ts must be at or
    after the latest event.
    """
    if not events:
        raise EmptyEntity("rfm_features: entity has no activity rows")
    events = sorted(events, key=lambda e: e[0])
    ts = np.array([e[0] for e in events], dtype=np.float64)
    amounts = np.array([e[1] for e in events], dtype=np.float64)
    if reference_ts < ts[-1]:
        raise SchemaMismatch("reference_ts precedes the latest activity")

    days_since_last = (reference_ts - ts[-1]) / SECONDS_PER_DAY
    days_since_first = (reference_ts - ts[0]) / SECONDS_PER_DAY
    span = (ts[-1] - ts[0]) / SECONDS_PER_DAY

    if len(ts) > 1:
        gaps = np.diff(ts) / SECONDS_PER_DAY
        gap_stats = [float(gaps.min()), float(gaps.max()), float(gaps.mean()), float(gaps.std())]
    else:
        gap_stats = [0.0, 0.0, 0.0, 0.0]

    first_date = _utc_date(int(ts[0]))
    ref_date = _utc_date(int(reference_ts))
    week_keys = _iter_iso_weeks(first_date, ref_date)
    month_keys = _iter_months(first_date, ref_date)

    week_counts: dict = {}
    week_spend: dict = {}
    month_counts: dict = {}
    month_spend: dict = {}
    for t_i, a_i in zip(ts, amounts):
        d = _utc_date(int(t_i))
        wk = _iso_week_key(d)
        mk = (d.year, d.month)
        week_counts[wk] = week_counts.get(wk, 0.0) + 1.0
        week_spend[wk] = week_spend.get(wk, 0.0) + a_i
        month_counts[mk] = month_counts.get(mk, 0.0) + 1.0
        month_spend[mk] = month_spend.get(mk, 0.0) + a_i

    wc_mean, wc_std = _bucket_stats(week_counts, week_keys)
    mc_mean, mc_std = _bucket_stats(month_counts, month_keys)
    ws_mean, ws_std = _bucket_stats(week_spend, week_keys)
    ms_mean, ms_std = _bucket_stats(month_spend, month_keys)

    vec = np.array(
        [
            days_since_last,
            days_since_first,
            span,
            *gap_stats,
            wc_mean,
            wc_std,
            mc_mean,
            mc_std,
            float(amounts.min()),
            float(amounts.max()),
            float(amounts.mean()),
            float(amounts.std()),
            ws_mean,
            ws_std,
            ms_mean,
            ms_std,
        ],
        dtype=np.float64,
    )
    if not np.isfinite(vec).all():
        raise SchemaMismatch("rfm_features produced a non-finite value")
    return vec


def rfm_events_from_csv(data_path, schema):
    """Group (ts, amount) pairs per entity using the schema's monetary column."""
    if schema.monetary is None:
        raise SchemaMismatch("schema has no monetary column for RFM features")
    by_entity: dict[str, list] = {}
    for i, rec in enumerate(iter_raw_rows(data_path, schema)):
        ts = parse_timestamp(rec[schema.ts_col], i)
        if not FIRST_TS <= ts < END_TS:
            raise ParseError(f"timestamp {rec[schema.ts_col]!r} lies outside the years 1 to 9998", i)
        amount = _parse_number(rec[schema.monetary], schema.monetary, i)
        by_entity.setdefault(rec[schema.entity_col], []).append((ts, amount))
    if not by_entity:
        raise EmptyEntity(f"{data_path}: no data rows")
    return by_entity


def rfm_table(by_entity, reference_ts=None):
    """One (entity, vector) row per entity, sorted by id.

    When reference_ts is omitted it defaults to the dataset's maximum
    timestamp plus one day.
    """
    if reference_ts is None:
        reference_ts = max(ts for events in by_entity.values() for ts, _ in events) + SECONDS_PER_DAY
    return [(entity, rfm_features(by_entity[entity], reference_ts)) for entity in sorted(by_entity)]
