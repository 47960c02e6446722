"""RFM feature tests against a hand-computed 3-entity fixture and a
per-entity reference implementation.

Fixture values were produced by an independent oracle (plain datetime
arithmetic and population statistics, no numpy) and spot-checked by hand;
they are frozen here as literals. `oracle_features` walks every calendar
week and month of one entity with `datetime`; the vectorized table must
match it on generated entities.
"""
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from caspr import ingest
from caspr.errors import EmptyDataset, SchemaMismatch
from caspr.rfm import END_TS, FEATURE_NAMES, FIRST_TS, SECONDS_PER_DAY, rfm_events_from_csv, rfm_table
from records import rfm_events

TS_A1 = 1610236800  # 2021-01-10 00:00 UTC
TS_B1 = 1609804800  # 2021-01-05 00:00 UTC
TS_B2 = 1610668800  # 2021-01-15 00:00 UTC
TS_C1 = 1609761600  # 2021-01-04 12:00 UTC
TS_C2 = 1609891200  # 2021-01-06 00:00 UTC
TS_C3 = 1612159200  # 2021-02-01 06:00 UTC

EVENTS = {
    "A": [(TS_A1, 10.0)],
    "B": [(TS_B1, 5.0), (TS_B2, 15.0)],
    "C": [(TS_C1, 7.5), (TS_C2, 2.5), (TS_C3, 20.0)],
}
REFERENCE = TS_C3 + 86400  # dataset max + 1 day


def features_of(events, reference_ts):
    """The 19-feature vector of one entity's (ts, amount) events: its row of rfm_table."""
    return rfm_table(rfm_events({"": events}), reference_ts)[1][0]

# frozen oracle output, ordered as FEATURE_NAMES
EXPECTED = {
    "A": [23.25, 23.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.4000000000000001, 0.5, 0.5,
          10.0, 10.0, 10.0, 0.0, 2.0, 4.0, 5.0, 5.0],
    "B": [18.25, 28.25, 10.0, 10.0, 10.0, 10.0, 0.0, 0.4, 0.48989794855663565, 1.0, 1.0,
          5.0, 15.0, 10.0, 5.0, 4.0, 5.830951894845301, 10.0, 10.0],
    "C": [1.0, 28.75, 27.75, 1.5, 26.25, 13.875, 12.375, 0.6, 0.7999999999999999, 1.5, 0.5,
          2.5, 20.0, 10.0, 7.359800721939872, 6.0, 8.0, 15.0, 5.0],
}


def test_vector_has_nineteen_named_features():
    assert len(FEATURE_NAMES) == 19
    vec = features_of(EVENTS["A"], REFERENCE)
    assert vec.shape == (19,)


def test_single_activity_degenerate_case():
    ref = TS_A1  # reference equals the only activity
    vec = features_of([(TS_A1, 10.0)], ref)
    named = dict(zip(FEATURE_NAMES, vec))
    assert named["rec_days_since_last"] == 0.0
    assert named["rec_days_since_first"] == 0.0
    assert named["rec_span_days"] == 0.0
    for gap in ("freq_gap_min_days", "freq_gap_max_days", "freq_gap_mean_days", "freq_gap_std_days"):
        assert named[gap] == 0.0
    assert named["mon_amount_min"] == named["mon_amount_max"] == named["mon_amount_mean"] == 10.0
    assert named["mon_amount_std"] == 0.0


def test_two_activities_ten_days_apart():
    vec = dict(zip(FEATURE_NAMES, features_of(EVENTS["B"], REFERENCE)))
    assert vec["freq_gap_min_days"] == vec["freq_gap_max_days"] == vec["freq_gap_mean_days"] == 10.0
    assert vec["freq_gap_std_days"] == 0.0
    assert vec["mon_amount_mean"] == 10.0
    assert vec["mon_amount_min"] == 5.0 and vec["mon_amount_max"] == 15.0


def test_recency_identity():
    for events in EVENTS.values():
        vec = dict(zip(FEATURE_NAMES, features_of(events, REFERENCE)))
        np.testing.assert_allclose(
            vec["rec_days_since_first"] - vec["rec_days_since_last"], vec["rec_span_days"],
            atol=1e-12)


def test_three_entity_fixture_matches_oracle():
    entities, matrix = rfm_table(rfm_events(EVENTS), REFERENCE)
    assert list(entities) == ["A", "B", "C"]
    for entity, vec in zip(entities, matrix):
        np.testing.assert_allclose(vec, EXPECTED[entity], atol=1e-9)


def test_default_reference_is_max_plus_one_day():
    for entity, vec in zip(*rfm_table(rfm_events(EVENTS))):
        np.testing.assert_allclose(vec, EXPECTED[entity], atol=1e-9)


def test_permutation_invariance():
    shuffled = {k: list(reversed(v)) for k, v in EVENTS.items()}
    (e1, v1), (e2, v2) = rfm_table(rfm_events(EVENTS), REFERENCE), rfm_table(rfm_events(shuffled), REFERENCE)
    assert list(e1) == list(e2)
    np.testing.assert_array_equal(v1, v2)


def test_all_features_finite_for_random_entities():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        ts = np.sort(rng.integers(1_600_000_000, 1_650_000_000, size=n))
        amounts = rng.lognormal(2.0, 1.0, size=n)
        vec = features_of(list(zip(ts.tolist(), amounts.tolist())), 1_650_000_000 + 86400)
        assert np.isfinite(vec).all()


def test_log_without_events_is_empty_dataset(tmp_path):
    schema = ingest.Schema([ingest.ColumnSpec("entity", "entity_id"), ingest.ColumnSpec("ts", "timestamp"),
                            ingest.ColumnSpec("amount", "numerical")], monetary="amount")
    (tmp_path / "log.csv").write_text("entity,ts,amount\n")
    with pytest.raises(EmptyDataset, match="no data rows"):
        rfm_events_from_csv(tmp_path / "log.csv", schema)


def test_durations_are_fractional_days():
    vec = dict(zip(FEATURE_NAMES, features_of([(0, 1.0)], 43200)))
    assert vec["rec_days_since_last"] == 0.5


# ----------------------------------------------------------------- reference

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


def oracle_features(events, reference_ts):
    """One entity's 19 features, walking every calendar week and month it spans."""
    events = sorted(events, key=lambda e: e[0])
    ts = np.array([e[0] for e in events], dtype=np.float64)
    amounts = np.array([e[1] for e in events], dtype=np.float64)
    if len(ts) > 1:
        gaps = np.diff(ts) / SECONDS_PER_DAY
        gap_stats = [float(gaps.min()), float(gaps.max()), float(gaps.mean()), float(gaps.std())]
    else:
        gap_stats = [0.0, 0.0, 0.0, 0.0]

    first_date = _utc_date(int(ts[0]))
    ref_date = _utc_date(int(reference_ts))
    week_keys = _iter_iso_weeks(first_date, ref_date)
    month_keys = _iter_months(first_date, ref_date)
    week_counts, week_spend, month_counts, month_spend = {}, {}, {}, {}
    for t_i, a_i in zip(ts, amounts):
        d = _utc_date(int(t_i))
        wk, mk = _iso_week_key(d), (d.year, d.month)
        week_counts[wk] = week_counts.get(wk, 0.0) + 1.0
        week_spend[wk] = week_spend.get(wk, 0.0) + a_i
        month_counts[mk] = month_counts.get(mk, 0.0) + 1.0
        month_spend[mk] = month_spend.get(mk, 0.0) + a_i

    return np.array([
        (reference_ts - ts[-1]) / SECONDS_PER_DAY,
        (reference_ts - ts[0]) / SECONDS_PER_DAY,
        (ts[-1] - ts[0]) / SECONDS_PER_DAY,
        *gap_stats,
        *_bucket_stats(week_counts, week_keys),
        *_bucket_stats(month_counts, month_keys),
        float(amounts.min()), float(amounts.max()), float(amounts.mean()), float(amounts.std()),
        *_bucket_stats(week_spend, week_keys),
        *_bucket_stats(month_spend, month_keys),
    ])


# Features of one kind share a scale: durations, counts per bucket, amounts,
# spend per bucket. Rounding differs between the two implementations by a
# few ulps of the largest value of a kind, so each kind is compared relative
# to that value.
FEATURE_KINDS = [slice(0, 7), slice(7, 11), slice(11, 15), slice(15, 19)]


def assert_matches_oracle(table, by_entity, reference_ts):
    entities, matrix = table
    assert list(entities) == sorted(by_entity)
    for entity, vec in zip(entities, matrix):
        want = oracle_features(by_entity[entity], reference_ts)
        for kind in FEATURE_KINDS:
            scale = max(float(np.abs(want[kind]).max()), 1e-300)
            np.testing.assert_allclose(vec[kind], want[kind], rtol=0, atol=1e-12 * scale,
                                       err_msg=f"entity {entity!r}")


DAY = 86400
YEAR = 365 * DAY
TS_WEEK_53 = 1609372800   # 2020-12-31, a Thursday in ISO week 2020-W53
TS_DEC_31_1968 = -31622400  # a Tuesday in ISO week 1969-W01
TS_LAST_DAY = END_TS - DAY  # 9998-12-31, in ISO week 9998-W53
# the oracle's week walk steps past the latest date it is given, so its
# reference stays out of the last week of year 9999
LAST_REFERENCE = END_TS + 300 * DAY

BASES = [FIRST_TS, FIRST_TS + DAY - 1, -3 * DAY, -1, 0, TS_DEC_31_1968, TS_WEEK_53 - 3 * DAY,
         1612051199, TS_LAST_DAY - 14 * DAY]  # 1612051199 is 2021-01-31 23:59:59
OFFSETS = [0, 1, DAY - 1, DAY, 3 * DAY, 7 * DAY, 31 * DAY]


@st.composite
def entity_tables(draw):
    """({entity: [(ts, amount), ...]}, reference_ts) with every event inside years 1 to 9998.

    The entities start within a year of each other and the reference at most
    30 years after the latest event, which keeps the oracle's week walk short.
    """
    era = draw(st.sampled_from(BASES) | st.integers(FIRST_TS, END_TS - YEAR))
    by_entity = {}
    for k in range(draw(st.integers(1, 4))):
        base = min(era + draw(st.sampled_from([0, 0, DAY]) | st.integers(0, YEAR)), END_TS - 40 * DAY)
        offsets = draw(st.lists(st.sampled_from(OFFSETS) | st.integers(0, 40 * DAY), min_size=1, max_size=8))
        amounts = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(offsets), max_size=len(offsets)))
        by_entity[f"e{k}"] = [(min(base + o, TS_LAST_DAY), a) for o, a in zip(offsets, amounts)]
    latest = max(ts for events in by_entity.values() for ts, _ in events)
    after = draw(st.sampled_from([0, 0.5, DAY, 6 * DAY]) | st.floats(0, 30 * YEAR))
    return by_entity, min(latest + after, LAST_REFERENCE)


@settings(max_examples=150, deadline=None)
@given(entity_tables())
@example(({"w53": [(TS_WEEK_53, 1.0), (TS_WEEK_53 + 3 * DAY, 2.0), (TS_WEEK_53 + 4 * DAY, 4.0)]},
          TS_WEEK_53 + 20 * DAY))
@example(({"pre1970": [(TS_DEC_31_1968, 3.0), (-1, 1.0)], "neg_ref": [(-DAY, 2.0)]}, -0.5))
@example(({"month_end": [(1612051199, 1.0), (1612051200, 2.0)], "ties": [(0, 1.0), (0, 2.0), (0, -3.0)]},
          1612051200 + 40 * DAY))
@example(({"year1": [(FIRST_TS, 5.0), (FIRST_TS + 10 * DAY, 7.0)], "single": [(TS_LAST_DAY, 1.0)]},
          TS_LAST_DAY + DAY))
@example(({"far": [(1600000000, 2.0), (1600000000 + DAY, 3.0)]}, 1600000000 + 30 * YEAR))
def test_table_matches_per_entity_oracle(case):
    by_entity, reference_ts = case
    assert_matches_oracle(rfm_table(rfm_events(by_entity), reference_ts), by_entity, reference_ts)


def test_default_reference_matches_oracle():
    latest = max(ts for events in EVENTS.values() for ts, _ in events)
    assert_matches_oracle(rfm_table(rfm_events(EVENTS)), EVENTS, latest + SECONDS_PER_DAY)


def test_equal_timestamps_keep_input_order():
    """Tied events feed the same buckets, so only their order in the gaps could differ; it must not."""
    events = [(100, 1.0), (50, 2.0), (100, 3.0), (50, 4.0)]
    np.testing.assert_array_equal(features_of(events, 200), oracle_features(events, 200))


def test_memory_is_linear_in_events():
    """Entities spanning year 1 to 9998 cover about 520k weeks each, but only their events are stored."""
    by_entity = {f"e{k:02d}": [(FIRST_TS + k, 1.0), (FIRST_TS + 9 * DAY, 2.0), (TS_LAST_DAY - k, 3.0)]
                 for k in range(20)}
    tracemalloc.start()
    tic = time.perf_counter()
    try:
        _, matrix = rfm_table(rfm_events(by_entity))
        elapsed = time.perf_counter() - tic
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 2.0
    n_weeks = (TS_LAST_DAY // DAY + 3) // 7 - (FIRST_TS // DAY + 3) // 7 + 1
    for vec in matrix:
        assert dict(zip(FEATURE_NAMES, vec))["freq_weekly_count_mean"] == 3 / n_weeks


def test_reference_before_latest_event_rejected():
    with pytest.raises(SchemaMismatch, match="reference_ts precedes the latest activity"):
        rfm_table(rfm_events(EVENTS), TS_C3 - 1)


def test_overflow_is_one_schema_mismatch_naming_entity_and_feature(recwarn):
    with pytest.raises(SchemaMismatch) as exc:
        rfm_table(rfm_events({"a": [(0, 1.0)], "b": [(0, 1e308), (1, -1e308)]}))
    assert str(exc.value) == "rfm_features produced a non-finite mon_amount_std for entity 'b'"
    assert not recwarn.list
