"""The columnar reader against the row-at-a-time code it replaced.

`oracle_rows`, `oracle_fit`, `oracle_build` and `oracle_rfm_events` are the
per-row dict reader, `fit_schema`, `build_dataset` and `rfm_events_from_csv`
as they were before the log was read in column chunks, plus one change the
chunked reader brought: a timestamp outside the 64-bit range is a ParseError
naming its row in every command, where fitting used to accept it. On any
generated CSV, fitting, building and the RFM table must give the same bits,
or the same error with the same message and row.
"""
import csv
import io
import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from caspr import ingest, rfm
from caspr.errors import EmptyDataset, EmptyEntity, ParseError, SchemaMismatch
from caspr.ingest import ColumnSpec, FittedSchema, Schema, parse_timestamp, _parse_number

SCHEMA = Schema([ColumnSpec("entity", "entity_id"), ColumnSpec("ts", "timestamp"),
                 ColumnSpec("amount", "numerical"), ColumnSpec("item", "categorical"),
                 ColumnSpec("age", "static_numerical"), ColumnSpec("tier", "static_categorical")],
                monetary="amount", item="item")
HEADER = ["note", "item", "ts", "entity", "amount", "tier", "age"]  # not the schema's order, one extra
# age's tiny std makes some z-scores overflow, which build_dataset refuses
FIXED_FIT = FittedSchema(SCHEMA, vocab={"item": ["x", "y,z"], "tier": ["gold"]},
                         means={"amount": 1.0, "age": -2.0}, stds={"amount": 3.0, "age": 1e-300})
INT64_SPAN = (-2 ** 63, 2 ** 63)


# ------------------------------------------------------------------ oracles

def oracle_rows(path, schema):
    with ingest.open_csv(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: no header row") from None
        missing = [c.name for c in schema.columns if c.name not in header]
        if missing:
            raise SchemaMismatch(f"{path}: columns missing from CSV header: {missing}")
        index = {name: header.index(name) for name in header}
        for i, record in enumerate(reader):
            if len(record) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(record)}", i)
            yield {c.name: record[index[c.name]] for c in schema.columns}


def oracle_timestamp(text, i, lo=INT64_SPAN[0], hi=INT64_SPAN[1], what="the 64-bit range"):
    ts = parse_timestamp(text, i)
    if not lo <= ts < hi:
        raise ParseError(f"timestamp {text!r} lies outside {what}", i)
    return ts


def oracle_fit(rows, schema):
    numeric_cols = schema.names_of("numerical") + schema.names_of("static_numerical")
    cat_cols = schema.names_of("categorical") + schema.names_of("static_categorical")
    tiny, huge, scale = 2.0 ** -500, 2.0 ** 400, 2.0 ** 600
    shifts = None
    sums = {c: 0.0 for c in numeric_cols}
    sumsqs = {c: 0.0 for c in numeric_cols}
    tiny_sqs = {c: 0.0 for c in numeric_cols}
    huge_sums = {c: 0.0 for c in numeric_cols}
    huge_sqs = {c: 0.0 for c in numeric_cols}
    vocab = {c: [] for c in cat_cols}
    seen = {c: set() for c in cat_cols}
    n = 0
    for i, rec in enumerate(rows):
        oracle_timestamp(rec[schema.ts_col], i)
        if shifts is None:
            shifts = {c: _parse_number(rec[c], c, i) for c in numeric_cols}
        for c in numeric_cols:
            x = _parse_number(rec[c], c, i)
            d = x - shifts[c]
            if -tiny < d < tiny:
                sums[c] += d
                tiny_sqs[c] += (d * scale) ** 2
            elif -huge < d < huge:
                sums[c] += d
                sumsqs[c] += d * d
            else:
                d = x / scale - shifts[c] / scale
                huge_sums[c] += d
                huge_sqs[c] += d * d
        for c in cat_cols:
            v = rec[c]
            if v not in seen[c]:
                seen[c].add(v)
                vocab[c].append(v)
        n += 1
    if n == 0:
        raise EmptyDataset("fit_schema: empty input stream")
    means, stds = {}, {}
    for c in numeric_cols:
        means[c] = shifts[c] + sums[c] / n
        if huge_sqs[c]:
            dev = (huge_sums[c] + sums[c] / scale) / n
            means[c] = (shifts[c] / scale + dev) * scale
            var = (huge_sqs[c] + sumsqs[c] / scale / scale) / n - dev ** 2
            std = math.sqrt(max(var, 0.0)) * scale
        elif sumsqs[c]:
            std = math.sqrt(max(sumsqs[c] / n - (sums[c] / n) ** 2, 0.0))
        else:
            std = math.sqrt(max(tiny_sqs[c] / n - (sums[c] * scale / n) ** 2, 0.0)) / scale
        stds[c] = std if std > 0 else 1.0
    return FittedSchema(schema=schema, vocab=vocab, means=means, stds=stds)


def oracle_build(records, fitted, t):
    sch = fitted.schema
    num_cols = fitted.seq_numeric_cols + fitted.static_numeric_cols
    cat_cols = fitted.seq_categorical_cols + fitted.static_categorical_cols
    first_seen, owner, stamps, values, codes = {}, [], [], [], []
    for i, rec in enumerate(records):
        stamps.append(oracle_timestamp(rec[sch.ts_col], i))
        owner.append(first_seen.setdefault(rec[sch.entity_col], len(first_seen)))
        values.append([_parse_number(rec[c], c, i) for c in num_cols])
        codes.append([fitted.code_of(c, rec[c]) for c in cat_cols])
    if not owner:
        raise EmptyDataset("build_dataset: no data rows")
    stamps = np.array(stamps, dtype=np.int64)
    entities = np.array(sorted(first_seen), dtype=object)
    rank = np.empty(len(entities), dtype=np.int64)
    rank[[first_seen[e] for e in entities]] = np.arange(len(entities))
    owner = rank[owner]
    order = np.lexsort((stamps, owner))
    owner = owner[order]
    values = ingest._z_scores(np.array(values, dtype=np.float64), fitted, num_cols)[order]
    codes = np.array(codes, dtype=np.int64)[order]
    from_end = np.cumsum(np.bincount(owner))[owner] - np.arange(len(order)) - 1
    kept = from_end < t
    slot = t - 1 - from_end[kept]
    n_num, n_cat = len(fitted.seq_numeric_cols), len(fitted.seq_categorical_cols)
    real = np.zeros((len(entities), t), dtype=bool)
    nums = np.zeros((len(entities), t, n_num))
    cats = np.zeros((len(entities), t, n_cat), dtype=np.int64)
    real[owner[kept], slot] = True
    nums[owner[kept], slot] = values[kept, :n_num]
    cats[owner[kept], slot] = codes[kept, :n_cat]
    latest = from_end == 0
    statics = np.concatenate([values[latest, n_num:], codes[latest, n_cat:]], axis=1)
    return ingest.SequenceDataset(fitted, entities, real, nums, cats, statics)


def oracle_rfm_events(path, schema):
    by_entity = {}
    for i, rec in enumerate(oracle_rows(path, schema)):
        ts = oracle_timestamp(rec[schema.ts_col], i, rfm.FIRST_TS, rfm.END_TS, "the years 1 to 9998")
        amount = _parse_number(rec[schema.monetary], schema.monetary, i)
        by_entity.setdefault(rec[schema.entity_col], []).append((ts, amount))
    if not by_entity:
        raise EmptyEntity(f"{path}: no data rows")
    return by_entity


# ------------------------------------------------------------------ helpers

def outcome(fn):
    """fn()'s result, or its error as (type, message, row index)."""
    try:
        return fn()
    except (ParseError, EmptyDataset, EmptyEntity, SchemaMismatch) as exc:
        return type(exc), str(exc), getattr(exc, "row_index", None)


def same_dataset(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return list(a.entities) == list(b.entities) and all(
        getattr(a, f).dtype == getattr(b, f).dtype and getattr(a, f).shape == getattr(b, f).shape
        and getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("real", "nums", "cats", "statics"))


def same_table(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return [e for e, _ in a] == [e for e, _ in b] and np.array([v for _, v in a]).tobytes() == \
        np.array([v for _, v in b]).tobytes()


def write_csv(path, header, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def compare_all(path, t=3):
    """Fit, build (under a fixed fit and, when fitting works, the data's own) and RFM
    must match their oracles on the CSV at `path`."""
    new_fit = outcome(lambda: ingest.fit_schema(ingest.read_columns(path, SCHEMA), SCHEMA))
    old_fit = outcome(lambda: oracle_fit(oracle_rows(path, SCHEMA), SCHEMA))
    if isinstance(old_fit, tuple):
        assert new_fit == old_fit
    else:
        assert json.dumps(new_fit.to_json()) == json.dumps(old_fit.to_json())
    for fitted in [FIXED_FIT] + ([old_fit] if isinstance(old_fit, FittedSchema) else []):
        assert same_dataset(outcome(lambda: ingest.load_dataset(path, fitted, t)),
                            outcome(lambda: oracle_build(oracle_rows(path, SCHEMA), fitted, t)))
    assert same_table(outcome(lambda: rfm.rfm_table(rfm.rfm_events_from_csv(path, SCHEMA))),
                      outcome(lambda: rfm.rfm_table(oracle_rfm_events(path, SCHEMA))))


# ------------------------------------------------------------------ property

STAMPS = st.one_of(st.integers(1_600_000_000, 1_600_000_004).map(str),  # ties
                   st.integers(-2 ** 40, 2 ** 40).map(str),
                   st.sampled_from(["2021-01-05T00:00:00Z", "2021-01-05", "2021-01-05T03:00:00+02:00"]))
NUMBERS = st.one_of(st.floats(-1e6, 1e6).map(repr), st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.sampled_from(["1e308", "-1e308", "5e-324", "-2.2e-308", "1_000", " 7 ", "+.5", "5."]))
BAD_CELLS = {"ts": ["not-a-time", "99999999999999999999", "1.5", "-99999999999"],
             "amount": ["oops", "nan", "-inf", "1e999", ""], "age": ["x", "inf", "5e10"]}  # 5e10: z-score overflow


@st.composite
def logs(draw):
    n = draw(st.integers(0, 12))
    rows = []
    for _ in range(n):
        cells = {"note": draw(st.sampled_from(["", "a,b", 'say "hi"'])),
                 "item": draw(st.sampled_from(["x", "y,z", '"q"', "", "new"])),
                 "ts": draw(STAMPS), "entity": draw(st.sampled_from(["a", "b", "c,d", 'q"x', "é"])),
                 "amount": draw(NUMBERS), "tier": draw(st.sampled_from(["gold", "lead"])),
                 "age": draw(st.sampled_from(["30", "-2", "1e-290", "0.5"]))}
        rows.append([cells[h] for h in HEADER])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # faults, at most two
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["ts", "amount", "age", "short", "long"]))
        if kind == "short":
            rows[i] = rows[i][:-1]
        elif kind == "long":
            rows[i] = rows[i] + ["extra"]
        else:
            rows[i][HEADER.index(kind)] = draw(st.sampled_from(BAD_CELLS[kind]))
    return rows


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=logs(), chunk=st.sampled_from([1, 2, 3, 5, ingest.CHUNK_ROWS]))
def test_matches_the_row_at_a_time_oracles(rows, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "CHUNK_ROWS", chunk):
        path = os.path.join(tmp, "log.csv")
        write_csv(path, HEADER, rows)
        compare_all(path)


def test_matches_the_oracles_either_side_of_a_full_chunk(tmp_path):
    rng = np.random.default_rng(4)
    for n in (ingest.CHUNK_ROWS - 1, ingest.CHUNK_ROWS, ingest.CHUNK_ROWS + 1, 2 * ingest.CHUNK_ROWS + 7):
        rows = [["", f"i{k % 7}", str(1_600_000_000 + int(k) // 3), f"e{k % 50}", repr(float(x)), "gold", "30"]
                for k, x in enumerate(rng.lognormal(2.0, 1.0, n))]
        write_csv(tmp_path / "log.csv", HEADER, rows)
        compare_all(tmp_path / "log.csv", t=15)


# ------------------------------------------------------- errors at chunk edges

GOOD = ["", "x", "1600000000", "a", "1.5", "gold", "30"]


@pytest.mark.parametrize("row", [4, 7])  # with 3-row chunks: inside the second and third chunk
@pytest.mark.parametrize("fault, message", [
    (("amount", "oops"), "bad number 'oops' in column 'amount'"),
    (("amount", "nan"), "non-finite number 'nan' in column 'amount'"),
    (("age", "1e999"), "non-finite number '1e999' in column 'age'"),
    ("short", "expected 7 fields, got 6"),
    (("ts", "yesterday"), "bad timestamp 'yesterday'"),
])
def test_errors_name_their_absolute_row(tmp_path, monkeypatch, row, fault, message):
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 3)
    rows = [list(GOOD) for _ in range(10)]
    if fault == "short":
        rows[row].pop()
    else:
        rows[row][HEADER.index(fault[0])] = fault[1]
    path = tmp_path / "log.csv"
    write_csv(path, HEADER, rows)
    readers = [lambda: ingest.fit_schema(ingest.read_columns(path, SCHEMA), SCHEMA),
               lambda: ingest.load_dataset(path, FIXED_FIT, 4)]
    if fault == "short" or fault[0] != "age":  # rfm reads only the timestamp and the amount
        readers.append(lambda: rfm.rfm_events_from_csv(path, SCHEMA))
    for read in readers:
        with pytest.raises(ParseError) as exc:
            read()
        assert exc.value.row_index == row and str(exc.value) == f"row {row}: {message}"


def test_an_earlier_bad_cell_beats_a_later_short_row_of_the_same_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 8)
    rows = [list(GOOD) for _ in range(6)]
    rows[2][HEADER.index("amount")] = "oops"
    rows[4].pop()
    write_csv(tmp_path / "log.csv", HEADER, rows)
    with pytest.raises(ParseError, match="row 2: bad number"):
        ingest.fit_schema(ingest.read_columns(tmp_path / "log.csv", SCHEMA), SCHEMA)


def test_a_repeated_schema_column_in_the_header_is_refused(tmp_path):
    write_csv(tmp_path / "log.csv", HEADER + ["amount"], [GOOD + ["2.5"]])
    with pytest.raises(SchemaMismatch, match=r"columns repeated in CSV header: \['amount'\]"):
        next(ingest.read_columns(tmp_path / "log.csv", SCHEMA))
    write_csv(tmp_path / "log.csv", HEADER + ["note"], [GOOD + [""]])  # a column the schema does not read
    assert next(ingest.read_columns(tmp_path / "log.csv", SCHEMA))[0] == 0


# ------------------------------------------------------------------- memory

def write_big_log(path, n):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HEADER) + "\n")
        fh.writelines(f",i{k % 12},{1_600_000_000 + 37 * k},e{k % 5000},{k % 997 * 0.37:.4f},gold,{k % 80}\n"
                      for k in range(n))


def peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_fit_memory_is_a_few_chunks_not_the_log(tmp_path):
    schema = Schema([ColumnSpec("entity", "entity_id"), ColumnSpec("ts", "timestamp"),
                     ColumnSpec("amount", "numerical"), ColumnSpec("item", "categorical")])
    path = tmp_path / "big.csv"
    with open(path, "w", encoding="utf-8") as fh:  # 200k rows, about 6 MiB
        fh.write("entity,ts,amount,item\n")
        fh.writelines(f"e{k % 5000},{1_600_000_000 + 37 * k},{k % 997 * 0.37:.4f},i{k % 12}\n"
                      for k in range(200_000))
    peak, fitted = peak_bytes(lambda: ingest.fit_schema(ingest.read_columns(path, schema), schema))
    assert len(fitted.vocab["item"]) == 12
    assert peak < 8 * 2 ** 20, f"fit_schema peaked at {peak / 2 ** 20:.1f} MiB"


def test_load_dataset_memory_is_its_arrays_plus_a_chunk(tmp_path):
    """While it reads, build_dataset keeps 6 int64 or float64 cells per row (owner,
    timestamp, 2 numbers, 2 codes), and joining the chunks' arrays doubles that; the
    output and a few chunks come on top. The per-row lists it used to build took
    three times as much."""
    n = 100_000
    path = tmp_path / "big.csv"
    write_big_log(path, n)
    peak, ds = peak_bytes(lambda: ingest.load_dataset(path, FIXED_FIT, 15))
    out = sum(getattr(ds, f).nbytes for f in ("real", "nums", "cats", "statics"))
    assert len(ds.entities) == 5000
    assert peak < out + 2 * 6 * 8 * n + 4 * 2 ** 20, f"load_dataset peaked at {peak / 2 ** 20:.1f} MiB"
