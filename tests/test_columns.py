"""The columnar reader against the row-at-a-time code it replaced.

`oracle_rows`, `oracle_fit`, `oracle_build` and `oracle_rfm_events` are the
per-row dict reader, `fit_schema`, `build_dataset` and `rfm_events_from_csv`
as they were before the log was read in column chunks, plus two changes
since: a timestamp outside the 64-bit range is a ParseError naming its row
in every command, where fitting used to accept it, and a log without data
rows is one EmptyDataset for building and RFM alike, where RFM raised
EmptyEntity. On any
generated CSV, fitting, building and the RFM table must give the same bits,
or the same error with the same message and row.

oracle_fit is the bitwise reference for fitting only where every numeric
value stays in the normal range once fit_schema scales it by 2**-k
(in_bitwise_range); its variance squares the mean deviation as a product,
because Python's `** 2` calls libm's pow, which does not always round as
x * x does. Elsewhere the fitted means and stds are checked against exact
rational statistics (assert_exact_statistics).
"""
import csv
import io
import json
import math
import os
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from caspr import ingest, rfm
from caspr.errors import ContractViolation, EmptyDataset, ParseError, SchemaMismatch
from caspr.ingest import ColumnSpec, FittedSchema, Schema, parse_timestamp, _parse_number
from records import rfm_events

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
        raise EmptyDataset("the activity log has no data rows")
    means, stds = {}, {}
    for c in numeric_cols:
        means[c] = shifts[c] + sums[c] / n
        if huge_sqs[c]:
            dev = (huge_sums[c] + sums[c] / scale) / n
            means[c] = (shifts[c] / scale + dev) * scale
            var = (huge_sqs[c] + sumsqs[c] / scale / scale) / n - dev ** 2
            std = math.sqrt(max(var, 0.0)) * scale
        elif sumsqs[c]:
            std = math.sqrt(max(sumsqs[c] / n - (sums[c] / n) * (sums[c] / n), 0.0))
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
        codes.append([fitted.vocab[c].index(rec[c]) + 1 if rec[c] in fitted.vocab[c] else 0 for c in cat_cols])
    if not owner:
        raise EmptyDataset("the activity log has no data rows")
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
    return ingest.SequenceDataset(fitted, entities, real, real, nums, cats, statics)


def oracle_rfm_events(path, schema):
    by_entity = {}
    for i, rec in enumerate(oracle_rows(path, schema)):
        ts = oracle_timestamp(rec[schema.ts_col], i, rfm.FIRST_TS, rfm.END_TS, "the years 1 to 9998")
        amount = _parse_number(rec[schema.monetary], schema.monetary, i)
        by_entity.setdefault(rec[schema.entity_col], []).append((ts, amount))
    if not by_entity:
        raise EmptyDataset("the activity log has no data rows")
    return by_entity


# ------------------------------------------------------------------ helpers

def outcome(fn):
    """fn()'s result, or its error as (type, message, row index)."""
    try:
        return fn()
    except (ParseError, EmptyDataset, SchemaMismatch) as exc:
        return type(exc), str(exc), getattr(exc, "row_index", None)


def same_dataset(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return list(a.entities) == list(b.entities) and all(
        getattr(a, f).dtype == getattr(b, f).dtype and getattr(a, f).shape == getattr(b, f).shape
        and getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("real", "nums", "cats", "statics"))


def same_table(a, b):
    if len(a) == 3 or len(b) == 3:  # an error, not an (entities, matrix) table
        return a == b
    return list(a[0]) == list(b[0]) and a[1].tobytes() == b[1].tobytes()


def write_csv(path, header, rows):
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def in_bitwise_range(xs):
    """Every deviation from the first value is 0 or lies in [2**-500, 2**400) in size, and no value
    is nonzero below 2**-500: then no value fit_schema scales by 2**-k falls below the normal range."""
    return all(x == 0 or abs(x) >= 2.0 ** -500 for x in xs) and all(
        d == 0 or 2.0 ** -500 <= abs(d) < 2.0 ** 400 for d in (x - xs[0] for x in xs))


def assert_exact_statistics(fitted, columns):
    """Each fitted mean and std lies within n * 2**-50 * max|x - x0| of the exact rational one, plus
    the least subnormal (a result may round below the normal range) and, for the mean, an ulp of it.

    The sums about the first value x0 err by about one ulp of max|x - x0| per row where that value
    is an outlier; a std of 1 stands for a std of 0 and needs an exact one within the bound of 0.
    """
    for c, xs in columns.items():
        n, exact = len(xs), [Fraction(x) for x in xs]
        mean = sum(exact) / n
        var = sum((x - mean) ** 2 for x in exact) / n
        tol = n * Fraction(2.0 ** -50) * max(abs(x - exact[0]) for x in exact) + Fraction(5e-324)
        assert abs(Fraction(fitted.means[c]) - mean) <= tol + Fraction(2.0 ** -52) * abs(mean), c
        std = Fraction(fitted.stds[c])
        assert (fitted.stds[c] == 1.0 and var <= tol ** 2) or max(std - tol, 0) ** 2 <= var <= (std + tol) ** 2, c


def fit_outcomes(path):
    """fit_schema's outcome, oracle_fit's, and each numeric column's values when fitting works."""
    new_fit = outcome(lambda: ingest.fit_schema(ingest.read_columns(path, SCHEMA), SCHEMA))
    old_fit = outcome(lambda: oracle_fit(oracle_rows(path, SCHEMA), SCHEMA))
    columns = {}
    if isinstance(old_fit, FittedSchema):
        rows = list(oracle_rows(path, SCHEMA))
        columns = {c: [float(rec[c]) for rec in rows] for c in old_fit.means}
    return new_fit, old_fit, columns


def compare_all(path, t=3):
    """Fit, build (under a fixed fit and, when fitting works, the data's own) and RFM
    must match their oracles on the CSV at `path`."""
    new_fit, old_fit, columns = fit_outcomes(path)
    if isinstance(old_fit, tuple):
        assert new_fit == old_fit
    elif all(map(in_bitwise_range, columns.values())):
        assert json.dumps(new_fit.to_json()) == json.dumps(old_fit.to_json())
    else:
        assert new_fit.vocab == old_fit.vocab
        assert_exact_statistics(new_fit, columns)
    for fitted in [FIXED_FIT] + ([old_fit] if isinstance(old_fit, FittedSchema) else []):
        assert same_dataset(outcome(lambda: ingest.load_dataset(path, fitted, t)),
                            outcome(lambda: oracle_build(oracle_rows(path, SCHEMA), fitted, t)))
    assert same_table(outcome(lambda: rfm.rfm_table(rfm.rfm_events_from_csv(path, SCHEMA))),
                      outcome(lambda: rfm.rfm_table(rfm_events(oracle_rfm_events(path, SCHEMA)))))


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
        elif HEADER.index(kind) < len(rows[i]):  # a row cut short by an earlier fault lost its last cell
            rows[i][HEADER.index(kind)] = draw(st.sampled_from(BAD_CELLS[kind]))
    return rows


def amount_rows(amounts):
    return [["", "x", "1600000000", "a", amount, "gold", "30"] for amount in amounts]


NEXT_TO_1E_300 = [repr(math.nextafter(1e-300, math.inf)), "1e-300", repr(math.nextafter(1e-300, 0.0))]


# The examples lie off the bitwise range, so their statistics are checked against exact ones.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=logs(), chunk=st.sampled_from([1, 2, 3, 5, ingest.CHUNK_ROWS]))
@example(rows=amount_rows(["0.0", "1.0", "1e308", "-1e308"]), chunk=1)  # the sum of d is 0 in units of 2**1024
@example(rows=amount_rows(NEXT_TO_1E_300 + NEXT_TO_1E_300[:1]), chunk=3)  # every deviation below 2**-500
@example(rows=amount_rows(["5e-324", "0.0", "-5e-324", "1e-323"]), chunk=ingest.CHUNK_ROWS)  # subnormals
@example(rows=amount_rows(["1e-310", "7.0", "-7.0"]), chunk=1)  # the deviations cancel, leaving 1e-310 alone
def test_matches_the_row_at_a_time_oracles(rows, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "CHUNK_ROWS", chunk):
        path = os.path.join(tmp, "log.csv")
        write_csv(path, HEADER, rows)
        compare_all(path)


RAW_LIMIT = 60  # csv's field limit while the raw-text property runs
RAW_PLAIN = {"note": ["", "n", "a\x00b", "p\u2028q"], "item": ["x", "new", ""],
             "ts": ["1600000000", "1600000003", "-77", "2021-01-05"], "entity": ["a", "b", "é", "a\x00"],
             "amount": ["1.5", "-0.25", "1e3", "7"], "tier": ["gold", "lead"], "age": ["30", "-2", "0.5"]}
RAW_QUOTED = {"note": ['"a,b"', '"x\ny"', '"say ""hi"""'], "item": ['"y,z"', '"x"'], "entity": ['"c,d"', 'q"x']}
RAW_HEADER = ["note", "ts", "amount", "item", "age", "tier", "entity"]  # a text column last, where a CR would stay
RAW_GOOD = ",1600000000,1.5,x,30,gold,a"


@st.composite
def raw_lines(draw):
    """A log's data lines as raw text: plain lines, and lines with a quoted cell (one across a
    line break), of the wrong width (one field short or long, or 2 * width + 1 fields, whose line
    end falls where a line of the right width would put it), blank, longer than RAW_LIMIT with or
    without a cell that long; ending in LF, CRLF or CR, the last one maybe in nothing."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        cells = {h: draw(st.sampled_from(RAW_PLAIN[h])) for h in RAW_HEADER}
        kind = draw(st.sampled_from(["plain"] * 4 + ["quoted", "quoted", "short", "long", "twice", "blank", "wide",
                                                     "huge"]))
        if kind == "quoted":
            column = draw(st.sampled_from(sorted(RAW_QUOTED)))
            cells[column] = draw(st.sampled_from(RAW_QUOTED[column]))
        elif kind in ("wide", "huge"):
            cells["note"] = "w" * (RAW_LIMIT + 1 if kind == "huge" else RAW_LIMIT - 10)
        line = ",".join(cells[h] for h in RAW_HEADER)
        line = {"short": line.rpartition(",")[0], "long": line + ",extra", "twice": line + "," * (len(RAW_HEADER) + 1),
                "blank": ""}.get(kind, line)
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return lines


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=raw_lines(), chunk=st.sampled_from([1, 2, 3, 5, ingest.CHUNK_ROWS]))
@example(lines=[RAW_GOOD + "\n"] * 3 + [RAW_GOOD.replace("x", '"x"') + "\n", '"a\nb"' + RAW_GOOD + "\n"],
         chunk=2)  # the first quote in the second chunk, then a quoted line break
@example(lines=[RAW_GOOD + "\n"] * 2 + [RAW_GOOD + "\r\n", RAW_GOOD + "\n", RAW_GOOD], chunk=2)  # CRLF, no last LF
@example(lines=[RAW_GOOD + "\n", "w" * (RAW_LIMIT + 1) + RAW_GOOD + "\n"], chunk=2)  # a cell above the limit
@example(lines=[RAW_GOOD + "\n", RAW_GOOD[:-2] + "\n", "w" * (RAW_LIMIT + 1) + RAW_GOOD + "\n"],
         chunk=5)  # a short record, then a cell above the limit: the short one is named
@example(lines=["w" * (RAW_LIMIT - 1) + RAW_GOOD + "\n", RAW_GOOD + "\n"], chunk=5)  # a long line, no long cell
@example(lines=[RAW_GOOD + "," * 8 + "\n", RAW_GOOD + "\n"], chunk=5)  # 2 * width + 1 fields, then a good line
@example(lines=[RAW_GOOD + "\r\n"] * 3 + [RAW_GOOD + "\r", RAW_GOOD + "\r\n"], chunk=2)  # CRLF split, then a bare CR
@example(lines=[RAW_GOOD + "\r\n", RAW_GOOD + "\r\r\n", RAW_GOOD + "\n"], chunk=5)  # a CR before a CRLF
def test_matches_the_oracles_on_raw_text(lines, chunk):
    """Plain chunks are split at commas, the rest is read by csv.reader; both must read as the oracle does."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingest, "CHUNK_ROWS", chunk):
        path = os.path.join(tmp, "log.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(RAW_HEADER) + "\n" + "".join(lines))
        limit = csv.field_size_limit(RAW_LIMIT)
        try:
            compare_all(path)
        finally:
            csv.field_size_limit(limit)


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


# ------------------------------------------------------- ISO-8601 timestamps

def iso_twin(rows):
    """The rows with each integer timestamp k written as ISO-8601 text in one of three forms."""
    ti, out = HEADER.index("ts"), []
    for k, row in enumerate(rows):
        when = datetime.fromtimestamp(int(row[ti]), timezone.utc)
        text = [when.strftime("%Y-%m-%dT%H:%M:%SZ"), when.isoformat(),
                (when + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S+02:00")][k % 3]
        out.append(row[:ti] + [text] + row[ti + 1:])
    return out


def test_an_iso_log_loads_to_the_arrays_of_its_integer_twin(tmp_path, monkeypatch):
    """The numbers of an ISO-8601 log are cast by column, as an integer log's are: no cell
    goes through the per-cell number parser."""
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 4)
    rng = np.random.default_rng(7)
    rows = [["", f"i{k % 3}", str(1_600_000_000 + int(rng.integers(0, 10 ** 7))), f"e{k % 5}",
             repr(float(rng.lognormal(2.0, 1.0))), ["gold", "lead"][k % 2], str(k % 40)] for k in range(23)]
    write_csv(tmp_path / "int.csv", HEADER, rows)
    write_csv(tmp_path / "iso.csv", HEADER, iso_twin(rows))
    fits = [ingest.fit_schema(ingest.read_columns(tmp_path / "int.csv", SCHEMA), SCHEMA)]
    with mock.patch.object(ingest, "_parse_number", side_effect=AssertionError("a cell was parsed alone")):
        fits.append(ingest.fit_schema(ingest.read_columns(tmp_path / "iso.csv", SCHEMA), SCHEMA))
        iso_data = ingest.load_dataset(tmp_path / "iso.csv", fits[1], 6)
        iso_events = rfm.rfm_events_from_csv(tmp_path / "iso.csv", SCHEMA)
    assert json.dumps(fits[0].to_json()) == json.dumps(fits[1].to_json())
    assert same_dataset(ingest.load_dataset(tmp_path / "int.csv", fits[0], 6), iso_data)
    int_events = rfm.rfm_events_from_csv(tmp_path / "int.csv", SCHEMA)
    assert all(np.array_equal(a, b) for a, b in zip(int_events, iso_events, strict=True))


@pytest.mark.parametrize("faults, message", [
    ({5: ("amount", "oops")}, "row 5: bad number 'oops' in column 'amount'"),
    ({5: ("age", "inf")}, "row 5: non-finite number 'inf' in column 'age'"),
    ({5: ("amount", "oops"), 6: ("ts", "soon")}, "row 5: bad number 'oops' in column 'amount'"),
    ({4: ("ts", "soon"), 5: ("amount", "oops")}, "row 4: bad timestamp 'soon'"),
])
def test_a_bad_cell_of_an_iso_log_is_named_in_row_order(tmp_path, monkeypatch, faults, message):
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 4)  # rows 4..7 are the second chunk
    rows = iso_twin([list(GOOD) for _ in range(10)])
    for row, (column, text) in faults.items():
        rows[row][HEADER.index(column)] = text
    write_csv(tmp_path / "log.csv", HEADER, rows)
    for read in (lambda: ingest.fit_schema(ingest.read_columns(tmp_path / "log.csv", SCHEMA), SCHEMA),
                 lambda: ingest.load_dataset(tmp_path / "log.csv", FIXED_FIT, 4)):
        with pytest.raises(ParseError) as exc:
            read()
        assert str(exc.value) == message


def test_a_chunk_its_casts_refuse_with_no_bad_cell_is_a_contract_violation():
    """The per-cell pass of parse_chunk only names a bad cell; it never returns a chunk."""
    with pytest.raises(ContractViolation, match="parse_chunk: the 0 rows from row 7 failed a cast"):
        ingest.parse_chunk(7, {"ts": [], "amount": []}, "ts", ["amount"])


def test_a_repeated_schema_column_in_the_header_is_refused(tmp_path):
    write_csv(tmp_path / "log.csv", HEADER + ["amount"], [GOOD + ["2.5"]])
    with pytest.raises(SchemaMismatch, match=r"columns repeated in CSV header: \['amount'\]"):
        next(ingest.read_columns(tmp_path / "log.csv", SCHEMA))
    write_csv(tmp_path / "log.csv", HEADER + ["note"], [GOOD + [""]])  # a column the schema does not read
    assert next(ingest.read_columns(tmp_path / "log.csv", SCHEMA))[0] == 0


def test_a_crlf_log_is_split_and_reads_as_its_lf_twin(tmp_path, monkeypatch):
    """csv.writer ends lines in CRLF by default; such a log's chunks are split at commas, as an
    LF log's are, so csv.reader reads only the two headers."""
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 4)
    rng = np.random.default_rng(11)
    rows = [["", f"i{k % 3}", str(1_600_000_000 + int(rng.integers(0, 10 ** 7))), f"e{k % 5}",
             repr(float(rng.lognormal(2.0, 1.0))), ["gold", "lead"][k % 2], str(k % 40)] for k in range(23)]
    paths = [tmp_path / "lf.csv", tmp_path / "crlf.csv"]
    for path, end in zip(paths, ["\n", "\r\n"]):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator=end).writerows([HEADER, *rows])
    assert b"\r\n" in paths[1].read_bytes()
    with mock.patch.object(ingest.csv, "reader", wraps=csv.reader) as reader:
        fits = [ingest.fit_schema(ingest.read_columns(path, SCHEMA), SCHEMA) for path in paths]
    assert reader.call_count == 2
    assert json.dumps(fits[0].to_json()) == json.dumps(fits[1].to_json())
    assert same_dataset(*(ingest.load_dataset(path, fits[0], 6) for path in paths))
    assert same_table(*(rfm.rfm_table(rfm.rfm_events_from_csv(path, SCHEMA)) for path in paths))


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
