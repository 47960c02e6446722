"""Schema-driven parsing of raw activity logs into per-entity sequences.

The pipeline is fit -> build_dataset. Fitting derives vocabularies
(first-seen order, code 0 reserved for padding/out-of-vocab), z-score
statistics (population std, zero replaced by 1) and the embedding width per
categorical column. Building encodes raw records, groups them per entity,
sorts by timestamp (stable), keeps the latest `t` rows and left-pads
shorter histories into one padded array per field.

Both read the log through read_columns, in chunks of CHUNK_ROWS records
turned into columns, and parse each column with one numpy cast; a chunk is
parsed cell by cell only to name its first bad cell. Error rows are 0-based
data rows.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import EmptyDataset, ParseError, SchemaMismatch

KINDS = ("entity_id", "timestamp", "numerical", "categorical", "static_numerical", "static_categorical")

# Records per read_columns chunk: enough to amortize each column cast, and few
# enough that a chunk's cells stay in cache (8192 reads a log 1.5x slower).
CHUNK_ROWS = 1024
INT64 = (-2 ** 63, 2 ** 63, "the 64-bit range")  # timestamps that build_dataset can hold


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str


@dataclass
class Schema:
    """Declared column layout plus optional role tags (monetary, item)."""

    columns: list[ColumnSpec]
    monetary: str | None = None
    item: str | None = None

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate column names in schema")
        for c in self.columns:
            if c.kind not in KINDS:
                raise SchemaMismatch(f"unknown column kind {c.kind!r} for {c.name!r}")
        if sum(c.kind == "entity_id" for c in self.columns) != 1:
            raise SchemaMismatch("schema must declare exactly one entity_id column")
        if sum(c.kind == "timestamp" for c in self.columns) != 1:
            raise SchemaMismatch("schema must declare exactly one timestamp column")
        if self.monetary is not None and self.monetary not in names:
            raise SchemaMismatch(f"monetary column {self.monetary!r} not in schema")
        if self.item is not None and self.item not in names:
            raise SchemaMismatch(f"item column {self.item!r} not in schema")

    def names_of(self, kind):
        return [c.name for c in self.columns if c.kind == kind]

    @property
    def entity_col(self):
        return self.names_of("entity_id")[0]

    @property
    def ts_col(self):
        return self.names_of("timestamp")[0]

    @classmethod
    def from_json(cls, obj):
        cols = [ColumnSpec(name, kind) for name, kind in obj["columns"].items()]
        return cls(cols, monetary=obj.get("monetary"), item=obj.get("item"))

    def to_json(self):
        out = {"columns": {c.name: c.kind for c in self.columns}}
        if self.monetary is not None:
            out["monetary"] = self.monetary
        if self.item is not None:
            out["item"] = self.item
        return out


def embed_dim_for(cardinality):
    """ceil(sqrt(cardinality)), floored at 1."""
    return max(1, math.isqrt(cardinality - 1) + 1 if cardinality > 1 else 1)


@dataclass
class FittedSchema:
    schema: Schema
    vocab: dict[str, list[str]]        # categorical column -> values, codes 1..n
    means: dict[str, float]            # numeric column -> mean over fit rows
    stds: dict[str, float]             # numeric column -> population std, 0 -> 1
    embed_dims: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.embed_dims:
            self.embed_dims = {c: embed_dim_for(len(v)) for c, v in self.vocab.items()}
        self._codes = {c: {v: i + 1 for i, v in enumerate(vals)} for c, vals in self.vocab.items()}

    def code_of(self, column, value):
        return self._codes[column].get(value, 0)

    @property
    def seq_numeric_cols(self):
        return self.schema.names_of("numerical")

    @property
    def seq_categorical_cols(self):
        return self.schema.names_of("categorical")

    @property
    def static_numeric_cols(self):
        return self.schema.names_of("static_numerical")

    @property
    def static_categorical_cols(self):
        return self.schema.names_of("static_categorical")

    @property
    def statics_width(self):
        return len(self.static_numeric_cols) + len(self.static_categorical_cols)

    @property
    def step_width(self):
        """Width of one model step vector: position + numerics + embeddings."""
        return 1 + len(self.seq_numeric_cols) + sum(self.embed_dims[c] for c in self.seq_categorical_cols)

    def to_json(self):
        return {
            "schema": self.schema.to_json(),
            "vocab": self.vocab,
            "means": self.means,
            "stds": self.stds,
            "embed_dims": self.embed_dims,
        }

    @classmethod
    def from_json(cls, obj):
        means = {k: float(v) for k, v in obj["means"].items()}
        stds = {k: float(v) for k, v in obj["stds"].items()}
        for k, mean in means.items():
            if not math.isfinite(mean):
                raise ValueError(f"mean of column {k!r} is {mean}, not a finite number")
        for k, std in stds.items():
            if not 0.0 < std < math.inf:  # a z-score divides by it
                raise ValueError(f"std of column {k!r} is {std}, not a finite number > 0")
        return cls(
            schema=Schema.from_json(obj["schema"]),
            vocab={k: _str_list(v, f"vocab {k!r}") for k, v in obj["vocab"].items()},
            means=means,
            stds=stds,
            embed_dims={k: int(v) for k, v in obj["embed_dims"].items()},
        )


def _str_list(value, what):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{what} must be a list of strings, got {value!r:.60}")
    return value


@dataclass
class SequenceDataset:
    """One row per entity, in id order: its latest t steps, stably sorted by
    timestamp and left-padded, so that any batch is a row gather."""

    fitted: FittedSchema
    entities: np.ndarray   # (N,) entity ids (str objects)
    real: np.ndarray       # (N, t) bool, True where a real step sits
    nums: np.ndarray       # (N, t, n_num) f64 z-scored values, 0 at pad
    cats: np.ndarray       # (N, t, n_cat) int64 vocab codes, 0 at pad
    statics: np.ndarray    # (N, s) f64 z-scored static numerics, then static codes, of the latest row


def parse_timestamp(text, row_index=None):
    """Integer epoch seconds, or ISO-8601 converted to epoch (naive = UTC)."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", row_index) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _parse_number(text, column, row_index):
    """A finite float; nan and inf would reach the model as NaN, so they are rejected here."""
    try:
        x = float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r} in column {column!r}", row_index) from None
    if x - x:  # 0.0 for every finite x, NaN for nan and inf
        raise ParseError(f"non-finite number {text!r} in column {column!r}", row_index)
    return x


@contextlib.contextmanager
def open_csv(path):
    """csv.reader over a UTF-8 file; bytes that are not UTF-8 raise ParseError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield csv.reader(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8: {exc}") from None


def iter_raw_rows(path, schema):
    """The CSV's header, once checked against the schema, then each data record: lists of strings.

    Every record read_columns hands on comes through here, which is where
    perfbench/layertrace.py counts rows.
    """
    with open_csv(path) as reader:
        header = next(reader, None)
        if header is None:
            raise EmptyDataset(f"{path}: no header row")
        missing = [c.name for c in schema.columns if c.name not in header]
        if missing:
            raise SchemaMismatch(f"{path}: columns missing from CSV header: {missing}")
        repeated = [c.name for c in schema.columns if header.count(c.name) > 1]
        if repeated:
            raise SchemaMismatch(f"{path}: columns repeated in CSV header: {repeated}")
        yield header
        yield from reader


def read_columns(path, schema):
    """Yield (first data row index, {schema column: cells}) per run of up to CHUNK_ROWS records.

    A record of the wrong width is a ParseError raised after the rows before it are yielded.
    """
    rows = iter_raw_rows(path, schema)
    header = next(rows)
    index = {c.name: header.index(c.name) for c in schema.columns}
    start = 0
    while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
        good = chunk
        if set(map(len, chunk)) != {len(header)}:
            good = list(itertools.takewhile(lambda row: len(row) == len(header), chunk))
        if good:
            cols = list(zip(*good))
            yield start, {name: cols[i] for name, i in index.items()}
        if len(good) < len(chunk):
            raise ParseError(f"expected {len(header)} fields, got {len(chunk[len(good)])}", start + len(good))
        start += len(chunk)


def columns_of(rows, schema):
    """The chunks of `rows`: read_columns chunks pass through, and a list of record dicts is one chunk."""
    if not isinstance(rows, list):
        return rows
    return [(0, {c.name: [rec[c.name] for rec in rows] for c in schema.columns})] if rows else []


def parse_numbers(start, columns, names):
    """Cell lists `columns`, named `names`, as one (len(names), rows) float64 array, cast whole.

    Only if the cast fails or gives a non-finite number are the cells parsed again one by
    one in row order, to name the first bad cell by column and row (counted from `start`).
    """
    try:
        x = np.array(columns, dtype=np.float64)
        if np.isfinite(x).all():
            return x
    except ValueError:
        pass
    rows = [[_parse_number(x, c, i) for x, c in zip(cells, names)] for i, cells in enumerate(zip(*columns), start)]
    return np.array(rows, dtype=np.float64).T


def parse_chunk(start, cols, ts_col, num_cols, ts_bounds=INT64):
    """A chunk's timestamps, int64, and numbers, a (len(num_cols), rows) float64 array.

    Each column is cast whole, which calls int() or float() on every cell. Only where a
    cast fails, or gives a non-finite number or a timestamp outside `ts_bounds` (lo, hi,
    what), is the chunk parsed again cell by cell in row order, to name the first bad cell.
    """
    lo, hi, what = ts_bounds
    n = len(cols[ts_col])
    try:
        ts = np.array(cols[ts_col], dtype=np.int64)
        if lo <= ts.min() and ts.max() < hi:
            return ts, parse_numbers(start, [cols[c] for c in num_cols], num_cols).reshape(len(num_cols), n)
    except (ValueError, OverflowError):
        pass
    ts, nums = [], []
    for i, cells in enumerate(zip(cols[ts_col], *(cols[c] for c in num_cols)), start):
        ts.append(parse_timestamp(cells[0], i))
        if not lo <= ts[-1] < hi:
            raise ParseError(f"timestamp {cells[0]!r} lies outside {what}", i)
        nums.append([_parse_number(x, c, i) for x, c in zip(cells[1:], num_cols)])
    return np.array(ts, dtype=np.int64), np.array(nums, dtype=np.float64).reshape(n, len(num_cols)).T


def entity_codes(cells, codes):
    """Each cell's code in `codes` (entity id -> int), which gains the ids it lacks, in any order."""
    codes.update(zip(dict.fromkeys(cells).keys() - codes.keys(), itertools.count(len(codes))))
    return np.fromiter(map(codes.__getitem__, cells), np.int64, len(cells))


def sorted_entities(codes, owner):
    """The ids of `codes` in sorted order, as an object array, and each code in `owner` as an index into it."""
    entities = sorted(codes)
    rank = np.empty(len(entities), dtype=np.int64)
    rank[[codes[e] for e in entities]] = np.arange(len(entities))
    return np.array(entities, dtype=object), rank[owner]


def fit_schema(rows, schema):
    """Single pass over the records: build vocabularies and z-score stats.

    `rows` is a list of record dicts or the chunks of read_columns.
    """
    numeric_cols = schema.names_of("numerical") + schema.names_of("static_numerical")
    cat_cols = schema.names_of("categorical") + schema.names_of("static_categorical")
    # Sums are taken about each column's first value, so a column far from
    # zero (epoch-like values, large balances) keeps its spread instead of
    # losing it to cancellation in sumsq / n - mean². A deviation below `tiny`
    # would square to a subnormal or zero, so its square is summed scaled up;
    # one above `huge` could overflow the sums (or be an overflow itself, as
    # 1e308 - -1e308 is), so it and its square are summed in units of scale.
    # Each sum runs left to right over the rows, as np.cumsum adds, so the
    # statistics do not depend on the chunking.
    tiny, huge, scale = 2.0 ** -500, 2.0 ** 400, 2.0 ** 600
    shifts = None
    sums = np.zeros((5, len(numeric_cols)))  # of d, d², tiny (d·scale)², huge d / scale and its square
    seen = {c: {} for c in cat_cols}
    n = 0
    for start, cols in columns_of(rows, schema):
        _, x = parse_chunk(start, cols, schema.ts_col, numeric_cols)
        shifts = x[:, :1] if shifts is None else shifts
        with np.errstate(over="ignore", invalid="ignore"):  # the masks below drop what overflows
            d, far = x - shifts, x / scale - shifts / scale
        small, normal = np.abs(d) < tiny, np.abs(d) < huge
        normal, big = normal & ~small, ~normal
        terms = np.stack([np.where(big, 0.0, d), np.where(normal, d, 0.0) ** 2, np.zeros_like(d),
                          np.where(big, far, 0.0), np.where(big, far, 0.0) ** 2])
        terms[:, :, 0] += sums
        sums = np.cumsum(terms, axis=2)[:, :, -1]
        for j, i in zip(*np.nonzero(small & (d != 0))):  # Python's ** 2, which can round unlike d * d
            sums[2, j] += (float(d[j, i]) * scale) ** 2
        for c in cat_cols:
            seen[c].update(dict.fromkeys(cols[c]))
        n += x.shape[1]
    if n == 0:
        raise EmptyDataset("fit_schema: empty input stream")
    means, stds = {}, {}
    for j, c in enumerate(numeric_cols):
        shift, (s, sq, tiny_sq, huge_s, huge_sq) = float(shifts[j, 0]), sums[:, j].tolist()
        means[c] = shift + s / n
        if huge_sq:  # some deviation above `huge`: take mean and spread in units of scale
            dev = (huge_s + s / scale) / n
            means[c] = (shift / scale + dev) * scale
            var = (huge_sq + sq / scale / scale) / n - dev ** 2
            std = math.sqrt(max(var, 0.0)) * scale
        elif sq:
            std = math.sqrt(max(sq / n - (s / n) ** 2, 0.0))
        else:  # every deviation below `tiny`: take the spread in units of 1 / scale
            std = math.sqrt(max(tiny_sq / n - (s * scale / n) ** 2, 0.0)) / scale
        stds[c] = std if std > 0 else 1.0
    return FittedSchema(schema=schema, vocab={c: list(v) for c, v in seen.items()}, means=means, stds=stds)


def _z_scores(values, fitted, num_cols):
    """(values - mean) / std per column, as a ParseError naming row and column where it is not finite.

    x - mean can overflow for finite statistics (1.7e308 against a mean of
    -8.5e307); those cells are redone as x / std - mean / std, which stays
    finite whenever the z-score itself is.
    """
    means = np.array([fitted.means[c] for c in num_cols])
    stds = np.array([fitted.stds[c] for c in num_cols])
    with np.errstate(over="ignore", invalid="ignore"):
        z = (values - means) / stds
        far = ~np.isfinite(z)
        if far.any():
            z[far] = (values / stds - means / stds)[far]
            far = ~np.isfinite(z)
    if far.any():
        row, col = (int(i[0]) for i in np.nonzero(far))
        raise ParseError(f"number {float(values[row, col])!r} in column {num_cols[col]!r} is too far "
                         "from the fitted mean for a finite z-score", row)
    return z


def build_dataset(rows, fitted, t):
    """Records -> SequenceDataset: z-scored numerics, vocab codes (OOV -> 0).

    `rows` is a list of record dicts or the chunks of read_columns. Entities
    come out sorted by id, so the result is independent of input row order up
    to timestamp ties, which keep input order.
    """
    if t < 1:
        raise SchemaMismatch(f"sequence length t must be >= 1, got {t}")
    sch = fitted.schema
    num_cols = fitted.seq_numeric_cols + fitted.static_numeric_cols
    cat_cols = fitted.seq_categorical_cols + fitted.static_categorical_cols
    ids, parts = {}, []
    for start, cols in columns_of(rows, sch):
        stamps, values = parse_chunk(start, cols, sch.ts_col, num_cols)
        codes = [np.fromiter(map(fitted._codes[c].get, cols[c], itertools.repeat(0)), np.int64, len(stamps))
                 for c in cat_cols]
        parts.append((entity_codes(cols[sch.entity_col], ids), stamps, values,
                      np.array(codes, dtype=np.int64).reshape(len(cat_cols), len(stamps))))
    if not parts:
        raise EmptyDataset("build_dataset: no data rows")
    owner, stamps, values, codes = (np.concatenate(p, axis=-1) for p in zip(*parts))
    del parts
    entities, owner = sorted_entities(ids, owner)
    order = np.lexsort((stamps, owner))  # stable: by entity, then timestamp, then input order
    owner = owner[order]
    values = _z_scores(values.T, fitted, num_cols)[order]
    codes = codes.T[order]
    from_end = np.cumsum(np.bincount(owner))[owner] - np.arange(len(order)) - 1  # 0 at each latest row
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
    return SequenceDataset(fitted, entities, real, nums, cats, statics)


def load_dataset(data_path, fitted, t):
    """CSV -> padded per-entity arrays under an already-fitted schema."""
    return build_dataset(read_columns(data_path, fitted.schema), fitted, t)


def _load_json(cls, path):
    """cls.from_json of a JSON file: ParseError for bad JSON or UTF-8, SchemaMismatch for bad structure."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ParseError(f"{path}: malformed JSON: {exc}") from None
    try:
        return cls.from_json(obj)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SchemaMismatch(f"{path}: not a {cls.__name__}: {type(exc).__name__}: {exc}") from None


def load_schema_json(path):
    return _load_json(Schema, path)


def load_fitted_json(path):
    return _load_json(FittedSchema, path)
