"""Schema-driven parsing of raw activity logs into per-entity sequences.

The pipeline is fit -> build_dataset. Fitting derives vocabularies
(first-seen order, code 0 reserved for padding/out-of-vocab), z-score
statistics (population std, zero replaced by 1); statistics and z-scores are
worked in units of a power of two above each column's values, so a column of
any finite scale fits. Embedding widths are not fitted: see embed_dim_for.
Building encodes raw records, groups them per entity, sorts by timestamp
(stable), keeps the latest `t` rows and left-pads shorter histories into a
SequenceDataset, the one padded form that every batch and model tile takes.

Both read the log through read_columns, which checks the header of
open_columns: the one CSV reader of caspr, which turns chunks of CHUNK_ROWS
records into columns (plain lines split at their commas at once, the rest by
csv.reader). Each column is parsed with one numpy cast; a chunk is parsed
cell by cell only to name its first bad cell. Error rows are 0-based data
rows. read_events turns the chunks into event arrays in file order;
build_dataset and the RFM table both read the log through it.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .errors import ContractViolation, EmptyDataset, ParseError, SchemaMismatch, too_large

KINDS = ("entity_id", "timestamp", "numerical", "categorical", "static_numerical", "static_categorical")

# Lines (records, once csv.reader reads) per open_columns chunk: enough to amortize each
# split and column cast, and few enough that a chunk's cells stay in cache (4096 is slower).
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
        if self.item is not None and self.item not in self.names_of("categorical"):  # rank reads its table
            raise SchemaMismatch(f"item column {self.item!r} is not a categorical column of the schema")

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
    """A categorical column's embedding width, from its vocabulary size: ceil(sqrt(cardinality)), at least 1."""
    return max(1, math.isqrt(cardinality - 1) + 1 if cardinality > 1 else 1)


@dataclass
class FittedSchema:
    schema: Schema
    vocab: dict[str, list[str]]        # categorical column -> values, codes 1..n
    means: dict[str, float]            # numeric column -> mean over fit rows
    stds: dict[str, float]             # numeric column -> population std, 0 -> 1

    def __post_init__(self):
        self._codes = {c: {v: i + 1 for i, v in enumerate(vals)} for c, vals in self.vocab.items()}

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
        widths = (embed_dim_for(len(self.vocab[c])) for c in self.seq_categorical_cols)
        return 1 + len(self.seq_numeric_cols) + sum(widths)

    def to_json(self):
        return {
            "schema": self.schema.to_json(),
            "vocab": self.vocab,
            "means": self.means,
            "stds": self.stds,
        }

    @classmethod
    def from_json(cls, obj):
        """Each table must name exactly its schema columns: vocab the categorical
        ones, means and stds the numeric ones. Other keys are ignored."""
        schema = Schema.from_json(obj["schema"])
        cats = schema.names_of("categorical") + schema.names_of("static_categorical")
        nums = schema.names_of("numerical") + schema.names_of("static_numerical")
        for table, cols in (("vocab", cats), ("means", nums), ("stds", nums)):
            missing = [c for c in cols if c not in obj[table]]
            extra = [c for c in obj[table] if c not in cols]
            if missing or extra:
                raise SchemaMismatch(f"{table}: no entry for column {missing[0]!r}" if missing else
                                     f"{table}: column {extra[0]!r} is not among {cols}")
        means = {k: float(v) for k, v in obj["means"].items()}
        stds = {k: float(v) for k, v in obj["stds"].items()}
        for what, table, ok, want in (("mean", means, math.isfinite, "a finite number"),
                                      ("std", stds, lambda x: 0.0 < x < math.inf, "a finite number > 0")):
            for k, value in table.items():
                if not ok(value):  # a z-score divides by the std
                    raise ValueError(f"{what} of column {k!r} is {value}, not {want}")
        return cls(
            schema=schema,
            vocab={k: _str_list(v, f"vocab {k!r}") for k, v in obj["vocab"].items()},
            means=means,
            stds=stds,
        )


def _str_list(value, what):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{what} must be a list of strings, got {value!r:.60}")
    return value


@dataclass
class SequenceDataset:
    """Padded sequences, one row per entity: its latest steps, stably sorted by timestamp,
    in the trailing slots, pad before them. The built dataset (every entity in id order,
    numbers at f64), a batch (transformer.prepare_batch: rows at the model's dtype) and a
    tile (transformer.tiles: a batch's rows cut to trailing slots) all take this one form.
    No slot stores its position: the model derives it from the slot's place in the window."""

    fitted: FittedSchema
    entities: np.ndarray   # (N,) entity ids (str objects)
    real: np.ndarray       # (N, t) bool, True where a real step sits
    keep: np.ndarray       # (N, t) bool, real less any masked step: the steps the model may see
    nums: np.ndarray       # (N, t, n_num) z-scored values, 0 at pad
    cats: np.ndarray       # (N, t, n_cat) int64 vocab codes, 0 at pad
    statics: np.ndarray    # (N, s) z-scored static numerics, then static codes, of the latest row

    def masked(self, plan):
        """These rows with the planned real steps hidden: keep = real & ~plan."""
        return replace(self, keep=self.real & ~plan)


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
def _open_text(path, line):
    """`path` as UTF-8 text. Bad UTF-8, or a csv.Error (a field above the limit) on line line(), is a ParseError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8: {exc}") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {line()}: {exc}") from None


@contextlib.contextmanager
def open_csv(path):
    """csv.reader over a UTF-8 file; what it cannot read raises ParseError, as in _open_text."""
    with _open_text(path, lambda: reader.line_num) as fh:
        yield (reader := csv.reader(fh))


def _column_index(path, header, schema):
    """{schema column: its field in `header`}, once each schema column is there exactly once."""
    missing = [c.name for c in schema.columns if c.name not in header]
    if missing:
        raise SchemaMismatch(f"{path}: columns missing from CSV header: {missing}")
    repeated = [c.name for c in schema.columns if header.count(c.name) > 1]
    if repeated:
        raise SchemaMismatch(f"{path}: columns repeated in CSV header: {repeated}")
    return {c.name: header.index(c.name) for c in schema.columns}


def iter_raw_rows(path, schema):
    """The CSV's header, checked against the schema, then each record as a list, as open_columns reads them.
    perfbench's tracer wraps it."""
    with open_columns(path) as (header, chunks):
        _column_index(path, header, schema)
        yield header
        for _, cols in chunks:
            yield from map(list, zip(*cols))


def _until_csv_error(reader, errors):
    """The records of csv `reader` up to a csv.Error, which is appended to `errors`."""
    try:
        yield from reader
    except csv.Error as exc:
        errors.append(exc)


@contextlib.contextmanager
def open_columns(path):
    """A CSV file's header, and a generator of (first data row index, one cell sequence per header
    field) per run of up to CHUNK_ROWS records. A file without a header line is EmptyDataset.

    A chunk of plain lines (no quote, bare CR or NUL, none above csv's field limit, each as wide as
    the header) is split once at its commas, CRLF read as LF and each line end kept as a cell; the
    cell count and a line end at every (width + 1)-th cell check the widths. csv.reader parses the
    rest from the first other chunk. A record of the wrong width, or a csv.Error, is raised after
    the rows before it are yielded.
    """
    skipped = 0  # lines of the file before the first line of `reader`
    with _open_text(path, lambda: skipped + reader.line_num) as fh:
        if (header := next(reader := csv.reader(fh), None)) is None:
            raise EmptyDataset(f"{path}: no header row")

        def chunks():
            nonlocal skipped, reader
            width, start, limit, errors = len(header), 0, csv.field_size_limit(), []
            while lines := list(itertools.islice(fh, CHUNK_ROWS)):
                text, stop = "".join(lines), (width + 1) * len(lines)
                if "\r" in text:
                    text = text.replace("\r\n", "\n")
                cells = [] if '"' in text or "\r" in text or "\0" in text else text.replace("\n", ",\n,").split(",")
                if (len(cells) != stop + 1 or cells[width::width + 1].count("\n") != len(lines)  # width cells per line
                        or len(text) > limit and max(map(len, lines)) > limit):
                    skipped, reader = reader.line_num + start, csv.reader(itertools.chain(lines, fh))
                    break
                yield start, [cells[i:stop:width + 1] for i in range(width)]
                start += len(lines)
            rows = _until_csv_error(reader, errors)
            while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
                good = chunk
                if set(map(len, chunk)) != {width}:
                    good = list(itertools.takewhile(lambda row: len(row) == width, chunk))
                if good:
                    yield start, list(zip(*good))
                if len(good) < len(chunk):
                    raise ParseError(f"expected {width} fields, got {len(chunk[len(good)])}", start + len(good))
                start += len(chunk)
            if errors:
                raise errors[0]

        yield header, chunks()


def read_columns(path, schema):
    """(first data row index, {schema column: cells}) per open_columns chunk of a log whose header fits `schema`."""
    with open_columns(path) as (header, chunks):
        index = _column_index(path, header, schema)
        for start, cols in chunks:
            yield start, {name: cols[i] for name, i in index.items()}


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

    Each column is cast whole, which calls int() or float() on every cell; a timestamp
    column that is not all integers (ISO-8601 text) is parsed cell by cell on its own.
    Once every timestamp lies inside `ts_bounds` (lo, hi, what), the numbers are cast as
    in parse_numbers, which names the first bad number itself. Otherwise the chunk is
    checked again cell by cell in row order, to name the first bad cell.
    """
    lo, hi, what = ts_bounds
    n = len(cols[ts_col])
    try:
        try:
            ts = np.array(cols[ts_col], dtype=np.int64)
        except ValueError:
            ts = np.array([parse_timestamp(x) for x in cols[ts_col]], dtype=np.int64)
        in_bounds = lo <= ts.min() and ts.max() < hi
    except (ValueError, OverflowError, ParseError):
        in_bounds = False
    if in_bounds:
        return ts, parse_numbers(start, [cols[c] for c in num_cols], num_cols).reshape(len(num_cols), n)
    for i, cells in enumerate(zip(cols[ts_col], *(cols[c] for c in num_cols)), start):
        if not lo <= parse_timestamp(cells[0], i) < hi:
            raise ParseError(f"timestamp {cells[0]!r} lies outside {what}", i)
        for x, c in zip(cells[1:], num_cols):
            _parse_number(x, c, i)
    raise ContractViolation(f"parse_chunk: the {n} rows from row {start} failed a cast, yet no cell is bad")


def read_events(chunks, schema, num_cols, codes=(), ts_bounds=INT64):
    """The events of read_columns `chunks`, in file order, as arrays.

    Returns the entity ids, sorted, as an object array; each event's index
    into them; the int64 timestamps; the numbers of `num_cols`, a
    (len(num_cols), events) float64 array; and the (len(codes), events) int64
    vocab codes, where `codes` holds (categorical column, {value: code})
    pairs and a value missing from a column's dict is code 0. Cells are
    parsed, and timestamps bounded by `ts_bounds`, as in parse_chunk.
    """
    ids, parts = {}, []  # entity id -> a code in any order, ranked by id at the end
    for start, cols in chunks:
        ts, nums = parse_chunk(start, cols, schema.ts_col, num_cols, ts_bounds)
        cells = cols[schema.entity_col]
        ids.update(zip(dict.fromkeys(cells).keys() - ids.keys(), itertools.count(len(ids))))
        cats = [np.fromiter(map(vocab.get, cols[c], itertools.repeat(0)), np.int64, len(ts))
                for c, vocab in codes]
        parts.append((np.fromiter(map(ids.__getitem__, cells), np.int64, len(ts)), ts, nums,
                      np.array(cats, dtype=np.int64).reshape(len(codes), len(ts))))
    if not parts:
        raise EmptyDataset("the activity log has no data rows")
    owner, ts, nums, cats = (np.concatenate(p, axis=-1) for p in zip(*parts))
    del parts
    entities = sorted(ids)
    rank = np.empty(len(entities), dtype=np.int64)
    rank[[ids[e] for e in entities]] = np.arange(len(entities))
    return np.array(entities, dtype=object), rank[owner], ts, nums, cats


def _scale_exponents(magnitudes):
    """The least k with 2**k above each magnitude; -1073, the least for any float, for 0."""
    return np.frexp(np.maximum(magnitudes, 5e-324))[1]


def fit_schema(chunks, schema):
    """Single pass over the chunks of read_columns: build vocabularies and z-score stats.

    Each numeric column is summed about its first value, so a column far from
    zero keeps its spread instead of losing it to cancellation in sumsq / n -
    mean², and in units of 2**k above every value read so far, so deviations
    stay below 2 and no sum overflows at any scale. Scaling by a power of two
    is exact: the sums round as unscaled ones would unless a scaled value falls
    below the normal range, and are rescaled exactly when k grows. Each sum
    runs left to right over the rows, as np.cumsum adds.
    """
    numeric_cols = schema.names_of("numerical") + schema.names_of("static_numerical")
    cat_cols = schema.names_of("categorical") + schema.names_of("static_categorical")
    shifts = k = None
    sums = np.zeros((2, len(numeric_cols)))  # of d in units of 2**k and d² in units of 4**k
    seen = {c: {} for c in cat_cols}
    n = 0
    for start, cols in chunks:
        _, x = parse_chunk(start, cols, schema.ts_col, numeric_cols)
        top = _scale_exponents(np.abs(x).max(axis=1))
        if shifts is None:
            shifts, k = x[:, :1], top
        sums = np.ldexp(sums, [[1], [2]] * (k - np.maximum(k, top)))
        k = np.maximum(k, top)
        d = np.ldexp(x, -k[:, None]) - np.ldexp(shifts, -k[:, None])
        terms = np.stack([d, d * d])
        terms[:, :, 0] += sums
        sums = np.cumsum(terms, axis=2)[:, :, -1]
        for c in cat_cols:
            seen[c].update(dict.fromkeys(cols[c]))
        n += x.shape[1]
    if n == 0:
        raise EmptyDataset("the activity log has no data rows")
    means, stds = {}, {}
    for j, c in enumerate(numeric_cols):
        shift, kj, (s, sq) = float(shifts[j, 0]), int(k[j]), (sums[:, j] / n).tolist()
        means[c] = math.ldexp(math.ldexp(shift, -kj) + s, kj)  # s alone can overflow once scaled back
        std = math.ldexp(math.sqrt(max(sq - s * s, 0.0)), kj)  # s * s, as libm's s ** 2 can round otherwise
        stds[c] = std if std > 0 else 1.0
    return FittedSchema(schema=schema, vocab={c: list(v) for c, v in seen.items()}, means=means, stds=stds)


def _z_scores(values, fitted, num_cols):
    """(values - mean) / std per column, as a ParseError naming row and column where it is not finite.

    Each column is worked in units of 2**k above its values, mean and std, as
    in fit_schema, so x - mean cannot overflow (1.7e308 against a mean of
    -8.5e307) and a z-score rounds as the unscaled one would.
    """
    means = np.array([fitted.means[c] for c in num_cols])
    stds = np.array([fitted.stds[c] for c in num_cols])
    k = _scale_exponents(np.max([np.abs(values).max(axis=0, initial=0.0), np.abs(means), stds], axis=0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = (np.ldexp(values, -k) - np.ldexp(means, -k)) / np.ldexp(stds, -k)
    far = ~np.isfinite(z)
    if far.any():
        row, col = (int(i[0]) for i in np.nonzero(far))
        raise ParseError(f"number {float(values[row, col])!r} in column {num_cols[col]!r} is too far "
                         "from the fitted mean for a finite z-score", row)
    return z


def build_dataset(chunks, fitted, t):
    """The chunks of read_columns -> SequenceDataset: z-scored numerics, vocab codes (OOV -> 0).

    Entities come out sorted by id, so the result is independent of input row
    order up to timestamp ties, which keep input order.
    """
    if t < 1:
        raise SchemaMismatch(f"sequence length t must be >= 1, got {t}")
    num_cols = fitted.seq_numeric_cols + fitted.static_numeric_cols
    cat_cols = fitted.seq_categorical_cols + fitted.static_categorical_cols
    entities, owner, stamps, values, codes = read_events(
        chunks, fitted.schema, num_cols, [(c, fitted._codes[c]) for c in cat_cols])
    order = np.lexsort((stamps, owner))  # stable: by entity, then timestamp, then input order
    owner = owner[order]
    values = _z_scores(values.T, fitted, num_cols)[order]
    codes = codes.T[order]
    from_end = np.cumsum(np.bincount(owner))[owner] - np.arange(len(order)) - 1  # 0 at each latest row
    n_num, n_cat = len(fitted.seq_numeric_cols), len(fitted.seq_categorical_cols)
    with too_large(f"{len(entities)} sequences of t={t} steps"):
        kept = from_end < t
        slot = t - 1 - from_end[kept]
        real = np.zeros((len(entities), t), dtype=bool)
        nums = np.zeros((len(entities), t, n_num))
        cats = np.zeros((len(entities), t, n_cat), dtype=np.int64)
    real[owner[kept], slot] = True
    nums[owner[kept], slot] = values[kept, :n_num]
    cats[owner[kept], slot] = codes[kept, :n_cat]
    latest = from_end == 0
    statics = np.concatenate([values[latest, n_num:], codes[latest, n_cat:]], axis=1)
    return SequenceDataset(fitted, entities, real, real, nums, cats, statics)  # nothing is masked yet


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
    except (KeyError, TypeError, AttributeError, ValueError, SchemaMismatch) as exc:
        raise SchemaMismatch(f"{path}: not a {cls.__name__}: {type(exc).__name__}: {exc}") from None


def load_schema_json(path):
    return _load_json(Schema, path)


def load_fitted_json(path):
    return _load_json(FittedSchema, path)
