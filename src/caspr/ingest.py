"""Schema-driven parsing of raw activity logs into per-entity sequences.

The pipeline is fit -> build_dataset. Fitting derives vocabularies
(first-seen order, code 0 reserved for padding/out-of-vocab), z-score
statistics (population std, zero replaced by 1) and the embedding width per
categorical column. Building encodes raw records, groups them per entity,
sorts by timestamp (stable), keeps the latest `t` rows and left-pads
shorter histories into one padded array per field.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import EmptyDataset, ParseError, SchemaMismatch

KINDS = ("entity_id", "timestamp", "numerical", "categorical", "static_numerical", "static_categorical")


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
    """Yield raw CSV records as dicts keyed by schema column names."""
    with open_csv(path) as reader:
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


def fit_schema(rows, schema):
    """Single pass over raw records: build vocabularies and z-score stats."""
    numeric_cols = schema.names_of("numerical") + schema.names_of("static_numerical")
    cat_cols = schema.names_of("categorical") + schema.names_of("static_categorical")
    # Sums are taken about each column's first value, so a column far from
    # zero (epoch-like values, large balances) keeps its spread instead of
    # losing it to cancellation in sumsq / n - mean². A deviation below `tiny`
    # would square to a subnormal or zero, so its square is summed scaled up;
    # one above `huge` could overflow the sums (or be an overflow itself, as
    # 1e308 - -1e308 is), so it and its square are summed in units of scale.
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
        parse_timestamp(rec[schema.ts_col], i)
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
        if huge_sqs[c]:  # some deviation above `huge`: take mean and spread in units of scale
            dev = (huge_sums[c] + sums[c] / scale) / n
            means[c] = (shifts[c] / scale + dev) * scale
            var = (huge_sqs[c] + sumsqs[c] / scale / scale) / n - dev ** 2
            std = math.sqrt(max(var, 0.0)) * scale
        elif sumsqs[c]:
            std = math.sqrt(max(sumsqs[c] / n - (sums[c] / n) ** 2, 0.0))
        else:  # every deviation below `tiny`: take the spread in units of 1 / scale
            std = math.sqrt(max(tiny_sqs[c] / n - (sums[c] * scale / n) ** 2, 0.0)) / scale
        stds[c] = std if std > 0 else 1.0
    return FittedSchema(schema=schema, vocab=vocab, means=means, stds=stds)


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


def build_dataset(records, fitted, t):
    """Raw records -> SequenceDataset: z-scored numerics, vocab codes (OOV -> 0).

    Entities come out sorted by id, so the result is independent of input
    row order up to timestamp ties, which keep input order.
    """
    if t < 1:
        raise SchemaMismatch(f"sequence length t must be >= 1, got {t}")
    sch = fitted.schema
    num_cols = fitted.seq_numeric_cols + fitted.static_numeric_cols
    cat_cols = fitted.seq_categorical_cols + fitted.static_categorical_cols
    first_seen, owner, stamps, values, codes = {}, [], [], [], []
    for i, rec in enumerate(records):
        stamps.append(parse_timestamp(rec[sch.ts_col], i))
        owner.append(first_seen.setdefault(rec[sch.entity_col], len(first_seen)))
        values.append([_parse_number(rec[c], c, i) for c in num_cols])
        codes.append([fitted.code_of(c, rec[c]) for c in cat_cols])
    if not owner:
        raise EmptyDataset("build_dataset: no data rows")
    try:
        stamps = np.array(stamps, dtype=np.int64)
    except OverflowError:
        raise ParseError("timestamp outside the 64-bit range") from None
    entities = np.array(sorted(first_seen), dtype=object)
    rank = np.empty(len(entities), dtype=np.int64)
    rank[[first_seen[e] for e in entities]] = np.arange(len(entities))
    owner = rank[owner]
    order = np.lexsort((stamps, owner))  # stable: by entity, then timestamp, then input order
    owner = owner[order]
    values = _z_scores(np.array(values, dtype=np.float64), fitted, num_cols)[order]
    codes = np.array(codes, dtype=np.int64)[order]
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
    return build_dataset(iter_raw_rows(data_path, fitted.schema), fitted, t)


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
