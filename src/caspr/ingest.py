"""Schema-driven parsing of raw activity logs into per-entity sequences.

The pipeline is fit -> encode -> build_sequences. Fitting derives
vocabularies (first-seen order, code 0 reserved for padding/out-of-vocab),
z-score statistics (population std, zero replaced by 1) and the embedding
width per categorical column. Encoding maps raw records to typed rows;
sequence building groups rows per entity, sorts by timestamp (stable),
keeps the latest `t` rows and left-pads shorter histories.
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
        return cls(
            schema=Schema.from_json(obj["schema"]),
            vocab={k: list(v) for k, v in obj["vocab"].items()},
            means={k: float(v) for k, v in obj["means"].items()},
            stds={k: float(v) for k, v in obj["stds"].items()},
            embed_dims={k: int(v) for k, v in obj["embed_dims"].items()},
        )


@dataclass
class ActivityRow:
    entity: str
    ts: int
    nums: np.ndarray     # sequential numeric values (raw after parse, z-scored after encode)
    cats: np.ndarray     # sequential categorical codes
    static_nums: np.ndarray
    static_cats: np.ndarray


@dataclass
class EntitySequence:
    entity: str
    steps: list[ActivityRow]   # ascending ts, at most t entries
    pad_len: int               # leading (oldest-side) pad slots; pad_len + len(steps) = t
    statics: np.ndarray        # z-scored static numerics followed by static categorical codes


@dataclass
class SequenceDataset:
    sequences: list[EntitySequence]
    fitted: FittedSchema


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
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"bad number {text!r} in column {column!r}", row_index) from None


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
    # would square to a subnormal or zero, so its square is summed scaled up.
    tiny, scale = 2.0 ** -500, 2.0 ** 600
    shifts = None
    sums = {c: 0.0 for c in numeric_cols}
    sumsqs = {c: 0.0 for c in numeric_cols}
    tiny_sqs = {c: 0.0 for c in numeric_cols}
    vocab = {c: [] for c in cat_cols}
    seen = {c: set() for c in cat_cols}
    n = 0
    for i, rec in enumerate(rows):
        parse_timestamp(rec[schema.ts_col], i)
        if shifts is None:
            shifts = {c: _parse_number(rec[c], c, i) for c in numeric_cols}
        for c in numeric_cols:
            d = _parse_number(rec[c], c, i) - shifts[c]
            sums[c] += d
            if -tiny < d < tiny:
                tiny_sqs[c] += (d * scale) ** 2
            else:
                sumsqs[c] += d * d
        for c in cat_cols:
            v = rec[c]
            if v not in seen[c]:
                seen[c].add(v)
                vocab[c].append(v)
        n += 1
    if n == 0:
        raise EmptyDataset("fit_schema: empty input stream")
    means = {c: shifts[c] + sums[c] / n for c in numeric_cols}
    stds = {}
    for c in numeric_cols:
        std = math.sqrt(max(sumsqs[c] / n - (sums[c] / n) ** 2, 0.0))
        if sumsqs[c] == 0:  # every deviation below `tiny`: take the spread in units of 1 / scale
            std = math.sqrt(max(tiny_sqs[c] / n - (sums[c] * scale / n) ** 2, 0.0)) / scale
        stds[c] = std if std > 0 else 1.0
    return FittedSchema(schema=schema, vocab=vocab, means=means, stds=stds)


def encode_rows(rows, fitted):
    """Map raw records to ActivityRows: z-scored numerics, vocab codes (OOV -> 0)."""
    sch = fitted.schema
    out = []
    for i, rec in enumerate(rows):
        ts = parse_timestamp(rec[sch.ts_col], i)
        nums = np.array(
            [(_parse_number(rec[c], c, i) - fitted.means[c]) / fitted.stds[c] for c in fitted.seq_numeric_cols],
            dtype=np.float64,
        )
        cats = np.array([fitted.code_of(c, rec[c]) for c in fitted.seq_categorical_cols], dtype=np.int64)
        snums = np.array(
            [(_parse_number(rec[c], c, i) - fitted.means[c]) / fitted.stds[c] for c in fitted.static_numeric_cols],
            dtype=np.float64,
        )
        scats = np.array([fitted.code_of(c, rec[c]) for c in fitted.static_categorical_cols], dtype=np.int64)
        out.append(ActivityRow(entity=rec[sch.entity_col], ts=ts, nums=nums, cats=cats,
                               static_nums=snums, static_cats=scats))
    return out


def build_sequences(rows, fitted, t):
    """Group rows by entity, order by ts (stable), truncate to the latest t.

    Output is sorted by entity id so the result is independent of input row
    order (up to timestamp ties, which keep input order).
    """
    if t < 1:
        raise SchemaMismatch(f"sequence length t must be >= 1, got {t}")
    groups: dict[str, list[ActivityRow]] = {}
    for row in rows:
        groups.setdefault(row.entity, []).append(row)
    sequences = []
    for entity in sorted(groups):
        ordered = sorted(groups[entity], key=lambda r: r.ts)
        steps = ordered[-t:]
        latest = ordered[-1]
        statics = np.concatenate([latest.static_nums, latest.static_cats.astype(np.float64)])
        sequences.append(EntitySequence(entity=entity, steps=steps, pad_len=t - len(steps), statics=statics))
    return sequences


def load_dataset(data_path, fitted, t):
    """CSV -> encoded, padded sequences under an already-fitted schema."""
    rows = encode_rows(iter_raw_rows(data_path, fitted.schema), fitted)
    if not rows:
        raise EmptyDataset(f"{data_path}: no data rows")
    return SequenceDataset(sequences=build_sequences(rows, fitted, t), fitted=fitted)


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
