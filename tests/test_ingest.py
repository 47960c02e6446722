import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from caspr import ingest
from caspr.errors import EmptyDataset, ParseError, SchemaMismatch
from caspr.ingest import ColumnSpec, Schema, build_dataset, embed_dim_for, fit_schema
from records import chunks


def make_schema(extra=()):
    cols = [ColumnSpec("entity", "entity_id"), ColumnSpec("ts", "timestamp")] + list(extra)
    return Schema(cols)


def rows_of(schema, records):
    """read_columns' chunks of records given as tuples in the schema's column order."""
    names = [c.name for c in schema.columns]
    return chunks([dict(zip(names, map(str, rec))) for rec in records], schema)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaMismatch):
            Schema([ColumnSpec("a", "entity_id"), ColumnSpec("a", "timestamp")])

    def test_exactly_one_entity_and_timestamp(self):
        with pytest.raises(SchemaMismatch):
            Schema([ColumnSpec("a", "entity_id"), ColumnSpec("b", "entity_id"),
                    ColumnSpec("ts", "timestamp")])
        with pytest.raises(SchemaMismatch):
            Schema([ColumnSpec("a", "entity_id")])

    def test_json_roundtrip(self):
        schema = Schema([ColumnSpec("e", "entity_id"), ColumnSpec("ts", "timestamp"),
                         ColumnSpec("amt", "numerical")], monetary="amt")
        again = Schema.from_json(schema.to_json())
        assert again == schema


class TestEmbedDim:
    def test_sixteen_values_gives_four(self):
        assert embed_dim_for(16) == 4

    def test_single_value_gives_one(self):
        assert embed_dim_for(1) == 1

    def test_rule_over_full_range(self):
        for c in range(1, 10_001):
            assert embed_dim_for(c) == max(1, math.ceil(math.sqrt(c)))


class TestFitSchema:
    def test_empty_stream(self):
        with pytest.raises(EmptyDataset):
            fit_schema([], make_schema())

    def test_vocab_first_seen_order_and_stats(self):
        schema = make_schema([ColumnSpec("tier", "categorical"), ColumnSpec("x", "numerical")])
        recs = rows_of(schema, [("a", 1, "gold", 10.0), ("a", 2, "silver", 12.0),
                                ("b", 3, "gold", 8.0)])
        fitted = fit_schema(recs, schema)
        assert fitted.vocab["tier"] == ["gold", "silver"]
        assert fitted.vocab["tier"].index("gold") + 1 == 1
        assert fitted.vocab["tier"].index("silver") + 1 == 2
        np.testing.assert_allclose(fitted.means["x"], 10.0)
        np.testing.assert_allclose(fitted.stds["x"], np.std([10.0, 12.0, 8.0]))

    def test_constant_column_std_is_one(self):
        schema = make_schema([ColumnSpec("x", "numerical")])
        fitted = fit_schema(rows_of(schema, [("a", 1, 7.0), ("a", 2, 7.0)]), schema)
        assert fitted.means["x"] == 7.0
        assert fitted.stds["x"] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(offset=st.sampled_from([0.0, -3e4, 1e6, 1e9, -1e9, 1.7e9, 1e12]),
           spread=st.sampled_from([1e-2, 1.0, 1e3]),
           devs=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=50))
    @example(offset=1e9, spread=1.0, devs=[-1.0, 1.0, -1.0, 1.0])
    @example(offset=0.0, spread=0.01, devs=[0.0, 1.1125369292536007e-308])  # squares underflow
    def test_std_exact_at_large_offsets(self, offset, spread, devs):
        # statistics.pstdev is exact (rational arithmetic); np.std is not a
        # usable oracle here, since its own mean rounds at offsets near 1e12
        xs = [offset + spread * d for d in devs]
        std = statistics.pstdev(xs)
        assume(std > 1e-3 * (max(xs) - min(xs)) > 0)
        schema = make_schema([ColumnSpec("x", "numerical")])
        fitted = fit_schema(rows_of(schema, [("a", i, x) for i, x in enumerate(xs)]), schema)
        np.testing.assert_allclose(fitted.stds["x"], std, rtol=1e-6)
        np.testing.assert_allclose(fitted.means["x"], statistics.fmean(xs), rtol=1e-12,
                                   atol=1e-12 * (max(xs) - min(xs)))

    @pytest.mark.parametrize("xs", [[0.0, 1e200], [1e300, -1e300], [-1e200, 1e199, 3e200, 0.5],
                                    [1e308, -1e308], [0.0, 1e308, 1e308]])
    def test_std_finite_at_huge_spreads(self, xs):
        # statistics.mean is exact; fmean's float sum overflows on the last case
        schema = make_schema([ColumnSpec("x", "numerical")])
        fitted = fit_schema(rows_of(schema, [("a", i, x) for i, x in enumerate(xs)]), schema)
        assert math.isfinite(fitted.stds["x"]) and math.isfinite(fitted.means["x"])
        np.testing.assert_allclose(fitted.stds["x"], statistics.pstdev(xs), rtol=1e-12)
        np.testing.assert_allclose(fitted.means["x"], statistics.mean(xs), rtol=1e-12, atol=1e-12)

    def test_normal_range_std_is_the_plain_shifted_formula(self):
        """Spreads that need no rescaling keep the shifted-sums formula bit for bit."""
        rng = np.random.default_rng(3)
        schema = make_schema([ColumnSpec("x", "numerical")])
        for scale in (1e-3, 1.0, 1e6, 1e100):
            xs = [float(x) for x in rng.normal(7.0, 1.0, size=50) * scale]
            fitted = fit_schema(rows_of(schema, [("a", i, x) for i, x in enumerate(xs)]), schema)
            s = sq = 0.0
            for x in xs:
                s += x - xs[0]
                sq += (x - xs[0]) * (x - xs[0])
            assert fitted.stds["x"] == math.sqrt(max(sq / 50 - (s / 50) ** 2, 0.0))

    def test_embed_dim_from_observed_cardinality(self):
        schema = make_schema([ColumnSpec("c", "categorical")])
        recs = rows_of(schema, [("a", i, f"v{i % 16}") for i in range(60)])
        fitted = fit_schema(recs, schema)
        assert fitted.step_width == 1 + 4  # the position scalar, then ceil(sqrt(16)) embedding dims

    def test_malformed_number_carries_row_index(self):
        schema = make_schema([ColumnSpec("x", "numerical")])
        with pytest.raises(ParseError) as exc:
            fit_schema(rows_of(schema, [("a", 1, 1.0), ("a", 2, "oops")]), schema)
        assert exc.value.row_index == 1

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_number_names_row_and_column(self, text):
        schema = make_schema([ColumnSpec("x", "numerical")])
        with pytest.raises(ParseError, match="non-finite number .* in column 'x'") as exc:
            fit_schema(rows_of(schema, [("a", 1, 1.0), ("a", 2, text)]), schema)
        assert exc.value.row_index == 1

    def test_bad_timestamp_rejected(self):
        schema = make_schema()
        with pytest.raises(ParseError):
            fit_schema(chunks([{"entity": "a", "ts": "not-a-time"}], schema), schema)

    def test_iso_timestamp_accepted(self):
        assert ingest.parse_timestamp("1970-01-01T00:01:00Z") == 60
        assert ingest.parse_timestamp("1970-01-01T00:01:00+00:00") == 60


class TestEncodeRows:
    """build_dataset encodes each record: vocab codes, OOV -> 0, z-scores."""

    def setup_method(self):
        self.schema = make_schema([ColumnSpec("tier", "categorical"), ColumnSpec("x", "numerical")])
        self.recs = rows_of(self.schema, [("a", 1, "gold", 10.0), ("a", 2, "silver", 12.0),
                                          ("b", 3, "bronze", 8.0)])
        self.fitted = fit_schema(self.recs, self.schema)

    def test_vocab_lookup(self):
        ds = build_dataset(self.recs, self.fitted, 2)
        assert list(ds.cats[0, :, 0]) == [1, 2]

    def test_unseen_value_maps_to_zero(self):
        recs = rows_of(self.schema, [("c", 5, "platinum", 10.0)])
        assert build_dataset(recs, self.fitted, 1).cats[0, 0, 0] == 0

    def test_zscore_identity(self):
        fitted = ingest.FittedSchema(self.schema, vocab={"tier": ["gold"]},
                                     means={"x": 10.0}, stds={"x": 2.0})
        recs = rows_of(self.schema, [("a", 1, "gold", 12.0)])
        np.testing.assert_allclose(build_dataset(recs, fitted, 1).nums[0, 0, 0], 1.0)

    def test_zscored_column_has_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5.0, 3.0, size=500)
        schema = make_schema([ColumnSpec("x", "numerical")])
        recs = rows_of(schema, [("a", i, v) for i, v in enumerate(values)])
        z = build_dataset(recs, fit_schema(recs, schema), 500).nums[0, :, 0]
        assert abs(z.mean()) < 1e-6
        assert abs(z.std() - 1.0) < 1e-6

    def test_zscore_finite_where_the_deviation_overflows(self):
        # fits to mean -8.5e307 and std 1.47e308, but 1.7e308 - mean is inf
        schema = make_schema([ColumnSpec("x", "numerical")])
        recs = rows_of(schema, [("a", i, x) for i, x in enumerate([1.7e308] + [-1.7e308] * 3)])
        fitted = fit_schema(recs, schema)
        z = build_dataset(recs, fitted, 4).nums[0, :, 0]
        np.testing.assert_allclose(z, [math.sqrt(3.0)] + [-1.0 / math.sqrt(3.0)] * 3, rtol=1e-12)

    def test_infinite_zscore_is_parse_error_naming_row_and_column(self):
        schema = make_schema([ColumnSpec("x", "numerical")])
        fitted = ingest.FittedSchema(schema, vocab={}, means={"x": 0.0}, stds={"x": 1e-3})
        recs = rows_of(schema, [("a", 1, 0.0), ("a", 2, 1e308)])
        with pytest.raises(ParseError, match=r"row 1: .*'x'.*finite z-score"):
            build_dataset(recs, fitted, 2)


class TestBuildSequences:
    """build_dataset lays out each entity's steps. Rows are told apart by `x`,
    which an identity fit (mean 0, std 1) keeps exact."""

    def setup_method(self):
        self.schema = make_schema([ColumnSpec("x", "numerical")])
        self.fitted = ingest.FittedSchema(self.schema, vocab={}, means={"x": 0.0}, stds={"x": 1.0})

    def _dataset(self, records, t):
        return build_dataset(rows_of(self.schema, records), self.fitted, t)

    def test_truncation_keeps_latest(self):
        ds = self._dataset([("a", i, float(i)) for i in range(20)], 15)
        assert ds.real.all()
        assert list(ds.nums[0, :, 0]) == list(range(5, 20))

    def test_padding_arithmetic(self):
        ds = self._dataset([("a", i, float(i + 1)) for i in range(3)], 15)
        assert list(ds.real[0]) == [False] * 12 + [True] * 3
        assert list(ds.nums[0, :, 0]) == [0.0] * 12 + [1.0, 2.0, 3.0]

    def test_shuffled_timestamps_sorted(self):
        ds = self._dataset([("a", 30, 1.0), ("a", 10, 2.0), ("a", 20, 3.0)], 15)
        assert list(ds.nums[0, -3:, 0]) == [2.0, 3.0, 1.0]

    def test_timestamp_ties_keep_input_order(self):
        ds = self._dataset([("a", 5, 1.0), ("a", 5, 2.0), ("a", 1, 3.0), ("a", 5, 4.0)], 3)
        assert list(ds.nums[0, :, 0]) == [1.0, 2.0, 4.0]

    def test_entities_in_id_order(self):
        ds = self._dataset([("b", 1, 1.0), ("a", 2, 2.0), ("c", 0, 3.0), ("a", 1, 4.0)], 2)
        assert list(ds.entities) == ["a", "b", "c"]
        np.testing.assert_array_equal(ds.nums[:, :, 0], [[4.0, 2.0], [0.0, 1.0], [0.0, 3.0]])

    def test_permutation_invariance(self):
        # invariance is over the row order fed to build_dataset; fitting itself
        # is order-sensitive by contract (vocab keeps first-seen order)
        rng = np.random.default_rng(1)
        recs = [(f"e{i % 7}", int(ts), float(rng.normal())) for i, ts in
                enumerate(rng.choice(10_000, size=60, replace=False))]
        shuffled = list(recs)
        rng.shuffle(shuffled)
        a, b = self._dataset(recs, 8), self._dataset(shuffled, 8)
        assert list(a.entities) == list(b.entities)
        for field in ("real", "nums", "cats", "statics"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_statics_come_from_most_recent_row(self):
        schema = make_schema([ColumnSpec("age", "static_numerical"), ColumnSpec("tier", "static_categorical")])
        recs = rows_of(schema, [("a", 1, 30.0, "x"), ("a", 9, 31.0, "y"), ("a", 5, 99.0, "x")])
        fitted = fit_schema(recs, schema)
        ds = build_dataset(recs, fitted, 4)
        expected = (31.0 - fitted.means["age"]) / fitted.stds["age"]
        np.testing.assert_allclose(ds.statics[0], [expected, fitted.vocab["tier"].index("y") + 1])

    def test_empty_input_and_bad_length_rejected(self):
        with pytest.raises(EmptyDataset):
            self._dataset([], 4)
        with pytest.raises(SchemaMismatch):
            self._dataset([("a", 1, 1.0)], 0)

    def test_timestamp_beyond_64_bits_is_parse_error(self):
        with pytest.raises(ParseError, match="64-bit"):
            self._dataset([("a", 2 ** 63, 1.0)], 4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=40, unique=True),
       st.integers(1, 12))
def test_sequences_never_exceed_t_and_keep_max_suffix(timestamps, t):
    schema = make_schema([ColumnSpec("x", "numerical")])
    fitted = ingest.FittedSchema(schema, vocab={}, means={"x": 0.0}, stds={"x": 1.0})
    ds = build_dataset(rows_of(schema, [("a", ts, float(ts)) for ts in timestamps]), fitted, t)
    kept = sorted(timestamps)[-t:]
    assert ds.real.shape == (1, t)
    assert list(ds.real[0]) == [False] * (t - len(kept)) + [True] * len(kept)
    assert list(ds.nums[0, t - len(kept):, 0]) == kept
    assert not ds.nums[0, :t - len(kept)].any()


@pytest.mark.parametrize("vocab", ["ch_0ch_1", ["ch_0", 1], None])
def test_fitted_vocab_must_be_a_list_of_strings(tmp_path, vocab):
    schema = make_schema([ColumnSpec("channel", "categorical")])
    obj = fit_schema(rows_of(schema, [("a", 1, "ch_0")]), schema).to_json()
    path = tmp_path / "fitted.json"
    path.write_text(json.dumps({**obj, "vocab": {"channel": vocab}}))
    with pytest.raises(SchemaMismatch, match="list of strings"):
        ingest.load_fitted_json(path)


@pytest.mark.parametrize("stat, value", [("stds", 0.0), ("stds", -1.0), ("stds", math.nan), ("stds", math.inf),
                                         ("means", math.nan), ("means", -math.inf)])
def test_fitted_statistics_must_be_finite_with_positive_std(tmp_path, stat, value):
    schema = make_schema([ColumnSpec("x", "numerical")])
    obj = fit_schema(rows_of(schema, [("a", 1, 2.0), ("a", 2, 3.0)]), schema).to_json()
    path = tmp_path / "fitted.json"
    path.write_text(json.dumps({**obj, stat: {"x": value}}))
    with pytest.raises(SchemaMismatch, match=f"{stat[:-1]} of column 'x'"):
        ingest.load_fitted_json(path)


@pytest.mark.parametrize("table, entry, what", [
    ("vocab", None, "vocab: no entry for column 'tier'"),
    ("means", None, "means: no entry for column 'x'"),
    ("stds", None, "stds: no entry for column 'x'"),
    ("means", {"x": 0.0, "tier": 0.0}, r"means: column 'tier' is not among \['x'\]"),
    ("vocab", {"tier": ["g"], "x": ["1"]}, r"vocab: column 'x' is not among \['tier'\]"),
])
def test_fitted_tables_name_exactly_their_schema_columns(tmp_path, table, entry, what):
    schema = make_schema([ColumnSpec("tier", "categorical"), ColumnSpec("x", "numerical")])
    obj = fit_schema(rows_of(schema, [("a", 1, "g", 1.5), ("b", 2, "s", 2.5)]), schema).to_json()
    path = tmp_path / "fitted.json"
    path.write_text(json.dumps({**obj, table: entry or {}}))
    with pytest.raises(SchemaMismatch, match=what):
        ingest.load_fitted_json(path)


def test_fitted_schema_json_roundtrip():
    schema = make_schema([ColumnSpec("tier", "categorical"), ColumnSpec("x", "numerical")])
    recs = rows_of(schema, [("a", 1, "g", 1.5), ("b", 2, "s", 2.5)])
    fitted = fit_schema(recs, schema)
    again = ingest.FittedSchema.from_json(fitted.to_json())
    assert again.vocab == fitted.vocab
    assert again.means == fitted.means
    assert again.stds == fitted.stds
    assert set(fitted.to_json()) == {"schema", "vocab", "means", "stds"}


def test_stored_embed_dims_table_is_ignored(tmp_path):
    """A fitted.json written when the widths were stored still loads: each width comes from its vocab."""
    schema = make_schema([ColumnSpec("tier", "categorical"), ColumnSpec("x", "numerical")])
    fitted = fit_schema(rows_of(schema, [("a", 1, "g", 1.5), ("b", 2, "s", 2.5)]), schema)
    path = tmp_path / "fitted.json"
    path.write_text(json.dumps({**fitted.to_json(), "embed_dims": {"tier": 0}}))
    assert ingest.load_fitted_json(path).step_width == fitted.step_width == 1 + 1 + 2
