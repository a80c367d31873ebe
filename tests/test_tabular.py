"""Loader, normalization, and encoding behaviour of the tabular layer."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivae.tabular import (
    ColumnSpec,
    DataError,
    HeterogeneousTable,
    MissingMask,
    NormalizationStats,
    SchemaError,
    Schema,
    SCALE_FLOOR,
    encode_inputs,
    fit_normalization,
    load_dataset,
    load_mask,
    write_mask,
    write_table,
)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestSchema:
    def test_nominal_needs_cardinality(self):
        with pytest.raises(SchemaError):
            ColumnSpec("c", "cat", 0)
        with pytest.raises(SchemaError):
            ColumnSpec("c", "cat", 1)

    def test_numeric_rejects_cardinality(self):
        with pytest.raises(SchemaError):
            ColumnSpec("r", "real", 3)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            ColumnSpec("x", "complex")

    def test_duplicate_names(self):
        with pytest.raises(SchemaError):
            Schema((ColumnSpec("a", "real"), ColumnSpec("a", "count")))

    def test_encoded_layout(self):
        schema = Schema(
            (ColumnSpec("r", "real"), ColumnSpec("c", "cat", 3), ColumnSpec("o", "ordinal", 4))
        )
        assert schema.encoded_width == 8
        assert schema.slot_ranges() == [(0, 1), (1, 3), (4, 4)]


class TestLoader:
    def test_empty_cell_defines_missingness(self, tmp_path):
        data = write(tmp_path / "d.csv", "1.0,2.0\n3.0,\n5.0,6.0\n")
        types = write(tmp_path / "t.csv", "a,real\nb,real\n")
        table, mask = load_dataset(data, types)
        assert table.n_rows == 3 and table.n_cols == 2
        assert mask.observed.sum() == 5
        assert not mask.observed[1, 1]
        assert table.cells[1, 1] == 0.0  # sentinel

    def test_out_of_range_class_names_cell(self, tmp_path):
        data = write(tmp_path / "d.csv", "0\n5\n")
        types = write(tmp_path / "t.csv", "label,cat,2\n")
        with pytest.raises(DataError, match=r"d.csv:2.*label"):
            load_dataset(data, types)

    def test_wine_shaped_file(self, tmp_path):
        # 6497 rows x 13 columns: 11 pos, 1 cat, 1 count
        rng = np.random.default_rng(0)
        n = 6497
        cols = [np.exp(rng.normal(0, 1, n)) for _ in range(11)]
        cols.append(rng.integers(0, 2, n).astype(float))
        cols.append(rng.poisson(5, n).astype(float))
        lines = []
        for i in range(n):
            fields = [repr(float(c[i])) for c in cols[:11]]
            fields.append(str(int(cols[11][i])))
            fields.append(str(int(cols[12][i])))
            lines.append(",".join(fields))
        data = write(tmp_path / "wine.csv", "\n".join(lines) + "\n")
        types_lines = [f"p{i},pos" for i in range(11)] + ["quality,cat,2", "batch,count"]
        types = write(tmp_path / "wine_types.csv", "\n".join(types_lines) + "\n")
        table, mask = load_dataset(data, types)
        assert table.n_rows == 6497
        assert table.n_cols == 13
        assert mask.observed.all()

    def test_ragged_row(self, tmp_path):
        data = write(tmp_path / "d.csv", "1,2\n3\n")
        types = write(tmp_path / "t.csv", "a,real\nb,real\n")
        with pytest.raises(DataError, match="d.csv:2"):
            load_dataset(data, types)

    def test_pos_rejects_nonpositive(self, tmp_path):
        data = write(tmp_path / "d.csv", "0.0\n")
        types = write(tmp_path / "t.csv", "p,pos\n")
        with pytest.raises(DataError, match="pos"):
            load_dataset(data, types)

    def test_count_rejects_fraction(self, tmp_path):
        data = write(tmp_path / "d.csv", "2.5\n")
        types = write(tmp_path / "t.csv", "n,count\n")
        with pytest.raises(DataError, match="count"):
            load_dataset(data, types)

    def test_unknown_kind_in_types_file(self, tmp_path):
        data = write(tmp_path / "d.csv", "1\n")
        types = write(tmp_path / "t.csv", "a,gaussian\n")
        with pytest.raises(SchemaError, match="gaussian"):
            load_dataset(data, types)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("a,real,x,3\n", "t.csv:1: expected 'name,kind[,cardinality]'"),
            ("a,real\nc,cat,three\n", "t.csv:2: cardinality 'three' is not an integer"),
        ],
        ids=["field_count", "cardinality"],
    )
    def test_bad_types_file(self, tmp_path, text, message):
        data = write(tmp_path / "d.csv", "1,0\n")
        types = write(tmp_path / "t.csv", text)
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_dataset(data, types)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1,1\n1,2\n", "m.csv:2, column 2: mask entry must be 0 or 1"),
            ("1,1\n1\n", "m.csv: ragged mask rows (widths [1, 2])"),
            ("", "m.csv: empty mask file"),
            ("1,1\n", "m.csv: mask shape (1, 2) != data shape (2, 2)"),
        ],
        ids=["entry", "ragged", "empty", "shape"],
    )
    def test_bad_mask_file(self, tmp_path, text, message):
        data = write(tmp_path / "d.csv", "1,2\n3,4\n")
        types = write(tmp_path / "t.csv", "a,real\nb,real\n")
        maskf = write(tmp_path / "m.csv", text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_dataset(data, types, maskf)

    def test_mask_file_controls_observedness(self, tmp_path):
        data = write(tmp_path / "d.csv", "1,2\n3,4\n")
        types = write(tmp_path / "t.csv", "a,real\nb,real\n")
        maskf = write(tmp_path / "m.csv", "1,0\n1,1\n")
        table, mask = load_dataset(data, types, maskf)
        assert not mask.observed[0, 1]
        assert table.cells[0, 1] == 0.0  # value replaced by sentinel

    def test_mask_observed_but_empty_cell(self, tmp_path):
        data = write(tmp_path / "d.csv", "1,\n")
        types = write(tmp_path / "t.csv", "a,real\nb,real\n")
        maskf = write(tmp_path / "m.csv", "1,1\n")
        with pytest.raises(DataError, match="observed"):
            load_dataset(data, types, maskf)

    def test_table_and_mask_roundtrip(self, tmp_path, mixed_table):
        table, mask = mixed_table
        write_table(table, tmp_path / "out.csv", mask)
        write_mask(mask, tmp_path / "mask.csv")
        types_lines = [
            f"{c.name},{c.kind}" + (f",{c.cardinality}" if c.is_nominal else "")
            for c in table.schema.columns
        ]
        types = write(tmp_path / "t.csv", "\n".join(types_lines) + "\n")
        table2, mask2 = load_dataset(str(tmp_path / "out.csv"), types)
        assert np.array_equal(mask2.observed, mask.observed)
        assert np.array_equal(table2.cells[mask.observed], table.cells[mask.observed])
        mask3 = load_mask(str(tmp_path / "mask.csv"))
        assert np.array_equal(mask3.observed, mask.observed)

    def test_one_column_table_with_a_masked_cell_round_trips(self, tmp_path):
        # csv.writer writes the lone empty field as '""', which is a cell, not a blank line
        schema = Schema((ColumnSpec("x", "real"),))
        table = HeterogeneousTable(schema, np.array([[1.0], [2.0], [3.0]]))
        mask = MissingMask(np.array([[True], [False], [True]]))
        write_table(table, tmp_path / "d.csv", mask)
        write_table(table, tmp_path / "full.csv")
        write_mask(mask, tmp_path / "m.csv")
        types = write(tmp_path / "t.csv", "x,real\n")
        assert (tmp_path / "d.csv").read_bytes() == b'1.0\r\n""\r\n3.0\r\n'
        files = ((tmp_path / "d.csv", None), (tmp_path / "full.csv", tmp_path / "m.csv"))
        for data, maskf in files:
            table2, mask2 = load_dataset(data, types, maskf)
            assert np.array_equal(mask2.observed, mask.observed)
            assert table2.cells[:, 0].tolist() == [1.0, 0.0, 3.0]

    def test_blank_lines_are_skipped_in_a_one_column_file(self, tmp_path):
        data = write(tmp_path / "d.csv", '1.0\n\n""\n\n2.0\n')
        types = write(tmp_path / "t.csv", "x,real\n")
        table, mask = load_dataset(data, types)
        assert mask.observed[:, 0].tolist() == [True, False, True]


class TestNormalization:
    def test_real_two_point_stats(self):
        schema = Schema((ColumnSpec("r", "real"),))
        table = HeterogeneousTable(schema, np.array([[1.0], [3.0]]))
        mask = MissingMask(np.ones((2, 1), dtype=bool))
        st_ = fit_normalization(table, mask, [0, 1])
        assert st_.shift[0] == pytest.approx(2.0)
        assert st_.scale[0] == pytest.approx(1.0)

    def test_pos_stats_in_log_domain(self):
        schema = Schema((ColumnSpec("p", "pos"),))
        table = HeterogeneousTable(schema, np.array([[1.0], [math.e**2]]))
        mask = MissingMask(np.ones((2, 1), dtype=bool))
        st_ = fit_normalization(table, mask, [0, 1])
        assert st_.shift[0] == pytest.approx(1.0)
        assert st_.scale[0] == pytest.approx(1.0)

    def test_constant_column_hits_scale_floor(self):
        # direct computation: the batch stdev of {5,5,5} is exactly 0
        vals = np.array([5.0, 5.0, 5.0])
        assert np.std(vals) == 0.0
        schema = Schema((ColumnSpec("r", "real"),))
        table = HeterogeneousTable(schema, vals[:, None])
        mask = MissingMask(np.ones((3, 1), dtype=bool))
        st_ = fit_normalization(table, mask, [0, 1, 2])
        assert st_.scale[0] == SCALE_FLOOR

    def test_unobserved_column_falls_back(self):
        schema = Schema((ColumnSpec("r", "real"),))
        table = HeterogeneousTable(schema, np.array([[7.0], [8.0]]))
        mask = MissingMask(np.zeros((2, 1), dtype=bool))
        st_ = fit_normalization(table, mask, [0, 1])
        assert (st_.shift[0], st_.scale[0]) == (0.0, 1.0)

    def test_stats_are_read_only_copies_with_nominal_columns_at_identity(self, mixed_table):
        table, mask = mixed_table
        shift = np.arange(5.0)
        stats = NormalizationStats(shift, [1, 2, 3, 4, 5])
        shift[0] = 99.0
        assert stats.shift.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        fitted = fit_normalization(table, mask, range(table.n_rows))
        for arr in (stats.shift, stats.scale, fitted.shift, fitted.scale):
            assert arr.dtype == np.float64 and arr.shape == (5,)
            assert not arr.flags.writeable
        nominal = [col.is_nominal for col in table.schema.columns]
        assert fitted.shift[nominal].tolist() == [0.0, 0.0]
        assert fitted.scale[nominal].tolist() == [1.0, 1.0]

    def test_batch_rows_must_be_nonempty(self, mixed_table):
        table, mask = mixed_table
        with pytest.raises(ValueError):
            fit_normalization(table, mask, [])


class TestEncoding:
    def test_centered_real_cell(self):
        schema = Schema((ColumnSpec("r", "real"),))
        table = HeterogeneousTable(schema, np.array([[2.0], [2.0]]))
        mask = MissingMask(np.ones((2, 1), dtype=bool))
        stats = fit_normalization(table, mask, [0, 1])
        enc = encode_inputs(table, mask, stats, [0])
        assert enc[0, 0] == 0.0

    def test_returns_read_only_float64_array(self, mixed_table):
        table, mask = mixed_table
        stats = fit_normalization(table, mask, range(table.n_rows))
        enc = encode_inputs(table, mask, stats, [2, 0, 1])
        assert type(enc) is np.ndarray
        assert enc.dtype == np.float64
        assert enc.shape == (3, table.schema.encoded_width)
        assert not enc.flags.writeable
        with pytest.raises(ValueError):
            enc[0, 0] = 1.0

    def test_ordinal_thermometer(self):
        schema = Schema((ColumnSpec("o", "ordinal", 3),))
        table = HeterogeneousTable(schema, np.array([[1.0]]))
        mask = MissingMask(np.ones((1, 1), dtype=bool))
        enc = encode_inputs(table, mask, fit_normalization(table, mask, [0]), [0])
        assert enc[0].tolist() == [1.0, 1.0, 0.0]

    def test_missing_categorical_is_zero_block(self):
        schema = Schema((ColumnSpec("c", "cat", 4),))
        table = HeterogeneousTable(schema, np.array([[2.0]]))
        mask = MissingMask(np.array([[False]]))
        enc = encode_inputs(table, mask, fit_normalization(table, mask, [0]), [0])
        assert enc[0].tolist() == [0.0, 0.0, 0.0, 0.0]

    @given(
        kind_card=st.sampled_from([("cat", 2), ("cat", 5), ("ordinal", 3), ("ordinal", 6)]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_nominal_roundtrip(self, kind_card, data):
        kind, card = kind_card
        cls = data.draw(st.integers(0, card - 1))
        schema = Schema((ColumnSpec("x", kind, card),))
        table = HeterogeneousTable(schema, np.array([[float(cls)]]))
        mask = MissingMask(np.array([[True]]))
        slots = encode_inputs(table, mask, fit_normalization(table, mask, [0]), [0])[0]
        if kind == "cat":
            assert int(np.argmax(slots)) == cls and slots.sum() == 1.0
        else:
            assert int(slots.sum()) - 1 == cls
            # thermometer: ones then zeros
            assert all(slots[i] >= slots[i + 1] for i in range(card - 1))

    def test_missing_cells_cannot_influence_encoding(self, mixed_table):
        table, mask = mixed_table
        stats = fit_normalization(table, mask, range(table.n_rows))
        base = encode_inputs(table, mask, stats, range(table.n_rows))
        cells = table.cells.copy()
        cells[~mask.observed] = 123.0  # junk that stays type-invalid on purpose
        perturbed = HeterogeneousTable(table.schema, cells)
        again = encode_inputs(perturbed, mask, stats, range(table.n_rows))
        assert np.array_equal(base, again)

    def test_observed_batch_standardizes_to_unit_moments(self, mixed_table):
        table, mask = mixed_table
        rows = np.arange(table.n_rows)
        stats = fit_normalization(table, mask, rows)
        enc = encode_inputs(table, mask, stats, rows)
        for d, (col, (off, _)) in enumerate(zip(table.schema.columns, table.schema.slot_ranges())):
            if col.is_nominal:
                continue
            obs = mask.observed[rows, d]
            if obs.sum() < 2 or stats.scale[d] <= SCALE_FLOOR:
                continue
            slots = enc[obs, off]
            assert abs(slots.mean()) < 1e-9
            assert abs(slots.std() - 1.0) < 1e-9
