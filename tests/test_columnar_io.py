"""Column-at-a-time CSV load/write and the sidecar encoding, checked against
row-wise reference implementations over random schemas, masks and field
layouts (whitespace, quoting, blank lines, one-column files)."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivae import benchmark as B
from hivae import generative as G
from hivae import imputation as I
from hivae import recognition as R
from hivae import training as T
from hivae.cli import main
from hivae.kinds import KINDS, json_floats
from hivae.tabular import (
    WRITE_CHUNK_ROWS,
    ColumnSpec,
    DataError,
    HeterogeneousTable,
    MissingMask,
    NormalizationStats,
    Schema,
    _parse_cell,
    load_dataset,
    load_mask,
    write_mask,
    write_table,
)

# ---------------------------------------------------------------------------
# Row-wise references: one record, then one cell, at a time.
# ---------------------------------------------------------------------------


def reference_load_mask(path):
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row == [""]:
                continue
            flags = []
            for colno, f in enumerate(row, start=1):
                f = f.strip()
                if f not in ("0", "1"):
                    raise DataError(f"{path}:{lineno}, column {colno}: mask entry must be 0 or 1")
                flags.append(f == "1")
            rows.append(flags)
    if not rows:
        raise DataError(f"{path}: empty mask file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged mask rows (widths {sorted(widths)})")
    return np.array(rows, dtype=bool)


def reference_load(data_file, schema, mask_file=None):
    """(cells, observed) as the row-wise loader builds them."""
    D = len(schema)
    cells, empty = [], []
    with open(data_file, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row == [""] and D > 1):
                continue
            if len(row) != D:
                raise DataError(f"{data_file}:{lineno}: expected {D} fields, got {len(row)}")
            crow, erow = [], []
            for col, field in zip(schema.columns, row):
                field = field.strip()
                erow.append(field == "")
                crow.append(
                    0.0 if field == "" else
                    _parse_cell(field, col, f"{data_file}:{lineno}, column {col.name!r}")
                )
            cells.append(crow)
            empty.append(erow)
    if not cells:
        raise DataError(f"{data_file}: no data rows")
    values, is_empty = np.array(cells), np.array(empty, dtype=bool)
    if mask_file is None:
        return values, ~is_empty
    observed = reference_load_mask(mask_file)
    values[~observed] = 0.0
    return values, observed


def reference_write(table, path, mask=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for n in range(table.n_rows):
            w.writerow([
                "" if mask is not None and not mask.observed[n, d]
                else col.kind_class.format_cell(table.cells[n, d])
                for d, col in enumerate(table.schema.columns)
            ])


def reference_write_mask(mask, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in mask.observed:
            w.writerow(["1" if o else "0" for o in row])


def outcome(fn, *args):
    """fn's result, or the message of the DataError it raised."""
    try:
        return fn(*args)
    except DataError as exc:
        return f"DataError: {exc}"


# ---------------------------------------------------------------------------
# Random tables and their files
# ---------------------------------------------------------------------------

IN_SUPPORT = {
    "real": st.floats(-1e6, 1e6, allow_nan=False),
    "pos": st.floats(1e-6, 1e6),
    "count": st.integers(0, 50).map(float),
}


@st.composite
def tables(draw, max_cols=4):
    specs = draw(st.lists(st.tuples(st.sampled_from(sorted(KINDS)), st.integers(2, 4)),
                          min_size=1, max_size=max_cols))
    schema = Schema(tuple(
        ColumnSpec(f"c{d}", kind, card if KINDS[kind].nominal else 0)
        for d, (kind, card) in enumerate(specs)
    ))
    n = draw(st.integers(1, 6))
    columns = [
        draw(st.lists(
            st.integers(0, col.cardinality - 1).map(float) if col.is_nominal
            else IN_SUPPORT[col.kind], min_size=n, max_size=n))
        for col in schema.columns
    ]
    observed = np.array(draw(st.lists(st.lists(st.booleans(), min_size=len(schema),
                                                max_size=len(schema)),
                                       min_size=n, max_size=n)), dtype=bool)
    return HeterogeneousTable(schema, np.column_stack(columns)), MissingMask(observed)


PADDING = st.sampled_from(["", " ", "\t", "  "])
# a masked cell's field; an unquoted empty field alone on its line is a blank line
EMPTY_FIELDS = ["", " ", '""', '" "']


@st.composite
def field_texts(draw, text):
    """text as one CSV field: padded with whitespace, maybe quoted."""
    text = draw(PADDING) + text + draw(PADDING)
    return f'"{text}"' if draw(st.booleans()) else text


def types_text(schema):
    return "".join(
        f"{c.name},{c.kind}" + (f",{c.cardinality}\n" if c.is_nominal else "\n")
        for c in schema.columns
    )


@st.composite
def data_files(draw, table, mask):
    """File text of the table with masked cells empty, in a random layout."""
    D = table.n_cols
    empty_fields = EMPTY_FIELDS if D > 1 else EMPTY_FIELDS[1:]
    lines = []
    for n in range(table.n_rows):
        if draw(st.booleans()):
            lines.extend(draw(st.sampled_from([[""], ['""'], ["", ""]]) if D > 1 else
                              st.sampled_from([[""], ["", ""]])))
        fields = [
            draw(field_texts(col.kind_class.format_cell(table.cells[n, d])))
            if mask.observed[n, d] else draw(st.sampled_from(empty_fields))
            for d, col in enumerate(table.schema.columns)
        ]
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def write_files(tmp, data_text, schema, mask_text=None):
    (tmp / "d.csv").write_text(data_text, newline="")
    (tmp / "t.csv").write_text(types_text(schema))
    if mask_text is None:
        return str(tmp / "d.csv"), str(tmp / "t.csv"), None
    (tmp / "m.csv").write_text(mask_text, newline="")
    return str(tmp / "d.csv"), str(tmp / "t.csv"), str(tmp / "m.csv")


def columnar_load(*args):
    table, mask = load_dataset(*args)
    return table.cells, mask.observed


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_load_matches_row_wise_reference(tmp_path_factory, data):
    table, mask = data.draw(tables())
    text = data.draw(data_files(table, mask))
    tmp = tmp_path_factory.mktemp("load")
    data_file, types_file, _ = write_files(tmp, text, table.schema)
    want = outcome(reference_load, data_file, table.schema)
    assert not isinstance(want, str), want
    assert_same_outcome(outcome(columnar_load, data_file, types_file), want)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_load_with_mask_file_matches_row_wise_reference(tmp_path_factory, data):
    table, mask = data.draw(tables())
    # the data file carries every value; the mask file alone hides cells
    text = data.draw(data_files(table, MissingMask(np.ones_like(mask.observed))))
    mask_text = "\n".join(
        ",".join(data.draw(field_texts("1" if o else "0")) for o in row)
        for row in mask.observed
    ) + "\n"
    tmp = tmp_path_factory.mktemp("mask")
    data_file, types_file, mask_file = write_files(tmp, text, table.schema, mask_text)
    want = outcome(reference_load, data_file, table.schema, mask_file)
    assert_same_outcome(outcome(columnar_load, data_file, types_file, mask_file), want)
    got = outcome(lambda path: load_mask(path).observed, mask_file)
    assert np.array_equal(got, outcome(reference_load_mask, mask_file))


BAD_FIELDS = {
    "real": ["abc", "nan", "inf", "1e400", "1,5"],
    "pos": ["0", "-2.5", "x", "-inf"],
    "count": ["-1", "2.5", "NaN", "1e999"],
    "cat": ["-1", "1.5", "9", "one"],
    "ordinal": ["4", "0.5", "-0.5"],
}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_first_error_in_file_order_matches_row_wise_reference(tmp_path_factory, data):
    """One bad cell and, maybe, one ragged row, in either order."""
    table, mask = data.draw(tables())
    text = data.draw(data_files(table, mask))
    lines = text.splitlines()
    where = data.draw(st.integers(0, len(lines) - 1))
    fields = next(csv.reader([lines[where]]))
    if len(fields) == table.n_cols and fields != [""] * table.n_cols:
        d = data.draw(st.integers(0, table.n_cols - 1))
        fields[d] = data.draw(st.sampled_from(BAD_FIELDS[table.schema.columns[d].kind]))
        lines[where] = ",".join(f'"{f}"' if "," in f else f for f in fields)
    if data.draw(st.booleans()):
        width = data.draw(st.sampled_from([w for w in (1, 2, 3, 5) if w != table.n_cols]))
        ragged = ",".join([data.draw(st.sampled_from(["1", "x"]))] * width)
        lines.insert(data.draw(st.integers(0, len(lines))), ragged)
    tmp = tmp_path_factory.mktemp("bad")
    data_file, types_file, _ = write_files(tmp, "\n".join(lines) + "\n", table.schema)
    want = outcome(reference_load, data_file, table.schema)
    assert_same_outcome(outcome(columnar_load, data_file, types_file), want)


@pytest.mark.parametrize("text,line", [
    ("1,2\n3,abc\n4\n", 2),  # bad value, then a ragged row
    ("1,2\n4\n3,abc\n", 2),  # ragged row, then a bad value
    ("1,2\nx\n", 2),  # a ragged row is reported as ragged, whatever its fields hold
    ("1,2\n\n3,-1\n", 3),  # record numbers count blank lines
])
def test_first_error_is_reported_with_its_record_number(tmp_path, text, line):
    schema = Schema((ColumnSpec("a", "real"), ColumnSpec("b", "count")))
    data_file, types_file, _ = write_files(tmp_path, text, schema)
    with pytest.raises(DataError, match=rf"d\.csv:{line}\b") as got:
        load_dataset(data_file, types_file)
    assert f"DataError: {got.value}" == outcome(reference_load, data_file, schema)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_writers_match_row_wise_reference_bytes(tmp_path_factory, data):
    table, mask = data.draw(tables())
    tmp = tmp_path_factory.mktemp("write")
    for m in (None, mask):
        write_table(table, tmp / "got.csv", m)
        reference_write(table, tmp / "want.csv", m)
        assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
    write_mask(mask, tmp / "got_mask.csv")
    reference_write_mask(mask, tmp / "want_mask.csv")
    assert (tmp / "got_mask.csv").read_bytes() == (tmp / "want_mask.csv").read_bytes()
    # and what was written reads back
    (tmp / "t.csv").write_text(types_text(table.schema))
    cells, observed = columnar_load(str(tmp / "got.csv"), str(tmp / "t.csv"))
    assert np.array_equal(observed, mask.observed)
    assert np.array_equal(cells[observed], table.cells[mask.observed])


@pytest.mark.parametrize("kinds", [("real", "pos", "count", "cat", "ordinal"), ("real",)])
@pytest.mark.parametrize("masked", [False, True])
def test_writer_matches_reference_past_two_chunks(tmp_path, kinds, masked):
    n = 2 * WRITE_CHUNK_ROWS + 1
    schema = Schema(tuple(
        ColumnSpec(f"c{d}", kind, 3 if KINDS[kind].nominal else 0) for d, kind in enumerate(kinds)
    ))
    rng = np.random.default_rng(len(kinds))
    draws = {"real": lambda: rng.normal(size=n), "pos": lambda: np.exp(rng.normal(size=n)),
             "count": lambda: rng.poisson(3.0, n).astype(float),
             "cat": lambda: rng.integers(0, 3, n).astype(float)}
    draws["ordinal"] = draws["cat"]
    table = HeterogeneousTable(schema, np.column_stack([draws[k]() for k in kinds]))
    observed = rng.random((n, len(kinds))) > 0.3
    observed[[0, WRITE_CHUNK_ROWS, n - 1]] = False  # a fully masked row in each chunk
    mask = MissingMask(observed) if masked else None
    write_table(table, tmp_path / "got.csv", mask)
    reference_write(table, tmp_path / "want.csv", mask)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    if masked and len(kinds) == 1:
        assert got.startswith(b'""\r\n')


FAST = T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=20)


def sidecar_and_records(tmp, table, mask, method):
    """The CLI sidecar's text, and json.dumps of the same fills' records()."""
    write_table(table, tmp / "d.csv", mask)
    (tmp / "t.csv").write_text(types_text(table.schema))
    T.save_model(T.train(table, mask, FAST), tmp / "m.json")
    out = str(tmp / "o.csv")
    assert main(["impute", "--model", str(tmp / "m.json"), "--data", str(tmp / "d.csv"),
                 "--types", str(tmp / "t.csv"), "--method", method, "--seed", "4",
                 "--out", out]) == 0
    table, mask = load_dataset(str(tmp / "d.csv"), str(tmp / "t.csv"))
    model = T.load_model(tmp / "m.json")
    if method == "map":
        result = I.impute_map(model, table, mask)
    else:
        result = I.impute_sample(model, table, mask, np.random.default_rng(4))
    return (tmp / "o.csv.fills.json").read_text(), json.dumps(result.records(), sort_keys=True) + "\n"


@pytest.mark.parametrize("case", ["complete", "complete_first_and_middle", "one_column", "sample"])
def test_sidecar_written_per_column_equals_json_dumps_of_records(tmp_path, case):
    table = B.synthetic_table(40, seed=3)
    observed = B.generate_mcar_mask(table, 0.3, seed=4).observed.copy()
    if case == "complete":
        observed[:] = True
    if case == "complete_first_and_middle":
        observed[:, [0, 3]] = True
    if case == "one_column":
        table = HeterogeneousTable(Schema(table.schema.columns[:1]), table.cells[:, :1])
        observed = observed[:, :1]
    got, want = sidecar_and_records(tmp_path, table, MissingMask(observed),
                                    "sample" if case == "sample" else "map")
    assert got == want
    assert (got == "[]\n") == (case == "complete")


def test_sidecar_bytes_equal_json_dump_with_an_infinite_pos_fill(tmp_path):
    schema = Schema((ColumnSpec("r", "real"), ColumnSpec("p", "pos"), ColumnSpec("c", "cat", 3)))
    rng = np.random.default_rng(3)
    cells = np.column_stack([rng.normal(size=30), np.exp(rng.normal(size=30)),
                             rng.integers(0, 3, 30).astype(float)])
    observed = rng.random((30, 3)) > 0.3
    table, mask = HeterogeneousTable(schema, cells), MissingMask(observed)
    write_table(table, tmp_path / "d.csv", mask)
    (tmp_path / "t.csv").write_text(types_text(schema))
    state = T.train(table, mask, T.TrainConfig(dim_z=2, dim_s=2, dim_y=2, epochs=1, batch_size=30))
    # exp(1000 - var) overflows: every pos fill is inf
    state.stats = NormalizationStats(
        (state.stats.shift[0], 1000.0, 0.0), (state.stats.scale[0], 1.0, 1.0)
    )
    T.save_model(state, tmp_path / "m.json")
    out = str(tmp_path / "o.csv")
    assert main(["impute", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "d.csv"),
                 "--types", str(tmp_path / "t.csv"), "--out", out]) == 0
    reloaded, reloaded_mask = load_dataset(str(tmp_path / "d.csv"), str(tmp_path / "t.csv"))
    result = I.impute_map(T.load_model(tmp_path / "m.json"), reloaded, reloaded_mask)
    with open(tmp_path / "want.json", "w") as fh:
        json.dump(result.records(), fh, sort_keys=True)
        fh.write("\n")
    got = (tmp_path / "o.csv.fills.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()
    assert b'"value": Infinity' in got


# ---------------------------------------------------------------------------
# The sidecar text against per-kind record dicts built from the same blocks.
# ---------------------------------------------------------------------------


def reference_summary(block, j, rows):
    """Block column j's params dicts at rows: the per-kind construction the
    sidecar was once encoded from with json.dumps."""
    if block.kind in ("real", "pos"):
        mean_key, var_key = ("mean", "var") if block.kind == "real" else ("log_mean", "log_var")
        return [{"kind": block.kind, mean_key: mu, var_key: var}
                for mu, var in zip(block.mu.values[rows, j].tolist(),
                                   block.var.values[rows, j].tolist())]
    if block.kind == "count":
        return [{"kind": "count", "rate": rate} for rate in block.rate.values[rows, j].tolist()]
    records = [{"kind": block.kind, "probs": p} for p in block.probs.values[rows, j].tolist()]
    if block.kind == "ordinal":
        thresholds = block.thresholds.values[rows, j].tolist()
        for rec, t, loc in zip(records, thresholds, block.location.values[rows, j].tolist()):
            rec.update(thresholds=t, location=loc)
    return records


def reference_records(result, summaries):
    """The sidecar records as dicts: one per filled cell, column by column."""
    records = []
    for d, rows in enumerate(result.rows):
        values = result.completed.cells[rows, d].tolist()
        records += [{"row": n, "col": d, "method": result.method, "value": v, "params": p}
                    for n, v, p in zip(rows.tolist(), values, summaries(d, rows))]
    return records


def sidecar_text(result):
    """What hivae impute writes, without the final newline."""
    return "[" + ", ".join(filter(None, map(result.column_text, range(len(result.rows))))) + "]"


EVERY_KIND = Schema((
    ColumnSpec("r0", "real"), ColumnSpec("p", "pos"), ColumnSpec("n", "count"),
    ColumnSpec("c", "cat", 3), ColumnSpec("o4", "ordinal", 4), ColumnSpec("r1", "real"),
    ColumnSpec("o2", "ordinal", 2), ColumnSpec("b", "cat", 2),
))


def every_kind_table(n=60, seed=11):
    rng = np.random.default_rng(seed)
    cells = np.column_stack([
        rng.normal(size=n), np.exp(rng.normal(size=n)), rng.poisson(2.0, n),
        rng.integers(0, 3, n), rng.integers(0, 4, n), rng.normal(5.0, 2.0, n),
        rng.integers(0, 2, n), rng.integers(0, 2, n),
    ]).astype(np.float64)
    observed = rng.random(cells.shape) > 0.3
    observed[0] = False  # every column has a fill
    return HeterogeneousTable(EVERY_KIND, cells), MissingMask(observed)


def test_json_floats_write_what_json_dumps_writes():
    values = np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, 5e-324],
                       [1e300, 0.1, 1.0 / 3.0], [-2.5e-308, 1e16, 123456789.0]])
    assert json_floats(values) == [json.dumps(v) for v in values.ravel().tolist()]
    assert json_floats(values[1:2, 1:]) == ["0.0", "5e-324"]
    assert json_floats(np.zeros((0, 3))) == []


@pytest.mark.parametrize("method", ["map_mode", "sample", "mean_mode"])
def test_sidecar_text_equals_json_dumps_of_per_kind_records(method):
    table, mask = every_kind_table()
    if method == "mean_mode":
        result = B.mean_mode_impute(table, mask)
        reference = reference_records(result, lambda d, rows: [
            {"kind": table.schema.columns[d].kind,
             "statistic": "mode" if table.schema.columns[d].is_nominal else "mean"}] * rows.size)
    else:
        state = T.train(table, mask, FAST)
        # the pos column's decoded log-mean is ~1000: exp overflows, every pos fill is inf
        shift = state.stats.shift.copy()
        shift[1] = 1000.0
        state.stats = NormalizationStats(shift, state.stats.scale)
        rng = np.random.default_rng(2)
        params = R.posterior(state.encoder, table, mask, state.stats, range(table.n_rows))
        latent = R.map_latent(params) if method == "map_mode" else R.sample_latent(params, 0.5, rng)
        decoded = G.decode(state.generative, latent, state.stats)
        values = (np.column_stack([G.mode(block)[:, j] for block, j in decoded.columns])
                  if method == "map_mode"
                  else np.column_stack([block.sample(rng, j) for block, j in decoded.columns]))
        result = I.filled(table, mask, values, method,
                          lambda d, rows: G.params_summary(*decoded.columns[d], rows))
        reference = reference_records(
            result, lambda d, rows: reference_summary(*decoded.columns[d], rows))
        assert np.isinf(result.completed.cells[~mask.observed[:, 1], 1]).all()
    text = sidecar_text(result)
    assert text == json.dumps(reference, sort_keys=True)
    assert result.records() == json.loads(text)
    assert {rec["params"]["kind"] for rec in result.records()} == set(KINDS)
    if method != "mean_mode":
        assert '"value": Infinity' in text
