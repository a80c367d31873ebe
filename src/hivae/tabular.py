"""Typed-column data model: schemas, tables, masks, normalization, encoding.

A dataset is an N x D grid of cells where every column has one of the five
kinds defined in ``hivae.kinds`` (real, pos, count, cat, ordinal); that module
holds each kind's support, transform, encoder block and cell format.

Cells can be individually missing.  Missing cells are stored as a neutral
sentinel (0.0) and must never be read except through the mask; every encoder
path below zero-fills them so downstream computation is provably blind to
whatever the storage holds.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .kinds import KINDS

# Lower bound on fitted scale; keeps constant columns from dividing by ~0.
SCALE_FLOOR = 1e-3


class TabularError(Exception):
    """Base class for dataset/schema problems (CLI exit code 2)."""


class SchemaError(TabularError):
    """Types file is malformed or inconsistent."""


class DataError(TabularError):
    """A data/mask cell violates its declared column kind."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ColumnSpec:
    """One column: a name, a kind, and (for nominal kinds) a class count."""

    name: str
    kind: str
    cardinality: int = 0

    def __post_init__(self):
        if not self.name or "," in self.name:
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.kind not in KINDS:
            raise SchemaError(
                f"column {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(KINDS)})"
            )
        if self.is_nominal:
            if self.cardinality < 2:
                raise SchemaError(
                    f"column {self.name!r}: kind {self.kind!r} needs cardinality >= 2"
                )
        elif self.cardinality != 0:
            raise SchemaError(
                f"column {self.name!r}: numeric kind {self.kind!r} must have cardinality 0"
            )

    @property
    def kind_class(self):
        """The ``hivae.kinds`` class that defines this column's kind."""
        return KINDS[self.kind]

    @property
    def is_nominal(self) -> bool:
        return self.kind_class.nominal

    @property
    def encoded_width(self) -> int:
        """Slots this column occupies in the encoder input."""
        return self.kind_class.encoded_width(self.cardinality)


@dataclass(frozen=True, eq=False)
class ColumnGroup:
    """The columns of one (kind, cardinality), which share their transform,
    encoder block and decoder head shape and are evaluated together."""

    kind_class: type
    cardinality: int
    columns: np.ndarray  # (G,) column indices, ascending
    slots: np.ndarray  # (G * width,) their encoder-input slots, column by column


@dataclass(frozen=True)
class Schema:
    """Ordered column specs; position is the canonical attribute index."""

    columns: tuple[ColumnSpec, ...]

    def __post_init__(self):
        if len(self.columns) < 1:
            raise SchemaError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dup}")

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def encoded_width(self) -> int:
        return sum(c.encoded_width for c in self.columns)

    def slot_ranges(self) -> list[tuple[int, int]]:
        """Per-column (offset, width) into the encoded input vector."""
        ranges, off = [], 0
        for c in self.columns:
            ranges.append((off, c.encoded_width))
            off += c.encoded_width
        return ranges

    @functools.cached_property
    def groups(self) -> tuple[ColumnGroup, ...]:
        """Columns grouped by (kind, cardinality), in order of first appearance."""
        members: dict[tuple[str, int], list[int]] = {}
        for d, c in enumerate(self.columns):
            members.setdefault((c.kind, c.cardinality), []).append(d)
        offsets = np.array([off for off, _ in self.slot_ranges()])
        groups = []
        for (kind, cardinality), columns in members.items():
            columns = np.array(columns, dtype=np.intp)
            width = KINDS[kind].encoded_width(cardinality)
            slots = (offsets[columns][:, None] + np.arange(width)).ravel()
            groups.append(ColumnGroup(KINDS[kind], cardinality, _freeze(columns), _freeze(slots)))
        return tuple(groups)

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r}")

    def fingerprint(self) -> str:
        """Stable digest of (name, kind, cardinality) triples."""
        text = "|".join(f"{c.name}:{c.kind}:{c.cardinality}" for c in self.columns)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class HeterogeneousTable:
    """N x D cell grid stored as float64; interpretation comes from the schema."""

    schema: Schema
    cells: np.ndarray

    def __post_init__(self):
        cells = np.ascontiguousarray(np.asarray(self.cells, dtype=np.float64))
        if cells.ndim != 2 or cells.shape[1] != len(self.schema):
            raise DataError(
                f"cells shape {cells.shape} does not match schema with D={len(self.schema)}"
            )
        object.__setattr__(self, "cells", _freeze(cells))

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cells.shape[1]


@dataclass(frozen=True)
class MissingMask:
    """Per-cell observed flags; True = observed, False = missing."""

    observed: np.ndarray

    def __post_init__(self):
        obs = np.ascontiguousarray(np.asarray(self.observed, dtype=bool))
        if obs.ndim != 2:
            raise DataError(f"mask must be 2-D, got shape {obs.shape}")
        object.__setattr__(self, "observed", _freeze(obs))

    def check_shape(self, table: HeterogeneousTable) -> None:
        if self.observed.shape != table.cells.shape:
            raise DataError(
                f"mask shape {self.observed.shape} != table shape {table.cells.shape}"
            )


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column shift and scale in each column's transform domain, read-only
    float64 arrays of shape (D,); nominal columns, never normalized, hold (0, 1)."""

    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        for name in ("shift", "scale"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name), dtype=np.float64)))


def fit_normalization(
    table: HeterogeneousTable, mask: MissingMask, batch_rows
) -> NormalizationStats:
    """Shift/scale of each numeric column over the observed cells of a batch.

    pos/count columns are normalized on ln(x) / ln(1+x) respectively.  Columns
    with no observed cell in the batch fall back to (0, 1); near-constant
    columns have their scale floored at SCALE_FLOOR.
    """
    rows = np.asarray(batch_rows, dtype=np.intp)
    if rows.size == 0:
        raise ValueError("batch_rows must be nonempty")
    mask.check_shape(table)
    shift, scale = np.zeros(table.n_cols), np.ones(table.n_cols)
    cells, observed = table.cells[rows], mask.observed[rows]
    for group in table.schema.groups:
        kind, idx = group.kind_class, group.columns
        if kind.nominal:
            continue
        obs = observed[:, idx]
        count = obs.sum(axis=0)
        seen = count > 0
        t = np.where(obs, kind.transform(np.where(obs, cells[:, idx], kind.safe_value)), 0.0)
        mean = t.sum(axis=0) / np.maximum(count, 1)
        dev = np.where(obs, t - mean, 0.0)
        std = np.sqrt((dev * dev).sum(axis=0) / np.maximum(count, 1))
        shift[idx[seen]] = mean[seen]
        scale[idx[seen]] = np.maximum(std[seen], SCALE_FLOOR)
    return NormalizationStats(shift, scale)


def identity_stats(schema: Schema) -> NormalizationStats:
    """(0, 1) stats for every column; used when normalization is off."""
    return NormalizationStats(np.zeros(len(schema)), np.ones(len(schema)))


def encode_inputs(
    table: HeterogeneousTable,
    mask: MissingMask,
    stats: NormalizationStats,
    rows,
) -> np.ndarray:
    """Build the zero-filled encoder input for the given rows, a read-only
    float64 (rows, encoded_width) array.

    Each observed cell fills its column's block as its kind encodes it;
    missing cells leave their whole block at zero, so the result depends only
    on observed values.
    """
    rows = np.asarray(rows, dtype=np.intp)
    mask.check_shape(table)
    out = np.zeros((rows.size, table.schema.encoded_width))
    cells, observed = table.cells[rows], mask.observed[rows]
    for group in table.schema.groups:
        kind, idx = group.kind_class, group.columns
        obs = observed[:, idx]
        values = np.where(obs, cells[:, idx], kind.safe_value)  # in-support stand-ins
        block = kind.encode(values, stats.shift[idx], stats.scale[idx], group.cardinality)
        out[:, group.slots] = np.where(obs[..., None], block, 0.0).reshape(rows.size, -1)
    return _freeze(out)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Data file:  comma-separated, no header, one row per object; an empty field
#             is a missing cell; nominal cells are integer class indices; blank
#             lines are skipped (see _records for a '""' line).  Data and
#             mask files are read, and data files written, CHUNK_ROWS rows at a time.
# Types file: one line per column, "name,kind,cardinality"; cardinality may be
#             omitted (or 0) for numeric kinds; kind in {real,pos,count,cat,ordinal}.
# Mask file:  comma-separated 0/1 matrix, same shape as data, 1 = observed.

CHUNK_ROWS = 4096


def load_types(path) -> Schema:
    cols = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            row = [f.strip() for f in row]
            if not row or row == [""]:
                continue
            if len(row) not in (2, 3):
                raise SchemaError(
                    f"{path}:{lineno}: expected 'name,kind[,cardinality]', got {row!r}"
                )
            card = 0
            if len(row) == 3 and row[2] != "":
                try:
                    card = int(row[2])
                except ValueError:
                    raise SchemaError(
                        f"{path}:{lineno}: cardinality {row[2]!r} is not an integer"
                    ) from None
            try:
                cols.append(ColumnSpec(row[0], row[1], card))
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return Schema(tuple(cols))


def _records(path, one_column: bool):
    """Chunks of at most CHUNK_ROWS (record number from 1, fields) pairs of a
    CSV file's records, blank lines skipped.

    csv.writer writes a record of one empty field as '""'.  In a one-column
    file that record is one missing cell; in a wider file it is skipped like a
    blank line.
    """
    blank = ([],) if one_column else ([], [""])
    with open(path, newline="") as fh:
        records = ((n, row) for n, row in enumerate(csv.reader(fh), start=1) if row not in blank)
        while chunk := list(itertools.islice(records, CHUNK_ROWS)):
            yield chunk


def _parse_chunk(path, chunk, schema: Schema):
    """(cells, empty flags) of a chunk's records, parsed column by column.

    A ragged record, or a field that is not numeric, not finite or out of its
    column's support, raises a DataError.  Its message names the chunk's first
    record and field, so it is exact for a chunk of one record; a failed
    chunk is parsed again a record at a time, and the first record that fails
    in file order raises.
    """
    numbers, rows = zip(*chunk)
    n, D = len(rows), len(schema)
    try:
        if set(map(len, rows)) != {D}:
            raise DataError(f"{path}:{numbers[0]}: expected {D} fields, got {len(rows[0])}")
        cells = np.zeros((n, D))
        empty = np.zeros((n, D), dtype=bool)
        for d, (col, fields) in enumerate(zip(schema.columns, zip(*rows))):
            fields = list(map(str.strip, fields))
            where = f"{path}:{numbers[0]}, column {col.name!r}"
            empty[:, d] = np.fromiter(map(operator.not_, fields), bool, n)
            try:
                values = np.fromiter(map(float, filter(None, fields)), np.float64)
            except ValueError:
                raise DataError(f"{where}: {fields[0]!r} is not numeric") from None
            if not np.isfinite(values).all():
                raise DataError(f"{where}: non-finite value {fields[0]!r}")
            if np.any(col.kind_class.unsupported(values, col.cardinality)):
                requirement = col.kind_class.support.format(last=col.cardinality - 1)
                raise DataError(
                    f"{where}: {col.kind} column requires {requirement}, got {fields[0]!r}")
            cells[~empty[:, d], d] = values
        return cells, empty
    except DataError:
        if n == 1:
            raise
    for record in chunk:
        _parse_chunk(path, [record], schema)


def load_mask(path) -> MissingMask:
    widths, flags = set(), []
    for chunk in _records(path, one_column=False):
        rows = [row for _, row in chunk]
        entries = {f: f.strip() for f in set(itertools.chain.from_iterable(rows))}
        if not set(entries.values()) <= {"0", "1"}:
            for lineno, row in chunk:
                for colno, f in enumerate(row, start=1):
                    if entries[f] not in ("0", "1"):
                        raise DataError(
                            f"{path}:{lineno}, column {colno}: mask entry must be 0 or 1")
        widths.update(map(len, rows))
        ones = {f for f, entry in entries.items() if entry == "1"}
        flags.append(np.fromiter(map(ones.__contains__, itertools.chain.from_iterable(rows)), bool))
    if not widths:
        raise DataError(f"{path}: empty mask file")
    if len(widths) != 1:
        raise DataError(f"{path}: ragged mask rows (widths {sorted(widths)})")
    return MissingMask(np.concatenate(flags).reshape(-1, widths.pop()))


def load_dataset(data_file, types_file, mask_file=None) -> tuple[HeterogeneousTable, MissingMask]:
    """Load and validate a dataset.

    Without a mask file, a cell is missing exactly when its field is empty.
    With one, the mask defines observedness; cells it marks missing are stored
    as the neutral sentinel regardless of the file contents, and a cell marked
    observed must actually carry a value.
    """
    schema = load_types(types_file)
    chunks = [_parse_chunk(data_file, chunk, schema)
              for chunk in _records(data_file, one_column=len(schema) == 1)]
    if not chunks:
        raise DataError(f"{data_file}: no data rows")
    values, is_empty = map(np.concatenate, zip(*chunks))

    if mask_file is None:
        observed = ~is_empty
    else:
        mask = load_mask(mask_file)
        if mask.observed.shape != values.shape:
            raise DataError(
                f"{mask_file}: mask shape {mask.observed.shape} != data shape {values.shape}"
            )
        conflict = mask.observed & is_empty
        if conflict.any():
            n, d = np.argwhere(conflict)[0]
            raise DataError(
                f"{data_file}: row {n + 1}, column {schema.columns[d].name!r} "
                "is marked observed but the field is empty"
            )
        observed = mask.observed.copy()
        values[~observed] = 0.0  # sentinel; never read except through the mask

    return HeterogeneousTable(schema, values), MissingMask(observed)


def write_table(table: HeterogeneousTable, path, mask: MissingMask | None = None) -> None:
    """Write a table in the input CSV dialect; masked cells become empty fields.

    The bytes are csv.writer's: formatted cells never need quoting, and a lone
    empty field, a one-column row with its cell masked, is written as "".
    """
    formats = [col.kind_class.format_cell for col in table.schema.columns]
    with open(path, "w", newline="") as fh:
        for start in range(0, table.n_rows, CHUNK_ROWS):
            chunk = slice(start, start + CHUNK_ROWS)
            columns = []
            for d, format_cell in enumerate(formats):
                cells = table.cells[chunk, d]
                shown = slice(None) if mask is None else mask.observed[chunk, d]
                fields = np.full(cells.size, "", dtype=object)
                fields[shown] = list(map(format_cell, cells[shown].tolist()))
                columns.append(fields.tolist())
            lines = list(map(",".join, zip(*columns)))
            if len(columns) == 1:
                lines = [line or '""' for line in lines]
            fh.write("\r\n".join(lines) + "\r\n")


def write_mask(mask: MissingMask, path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(np.where(mask.observed, "1", "0").tolist())
