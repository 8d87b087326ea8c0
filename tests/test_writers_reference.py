"""Differential checks of `features.write_rows` against the frozen writers.

`reference_writers._write_csv` wrote one ``csv.writer`` row per tuple;
`write_rows` must write the same bytes for the same cells given as
columns, whatever the cell types, the text and the row count.  The CLI
files it now writes must match the ones the frozen writers write when they
are patched back in.  The trace and dataset files are checked against
`reference_greedy` and `reference_datagen` in their own tests; here the
trace is also checked against the frozen row writer.  Numpy columns are
drawn from small pools of easily confused values, and as runs of equal
cells, whose heads alone the byte path formats, with row counts at the
byte path's piece edges.  `_piece_ends` finds those edges by the writer's
rule, written out again here, and the writer is checked to cut its
pieces there.  `test_number_text.py` checks the numpy number texts against
``repr`` itself.
"""

import csv
import filecmp
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writers
from helpers import balanced_spec
from offloadlab import cli, cluster, features, greedy
from offloadlab.cli import main
from offloadlab.datagen import build_dataset
from offloadlab.features import CSV_CHUNK_ROWS, write_chunks, write_rows

_AWKWARD_TEXT = [",", '"', "\r", "\n", "", " lead", "trail ", "é", 'a,b "c"',
                 "x\r\ny", '""', "None"]
_NUL_FROM_311 = pytest.mark.skipif(sys.version_info < (3, 11),
                                   reason="the csv module reads and writes NUL from Python 3.11")
# NUL is left out: Python 3.10's csv.writer refuses it without an escapechar
_TEXT = st.one_of(st.sampled_from(_AWKWARD_TEXT), st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6))
_AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0,
                   1e16, 1e-5, math.inf, -math.inf, math.nan]
_FLOATS = st.one_of(st.sampled_from(_AWKWARD_FLOATS), st.floats())
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_MIXED = st.one_of(_TEXT, _FLOATS, st.integers(), st.none(), st.booleans(),
                   _FLOATS.map(np.float64), _INT64.map(np.int64))

_POOLS = {
    "text": _TEXT,
    "int": st.one_of(st.integers(), st.sampled_from([0, -1, 2 ** 70])),
    "float": _FLOATS,
    "np_int": _INT64,
    "np_float": _FLOATS,
    "mixed": _MIXED,
}


def _piece_ends(floats, n):
    """Where the byte path's pieces of an n-row chunk end, by its rule: with
    k float columns (none: `CSV_CHUNK_ROWS` rows a piece) and
    step = max(1, CSV_CHUNK_ROWS // k), a piece whose first `step` rows
    hold no cell equal in float64 bits to the cell above is those rows;
    any other is the most rows whose k cells a row, plus its run heads,
    number at most 2 * k * step.  A run head is the piece's first cell of
    a column, or a cell whose bits differ from the cell's above."""
    k = len(floats)
    step = max(1, CSV_CHUNK_ROWS // k) if k else CSV_CHUNK_ROWS
    bits = [np.asarray(column, dtype=np.float64).view(np.uint64).tolist() for column in floats]
    ends, lo = [], 0
    while lo < n:
        hi = min(n, lo + step)
        if any(b[r] == b[r - 1] for b in bits for r in range(lo + 1, hi)):
            hi, cost = lo, 0
            while hi < n:
                cost += k + sum(hi == lo or b[hi] != b[hi - 1] for b in bits)
                if cost > 2 * k * step:
                    break
                hi += 1
        ends.append(hi)
        lo = hi
    return ends


def _rows_at_piece_ends(draw, columns, least):
    """A drawn row count: `least` to 3, or one of the rows at and beside
    the piece ends of the table `columns` (`_piece_ends` of its numpy
    float columns)."""
    n = len(columns[0])
    floats = [column for column in columns if features._is_floats(column)]
    near = {end + d for end in _piece_ends(floats, n) for d in (-1, 0, 1)}
    return draw(st.sampled_from(sorted(set(range(least, 4)) | {r for r in near if r <= n})))


_FULL_ROWS = 2 * CSV_CHUNK_ROWS + 1  # rows a drawn table is cut from


@st.composite
def tables(draw):
    """(header, columns): each column cycles a small drawn pool of cells,
    cut at a drawn row count, near a piece end where it has one."""
    rows = _FULL_ROWS
    width = draw(st.integers(1, 4))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(sorted(_POOLS) + ["range"]))
        if kind == "range":
            start = draw(st.integers(-5, 5))
            columns.append(range(start, start + rows))
            continue
        pool = draw(st.lists(_POOLS[kind], min_size=1, max_size=5))
        cells = (pool * rows)[:rows]
        if kind == "np_int":
            cells = np.array(cells, dtype=np.int64)
        elif kind == "np_float":
            cells = np.array(cells, dtype=float)
        columns.append(cells)
    cut = _rows_at_piece_ends(draw, columns, 0)
    return header, [column[:cut] for column in columns]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


# values whose texts are easy to mix up: signed zeros, the smallest
# subnormal, the float extremes, and numpy ints at their bounds
_SHARED_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0]
_SHARED_INTS = {np.int64: [0, -1, 7, 2 ** 63 - 1, -2 ** 63], np.int32: [0, -5, 2 ** 31 - 1],
                np.uint64: [0, 3, 2 ** 64 - 1], np.bool_: [True, False]}


@st.composite
def pooled_tables(draw):
    """Numeric numpy columns, each drawn from a small pool of values, so
    that most of a column's cells repeat one another, cut near a piece end."""
    rows = _FULL_ROWS
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        dtype = draw(st.sampled_from([np.float64, *_SHARED_INTS]))
        values = _SHARED_FLOATS if dtype is np.float64 else _SHARED_INTS[dtype]
        pool = np.array(draw(st.lists(st.sampled_from(values), min_size=1, max_size=6)),
                        dtype=dtype)
        columns.append(pool[rng.integers(0, len(pool), size=rows)])
    cut = _rows_at_piece_ends(draw, columns, 1)
    return [column[:cut] for column in columns]


def _run_pool(dtype) -> np.ndarray:
    """`_SHARED_FLOATS` in `dtype`: its own smallest subnormal and largest
    value stand in for float64's."""
    info = np.finfo(dtype)
    own = {5e-324: info.smallest_subnormal, -5e-324: -info.smallest_subnormal,
           1.7976931348623157e308: info.max, -1.7976931348623157e308: -info.max}
    return np.array([own.get(v, v) for v in _SHARED_FLOATS], dtype=dtype)


@st.composite
def run_tables(draw):
    """(columns, cuts): numpy columns and the rows at which `write_chunks`
    is given a new chunk.  A float column is drawn runs of `_SHARED_FLOATS`
    in float64, float32 or float16, of 1 to 3 cells or up to two pieces
    long, so that runs cross piece and chunk edges; beside them are int
    columns, ranges and float columns of all distinct values."""
    rows = draw(st.integers(1, 3 * CSV_CHUNK_ROWS))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["runs", "runs", "int", "range", "distinct"]))
        if kind == "runs":
            pool = _run_pool(draw(st.sampled_from([np.float64, np.float32, np.float16])))
            length = st.one_of(st.integers(1, 3), st.integers(1, 2 * CSV_CHUNK_ROWS))
            lengths = draw(st.lists(length, min_size=1, max_size=12))
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(lengths),
                                  max_size=len(lengths)))
            columns.append(np.resize(np.repeat(pool[picks], lengths), rows))
        elif kind == "int":
            columns.append(np.resize(np.array(draw(st.lists(_INT64, min_size=1, max_size=4)),
                                              dtype=np.int64), rows))
        elif kind == "range":
            start = draw(st.integers(-5, 5))
            columns.append(range(start, start + rows))
        else:
            columns.append(np.random.default_rng(draw(st.integers(0, 2 ** 32))).random(rows))
    cuts = sorted(set(draw(st.lists(st.integers(1, rows - 1), max_size=3)) if rows > 1 else []))
    return columns, cuts


def _column_with_distinct(rows: int, distinct: int) -> np.ndarray:
    """`rows` floats holding `distinct` values, -0.0 and 0.0 among them."""
    values = np.arange(distinct, dtype=float) * 0.1
    values[0], values[-1] = -0.0, 0.0
    return np.resize(values, rows)


class TestWriteRows:
    @settings(max_examples=150, deadline=None)
    @given(columns=pooled_tables())
    def test_repeated_numpy_values_as_the_frozen_row_writer(self, scratch, columns):
        header = [f"c{i}" for i in range(len(columns))]
        write_rows(scratch / "new.csv", header, columns)
        reference_writers._write_csv(scratch / "old.csv", header, zip(*columns))
        assert (scratch / "new.csv").read_bytes() == (scratch / "old.csv").read_bytes()

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("extra, shared", [(0, True), (1, False)],
                             ids=["half-distinct", "one-more"])
    def test_distinct_counts_at_the_switch(self, tmp_path, rows, extra, shared):
        # -0.0, 0.0 and tenths: half the cells distinct, and one more
        column = _column_with_distinct(rows, rows // 2 + extra)
        write_rows(tmp_path / "new.csv", ["x", "i"], [column, np.arange(rows)])
        reference_writers._write_csv(tmp_path / "old.csv", ["x", "i"],
                                     zip(column, np.arange(rows)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("values, rows", [
        (np.array([-100, 100, 0], dtype=np.int8), 402),
        (np.arange(-128, 128, dtype=np.int8), 512),
        (np.array([255, 0, 7], dtype=np.uint8), 600),
        (np.array([-2**15, 2**15 - 1, 0, -1], dtype=np.int16), 2**17),
        (np.array([2**64 - 1, 2**64 - 3, 2**64 - 2], dtype=np.uint64), 6),
        (np.array([-2**63, -2**63 + 5, -2**63 + 2], dtype=np.int64), 12),
        (np.array([-7, -3, -5], dtype=np.int32), 10),
    ], ids=["int8-201", "int8-all", "uint8-all", "int16-all", "uint64-top", "int64-bottom",
            "int32-negative"])
    def test_integer_table_as_the_frozen_row_writer(self, tmp_path, values, rows):
        # spans that wrap in the column's own dtype (100 - -100 is not an
        # int8), values past the int64 range and spans below zero
        column = np.resize(values, rows)
        write_rows(tmp_path / "new.csv", ["n"], [column])
        reference_writers._write_csv(tmp_path / "old.csv", ["n"], zip(column))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("extra, table", [(0, True), (1, False)],
                             ids=["half-span", "one-more"])
    @pytest.mark.parametrize("dtype, low", [(np.int64, lambda span: -span),
                                            (np.uint64, lambda span: 2**64 - span)],
                             ids=["negative", "uint64-top"])
    def test_integer_spans_at_the_switch(self, tmp_path, rows, extra, table, dtype, low):
        # spans of half the cells, and one more, at the ends of both dtypes
        span = rows // 2 + extra
        base = low(span)
        column = np.resize(np.array([base, base + span - 1, base + 1], dtype=dtype), rows)
        write_rows(tmp_path / "new.csv", ["n"], [column])
        reference_writers._write_csv(tmp_path / "old.csv", ["n"], zip(column))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint16, np.uint32, np.uint64])
    def test_integer_extremes_as_the_frozen_row_writer(self, tmp_path, dtype):
        # each dtype's bounds, their neighbours, zero, and every digit count
        info = np.iinfo(dtype)
        powers = [10 ** k + d for k in range(20) for d in (-1, 0)]
        values = [info.min, info.min + 1, info.max - 1, info.max, 0, 1, -1,
                  *powers, *(-p for p in powers)]
        column = np.array([v for v in values if info.min <= v <= info.max], dtype=dtype)
        write_rows(tmp_path / "new.csv", ["n", "m"], [column, column[::-1]])
        reference_writers._write_csv(tmp_path / "old.csv", ["n", "m"], zip(column, column[::-1]))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("floats", [1, 2, 3, 8])
    def test_float_columns_at_their_chunk_boundaries(self, tmp_path, floats):
        # rows at and beside the first two piece ends, where the rule cuts;
        # an int column and a range around the floats keep the byte path
        full = 4 * CSV_CHUNK_ROWS // floats + 1
        rng = np.random.default_rng(floats)
        values = [rng.choice(_SHARED_FLOATS + [1e-7, 2.5e14, 123.0], size=full) * rng.random(full)
                  for _ in range(floats)]
        ends = _piece_ends(values, full)
        assert len(ends) > 2
        for rows in sorted({end + d for end in ends[:2] for d in (-1, 0, 1)}):
            columns = [np.arange(rows) - 3, *(column[:rows] for column in values), range(rows)]
            header = [f"c{i}" for i in range(len(columns))]
            write_rows(tmp_path / "new.csv", header, columns)
            reference_writers._write_csv(tmp_path / "old.csv", header, zip(*columns))
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(table=run_tables())
    def test_runs_across_piece_and_chunk_edges_as_the_frozen_row_writer(self, scratch, table):
        columns, cuts = table
        edges = [0, *cuts, len(columns[0])]
        chunks = [[column[a:b] for column in columns] for a, b in zip(edges, edges[1:])]
        header = [f"c{i}" for i in range(len(columns))]
        pieces, piece = [], features._piece

        def spy(floats, lo, n):
            rows, x, new = piece(floats, lo, n)
            pieces.append((lo, lo + rows))
            return rows, x, new
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "_piece", spy)
            write_chunks(scratch / "new.csv", header, chunks)
        reference_writers._write_csv(scratch / "old.csv", header, (
            row for chunk in chunks
            for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))))
        assert (scratch / "new.csv").read_bytes() == (scratch / "old.csv").read_bytes()
        # each chunk is cut where the rule cuts it
        want = []
        for chunk in chunks:
            ends = _piece_ends([c for c in chunk if features._is_floats(c)], len(chunk[0]))
            want += zip([0, *ends], ends)
        assert pieces == want

    def test_float32_and_float16_columns_as_their_float64_values(self, tmp_path):
        # as tolist() gives them: the frozen row writer wrote numpy's own str
        values = np.random.default_rng(3).normal(size=500) * 1e3
        columns = [values.astype(np.float32), values.astype(np.float16)]
        write_rows(tmp_path / "new.csv", ["a", "b"], columns)
        reference_writers._write_csv(tmp_path / "old.csv", ["a", "b"],
                                     zip(*(column.tolist() for column in columns)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_longdouble_column_as_the_frozen_row_writer(self, tmp_path):
        # tolist() keeps longdouble scalars, so their text is numpy's str,
        # not the repr np.longdouble('1.5')
        column = np.array([1.5, -0.0, 0.1, 1e300, 2.0 ** -70], dtype=np.longdouble)
        write_rows(tmp_path / "new.csv", ["x", "i"], [column, np.arange(len(column))])
        reference_writers._write_csv(tmp_path / "old.csv", ["x", "i"],
                                     zip(column, np.arange(len(column))))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes().startswith(b"x,i\r\n1.5,0\r\n")

    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_same_bytes_as_frozen_row_writer(self, scratch, table):
        header, columns = table
        write_rows(scratch / "new.csv", header, columns)
        reference_writers._write_csv(scratch / "old.csv", header, zip(*columns))
        assert (scratch / "new.csv").read_bytes() == (scratch / "old.csv").read_bytes()

    @pytest.mark.parametrize("texts", [
        pytest.param(["Ex\x00tra", "\x00", "a\x00", "\x00,"], marks=_NUL_FROM_311, id="nul"),
        pytest.param(["Größe", "日本語", "é,è", "\u2028"], id="non-ascii"),
        pytest.param(['a,"b"', '"', "x\r\ny", " , "], id="quoted"),
        pytest.param(["", "", "a", ""], id="empty"),
    ])
    @pytest.mark.parametrize("width", [1, 3])
    def test_text_cells_as_the_frozen_row_writer(self, tmp_path, texts, width):
        # a lone column quotes an empty cell; beside other columns it is empty
        columns = [texts, np.arange(len(texts)), np.linspace(0.5, 2, len(texts))][:width]
        header = ["t", "i", "x"][:width]
        write_rows(tmp_path / "new.csv", header, columns)
        reference_writers._write_csv(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("name", [pytest.param("Ex\x00tra", marks=_NUL_FROM_311, id="nul"),
                                      pytest.param("Größe", id="non-ascii"),
                                      pytest.param('a,"b"', id="quoted")])
    def test_byte_path_header_as_the_frozen_row_writer(self, tmp_path, name):
        # the byte path deletes the NULs of its number cells, never the header's
        rows = CSV_CHUNK_ROWS + 1
        columns = [np.linspace(-1.5, 1e-7, rows), np.arange(-3, rows - 3), np.full(rows, 0.25)]
        header = [name, "i", "x"]
        write_rows(tmp_path / "new.csv", header, columns)
        reference_writers._write_csv(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_one_empty_text_cell_is_quoted_like_csv_writer(self, tmp_path):
        write_rows(tmp_path / "t.csv", ["id"], [["", "a", ""]])
        assert (tmp_path / "t.csv").read_bytes() == b'id\r\n""\r\na\r\n""\r\n'

    def test_strided_numpy_columns(self, tmp_path):
        X = np.arange(12.0).reshape(4, 3)
        write_rows(tmp_path / "t.csv", ["a", "b", "c"], list(X.T))
        assert (tmp_path / "t.csv").read_bytes() == (
            b"a,b,c\r\n0.0,1.0,2.0\r\n3.0,4.0,5.0\r\n6.0,7.0,8.0\r\n9.0,10.0,11.0\r\n")

    def test_no_columns_writes_the_header(self, tmp_path):
        write_rows(tmp_path / "t.csv", ["a"], [])
        assert (tmp_path / "t.csv").read_bytes() == b"a\r\n"

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_rows(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1.0]])
        assert not (tmp_path / "t.csv").exists()


@pytest.fixture(scope="module")
def bench_dataset():
    """The bench's balanced dataset: 400 scenarios of 5 x 10 tasks from seed
    100,000, 20,000 rows of 8 float columns."""
    return build_dataset(balanced_spec(), range(100_000, 100_400))


def _run_heads(column) -> int:
    """Cells of `column` whose bits differ from those of the cell above, and
    the first."""
    bits = column.view(np.uint64)
    return 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))


class TestRunHeads:
    """On the bench's dataset, whose per-device and pinned columns repeat,
    the byte path formats each run of equal cells once."""

    def test_formats_the_run_heads_and_one_cell_a_column_a_piece(self, tmp_path,
                                                                   monkeypatch, bench_dataset):
        formatted, real = [], features.float_cells
        monkeypatch.setattr(features, "float_cells",
                            lambda x, cells: (formatted.append(np.size(x)), real(x, cells)))
        bench_dataset.to_csv(tmp_path / "dataset.csv")
        columns = [*bench_dataset.X.T, bench_dataset.y]
        heads = sum(map(_run_heads, columns))
        assert (len(bench_dataset), len(columns)) == (20_000, 8)
        # of 160,000 cells; TaskSize, CyclesPerBit and energy_j, 60,000, have no runs
        assert heads < 70_000
        pieces = len(formatted)  # one call a piece
        assert sum(formatted) <= heads + len(columns) * pieces, (sum(formatted), heads, pieces)

    def test_the_write_holds_under_three_quarters_of_a_megabyte(self, tmp_path, bench_dataset):
        path = tmp_path / "dataset.csv"
        bench_dataset.to_csv(path)  # any lazy set-up is done before the measure
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bench_dataset.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2 ** 20, peak


def _frozen_writers(monkeypatch):
    monkeypatch.setattr(cli, "write_rows", reference_writers.write_rows_with_csv_writer)
    monkeypatch.setattr(cluster.EvalReport, "to_csv", reference_writers.eval_report_to_csv)


def _assert_same_files(new, old):
    names = sorted(p.name for p in new.iterdir())
    assert names == sorted(p.name for p in old.iterdir()) and names
    match, mismatch, errors = filecmp.cmpfiles(new, old, names, shallow=False)
    assert mismatch == [] and errors == []


class TestCliMatchesFrozenWriters:
    @pytest.mark.parametrize("args", [
        ["sweep-modulation", "--seed", "2", "--sweeps.speed_grid", "0,150",
         "--sweeps.carrier_freq_grid", "1e9,28e9"],
        ["sweep-datasize", "--seed", "3", "--sweeps.data_size_grid", "0,1e6,4e6"],
    ], ids=["sweep-modulation", "sweep-datasize"])
    def test_sweeps(self, tmp_path, monkeypatch, args):
        small = ["--scenario.n_devices", "2", "--scenario.tasks_per_device", "3"]
        assert main(args + small + ["--out", str(tmp_path / "new")]) == 0
        _frozen_writers(monkeypatch)
        assert main(args + small + ["--out", str(tmp_path / "old")]) == 0
        _assert_same_files(tmp_path / "new", tmp_path / "old")

    @pytest.mark.parametrize("args", [
        ["--seed", "3"],
        ["--seed", "5", "--greedy.init_ratio", "0.0", "--greedy.step", "0.3"],
        ["--seed", "7"],
        ["--seed", "1", "--scenario.noise_var_w", "6.6e-3,6.6e-3"],
        ["--seed", "1", "--scenario.n_devices", "50", "--scenario.tasks_per_device", "40"],
    ])
    def test_optimize_trace(self, tmp_path, monkeypatch, args):
        assert main(["optimize", *args, "--out", str(tmp_path / "new")]) == 0
        # the frozen row writer, given the stream's chunks joined row after row
        monkeypatch.setattr(greedy, "write_chunks", lambda path, header, chunks: (
            reference_writers._write_csv(path, header, (
                row for columns in chunks for row in zip(*columns)))))
        assert main(["optimize", *args, "--out", str(tmp_path / "old")]) == 0
        _assert_same_files(tmp_path / "new", tmp_path / "old")

    def test_evaluate(self, tmp_path, monkeypatch):
        assert main(["gen-data", "--datagen.n_scenarios", "3", "--scenario.n_devices", "2",
                     "--scenario.tasks_per_device", "8", "--seed", "1",
                     "--out", str(tmp_path / "data")]) == 0
        # a feature name from the input header that needs quoting in mi_ranking.csv
        dataset = tmp_path / "data" / "dataset.csv"
        dataset.write_bytes(dataset.read_bytes().replace(b"Bandwidth", b'"Band,""width"""', 1))
        args = ["evaluate", "--dataset_path", str(dataset),
                "--clustering.k_max", "3",
                "--clustering.feature_subsets", "primary;mi:2;all;TaskSize"]
        assert main(args + ["--out", str(tmp_path / "new")]) == 0
        _frozen_writers(monkeypatch)
        assert main(args + ["--out", str(tmp_path / "old")]) == 0
        _assert_same_files(tmp_path / "new", tmp_path / "old")
        assert b'\r\n"Band,""width""",' in (tmp_path / "new" / "mi_ranking.csv").read_bytes()

    @pytest.mark.parametrize("name", [pytest.param("Ex\x00tra", marks=_NUL_FROM_311, id="nul"),
                                      pytest.param("Größe", id="non-ascii")])
    def test_evaluate_with_an_extra_column(self, tmp_path, monkeypatch, name):
        # the extra column's name reaches mi_ranking.csv as it is in the header
        assert main(["gen-data", "--datagen.n_scenarios", "3", "--scenario.n_devices", "2",
                     "--scenario.tasks_per_device", "8", "--seed", "2",
                     "--out", str(tmp_path / "data")]) == 0
        dataset = tmp_path / "data" / "dataset.csv"
        lines = dataset.read_text(encoding="utf-8").splitlines()
        dataset.write_text("\r\n".join([f"{name},{lines[0]}"] + [f"{i % 7}.25,{line}" for i, line
                                                                   in enumerate(lines[1:])])
                           + "\r\n", encoding="utf-8")
        args = ["evaluate", "--dataset_path", str(dataset), "--clustering.k_max", "2"]
        assert main(args + ["--out", str(tmp_path / "new")]) == 0
        _frozen_writers(monkeypatch)
        assert main(args + ["--out", str(tmp_path / "old")]) == 0
        _assert_same_files(tmp_path / "new", tmp_path / "old")
        assert f"\r\n{name},".encode() in (tmp_path / "new" / "mi_ranking.csv").read_bytes()


@pytest.fixture()
def row_path_files(monkeypatch):
    """Names of the files whose rows go through ``csv.writer(...).writerows``."""
    names = []
    writer = csv.writer

    class Spy:
        def __init__(self, fh):
            self.writer, self.name = writer(fh), Path(fh.name).name

        def writerow(self, row):
            return self.writer.writerow(row)

        def writerows(self, rows):
            names.append(self.name)
            return self.writer.writerows(rows)
    monkeypatch.setattr(csv, "writer", Spy)
    return names


class TestPathPerCliFile:
    """The large numpy tables keep the byte path; a caller that hands
    `write_rows` a list instead would silently leave it."""

    def test_trace_dataset_and_predictions_take_the_byte_path(self, tmp_path, row_path_files):
        out = str(tmp_path / "o")
        assert main(["optimize", "--seed", "3", "--out", out]) == 0
        assert main(["gen-data", "--datagen.n_scenarios", "3", "--scenario.n_devices", "2",
                     "--scenario.tasks_per_device", "8", "--seed", "1", "--out", out]) == 0
        dataset = tmp_path / "o" / "dataset.csv"
        assert main(["train", "--dataset_path", str(dataset), "--out", out]) == 0
        features_only = tmp_path / "features.csv"
        features_only.write_text("".join(line.rpartition(",")[0] + "\n" for line
                                         in dataset.read_text().splitlines()))
        for data in (dataset, features_only):
            assert main(["predict", "--dataset_path", str(data), "--model_path",
                         str(tmp_path / "o" / "model.json"), "--out", out]) == 0
        assert {"trace.csv", "dataset.csv", "predictions.csv"} <= {
            p.name for p in (tmp_path / "o").iterdir()}
        assert row_path_files == []

    def test_rankings_reports_and_sweeps_take_the_row_path(self, tmp_path, row_path_files):
        out = str(tmp_path / "o")
        small = ["--scenario.n_devices", "2", "--scenario.tasks_per_device", "3", "--out", out]
        assert main(["sweep-modulation", "--sweeps.speed_grid", "0,150", *small]) == 0
        assert main(["sweep-datasize", "--sweeps.data_size_grid", "0,1e6", *small]) == 0
        assert main(["gen-data", "--datagen.n_scenarios", "3", "--scenario.n_devices", "2",
                     "--scenario.tasks_per_device", "8", "--seed", "1",
                     "--out", str(tmp_path / "data")]) == 0
        assert main(["evaluate", "--dataset_path", str(tmp_path / "data" / "dataset.csv"),
                     "--clustering.k_max", "2", "--clustering.feature_subsets",
                     "primary;mi:2", *small[-2:]]) == 0
        assert row_path_files == ["sweep_modulation.csv", "sweep_datasize.csv",
                                  "mi_ranking.csv", "eval_primary.csv", "eval_mi2.csv"]
