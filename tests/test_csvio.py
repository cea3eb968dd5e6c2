import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hetasym import csvio
from hetasym.cli import main
from hetasym.config import RunConfig, render
from hetasym.csvio import (
    csv_rows,
    header_lines,
    read_density_csv,
    read_trace_csv,
    write_density_csv,
    write_report,
    write_table,
    write_trace_csv,
    write_wigner_csv,
)
from hetasym.errors import ValidationError
from hetasym.tomography import DensityMatrix, WignerGrid
from hetasym.traces import QuadratureTrace

# every finite float64, including -0.0, subnormals and +-1.7976931348623157e308
finite = st.floats(allow_nan=False, allow_infinity=False)
# rows x, p, phase_true of a trace with 1 to 40 samples
trace_columns = arrays(np.float64, st.tuples(st.just(3), st.integers(1, 40)), elements=finite)
EXTREMES = np.array([[-0.0, 5e-324, 1e308],
                     [-1e308, -2.2250738585072014e-308, 0.1],
                     [1.7976931348623157e308, -5e-324, 0.0]])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csvio")


@settings(max_examples=80, deadline=None)
@given(columns=trace_columns, with_phase=st.booleans())
@example(columns=EXTREMES, with_phase=True)
@example(columns=EXTREMES, with_phase=False)
@example(columns=EXTREMES[:, :1], with_phase=True)
@example(columns=EXTREMES[:, :1], with_phase=False)
def test_trace_round_trip_is_bit_exact(scratch, columns, with_phase):
    x, p, phase = columns
    trace = QuadratureTrace(x, p, phase if with_phase else None)
    path = scratch / "trace.csv"
    write_trace_csv(path, trace, "simulate", RunConfig())
    back = read_trace_csv(path)
    assert same_bits(back.x, trace.x) and same_bits(back.p, trace.p)
    if with_phase:
        assert same_bits(back.phase_true, trace.phase_true)
    else:
        assert back.phase_true is None


@settings(max_examples=80, deadline=None)
@given(columns=trace_columns)
@example(columns=EXTREMES)
def test_csv_rows_matches_per_cell_repr(columns):
    n = columns.shape[1]
    expected = [",".join(map(render, (i, *columns[:, i]))) for i in range(n)]
    assert csv_rows(np.arange(n), *columns) == expected


def test_report_renders_raw_values(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, "test", RunConfig(), [
        ("converged", True), ("stalled", np.bool_(False)), ("xi", np.float64(0.1)),
        ("cutoff", math.inf), ("iterations", 3), ("dropped", np.int64(4)),
    ])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == header_lines("test", RunConfig()) + [
        "converged = true", "stalled = false", "xi = 0.1", "cutoff = inf",
        "iterations = 3", "dropped = 4",
    ]


@settings(max_examples=40, deadline=None)
@given(factor=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(2)),
                     elements=st.floats(-10.0, 10.0)))
def test_density_round_trip_is_bit_exact(scratch, factor):
    a = factor[..., 0] + 1j * factor[..., 1]
    gram = a @ a.conj().T
    trace = np.trace(gram).real
    if not trace > 1e-6:
        return
    rho = DensityMatrix(gram / trace)
    path = scratch / "rho.csv"
    write_density_csv(path, rho, "tomography", RunConfig())
    back = read_density_csv(path)
    assert same_bits(back.matrix.view(np.float64), rho.matrix.view(np.float64))


def write_side(path, writer: str, side: int) -> str:
    """Write ``side`` squared rows with one writer; return the text that a
    one-shot join of the header and every csv_rows row gives.  The trace
    writer and write_table take comment lines; the density and Wigner
    writers take none."""
    rng = np.random.default_rng(side)
    n = side * side
    config = RunConfig()
    comments = [("source", "raw.csv")]
    head = header_lines("test", config)
    if writer not in ("density", "wigner"):
        head.append("# source: raw.csv")
    if writer in ("trace", "trace_no_phase"):
        x, p, phase = rng.standard_normal((3, n)) * 30.0
        trace = QuadratureTrace(x, p, phase if writer == "trace" else None)
        write_trace_csv(path, trace, "test", config, comments=comments)
        columns = [np.arange(n), x, p] + ([phase] if writer == "trace" else [])
        head.append("index,x,p,phase_true" if writer == "trace" else "index,x,p")
    elif writer == "density":
        a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        gram = a @ a.conj().T
        rho = DensityMatrix(gram / np.trace(gram).real)
        write_density_csv(path, rho, "test", config)
        index = np.arange(side)
        columns = [np.repeat(index, side), np.tile(index, side),
                   rho.matrix.real.ravel(), rho.matrix.imag.ravel()]
        head.append("row,col,re,im")
    elif writer == "wigner":
        axis = np.arange(side) * 0.5
        grid = WignerGrid(axis, rng.uniform(-0.3, 0.3, (side, side)))
        write_wigner_csv(path, grid, "test", config)
        columns = [np.repeat(grid.axis, side), np.tile(grid.axis, side), grid.values.ravel()]
        head.append("x,p,w")
    else:  # write_table called directly, as the phase-deviation and keyrate-sweep commands do
        columns = [np.linspace(0.0, 1.0, n).tolist(), rng.standard_normal(n)]
        head.append("a,b")
        write_table(path, "test", config, ["a", "b"], *columns, comments=comments)
    return "\n".join(head + csv_rows(*columns)) + "\n"


# (block size, side): 9 rows at block - 1, block, block + 1 and 2 block + 1;
# then 1 row, which a Wigner grid (at least 2 x 2 points) cannot have
BLOCK_EDGES = [(10, 3), (9, 3), (8, 3), (4, 3), (4, 1)]
WRITER_CASES = [(writer, block, side)
                for writer in ("trace", "trace_no_phase", "density", "wigner", "lines")
                for block, side in BLOCK_EDGES if not (writer == "wigner" and side == 1)]


@pytest.mark.parametrize("writer, block, side", WRITER_CASES)
def test_writers_match_one_shot_join_at_block_edges(tmp_path, monkeypatch, writer, block, side):
    monkeypatch.setattr(csvio, "_BLOCK_ROWS", block)
    path = tmp_path / "out.csv"
    expected = write_side(path, writer, side)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("offset", ["1", "B-1", "B", "B+1", "2B+1"])
def test_trace_writer_matches_one_shot_join_at_block_size(tmp_path, offset):
    block = csvio._BLOCK_ROWS
    n = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1}[offset]
    rng = np.random.default_rng(n)
    x, p, phase = rng.standard_normal((3, n))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, QuadratureTrace(x, p, phase), "simulate", RunConfig())
    expected = header_lines("simulate", RunConfig()) + ["index,x,p,phase_true"]
    expected += csv_rows(np.arange(n), x, p, phase)
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


def test_trace_writer_memory_is_bounded(tmp_path):
    n = 200_000
    rng = np.random.default_rng(3)
    trace = QuadratureTrace(*rng.standard_normal((3, n)) * 30.0)
    tracemalloc.start()
    try:
        write_trace_csv(tmp_path / "big.csv", trace, "simulate", RunConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is ~14 MiB; a writer that joins every row holds several times that
    assert peak < 8 * 2**20


def test_wigner_writer_memory_is_bounded(tmp_path):
    axis = np.linspace(-6.0, 6.0, 400)
    grid = WignerGrid(axis, np.zeros((axis.size, axis.size)))
    tracemalloc.start()
    try:
        write_wigner_csv(tmp_path / "big.wigner.csv", grid, "tomography", RunConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # fixed-width string cells over the whole grid took about 165 bytes a point
    assert peak < 40 * grid.values.size


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestStrictTraceReader:
    @pytest.mark.parametrize("body, message", [
        ("index,x,p\n0,1.0,2.0\n1,3.0,4.0\n1,5.0,6.0\n", "index column"),   # duplicate
        ("index,x,p\n0,1.0,2.0\n2,3.0,4.0\n3,5.0,6.0\n", "index column"),   # gap
        ("index,x,p\n1,1.0,2.0\n2,3.0,4.0\n", "index column"),               # not from 0
        ("index,x,p\n1,1.0,2.0\n0,3.0,4.0\n", "index column"),               # out of order
        ("index,x,p\n0,1.0,2.0\n1,3.0\n", "malformed"),                      # ragged row
        ("index,x,p\n0,1.0,2.0,9.0\n1,3.0,4.0,9.0\n", "columns"),            # extra column
        ("index,x,p\n0,1.0,oops\n", "malformed"),                            # not a number
        ("index,x\n0,1.0\n", "missing column 'p'"),
        ("index,x,p,x\n0,1.0,2.0,9.0\n1,3.0,4.0,8.0\n", "duplicate column 'x'"),
        ("index,x,p,phase\n0,1.0,2.0,0.5\n", "unknown column 'phase'"),       # misspelt tag
        ("# comment only\n", "no data rows"),
        ("index,x,p\n", "no data rows"),
        ("index,x,p\n# no samples\n\n", "no data rows"),
    ])
    def test_rejects(self, tmp_path, body, message):
        path = write_text(tmp_path / "t.csv", body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may leak
            with pytest.raises(ValidationError, match=message):
                read_trace_csv(path)

    def test_comments_and_blank_lines_in_body_are_skipped(self, tmp_path):
        path = write_text(tmp_path / "t.csv",
                          "# head\nindex,x,p\n0,1.0,2.0\n\n# mid\n1,-0.0,4.5\n")
        trace = read_trace_csv(path)
        assert same_bits(trace.x, np.array([1.0, -0.0])) and trace.p.tolist() == [2.0, 4.5]

    def test_cli_exit_2(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "index,x,p\n0,1.0,-2.0\n0,3.0,2.0\n")
        assert main(["scale", str(path), "--out", str(tmp_path / "o.csv")]) == 2


class TestStrictDensityReader:
    HEADER = "row,col,re,im\n"
    FULL = ["0,0,0.5,0.0", "0,1,0.1,0.0", "1,0,0.1,0.0", "1,1,0.5,0.0"]

    def density_file(self, tmp_path, rows, header=HEADER):
        return write_text(tmp_path / "rho.csv", "# comment\n" + header + "\n".join(rows) + "\n")

    def test_accepts_any_row_order(self, tmp_path):
        rho = read_density_csv(self.density_file(tmp_path, self.FULL[::-1]))
        np.testing.assert_array_equal(rho.matrix, [[0.5, 0.1], [0.1, 0.5]])

    @pytest.mark.parametrize("rows, header, message", [
        (FULL, "", "header must be row,col,re,im"),
        (FULL, "r,c,re,im\n", "header must be row,col,re,im"),
        (FULL[:3], HEADER, "do not fill a square matrix"),                  # missing entry
        (FULL + ["1,1,0.5,0.0"], HEADER, "do not fill a square matrix"),   # extra entry
        (FULL[:3] + ["1,0,0.1,0.0"], HEADER, "duplicate"),                 # duplicate
        (FULL[:3] + ["1,2,0.5,0.0"], HEADER, "integers in 0..1"),           # out of range
        (FULL[:3] + ["1,0.5,0.5,0.0"], HEADER, "integers in 0..1"),         # not an integer
        (FULL[:3] + ["1,1,0.5"], HEADER, "malformed"),                     # ragged
        ([], HEADER, "no data rows"),
    ])
    def test_rejects(self, tmp_path, rows, header, message):
        path = self.density_file(tmp_path, rows, header)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                read_density_csv(path)

    def test_cli_exit_2(self, tmp_path):
        good = self.density_file(tmp_path, self.FULL)
        bad = write_text(tmp_path / "bad.csv", self.HEADER + "\n".join(self.FULL[:3]) + "\n")
        assert main(["fidelity", str(good), str(bad)]) == 2
