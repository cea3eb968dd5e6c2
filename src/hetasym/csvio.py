"""Deterministic CSV serialization for traces, density matrices and Wigner
grids.

Schema: comment header block (tool version, command, resolved config hash,
seed, resolved config), then a header row, then data rows.  Comma
separator, decimal point, LF line endings, UTF-8.  Floats are rendered
with shortest round-trip repr so identical runs are byte-identical.
"""

from __future__ import annotations

import math
import warnings
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .config import RunConfig
from .errors import ValidationError
from .tomography import DensityMatrix, WignerGrid
from .traces import QuadratureTrace


def fmt(value: float) -> str:
    """One float in shortest round-trip repr: the format of every float cell
    and report value."""
    return repr(float(value))


def csv_rows(*columns) -> list[str]:
    """Comma-joined data rows of equal-length columns, a column at a time.

    Integer columns are written as integers, string columns (cells formatted
    beforehand) as they are; every other column is cast to float64 and each
    cell is written as :func:`fmt` would write it.
    """
    cells = []
    for column in columns:
        arr = np.asarray(column)
        if arr.dtype.kind == "U":
            cells.append(arr.tolist())
            continue
        if arr.dtype.kind not in "iu":
            arr = arr.astype(np.float64, copy=False)
        cells.append(map(repr, arr.tolist()))
    return list(map(",".join, zip(*cells)))


#: Rows formatted and lines written per step, so a writer holds one block of
#: strings, never the whole file.
_BLOCK_ROWS = 1024


class CsvLines:
    """The lines of a CSV file: ``head`` (comment and header lines), then one
    row per index of the equal-length ``columns``, written as
    :func:`csv_rows` writes them.

    Rows are formatted a block at a time on each iteration, so iterating the
    lines of a long trace never holds all of its row strings at once.
    """

    def __init__(self, head: list[str], *columns):
        self.head = head
        self.columns = columns

    def __iter__(self) -> Iterator[str]:
        yield from self.head
        for start in range(0, len(self.columns[0]), _BLOCK_ROWS):
            yield from csv_rows(*(column[start:start + _BLOCK_ROWS] for column in self.columns))


def header_lines(command: str, config: RunConfig) -> list[str]:
    lines = [
        f"# hetasym {__version__}",
        f"# command: {command}",
        f"# config_sha256: {config.config_hash()}",
        f"# seed: {config.seed}",
    ]
    lines += [f"# config: {key} = {value}" for key, value in config.resolved_items()]
    return lines


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` LF-terminated to ``path``, a block of lines at a time."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        while block := list(islice(lines, _BLOCK_ROWS)):
            handle.write("\n".join(block) + "\n")


def write_trace_csv(path: str | Path, trace: QuadratureTrace, command: str,
                    config: RunConfig, extra_comments: list[str] | None = None) -> None:
    lines = header_lines(command, config)
    if extra_comments:
        lines += [f"# {comment}" for comment in extra_comments]
    columns = [np.arange(trace.n), trace.x, trace.p]
    if trace.phase_true is None:
        lines.append("index,x,p")
    else:
        lines.append("index,x,p,phase_true")
        columns.append(trace.phase_true)
    write_lines(path, CsvLines(lines, *columns))


def _read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of a CSV file.  Comment and blank lines
    are skipped; every data row must have one number per header name."""
    header = None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for raw in handle:
                line = raw.strip()
                if line and not line.startswith("#"):
                    header = line.split(",")
                    break
            with warnings.catch_warnings():
                # an empty body is reported below as a ValidationError
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed data row ({exc})") from exc
    if header is None or data.shape[0] == 0:
        raise ValidationError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise ValidationError(
            f"{path}: rows have {data.shape[1]} columns, header has {len(header)}")
    return header, data


def read_trace_csv(path: str | Path) -> QuadratureTrace:
    header, data = _read_table(path)
    columns = {name: idx for idx, name in enumerate(header)}
    for required in ("index", "x", "p"):
        if required not in columns:
            raise ValidationError(f"{path}: missing column {required!r}")
    n = data.shape[0]
    if not np.array_equal(data[:, columns["index"]], np.arange(n)):
        raise ValidationError(f"{path}: index column is not 0..{n - 1} in order")
    phase = data[:, columns["phase_true"]] if "phase_true" in columns else None
    return QuadratureTrace(data[:, columns["x"]], data[:, columns["p"]], phase)


def write_density_csv(path: str | Path, rho: DensityMatrix, command: str,
                      config: RunConfig, extra_comments: list[str] | None = None) -> None:
    lines = header_lines(command, config)
    if extra_comments:
        lines += [f"# {comment}" for comment in extra_comments]
    lines.append("row,col,re,im")
    index = np.arange(rho.dim)
    write_lines(path, CsvLines(lines, np.repeat(index, rho.dim), np.tile(index, rho.dim),
                               rho.matrix.real.ravel(), rho.matrix.imag.ravel()))


def read_density_csv(path: str | Path) -> DensityMatrix:
    """Density matrix from its row,col,re,im CSV; every (row, col) of a
    square matrix must appear exactly once."""
    header, data = _read_table(path)
    if header != ["row", "col", "re", "im"]:
        raise ValidationError(f"{path}: header must be row,col,re,im, got {','.join(header)}")
    n = data.shape[0]
    dim = math.isqrt(n)
    if dim * dim != n:
        raise ValidationError(f"{path}: {n} entries do not fill a square matrix")
    index = data[:, :2]
    if not np.all((index >= 0) & (index < dim) & (index == np.floor(index))):
        raise ValidationError(f"{path}: row and col must be integers in 0..{dim - 1}")
    rows, cols = index.astype(np.intp).T
    if np.unique(rows * dim + cols).size != n:
        raise ValidationError(f"{path}: duplicate (row, col) entries")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat.real[rows, cols] = data[:, 2]
    mat.imag[rows, cols] = data[:, 3]
    return DensityMatrix(mat)


def write_wigner_csv(path: str | Path, grid: WignerGrid, command: str,
                     config: RunConfig, extra_comments: list[str] | None = None) -> None:
    lines = header_lines(command, config)
    if extra_comments:
        lines += [f"# {comment}" for comment in extra_comments]
    lines.append("x,p,w")
    # each axis value is formatted once and its string repeated over the grid
    x_cells, p_cells = (np.array([fmt(v) for v in axis]) for axis in (grid.x_axis, grid.p_axis))
    write_lines(path, CsvLines(lines, np.repeat(x_cells, p_cells.size),
                               np.tile(p_cells, x_cells.size), grid.values.ravel()))


def write_report(path: str | Path, command: str, config: RunConfig,
                 entries: list[tuple[str, str]]) -> None:
    """Small deterministic key = value report with the standard header."""
    lines = header_lines(command, config)
    lines += [f"{key} = {value}" for key, value in entries]
    write_lines(path, lines)
