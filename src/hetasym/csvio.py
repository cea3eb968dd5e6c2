"""Deterministic CSV serialization for traces, density matrices and Wigner
grids.

Schema: comment header block (tool version, command, resolved config hash,
resolved config), then a header row, then data rows.  Comma
separator, decimal point, LF line endings, UTF-8.  Every value is written
as :func:`hetasym.config.render` writes it, floats in shortest round-trip
repr, so identical runs are byte-identical.
:func:`write_table` is the one writer of this layout: every output CSV,
the phase-deviation and key-rate tables included, is one call to it.

The module imports without numpy: only the functions that build or parse
arrays import it, so ``keyrate-sweep``, which writes Python lists, never
loads it.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .config import RunConfig, render
from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

    from .tomography import DensityMatrix, WignerGrid
    from .traces import QuadratureTrace


def csv_rows(*columns) -> list[str]:
    """Comma-joined data rows of equal-length columns, a column at a time.

    A column is a numpy array, or a list or range of Python ints or floats.
    Integers are written as integers and string arrays, fixed-width or
    object (cells rendered beforehand), as they are; every other array is
    cast to float64, and each float is written as
    :func:`~hetasym.config.render` writes it.
    """
    cells = []
    for column in columns:
        if isinstance(column, (list, range)):
            cells.append(map(repr, column))
            continue
        kind = column.dtype.kind
        if kind in "UO":
            cells.append(column.tolist())
            continue
        if kind not in "iu":
            column = column.astype("float64", copy=False)
        cells.append(map(repr, column.tolist()))
    return list(map(",".join, zip(*cells)))


#: Rows formatted and written per step, so a writer holds one block of
#: strings, never the whole file.
_BLOCK_ROWS = 1024


def header_lines(command: str, config: RunConfig,
                 comments: list[tuple[str, object]] | None = None) -> list[str]:
    """The comment header of every output file; each ``(key, value)`` of
    ``comments`` adds a ``# key: value`` line after the resolved config."""
    lines = [
        f"# hetasym {__version__}",
        f"# command: {command}",
        f"# config_sha256: {config.config_hash()}",
    ]
    lines += [f"# config: {key} = {value}" for key, value in config.resolved_items()]
    lines += [f"# {key}: {render(value)}" for key, value in comments or ()]
    return lines


def write_table(path: str | Path, command: str, config: RunConfig, names: list[str],
                *columns, comments: list[tuple[str, object]] | None = None) -> None:
    """Write one output CSV to ``path``: the :func:`header_lines` block, the
    ``names`` header row, then one row per index of the equal-length
    ``columns`` as :func:`csv_rows` writes it, LF-terminated.

    Rows are formatted and written ``_BLOCK_ROWS`` at a time, so a long trace
    never has all of its row strings in memory at once.
    """
    head = header_lines(command, config, comments) + [",".join(names)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(head) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            rows = csv_rows(*(column[start:start + _BLOCK_ROWS] for column in columns))
            handle.write("\n".join(rows) + "\n")


def write_trace_csv(path: str | Path, trace: QuadratureTrace, command: str,
                    config: RunConfig, comments: list[tuple[str, object]] | None = None) -> None:
    names, columns = ["index", "x", "p"], [range(trace.n), trace.x, trace.p]
    if trace.phase_true is not None:
        names.append("phase_true")
        columns.append(trace.phase_true)
    write_table(path, command, config, names, *columns, comments=comments)


def _read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of a CSV file.  Comment and blank lines
    are skipped; every data row must have one number per header name."""
    import numpy as np

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
    import numpy as np

    from .traces import QuadratureTrace

    header, data = _read_table(path)
    columns = {name: idx for idx, name in enumerate(header)}
    if len(columns) < len(header):
        duplicate = next(name for i, name in enumerate(header) if name in header[:i])
        raise ValidationError(f"{path}: duplicate column {duplicate!r}")
    for required in ("index", "x", "p"):
        if required not in columns:
            raise ValidationError(f"{path}: missing column {required!r}")
    # a misspelt phase_true would otherwise read as a trace with no tags
    unknown = [name for name in header if name not in ("index", "x", "p", "phase_true")]
    if unknown:
        raise ValidationError(f"{path}: unknown column {unknown[0]!r} (a trace has index, "
                              "x, p and an optional phase_true)")
    n = data.shape[0]
    if not np.array_equal(data[:, columns["index"]], np.arange(n)):
        raise ValidationError(f"{path}: index column is not 0..{n - 1} in order")
    phase = data[:, columns["phase_true"]] if "phase_true" in columns else None
    return QuadratureTrace(data[:, columns["x"]], data[:, columns["p"]], phase)


def write_density_csv(path: str | Path, rho: DensityMatrix, command: str,
                      config: RunConfig) -> None:
    import numpy as np

    index = np.arange(rho.dim)
    write_table(path, command, config, ["row", "col", "re", "im"],
                np.repeat(index, rho.dim), np.tile(index, rho.dim),
                rho.matrix.real.ravel(), rho.matrix.imag.ravel())


def read_density_csv(path: str | Path) -> DensityMatrix:
    """Density matrix from its row,col,re,im CSV; every (row, col) of a
    square matrix must appear exactly once."""
    import numpy as np

    from .tomography import DensityMatrix
    from .traces import _distinct

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
    if _distinct(rows * dim + cols).size != n:
        raise ValidationError(f"{path}: duplicate (row, col) entries")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat.real[rows, cols] = data[:, 2]
    mat.imag[rows, cols] = data[:, 3]
    return DensityMatrix(mat)


def write_wigner_csv(path: str | Path, grid: WignerGrid, command: str, config: RunConfig) -> None:
    import numpy as np

    # each axis value is rendered once and its string repeated over the grid, as
    # both x and p; an object array holds one pointer a cell, not a fixed-width copy
    cells = np.array([render(v) for v in grid.axis], dtype=object)
    write_table(path, command, config, ["x", "p", "w"], np.repeat(cells, cells.size),
                np.tile(cells, cells.size), grid.values.ravel())


def write_report(path: str | Path, command: str, config: RunConfig,
                 entries: list[tuple[str, object]]) -> None:
    """Small deterministic ``key = value`` report with the standard header;
    each value is written as :func:`~hetasym.config.render` writes it."""
    lines = header_lines(command, config) + [f"{key} = {render(v)}" for key, v in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
