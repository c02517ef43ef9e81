"""File emission: trace/snapshot/partition CSVs and binned-amplitude rasters.

Every emitter is byte-deterministic for a given input: floats are written
with round-trip precision and no file embeds a timestamp.  Rasters are
binary portable pixmaps (P6): a plain-text header, then one RGB triple per
pixel, written without any graphics dependency and viewable directly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .tessellation import Partition

__all__ = [
    "DEFAULT_HEATMAP_COLORS",
    "HEATMAP_BIN_WIDTH",
    "HEATMAP_FLOOR",
    "bin_index",
    "emit_heatmap",
    "emit_partition_csv",
    "emit_snapshot_csv",
    "emit_trace_csv",
    "read_trace_csv",
]


def emit_trace_csv(trace, path: "str | Path") -> Path:
    """Write ``iteration,marked_probability,marked_amplitude,nominal_steps``.

    One row per completed round, numbered from 1; 17 significant digits
    round-trip any float64.  ``trace`` needs only the ``probabilities`` and
    ``cumulative_steps`` columns of a ``SimulationTrace``.
    """
    probabilities = np.asarray(trace.probabilities, dtype=np.float64)
    rows = zip(range(1, probabilities.size + 1), probabilities.tolist(),
               np.sqrt(probabilities).tolist(), np.asarray(trace.cumulative_steps).tolist())
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write("iteration,marked_probability,marked_amplitude,nominal_steps\r\n")
        handle.writelines("%d,%.17g,%.17g,%d\r\n" % row for row in rows)
    return path


def read_trace_csv(path: "str | Path") -> dict[str, np.ndarray]:
    """Read a trace CSV back into column arrays keyed by header name."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        if (header := next(reader, None)) is None:
            raise ValueError(f"{path}: empty file, expected a trace CSV header")
        rows = [row for row in reader if row]
    columns: dict[str, np.ndarray] = {}
    for index, name in enumerate(header):
        kind = np.int64 if name in ("iteration", "nominal_steps") else np.float64
        columns[name] = np.array([row[index] for row in rows], dtype=kind)
    return columns


# Cells per block of the cell-CSV writer (at least one grid row): bounds its working memory.
CELL_BLOCK = 4096


def _texts(fmt: str, values: "range | list") -> np.ndarray:
    """``fmt % v`` for each value, as a NUL-padded numpy ``bytes`` array."""
    text = (f"{fmt}\0" * len(values)) % tuple(values)
    return np.array(text.encode("ascii").split(b"\0")[:-1], dtype=np.bytes_)


def _emit_cell_csv(shape: "tuple[int, int]", rows_of, header: str, value_fmt: str,
                   path: "str | Path") -> Path:
    """Write ``header``, then one ``i,j,value`` row per cell, row-major.

    ``rows_of(top, bottom)`` gives the values of grid rows top .. bottom - 1.
    A run's grid holds few distinct values, so each block of rows formats only
    its distinct values (distinct bit patterns: 0.0 and -0.0 keep their own text)
    and joins every line from its row, column and value text as NUL-padded bytes,
    then drops the padding (no formatted number holds a NUL).
    """
    rows, cols = shape
    block_rows = max(1, CELL_BLOCK // max(cols, 1))
    col_text = _texts("%d,", range(cols))
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"{header}\r\n".encode("ascii"))
        for top in range(0, rows, block_rows):
            block = np.ascontiguousarray(rows_of(top, min(top + block_rows, rows)))
            keys, inverse = np.unique(block.reshape(-1).view(f"u{block.itemsize}"),
                                      return_inverse=True)
            row_text = _texts("%d,", range(top, top + len(block)))
            value_text = _texts(f"{value_fmt}\r\n", keys.view(block.dtype).tolist())
            lines = np.char.add(np.char.add(row_text[:, None], col_text),
                                value_text[inverse].reshape(block.shape))
            data = lines.view(np.uint8)
            handle.write(data[data != 0])
    return path


def emit_snapshot_csv(grid, path: "str | Path") -> Path:
    """Write one ``i,j,amplitude`` row per cell, row-major.

    ``grid`` is a 2-d array or a stored grid (``simulator.snapshot``); it is
    read a block of rows at a time, so a stored tile grid is never built whole.
    """
    return _emit_cell_csv(grid.shape, lambda top, bottom: grid[top:bottom],
                          "i,j,amplitude", "%.17g", path)


def emit_partition_csv(partition: Partition, path: "str | Path") -> Path:
    """Write one ``i,j,group`` row per cell, row-major, a block of rows at a time."""
    side = partition.geometry.side
    return _emit_cell_csv((side, side), partition._group_rows, "i,j,group", "%d", path)


# Amplitudes are clamped to [HEATMAP_FLOOR, 1.0] and binned by
# floor((a - HEATMAP_FLOOR) / HEATMAP_BIN_WIDTH) with the top bin capped: ten
# 0.15-wide bins tile [-0.5, 1.0] exactly.
HEATMAP_FLOOR = -0.5
HEATMAP_BIN_WIDTH = 0.15
# One color per bin, darkest (most negative amplitude) to brightest.  Bin 4 is
# a light blue and bin 5 a lime green, the shades carrying the low positive
# amplitudes that ring a marked cell.
DEFAULT_HEATMAP_COLORS: tuple[tuple[int, int, int], ...] = (
    (20, 12, 90),
    (35, 48, 150),
    (58, 96, 190),
    (96, 146, 220),
    (140, 190, 235),
    (150, 230, 110),
    (200, 240, 100),
    (240, 230, 80),
    (250, 245, 160),
    (255, 255, 230),
)


def _bins(amplitudes: np.ndarray) -> np.ndarray:
    """Bin indices of float64 amplitudes with no NaN: clamp, floor, cap."""
    a = np.clip(amplitudes, HEATMAP_FLOOR, 1.0)
    bins = np.floor((a - HEATMAP_FLOOR) / HEATMAP_BIN_WIDTH).astype(np.int64)
    return np.minimum(bins, len(DEFAULT_HEATMAP_COLORS) - 1)


def _refuse_nan(nan_cells: int) -> None:
    if nan_cells:
        raise ValueError(f"{nan_cells} amplitude cells are NaN, which has no heatmap bin")


def bin_index(amplitude) -> np.ndarray:
    """Bin index of an amplitude (scalar or array) under the clamp-and-cap rule.

    +-inf clamp like any out-of-range value; a NaN raises ``ValueError``.
    """
    a = np.asarray(amplitude, dtype=np.float64)
    _refuse_nan(np.count_nonzero(np.isnan(a)))
    return _bins(a)


def _pixel_block(rows: int, cols: int, scale: int) -> "tuple[int, int, int, int]":
    """Shape of ``emit_heatmap``'s uint8 pixel buffer: the pixels of one block of grid rows."""
    return (max(1, min(rows, CELL_BLOCK // max(cols, 1))), scale, cols * scale, 3)


def emit_heatmap(grid, path: "str | Path", scale: int = 1) -> Path:
    """Render an amplitude grid to a binary portable pixmap (P6), ``scale`` pixels per cell side.

    ``grid`` is a 2-d array or a stored grid (``simulator.snapshot``).  It is
    read, binned and written in blocks of whole grid rows, about ``CELL_BLOCK``
    cells and ``CELL_BLOCK * scale**2`` pixels each, through one reused pixel
    buffer, so the writer holds one block, never the raster or a whole stored
    tile grid.  A grid with a NaN raises ``ValueError`` before the file is
    opened: a first pass over the blocks counts the NaNs.
    """
    if len(grid.shape) != 2:
        raise ValueError(f"expected a 2-d amplitude grid, got shape {grid.shape}")
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    rows, cols = grid.shape
    block = _pixel_block(rows, cols, scale)
    block_rows = block[0]
    tops = range(0, rows, block_rows)

    def amplitudes(top: int) -> np.ndarray:
        return np.asarray(grid[top:top + block_rows], dtype=np.float64)

    _refuse_nan(sum(np.count_nonzero(np.isnan(amplitudes(top))) for top in tops))
    colors = np.array(DEFAULT_HEATMAP_COLORS, dtype=np.uint8)
    # One block of pixel rows: each cell row's pixels, then scale - 1 copies of them.
    pixels = np.empty(block, dtype=np.uint8)
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"P6\n{cols * scale} {rows * scale}\n255\n".encode("ascii"))
        for top in tops:
            bins = _bins(amplitudes(top))
            if scale > 1:
                bins = np.repeat(bins, scale, axis=1)
            out = pixels[:len(bins)]
            # Every bin is in range, so "clip" only skips the bounds check.
            np.take(colors, bins, axis=0, out=out[:, 0], mode="clip")
            out[:, 1:] = out[:, :1]
            handle.write(out)
    return path
