"""File emission: trace/snapshot/partition CSVs and binned-amplitude rasters.

Every emitter is byte-deterministic for a given input: floats are written
with round-trip precision and no file embeds a timestamp.  The cell CSVs
(snapshots and partitions) are formatted by numpy kernels, byte for byte as
Python's ``"%.17g"`` and ``"%d"`` would write them.  Rasters are
binary portable pixmaps (P6): a plain-text header, then one RGB triple per
pixel, written without any graphics dependency and viewable directly.
"""

from __future__ import annotations

import csv
import functools
import math
from pathlib import Path

import numpy as np

from .grid import TileGrid
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


@functools.cache
def _quad_tables() -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Four ASCII digits of each of 0 .. 9999 as one uint32, read-only, built on first use:
    all four; as a number's last group, with the zeros before the first nonzero digit as NUL
    (0 keeps "0"); and as a leading group above it (0 all NUL)."""
    digits = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T)
    shown = np.logical_or.accumulate(digits > 0, axis=1)
    shown[:, -1] = True
    text = digits + np.uint8(ord("0"))
    full, last = text.view(np.uint32).ravel(), (text * shown).view(np.uint32).ravel()
    leading = last.copy()
    leading[0] = 0
    for table in (full, last, leading):
        table.flags.writeable = False
    return full, last, leading


def _decimal(values: np.ndarray, width: int) -> np.ndarray:
    """Integers 0 .. 10^width - 1 as right-aligned ASCII digits after NULs: a
    (len(values), 4 ceil(width / 4)) uint8 array, filled four digits at a time."""
    full, last, leading = _quad_tables()
    groups = -(-width // 4)
    text = np.empty((len(values), groups), np.uint32)
    rest = np.asarray(values, dtype=np.int64)
    for column in range(groups - 1, -1, -1):
        rest, group = np.divmod(rest, 10000)
        # Zeros show only below a nonzero group.
        text[:, column] = np.where(rest > 0, full[group],
                                   (last if column == groups - 1 else leading)[group])
    return text.view(np.uint8)


def _digit_count(largest: int) -> int:
    return len(str(max(largest, 0)))


# The float kernel writes "%.17g" exactly for 10^-11 <= |x| < 10^15.  There x = m 2^E
# (m < 2^53) has a decimal exponent X, 10^X <= |x| < 10^(X + 1), in -11 .. 14, and its 17
# significant digits are x 10^(16 - X) = m 5^q 2^(E + q), q = 16 - X in 2 .. 27, rounded:
# m 5^q is a 128-bit product (5^27 < 2^63) shifted right by 1 .. 63 bits, whose remainder
# rounds half to even.  No double lies within half a 17th digit below a power of ten (its
# gap to the next one is at least 2^-52 / 20 of it), so rounding never carries into an 18th
# digit.  Every other value (zeros, subnormals, inf, NaN) takes Python's "%".
_FLOAT_LOW = math.nextafter(1e-11, 1.0)  # the least double at or above 10^-11
_FLOAT_HIGH = 1e15
_X_MIN, _X_MAX = -11, 14
_U64 = np.uint64  # every 128-bit operand stays uint64: numpy 1.x casts uint64 with int64 to float
_LOW32, _ONE = _U64(0xFFFFFFFF), _U64(1)
_POW5 = np.array([5 ** q for q in range(28)], dtype=np.uint64)
_TEN4, _TEN8, _TEN16, _TEN17 = (_U64(10 ** k) for k in (4, 8, 16, 17))
# A value's text: 28 bytes, NUL where unused.  Byte 0 holds the sign, 1 .. 5 "0." and the
# zeros of -4 <= X < 0, 6 digit 0, 7 the point, 8 .. 23 digits 1 .. 16 and 24 .. 27 "e-XX"
# for X < -4; fixed notation with X >= 1 moves the point after digit X.
_FLOAT_WIDTH = 28
_FLOAT_BATCH = 4  # blocks whose distinct values one kernel call formats


def _float_template(x: int) -> bytes:
    """The bytes of a value's text with decimal exponent ``x`` that are not its sign or digits."""
    text = bytearray(_FLOAT_WIDTH)
    if -4 <= x < 0:
        text[1:2 - x] = b"0.000"[:1 - x]
    else:
        text[7] = ord(".")
    if x < -4:
        text[24:] = b"e-%02d" % -x
    return bytes(text)


_FLOAT_TEMPLATES = np.frombuffer(b"".join(map(_float_template, range(_X_MIN, _X_MAX + 1))),
                                 dtype=f"V{_FLOAT_WIDTH}")


def _float_text(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float64, as a (len(values), 28) NUL-padded uint8 array."""
    magnitude = np.abs(values)
    window = magnitude >= _FLOAT_LOW
    window &= magnitude < _FLOAT_HIGH
    del magnitude
    if window.all():
        return _window_text(values)
    text = np.zeros((len(values), _FLOAT_WIDTH), np.uint8)
    for index in np.flatnonzero(~window).tolist():
        outside = b"%.17g" % values[index]
        text[index, :len(outside)] = np.frombuffer(outside, np.uint8)
    inside = np.flatnonzero(window)
    text[inside] = _window_text(values[inside])
    return text


def _scaled(mantissa: np.ndarray, exponent: np.ndarray, x: np.ndarray):
    """floor(mantissa 2^exponent 10^(16 - x)), and the low 64 bits of the 128-bit product and
    the right shift that floor drops, computed in place on 32-bit halves."""
    shift = (x - 16 - exponent).astype(np.uint64)
    p_low = _POW5[16 - x]
    p_high = p_low >> _U64(32)
    p_low &= _LOW32
    low = mantissa & _LOW32
    high = mantissa >> _U64(32)
    cross = low * p_high
    low *= p_low
    p_low *= high  # the high-low product
    high *= p_high
    del p_high
    middle = low >> _U64(32)
    middle += cross & _LOW32
    middle += p_low & _LOW32
    high += cross >> _U64(32)
    high += p_low >> _U64(32)
    del cross, p_low
    high += middle >> _U64(32)
    low &= _LOW32
    middle <<= _U64(32)
    low |= middle
    del middle
    high <<= _U64(64) - shift
    high |= low >> shift
    return high, low, shift


def _window_text(values: np.ndarray) -> np.ndarray:
    """``_float_text`` of values inside the kernel's window."""
    bits = values.view(np.uint64)
    mantissa = bits & _U64(2 ** 52 - 1)
    mantissa |= _U64(2 ** 52)
    exponent = (bits >> _U64(52)).astype(np.int16)
    exponent &= 0x7FF
    exponent -= 1075
    # log10 can miss X by one next to a power of ten; the scaled value shows it.
    x = np.log10(np.abs(values))
    np.floor(x, out=x)
    x = np.clip(x, _X_MIN, _X_MAX).astype(np.int8)
    digits, low, shift = _scaled(mantissa, exponent, x)
    for step, wrong in ((1, digits < _TEN16), (-1, digits >= _TEN17)):
        if (fix := np.flatnonzero(wrong)).size:
            x[fix] -= step
            digits[fix], low[fix], shift[fix] = _scaled(mantissa[fix], exponent[fix], x[fix])
    del mantissa, exponent
    # Round half to even on the bits the shift dropped.
    half = _ONE << (shift - _ONE)
    shift = _ONE << shift
    shift -= _ONE
    low &= shift
    del shift
    digits += (low > half) | ((low == half) & (digits & _ONE).astype(bool))
    del low, half
    text = _FLOAT_TEMPLATES[x - _X_MIN].view(np.uint8).reshape(-1, _FLOAT_WIDTH)
    text[:, 0] = (bits >> _U64(63)).astype(np.uint8) * ord("-")
    high = digits // _TEN8
    digits -= high * _TEN8
    lead = high // _TEN8
    high -= lead * _TEN8
    text[:, 6] = lead.astype(np.uint8) + ord("0")
    del lead
    full, quads = _quad_tables()[0], text.view(np.uint32)
    for column, part in ((2, high), (4, digits)):
        upper = part // _TEN4
        quads[:, column] = full[upper]
        part -= upper * _TEN4
        quads[:, column + 1] = full[part]
    del high, digits, upper
    # Drop trailing zeros after the point, digit 16 first, then the point if none is left.
    integer_digits = np.where(x > 0, x + 1, 1).astype(np.int8)
    kept = np.full(len(x), 17, np.int8)
    rows = np.flatnonzero(text[:, 23] == ord("0"))
    for digit in range(16, 0, -1):
        rows = rows[(integer_digits[rows] <= digit) & (text[rows, 7 + digit] == ord("0"))]
        if not rows.size:
            break
        text[rows, 7 + digit] = 0
        kept[rows] = digit
    whole = kept <= integer_digits
    text[whole & (x <= 0), 7] = 0
    for point in np.flatnonzero(np.bincount(x[x > 0])).tolist():
        rows = np.flatnonzero(x == point)
        text[rows, 7:7 + point] = text[rows, 8:8 + point]
        text[rows, 7 + point] = np.where(whole[rows], 0, ord("."))
    return text


def _float_blocks(grid, block_rows: int):
    """Per block of rows of ``grid``: (top, texts, index), its cells' text ``texts[index]``.

    A block formats only its distinct values (distinct bit patterns: 0.0 and -0.0 keep
    their own text).  Since each kernel call has a fixed cost, blocks wait until they
    hold half of ``CELL_BLOCK`` values, or there are ``_FLOAT_BATCH`` of them, and one
    call formats them all.
    """
    pending, count = [], 0
    for top in range(0, grid.shape[0], block_rows):
        block = np.asarray(grid[top:top + block_rows], dtype=np.float64).reshape(-1)
        keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        del block
        # The index of a waiting block takes the least bytes that hold the batch's keys.
        pending.append((top, keys, inverse.astype(np.min_scalar_type(count + keys.size))))
        count += keys.size
        if count >= CELL_BLOCK // 2 or len(pending) == _FLOAT_BATCH:
            yield from _flush_floats(pending)
            count = 0
    yield from _flush_floats(pending)


def _flush_floats(pending: list):
    """Format the keys of the pending blocks in one call; yield and drop each block in turn."""
    if not pending:
        return
    texts = _float_text(np.concatenate([keys for _, keys, _ in pending]).view(np.float64))
    start = 0
    while pending:
        top, keys, inverse = pending.pop(0)
        inverse += start
        start += keys.size
        yield top, texts, inverse


def _emit_cell_csv(shape: "tuple[int, int]", blocks, value_width: int, header: str,
                   path: "str | Path") -> Path:
    """Write ``header``, then one ``i,j,value`` line per cell, row-major.

    ``blocks(block_rows)`` yields (top, texts, index) for each block of rows: the value text
    of its cells is ``texts[index]``, or ``texts`` itself when ``index`` is None, in rows of
    ``value_width`` NUL-padded bytes.  Each block's lines fill one fixed-width byte array
    (digits right-aligned after NULs, text NUL-padded), written with the NULs dropped: no
    number's text holds a NUL.
    """
    rows, cols = shape
    block_rows = max(1, min(rows, CELL_BLOCK // max(cols, 1)))
    row_width, col_width = (_digit_count(n - 1) for n in shape)
    col_text = _decimal(np.arange(cols), col_width)
    row_end = -(-row_width // 4) * 4
    col_end = row_end + 1 + col_text.shape[1]
    width = col_end + 1 + value_width + 2
    # A bytearray, whose translate drops the NULs without a mask or an index array.
    buffer = bytearray(block_rows * cols * width)
    lines = np.frombuffer(buffer, np.uint8).reshape(block_rows, cols, width)
    lines[:, :, row_end] = lines[:, :, col_end] = ord(",")
    lines[:, :, row_end + 1:col_end] = col_text
    lines[:, :, -2:] = np.frombuffer(b"\r\n", np.uint8)
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"{header}\r\n".encode("ascii"))
        for top, texts, index in blocks(block_rows):
            block = lines[:min(block_rows, rows - top)]
            block[:, :, :row_end] = _decimal(np.arange(top, top + len(block)), row_width)[:, None]
            values = block.reshape(-1, width)[:, col_end + 1:-2]
            if index is None:
                values[...] = texts
            else:
                np.take(texts, index, axis=0, out=values, mode="clip")
            filled = buffer if len(block) == block_rows else buffer[:block.size]
            handle.write(filled.translate(None, b"\0"))
            del texts, index  # a block's batch text goes before the next batch is formatted
    return path


def emit_snapshot_csv(grid, path: "str | Path") -> Path:
    """Write one ``i,j,amplitude`` row per cell, row-major, each amplitude as ``%.17g``.

    ``grid`` is a 2-d array or a stored grid (``simulator.snapshot``); it is
    read a block of rows at a time, so a stored tile grid is never built whole.
    """
    return _emit_cell_csv(grid.shape, functools.partial(_float_blocks, grid), _FLOAT_WIDTH,
                          "i,j,amplitude", path)


def emit_partition_csv(partition: Partition, path: "str | Path") -> Path:
    """Write one ``i,j,group`` row per cell, row-major, a block of rows at a time."""
    side = partition.geometry.side
    width = _digit_count(partition.group_count - 1)

    def blocks(block_rows: int):
        for top in range(0, side, block_rows):
            ids = partition._group_rows(top, min(top + block_rows, side)).reshape(-1)
            yield top, _decimal(ids, width), None

    return _emit_cell_csv((side, side), blocks, -(-width // 4) * 4, "i,j,group", path)


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
    opened: a first pass over the blocks counts the NaNs.  A stored tile grid
    whose coefficients and deltas are all finite skips that pass: each cell
    adds up to three finite numbers, which can overflow to inf but never give
    a NaN.
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

    if not (isinstance(grid, TileGrid) and all(np.isfinite(part).all() for part in (
            *grid.coefficients, grid.deltas))):
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
