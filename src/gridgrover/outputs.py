"""File emission: trace/snapshot/partition CSVs and binned-amplitude rasters.

Every emitter is byte-deterministic for a given input: floats are written
with round-trip precision and no file embeds a timestamp.  Rasters are
binary portable pixmaps (P6): a plain-text header, then one RGB triple per
pixel, written without any graphics dependency and viewable directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .tessellation import Partition

__all__ = [
    "DEFAULT_HEATMAP_COLORS",
    "HeatmapStyle",
    "bin_index",
    "emit_heatmap",
    "emit_partition_csv",
    "emit_snapshot_csv",
    "emit_trace_csv",
    "read_trace_csv",
]


def _fmt(x: float) -> str:
    # 17 significant digits round-trips any float64.
    return format(float(x), ".17g")


def emit_trace_csv(trace, path: "str | Path") -> Path:
    """Write ``iteration,marked_probability,marked_amplitude,nominal_steps``.

    One row per completed round, numbered from 1.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "marked_probability", "marked_amplitude", "nominal_steps"])
        for k, (p, steps) in enumerate(zip(trace.probabilities, trace.cumulative_steps), start=1):
            writer.writerow([k, _fmt(p), _fmt(math.sqrt(p)), int(steps)])
    return path


def read_trace_csv(path: "str | Path") -> dict[str, np.ndarray]:
    """Read a trace CSV back into column arrays keyed by header name."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [row for row in reader if row]
    columns: dict[str, np.ndarray] = {}
    for index, name in enumerate(header):
        kind = np.int64 if name in ("iteration", "nominal_steps") else np.float64
        columns[name] = np.array([row[index] for row in rows], dtype=kind)
    return columns


def _emit_cell_csv(grid: np.ndarray, header: str, value_fmt: str, path: "str | Path") -> Path:
    """Write ``header``, then one ``i,j,value`` row per cell, row-major, formatting a row at once."""
    cols = range(grid.shape[1])
    line = f"%d,%d,{value_fmt}\r\n" * len(cols)
    path = Path(path)
    with path.open("w", newline="") as handle:
        handle.write(header + "\r\n")
        for i, row in enumerate(grid):
            handle.write(line % tuple(chain.from_iterable(zip(repeat(i), cols, row.tolist()))))
    return path


def emit_snapshot_csv(grid: np.ndarray, path: "str | Path") -> Path:
    """Write one ``i,j,amplitude`` row per cell, row-major."""
    return _emit_cell_csv(np.asarray(grid), "i,j,amplitude", "%.17g", path)


def emit_partition_csv(partition: Partition, path: "str | Path") -> Path:
    """Write one ``i,j,group`` row per cell, row-major, for eyeballing tilings."""
    geometry = partition.geometry
    # Cells outside every group read -1.
    ids = np.full(geometry.cell_count, -1, dtype=np.intp)
    ids[partition.cells] = np.repeat(np.arange(partition.group_count), np.diff(partition.offsets))
    return _emit_cell_csv(ids.reshape(geometry.side, geometry.side), "i,j,group", "%d", path)


# Ten bin colors, darkest (most negative amplitude) to brightest.  Bin 4 is a
# light blue and bin 5 a lime green, the shades carrying the low positive
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


@dataclass(frozen=True)
class HeatmapStyle:
    """Amplitude binning and colors for rasters.

    Amplitudes are clamped to [floor, 1.0] and binned by
    ``floor((a - floor) / bin_width)`` with the top bin capped, so the bins
    tile [floor, 1.0] exactly: with the defaults, ten 0.15-wide bins over
    [-0.5, 1.0].  ``scale`` is an integer pixel upscaling factor.
    """

    bin_width: float = 0.15
    floor: float = -0.5
    colors: tuple[tuple[int, int, int], ...] = DEFAULT_HEATMAP_COLORS
    scale: int = 1

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        span = 1.0 - self.floor
        if abs(span - len(self.colors) * self.bin_width) > 1e-9:
            raise ValueError(
                f"{len(self.colors)} bins of width {self.bin_width} do not tile "
                f"[{self.floor}, 1.0]"
            )

    @property
    def bin_count(self) -> int:
        return len(self.colors)


def bin_index(amplitude, style: HeatmapStyle = HeatmapStyle()) -> np.ndarray:
    """Bin index of an amplitude (scalar or array) under the clamp-and-cap rule."""
    a = np.clip(np.asarray(amplitude, dtype=np.float64), style.floor, 1.0)
    bins = np.floor((a - style.floor) / style.bin_width).astype(np.int64)
    return np.minimum(bins, style.bin_count - 1)


def emit_heatmap(grid: np.ndarray, style: HeatmapStyle, path: "str | Path") -> Path:
    """Render an amplitude grid to a binary portable pixmap (P6)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"expected a 2-d amplitude grid, got shape {grid.shape}")
    palette = np.array(style.colors, dtype=np.uint8)
    pixels = palette[bin_index(grid, style)]
    if style.scale > 1:
        pixels = np.repeat(np.repeat(pixels, style.scale, axis=0), style.scale, axis=1)
    height, width = pixels.shape[:2]
    path = Path(path)
    with path.open("wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())
    return path
