"""Partitions of the torus grid into the cell groups that drive diffusion.

Each diffusion operator reflects about the uniform superposition on every
group of some partition.  Because groups are disjoint and cover the grid,
those superpositions are automatically orthonormal and the reflection is
unitary.  Four generators are provided:

* ``square_partition``       -- axis-aligned d x d tiles.
* ``shifted_square_partition`` -- the same tiles with the origin moved by
  floor(d/2) in both axes, wrapping on the torus.  Every shifted tile
  straddles several aligned tiles, which is what lets amplitude travel.
* ``cross_partition``        -- center plus four cardinal neighbors (a
  radius-1 Lee sphere); centers on the lattice (i + 2j) % 5 == 0.
* ``four_corners_partition`` -- quadruples {(a,b)+(x,y): x,y in {0,d}}
  inside 2d-periodic blocks.

Hand-built groups are supported through ``custom_partition`` (used by test
fixtures).  Square and shifted-square partitions are their tile lattice (d,
shift) alone; the others are flat cell offsets plus group bounds, built with
numpy broadcasting.  ``validate_partition`` is the one cover check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .grid import GridGeometry, cell_index

__all__ = [
    "KIND_CROSS",
    "KIND_CUSTOM",
    "KIND_FOUR_CORNERS",
    "KIND_SHIFTED_SQUARE",
    "KIND_SQUARE",
    "InvalidPartitionError",
    "Partition",
    "cross_partition",
    "custom_partition",
    "four_corners_partition",
    "shifted_square_partition",
    "square_partition",
    "tiling_problem",
    "translate_partition",
    "validate_partition",
]

KIND_SQUARE = "square"
KIND_SHIFTED_SQUARE = "shifted-square"
KIND_CROSS = "cross"
KIND_FOUR_CORNERS = "four-corners"
KIND_CUSTOM = "custom"


class InvalidPartitionError(ValueError):
    """Raised when groups are empty or fail to cover every grid cell exactly once."""


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cell groups covering the grid.

    Group g is ``cells[offsets[g]:offsets[g + 1]]``: row-major flat offsets in
    ``intp`` arrays.  ``group_ids`` is the inverse, cell -> group.

    A tile partition is its lattice alone: d x d tiles, d = ``tile_side``, with
    an origin at ``tile_shift`` (aligned iff that is (0, 0)).  It covers the
    grid once d | L and derives ``cells`` and ``offsets`` only when read.
    Other partitions hold them as explicit ``arrays`` = (cells, offsets).

    ``step_cost`` is the nominal walk-step charge for one application of the
    group diffusion (tile side for squares and corners, 1 for crosses, since
    every cross cell is one hop from its center).
    """

    geometry: GridGeometry
    kind: str = KIND_CUSTOM
    step_cost: int = 1
    tile_side: int | None = None
    tile_shift: tuple[int, int] = (0, 0)
    arrays: "tuple[np.ndarray, np.ndarray] | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.tile_side is None) == (self.arrays is None):
            raise ValueError("a partition is a tile lattice or explicit (cells, offsets) arrays")
        if self.tile_side is not None:
            kind = KIND_SHIFTED_SQUARE if self.kind == KIND_SHIFTED_SQUARE else KIND_SQUARE
            if problem := tiling_problem(self.geometry.side, kind, self.tile_side):
                raise ValueError(problem)

    @cached_property
    def cells(self) -> np.ndarray:
        if self.arrays is not None:
            return self.arrays[0]
        # Tile (bi, bj) holds rows d*bi + x + si and cols d*bj + y + sj, x and y in [0, d).
        d, side = self.tile_side, self.geometry.side
        lines = d * np.arange(side // d)[:, None] + np.arange(d)
        si, sj = self.tile_shift
        return _interleave((lines + si) % side, (lines + sj) % side, side)

    @cached_property
    def offsets(self) -> np.ndarray:
        if self.arrays is not None:
            return self.arrays[1]
        return np.arange(0, self.geometry.cell_count + 1, self.tile_side ** 2, dtype=np.intp)

    @property
    def group_count(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def group_ids(self) -> np.ndarray:
        """Cell -> group index map, -1 where no group covers a cell; the cover is not checked."""
        ids = np.full(self.geometry.cell_count, -1, dtype=np.intp)
        ids[self.cells] = np.repeat(np.arange(self.group_count), np.diff(self.offsets))
        return ids

    @cached_property
    def group_sizes(self) -> np.ndarray:
        return np.diff(self.offsets).astype(np.float64)


def validate_partition(partition: Partition) -> None:
    """Raise ``InvalidPartitionError`` unless nonempty groups cover every cell exactly once."""
    cells, offsets, n = partition.cells, partition.offsets, partition.geometry.cell_count
    sizes = np.diff(offsets)
    if offsets[:1].tolist() != [0] or offsets[-1] != cells.size or np.any(sizes < 0):
        raise InvalidPartitionError("group offsets must rise from 0 to the number of cells")
    if cells.size and (cells.min() < 0 or cells.max() >= n):
        raise InvalidPartitionError(f"cell offsets must lie in [0, {n})")
    counts = np.bincount(cells, minlength=n)
    faults = {
        "duplicated cells": np.count_nonzero(counts > 1),
        "missing cells": np.count_nonzero(counts == 0),
        "empty groups": np.count_nonzero(sizes == 0),
    }
    if any(faults.values()):
        found = ", ".join(f"{count} {fault}" for fault, count in faults.items() if count)
        raise InvalidPartitionError(f"invalid partition: {found}")


def tiling_problem(side: int, kind: str, d: int) -> "str | None":
    """Why tiles of ``kind`` with parameter ``d`` cannot cover an L = ``side`` torus, or None.

    Square and shifted-square tiles need d | L, four-corners quadruples
    2d | L, and crosses 5 | L (they ignore d).  Other kinds have no rule here.
    """
    if kind == KIND_CROSS:
        rule, period = "5 | L", 5
    elif kind not in (KIND_SQUARE, KIND_SHIFTED_SQUARE, KIND_FOUR_CORNERS):
        return None
    elif d < 1:
        return f"{kind} tessellation needs a positive tile side, got d = {d}"
    else:
        rule, period = ("2d | L", 2 * d) if kind == KIND_FOUR_CORNERS else ("d | L", d)
    if side % period:
        return f"{kind} tessellation needs {rule}: {period} does not divide {side}"
    return None


def square_partition(geometry: GridGeometry, d: int) -> Partition:
    """Axis-aligned d x d tiles; requires d | side."""
    return Partition(geometry, KIND_SQUARE, d, tile_side=d)


def shifted_square_partition(geometry: GridGeometry, d: int) -> Partition:
    """d x d tiles with origins moved by floor(d/2) in both axes, wrapping."""
    return Partition(geometry, KIND_SHIFTED_SQUARE, d, tile_side=d, tile_shift=(d // 2, d // 2))


def _interleave(rows: np.ndarray, cols: np.ndarray, side: int) -> np.ndarray:
    """Flat offsets rows[i0, i1, ...] * side + cols[j0, j1, ...], axes ordered i0, j0, i1, j1, ..."""
    r = rows.reshape([k for dim in rows.shape for k in (dim, 1)])
    c = cols.reshape([k for dim in cols.shape for k in (1, dim)])
    return (r * side + c).reshape(-1)


def _uniform_partition(geometry: GridGeometry, cells: np.ndarray, size: int, **fields) -> Partition:
    """Partition whose groups are consecutive runs of ``size`` cells."""
    offsets = np.arange(0, cells.size + 1, size, dtype=np.intp)
    return Partition(geometry, arrays=(cells, offsets), **fields)


def cross_partition(geometry: GridGeometry) -> Partition:
    """Center-plus-cardinal-neighbors groups; requires 5 | side.

    Centers sit on the lattice (i + 2j) % 5 == 0, the spacing at which
    radius-1 Lee spheres tile the torus perfectly: successive centers are
    (2, 1) apart.  Groups come in row-major order of their centers, and each
    lists its center first, then the neighbors above, below, left and right.
    """
    if problem := tiling_problem(geometry.side, KIND_CROSS, 0):
        raise ValueError(problem)
    side = geometry.side
    # In row i the centers are the columns j = 2i (mod 5).
    i = np.arange(side)[:, None]
    j = 2 * i % 5 + 5 * np.arange(side // 5)
    row, up, down = i * side, (i - 1) % side * side, (i + 1) % side * side
    cells = np.stack([row + j, up + j, down + j, row + (j - 1) % side, row + (j + 1) % side], -1)
    return _uniform_partition(geometry, cells.reshape(-1), 5, kind=KIND_CROSS, step_cost=1)


def four_corners_partition(geometry: GridGeometry, d: int) -> Partition:
    """Corner quadruples {(a,b) + (x,y) : x,y in {0,d}}; requires 2d | side."""
    if problem := tiling_problem(geometry.side, KIND_FOUR_CORNERS, d):
        raise ValueError(problem)
    side = geometry.side
    # Group (bi, bj, a, b) holds rows 2d*bi + a + x and cols 2d*bj + b + y, x and y in {0, d}.
    lines = 2 * d * np.arange(side // (2 * d))[:, None, None] + np.arange(d)[:, None] + [0, d]
    return _uniform_partition(
        geometry, _interleave(lines, lines, side), 4, kind=KIND_FOUR_CORNERS, step_cost=d
    )


def custom_partition(
    geometry: GridGeometry,
    groups: "list[list[tuple[int, int]]] | tuple",
    step_cost: int = 1,
) -> Partition:
    """Wrap hand-built groups; cells wrap onto the grid, validity is not checked."""
    cells = [cell_index(geometry, cell) for group in groups for cell in group]
    offsets = np.cumsum([0, *map(len, groups)], dtype=np.intp)
    return Partition(geometry, step_cost=step_cost, arrays=(np.array(cells, dtype=np.intp), offsets))


def translate_partition(partition: Partition, offset: tuple[int, int]) -> Partition:
    """Shift every cell by a fixed offset; a tile lattice moves its origin, kept modulo L."""
    di, dj = offset
    side = partition.geometry.side
    if partition.tile_side is not None:
        si, sj = partition.tile_shift
        return replace(partition, tile_shift=((si + di) % side, (sj + dj) % side))
    rows, cols = np.divmod(partition.cells, side)
    cells = (rows + di) % side * side + (cols + dj) % side
    return replace(partition, arrays=(cells, partition.offsets))
