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
fixtures).  A partition is stored as flat cell offsets plus group bounds, built
with numpy broadcasting; per-cell ``Coord`` tuples exist only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .grid import Coord, GridGeometry, cell_index, coord_of_index

__all__ = [
    "KIND_CROSS",
    "KIND_CUSTOM",
    "KIND_FOUR_CORNERS",
    "KIND_SHIFTED_SQUARE",
    "KIND_SQUARE",
    "InvalidPartitionError",
    "Partition",
    "PartitionReport",
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
    """Raised when groups fail to cover every grid cell exactly once."""


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cell groups covering the grid.

    Group g is ``cells[offsets[g]:offsets[g + 1]]``: row-major flat offsets in
    ``intp`` arrays.  Its ``Coord`` tuples in ``groups`` are built on first use.

    ``step_cost`` is the nominal walk-step charge for one application of the
    group diffusion (tile side for squares and corners, 1 for crosses, since
    every cross cell is one hop from its center).

    ``tile_side``/``tile_shift`` record block structure when the groups are
    d x d tiles on a (possibly shifted) lattice; the diffusion kernel uses
    them to take a reshape-based fast path.
    """

    geometry: GridGeometry
    cells: np.ndarray
    offsets: np.ndarray
    kind: str = KIND_CUSTOM
    step_cost: int = 1
    tile_side: int | None = None
    tile_shift: tuple[int, int] = (0, 0)

    @property
    def group_count(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def groups(self) -> tuple[tuple[Coord, ...], ...]:
        """Per-group ``Coord`` tuples for tests and dense matrices; the kernels read the arrays."""
        rows, cols = np.divmod(self.cells, self.geometry.side)
        coords = list(map(Coord, rows.tolist(), cols.tolist()))
        bounds = self.offsets.tolist()
        return tuple(tuple(coords[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def group_ids(self) -> np.ndarray:
        """Cell -> group index map; raises unless the cover is exact."""
        report = validate_partition(self)
        if not report.ok:
            raise InvalidPartitionError(report.summary())
        ids = np.empty(self.geometry.cell_count, dtype=np.intp)
        ids[self.cells] = np.repeat(np.arange(self.group_count), np.diff(self.offsets))
        return ids

    @cached_property
    def group_sizes(self) -> np.ndarray:
        return np.diff(self.offsets).astype(np.float64)


@dataclass(frozen=True)
class PartitionReport:
    """Outcome of a cover check: which cells are duplicated or missing."""

    ok: bool
    duplicated: tuple[Coord, ...]
    missing: tuple[Coord, ...]
    empty_groups: tuple[int, ...]

    def summary(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        if self.duplicated:
            parts.append(f"{len(self.duplicated)} duplicated cells")
        if self.missing:
            parts.append(f"{len(self.missing)} missing cells")
        if self.empty_groups:
            parts.append(f"{len(self.empty_groups)} empty groups")
        return "invalid partition: " + ", ".join(parts)


def validate_partition(partition: Partition) -> PartitionReport:
    """Check that every cell appears exactly once; raise if the arrays are not groups of cells."""
    geometry, cells, offsets = partition.geometry, partition.cells, partition.offsets
    n, sizes = geometry.cell_count, np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != cells.size or np.any(sizes < 0):
        raise InvalidPartitionError("group offsets must rise from 0 to the number of cells")
    if cells.size and (cells.min() < 0 or cells.max() >= n):
        raise InvalidPartitionError(f"cell offsets must lie in [0, {n})")
    counts = np.bincount(cells, minlength=n)
    duplicated = tuple(coord_of_index(geometry, int(i)) for i in np.flatnonzero(counts > 1))
    missing = tuple(coord_of_index(geometry, int(i)) for i in np.flatnonzero(counts == 0))
    empty = tuple(np.flatnonzero(sizes == 0).tolist())
    ok = not duplicated and not missing
    return PartitionReport(ok=ok, duplicated=duplicated, missing=missing, empty_groups=empty)


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
    return _block_partition(geometry, d, shift=0, kind=KIND_SQUARE)


def shifted_square_partition(geometry: GridGeometry, d: int) -> Partition:
    """d x d tiles with origins moved by floor(d/2) in both axes, wrapping."""
    return _block_partition(geometry, d, shift=d // 2, kind=KIND_SHIFTED_SQUARE)


def _interleave(rows: np.ndarray, cols: np.ndarray, side: int) -> np.ndarray:
    """Flat offsets rows[i0, i1, ...] * side + cols[j0, j1, ...], axes ordered i0, j0, i1, j1, ..."""
    r = rows.reshape([k for dim in rows.shape for k in (dim, 1)])
    c = cols.reshape([k for dim in cols.shape for k in (1, dim)])
    return (r * side + c).reshape(-1)


def _uniform_partition(geometry: GridGeometry, cells: np.ndarray, size: int, **fields) -> Partition:
    """Partition whose groups are consecutive runs of ``size`` cells."""
    return Partition(geometry, cells, np.arange(0, cells.size + 1, size, dtype=np.intp), **fields)


def _block_partition(geometry: GridGeometry, d: int, shift: int, kind: str) -> Partition:
    if problem := tiling_problem(geometry.side, kind, d):
        raise ValueError(problem)
    # Tile (bi, bj) holds rows d*bi + x + shift and cols d*bj + y + shift, x and y in [0, d).
    side = geometry.side
    lines = (d * np.arange(side // d)[:, None] + np.arange(d) + shift) % side
    return _uniform_partition(
        geometry, _interleave(lines, lines, side), d * d,
        kind=kind, step_cost=d, tile_side=d, tile_shift=(shift, shift),
    )


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
    return Partition(geometry, np.array(cells, dtype=np.intp), offsets, step_cost=step_cost)


def translate_partition(partition: Partition, offset: tuple[int, int]) -> Partition:
    """Shift every cell by a fixed offset; tiling survives torus translation."""
    di, dj = offset
    side, d = partition.geometry.side, partition.tile_side
    rows, cols = np.divmod(partition.cells, side)
    si, sj = partition.tile_shift
    return replace(
        partition,
        cells=(rows + di) % side * side + (cols + dj) % side,
        tile_shift=(0, 0) if d is None else ((si + di) % d, (sj + dj) % d),
    )
