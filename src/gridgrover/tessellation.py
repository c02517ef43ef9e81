"""Partitions of the torus grid into the cell groups that drive diffusion.

Each diffusion operator reflects about the uniform superposition on every
group of some partition.  Because groups are disjoint and cover the grid,
those superpositions are automatically orthonormal and the reflection is
unitary.  Four named tessellations are provided:

* ``square_partition``       -- axis-aligned d x d tiles.
* ``shifted_square_partition`` -- the same tiles with the origin moved by
  floor(d/2) in both axes, wrapping on the torus.  Every shifted tile
  straddles several aligned tiles, which is what lets amplitude travel.
* ``cross_partition``        -- center plus four cardinal neighbors (a
  radius-1 Lee sphere); centers on the lattice (i + 2j) % 5 == 0.
* ``four_corners_partition`` -- quadruples {(a,b)+(x,y): x,y in {0,d}}
  inside 2d-periodic blocks.

Every partition is read through its cell -> group map, ``group_ids``.  A
named tessellation is its descriptor, checked on construction, and derives
its map in closed form when first read; hand-built groups
(``custom_partition``) store a map checked on construction.  So no
``Partition`` is an invalid cover.
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

_SQUARE_KINDS = (KIND_SQUARE, KIND_SHIFTED_SQUARE)


class InvalidPartitionError(ValueError):
    """Raised when groups are empty or fail to cover every grid cell exactly once."""


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty cell groups covering the grid; ``group_ids`` maps each cell to one.

    A named tessellation is ``kind``, parameter ``d`` (the tile side of
    squares, the corner spacing of four-corners; crosses ignore it) and
    ``tile_shift``, the origin its pattern is moved to.  A ``KIND_CUSTOM``
    partition stores its map, ``ids``; groups are numbered 0 .. max(ids).
    ``tile_side`` is d for squares, else None: the tile kernels read (d,
    ``tile_shift``) alone.  ``step_cost`` is the nominal walk-step charge of
    one diffusion (d for squares and corners, 1 for crosses: each cross
    cell is one hop from its center).
    """

    geometry: GridGeometry
    kind: str = KIND_CUSTOM
    step_cost: int = 1
    d: int = 1
    tile_shift: tuple[int, int] = (0, 0)
    ids: "np.ndarray | None" = field(default=None, repr=False)
    tile_side: "int | None" = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.kind == KIND_CUSTOM:
            validate_partition(self)
        elif self.kind not in (*_SQUARE_KINDS, KIND_CROSS, KIND_FOUR_CORNERS):
            raise ValueError(f"unknown tessellation kind {self.kind!r}")
        elif problem := tiling_problem(self.geometry.side, self.kind, self.d):
            raise ValueError(problem)
        elif self.kind in _SQUARE_KINDS:
            object.__setattr__(self, "tile_side", self.d)

    @cached_property
    def group_ids(self) -> np.ndarray:
        """Cell -> group map over row-major cells, as ``intp``."""
        if self.kind == KIND_CUSTOM:
            return self.ids
        side, d, (si, sj) = self.geometry.side, self.d, self.tile_shift
        if self.kind == KIND_CROSS:
            return _cross_ids(side, si, sj)
        # Groups are numbered row-major over blocks, so an id is a row part plus a column part.
        rows, cols = (np.arange(side) - si) % side, (np.arange(side) - sj) % side
        if self.kind == KIND_FOUR_CORNERS:
            # Group (bi, bj, a, b) of 2d x 2d block (bi, bj) holds rows 2d*bi + a + {0, d}
            # and cols 2d*bj + b + {0, d}; it is number ((bi * L/2d + bj) * d + a) * d + b.
            rows = rows // (2 * d) * (side // (2 * d)) * d * d + rows % d * d
            cols = cols // (2 * d) * d * d + cols % d
        else:
            # Tile (bi, bj) holds rows d*bi .. d*bi + d - 1; it is number bi * L/d + bj.
            rows, cols = rows // d * (side // d), cols // d
        return (rows[:, None] + cols).reshape(-1)

    @cached_property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.group_ids).astype(np.float64)

    @property
    def group_count(self) -> int:
        return self.group_sizes.size


def _cross_ids(side: int, si: int, sj: int) -> np.ndarray:
    """The cross map: five scatters of the group numbers, from the centers to each arm."""
    # Row i holds the centers j = 2i (mod 5), numbered row-major: i * L/5 + k at j = 2i % 5 + 5k.
    i = np.arange(side)[:, None]
    j = 2 * i % 5 + 5 * np.arange(side // 5)
    numbers = np.arange(side * side // 5).reshape(side, -1)
    ids = np.empty((side, side), dtype=np.intp)
    for di, dj in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
        ids[(i + si + di) % side, (j + sj + dj) % side] = numbers
    return ids.reshape(-1)


def _raise_faults(faults: "dict[str, int]") -> None:
    if found := ", ".join(f"{count} {fault}" for fault, count in faults.items() if count):
        raise InvalidPartitionError(f"invalid partition: {found}")


def validate_partition(partition: Partition) -> None:
    """Raise ``InvalidPartitionError`` unless the map puts every cell in one of nonempty groups."""
    ids, n = partition.group_ids, partition.geometry.cell_count
    if not isinstance(ids, np.ndarray) or ids.shape != (n,) or ids.dtype.kind != "i":
        raise InvalidPartitionError(f"a group map is {n} integer ids, one per row-major cell")
    _raise_faults({"negative group ids": np.count_nonzero(ids < 0)})
    _raise_faults({"empty groups": np.count_nonzero(partition.group_sizes == 0)})


def tiling_problem(side: int, kind: str, d: int) -> "str | None":
    """Why tiles of ``kind`` with parameter ``d`` cannot cover an L = ``side`` torus, or None.

    Square and shifted-square tiles need d | L, four-corners quadruples
    2d | L, and crosses 5 | L (they ignore d).  Other kinds have no rule here.
    """
    if kind == KIND_CROSS:
        rule, period = "5 | L", 5
    elif kind not in (*_SQUARE_KINDS, KIND_FOUR_CORNERS):
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
    return Partition(geometry, KIND_SQUARE, step_cost=d, d=d)


def shifted_square_partition(geometry: GridGeometry, d: int) -> Partition:
    """d x d tiles with origins moved by floor(d/2) in both axes, wrapping."""
    return Partition(geometry, KIND_SHIFTED_SQUARE, step_cost=d, d=d, tile_shift=(d // 2, d // 2))


def cross_partition(geometry: GridGeometry) -> Partition:
    """Center-plus-cardinal-neighbors groups; requires 5 | side.

    Centers sit on the lattice (i + 2j) % 5 == 0, the spacing at which
    radius-1 Lee spheres tile the torus perfectly: successive centers are
    (2, 1) apart.  Groups are numbered in row-major order of their centers.
    """
    return Partition(geometry, KIND_CROSS)


def four_corners_partition(geometry: GridGeometry, d: int) -> Partition:
    """Corner quadruples {(a,b) + (x,y) : x,y in {0,d}}; requires 2d | side."""
    return Partition(geometry, KIND_FOUR_CORNERS, step_cost=d, d=d)


def custom_partition(
    geometry: GridGeometry,
    groups: "list[list[tuple[int, int]]] | tuple",
    step_cost: int = 1,
) -> Partition:
    """Hand-built groups, numbered in order; cells wrap onto the grid and must cover it once."""
    cells = np.array([cell_index(geometry, c) for group in groups for c in group], dtype=np.intp)
    sizes = [len(group) for group in groups]
    covered = np.bincount(cells, minlength=geometry.cell_count)
    _raise_faults({"duplicated cells": np.count_nonzero(covered > 1),
                   "missing cells": np.count_nonzero(covered == 0),
                   "empty groups": sizes.count(0)})
    ids = np.empty(geometry.cell_count, dtype=np.intp)
    ids[cells] = np.repeat(np.arange(len(groups)), sizes)
    return Partition(geometry, step_cost=step_cost, ids=ids)


def translate_partition(partition: Partition, offset: tuple[int, int]) -> Partition:
    """Shift every cell by a fixed offset; a named tessellation moves its origin, kept modulo L."""
    di, dj = offset
    side = partition.geometry.side
    if partition.kind == KIND_CUSTOM:
        moved = np.roll(partition.ids.reshape(side, side), (di, dj), axis=(0, 1))
        return replace(partition, ids=moved.reshape(-1))
    si, sj = partition.tile_shift
    return replace(partition, tile_shift=((si + di) % side, (sj + dj) % side))
