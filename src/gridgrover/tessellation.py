"""Partitions of the torus grid into the cell groups that drive diffusion.

Each diffusion operator reflects about the uniform superposition on every
group of some partition.  Because groups are disjoint and cover the grid,
those superpositions are automatically orthonormal and the reflection is
unitary.  Four named tessellations are provided:

* ``square_partition``       -- axis-aligned d x d tiles.
* ``shifted_square_partition`` -- the same square lattice with its origin
  moved by floor(d/2) in both axes, wrapping on the torus.  Every shifted
  tile straddles several aligned tiles, which is what lets amplitude travel.
* ``cross_partition``        -- center plus four cardinal neighbors (a
  radius-1 Lee sphere); centers on the lattice (i + 2j) % 5 == 0.
* ``four_corners_partition`` -- quadruples {(a,b)+(x,y): x,y in {0,d}}
  inside 2d-periodic blocks.

A named tessellation is its descriptor, checked on construction.  Its map
repeats down the rows: P rows down (P = d for squares, 2d for four corners,
5 for crosses) every group id grows by a fixed step, and L rows down by the
group count, so ids taken modulo the group count also wrap the rows.  A
partition is read through one block of P * k rows of ids, built when first
asked for; hand-built groups (``custom_partition``) store a map checked on
construction, which is their block (P = L, step 0).  So no ``Partition`` is
an invalid cover.  The whole cell -> group map, ``group_ids``, is derived
only on request; no run or emitter reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import grid
from .grid import GridGeometry, _integer_cells, cell_index

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
KIND_SHIFTED_SQUARE = "shifted-square"  # a config word for shifted_square_partition, not a kind
KIND_CROSS = "cross"
KIND_FOUR_CORNERS = "four-corners"
KIND_CUSTOM = "custom"


class InvalidPartitionError(ValueError):
    """Raised when groups are empty or fail to cover every grid cell exactly once."""


class _PeriodBlock(NamedTuple):
    """A partition's ids, band by band: band t (grid rows t * rows on) holds groups
    (base + t * shift + b) % G for its local ids b = 0 .. span - 1, G groups in all.

    ``ids`` holds ``wrap + carry`` seed numbers, then the local id of each of the
    band's cells, row-major.  A band's first ``carry`` local groups are the last of
    the band above it (b + shift there); the last band's last ``wrap`` are band 0's
    first, across the row wrap.  The seeds number those groups in that order: the
    last band's ``wrap``, then every band's ``carry``.  ``scale`` is 2 / size per
    group, a scalar when the groups have one size.
    """

    rows: int
    ids: np.ndarray
    span: int
    base: int
    shift: int
    carry: int
    wrap: int
    scale: "float | np.ndarray"


# Per (j - 2i) % 5 of a cell (i, j): the offset from it to the center of its cross.
_CROSS_ROW = np.array([0, 0, 1, -1, 0])
_CROSS_COL = np.array([0, -1, 0, 0, 1])


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty cell groups covering the grid.

    A named tessellation (square, cross, four-corners) is ``kind``, ``d``
    (the tile side of squares, the corner spacing of four-corners; crosses
    ignore it) and ``tile_shift``, the origin its pattern is moved to.  A
    ``KIND_CUSTOM`` partition stores its map, ``ids``, numbering groups 0 ..
    max(ids).  The kind fixes the rest: ``tile_side`` is d for squares, else
    None (the tile kernels read (d, ``tile_shift``) alone); ``step_cost``, the
    walk-step charge of one diffusion, is d for squares and corners, else 1.
    Runs and emitters read the ids through ``_block``, one period block of
    rows; ``group_ids``, the whole cell -> group map, is for dense matrices,
    ``validate`` and tests.
    """

    geometry: GridGeometry
    kind: str = KIND_CUSTOM
    d: int = 1
    tile_shift: tuple[int, int] = (0, 0)
    ids: "np.ndarray | None" = field(default=None, repr=False)
    tile_side: "int | None" = field(init=False, default=None)
    step_cost: int = field(init=False, default=1)

    def __post_init__(self) -> None:
        _integer_cells((self.tile_shift,), "tile shifts")
        if self.kind == KIND_CUSTOM:
            validate_partition(self)
        elif self.kind not in (KIND_SQUARE, KIND_CROSS, KIND_FOUR_CORNERS):
            raise ValueError(f"unknown tessellation kind {self.kind!r}")
        elif self.ids is not None:
            raise ValueError(f"a {self.kind} tessellation derives its map; only custom takes ids")
        elif problem := tiling_problem(self.geometry.side, self.kind, self.d):
            raise ValueError(problem)
        elif self.kind != KIND_CROSS:
            object.__setattr__(self, "step_cost", self.d)
            object.__setattr__(self, "tile_side", self.d if self.kind == KIND_SQUARE else None)

    @cached_property
    def group_ids(self) -> np.ndarray:
        """Cell -> group map over row-major cells, as ``intp``; derived afresh when first read."""
        if self.kind == KIND_CUSTOM:
            return self.ids
        return self._group_rows(0, self.geometry.side).reshape(-1)

    @cached_property
    def group_sizes(self) -> np.ndarray:
        return np.bincount(self.group_ids).astype(np.float64)

    @property
    def group_count(self) -> int:
        if self.kind == KIND_CUSTOM:
            return self.group_sizes.size
        period, step = self._period
        return self.geometry.side // period * step

    @property
    def _period(self) -> tuple[int, int]:
        """(P, step): P rows down, every group id grows by step, before the row wrap."""
        side, d = self.geometry.side, self.d
        if self.kind == KIND_CROSS:
            return 5, side
        if self.kind == KIND_FOUR_CORNERS:
            return 2 * d, side * d // 2
        if self.kind == KIND_SQUARE:
            return d, side // d
        return side, 0

    def _unwrapped_ids(self, rows: int) -> np.ndarray:
        """Flat ids of grid rows 0 .. rows - 1 (a multiple of P), before the row wrap."""
        side, d, (si, sj) = self.geometry.side, self.d, self.tile_shift
        period, step = self._period
        # One period in closed form: its rows r - si are not wrapped, its columns are.
        r, c = np.arange(period)[:, None] - si, (np.arange(side) - sj) % side
        if self.kind == KIND_CROSS:
            # Centers (i, j) with j = 2i % 5 + 5k are numbered row-major, i * L/5 + k.
            v = (c - 2 * r) % 5
            ids = (r + _CROSS_ROW[v]) * (side // 5) + (c + _CROSS_COL[v]) % side // 5
        elif self.kind == KIND_FOUR_CORNERS:
            # Group (bi, bj, a, b) of 2d x 2d block (bi, bj) holds rows 2d*bi + a + {0, d}
            # and cols 2d*bj + b + {0, d}; it is number ((bi * L/2d + bj) * d + a) * d + b.
            ids = r // (2 * d) * step + r % d * d + (c // (2 * d) * d * d + c % d)
        else:
            # Tile (bi, bj) holds rows d*bi .. d*bi + d - 1; it is number bi * L/d + bj.
            ids = r // d * step + c // d
        return (ids + step * np.arange(rows // period)[:, None, None]).reshape(-1)

    @cached_property
    def _block(self) -> _PeriodBlock:
        """Bands of P * k rows, about ``grid.GROUP_BLOCK`` cells; one band when they cover the grid.

        A custom partition is one band, its stored map.  A band shorter than the
        grid spans at most count groups (it is at least P rows short), so its
        local ids name distinct groups.
        """
        side, count, custom = self.geometry.side, self.group_count, self.kind == KIND_CUSTOM
        scale = 2.0 / (self.group_sizes if custom else self.geometry.cell_count // count)
        period, step = self._period
        rows = period * max(1, grid.GROUP_BLOCK // (period * side))
        if rows >= side:
            ids = self.ids if custom else self._unwrapped_ids(side) % count
            return _PeriodBlock(side, ids, count, 0, 0, 0, 0, scale)
        ids = self._unwrapped_ids(rows)
        base = int(ids.min())
        ids -= base
        span, shift = int(ids.max()) + 1, rows // period * step
        # The last band's local id b is band 0's b - (count - last * shift).
        last = (side - 1) // rows
        carry, wrap = max(0, span - shift), max(0, span - count + last * shift)
        seeds = np.concatenate([np.arange(span - wrap, span), np.arange(carry), ids])
        return _PeriodBlock(rows, seeds, span, base, shift, carry, wrap, scale)

    def _group_rows(self, top: int, bottom: int) -> np.ndarray:
        """Group ids of grid rows top .. bottom - 1, a (bottom - top, L) array, from ``_block``."""
        block = self._block
        band, row = np.divmod(np.arange(top, bottom), block.rows)
        local = block.ids[block.wrap + block.carry:].reshape(block.rows, -1)
        return (local[row] + (block.base + block.shift * band)[:, None]) % self.group_count


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
    return Partition(geometry, KIND_SQUARE, d=d)


def shifted_square_partition(geometry: GridGeometry, d: int) -> Partition:
    """The square lattice with its origin moved by floor(d/2) in both axes, wrapping."""
    return Partition(geometry, KIND_SQUARE, d=d, tile_shift=(d // 2, d // 2))


def cross_partition(geometry: GridGeometry) -> Partition:
    """Center-plus-cardinal-neighbors groups; requires 5 | side.

    Centers sit on the lattice (i + 2j) % 5 == 0, the spacing at which
    radius-1 Lee spheres tile the torus perfectly: successive centers are
    (2, 1) apart.  Groups are numbered in row-major order of their centers.
    """
    return Partition(geometry, KIND_CROSS)


def four_corners_partition(geometry: GridGeometry, d: int) -> Partition:
    """Corner quadruples {(a,b) + (x,y) : x,y in {0,d}}; requires 2d | side."""
    return Partition(geometry, KIND_FOUR_CORNERS, d=d)


def custom_partition(
    geometry: GridGeometry, groups: "list[list[tuple[int, int]]] | tuple"
) -> Partition:
    """Hand-built groups, numbered in order; integer cells wrap onto the grid and cover it once."""
    _integer_cells((c for group in groups for c in group), "partition cells")
    cells = np.array([cell_index(geometry, c) for group in groups for c in group], dtype=np.intp)
    sizes = [len(group) for group in groups]
    covered = np.bincount(cells, minlength=geometry.cell_count)
    _raise_faults({"duplicated cells": np.count_nonzero(covered > 1),
                   "missing cells": np.count_nonzero(covered == 0),
                   "empty groups": sizes.count(0)})
    ids = np.empty(geometry.cell_count, dtype=np.intp)
    ids[cells] = np.repeat(np.arange(len(groups)), sizes)
    return Partition(geometry, ids=ids)


def translate_partition(partition: Partition, offset: tuple[int, int]) -> Partition:
    """Shift every cell by a fixed offset; a named tessellation moves its origin, kept modulo L."""
    _integer_cells((offset,), "partition offsets")
    di, dj = offset
    side = partition.geometry.side
    if partition.kind == KIND_CUSTOM:
        moved = np.roll(partition.ids.reshape(side, side), (di, dj), axis=(0, 1))
        return replace(partition, ids=moved.reshape(-1))
    si, sj = partition.tile_shift
    return replace(partition, tile_shift=((si + di) % side, (sj + dj) % side))
