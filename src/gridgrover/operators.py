"""Reflections applied to the grid state: the oracle and the group diffusion.

Both are real involutions, applied in place:

* oracle           -- negate the amplitude of every marked cell.
* group diffusion  -- within each partition group with mean m, map a -> 2m - a
  (reflect about the group's uniform superposition).

There is no separate global diffusion: the complete-graph inversion about
the mean is the diffusion of the one-tile tessellation,
``DiffusionSpec(square_partition(geometry, geometry.side))``.  The
operators do not check the norm; the round loop in ``simulator`` does, once
per round.

``materialize_dense`` builds the n x n matrix of any operator directly from
its defining formula, independent of the sweep kernels, so tests can compare
the two routes.  The sweep is the production path: O(n) per application and
never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridGeometry, GridState, MarkedSet
from .tessellation import InvalidPartitionError, Partition, validate_partition

__all__ = [
    "DENSE_CELL_CAP",
    "DiffusionSpec",
    "OracleSpec",
    "apply_oracle",
    "apply_partition_diffusion",
    "materialize_dense",
]

# Dense materialization is a test oracle; cap the memory it may claim.
DENSE_CELL_CAP = 4096


@dataclass(frozen=True)
class OracleSpec:
    """Sign flip on a set of marked cells."""

    marked: MarkedSet


@dataclass(frozen=True)
class DiffusionSpec:
    """Reflection about the group superpositions of a validated partition."""

    partition: Partition

    def __post_init__(self) -> None:
        report = validate_partition(self.partition)
        if not report.ok:
            raise InvalidPartitionError(report.summary())
        if self.partition.tile_side is not None:
            _require_tiles(self.partition)


def _require_tiles(partition: Partition) -> None:
    """The tile fast path is exact only if every group is one tile of the lattice."""
    d, (si, sj) = partition.tile_side, partition.tile_shift
    side = partition.geometry.side
    if d >= 1 and side % d == 0 and np.all(np.diff(partition.offsets) == d * d):
        lines = np.arange(side)
        tile_of = ((lines - si) % side // d)[:, None] * side + (lines - sj) % side // d
        tiles = tile_of.reshape(-1)[partition.cells].reshape(-1, d * d)
        if np.all(tiles == tiles[:, :1]):
            return
    raise InvalidPartitionError(f"groups are not the {d} x {d} tiles shifted by {(si, sj)}")


def apply_oracle(state: GridState, spec: OracleSpec) -> GridState:
    """Negate marked amplitudes in place; everything else is untouched."""
    idx = spec.marked.indices(state.geometry)
    state.amplitudes[idx] *= -1.0
    return state


def apply_partition_diffusion(state: GridState, spec: DiffusionSpec) -> GridState:
    """Reflect each group about its mean: a -> 2*mean(group) - a, in place."""
    partition = spec.partition
    if partition.geometry != state.geometry:
        raise ValueError(
            f"partition is for side {partition.geometry.side}, "
            f"state has side {state.geometry.side}"
        )
    if partition.tile_side is not None:
        _tile_sweep(state, partition.tile_side, partition.tile_shift)
    else:
        _group_sweep(state.amplitudes, partition)
    return state


def _roll_into(out: np.ndarray, grid: np.ndarray, si: int, sj: int) -> np.ndarray:
    """``out[:] = np.roll(grid, (si, sj), axis=(0, 1))`` by four block copies, for 0 <= si, sj < L."""
    side = grid.shape[0]
    ri, rj = side - si, side - sj
    out[si:, sj:] = grid[:ri, :rj]
    out[si:, :sj] = grid[:ri, rj:]
    out[:si, sj:] = grid[ri:, :rj]
    out[:si, :sj] = grid[ri:, rj:]
    return out


def _tile_sweep(state: GridState, d: int, shift: tuple[int, int]) -> None:
    grid = state.as_grid()
    side = grid.shape[0]
    si, sj = shift[0] % side, shift[1] % side
    # Rolling by -shift brings the tile lattice into alignment with axis 0.
    rolled = _roll_into(state.work_buffer, grid, -si % side, -sj % side) if si or sj else grid
    tiles = rolled.reshape(side // d, d, side // d, d)
    means = tiles.mean(axis=(1, 3), keepdims=True)
    tiles *= -1.0
    tiles += 2.0 * means
    if rolled is not grid:
        _roll_into(grid, rolled, si, sj)


def _group_sweep(amplitudes: np.ndarray, partition: Partition) -> None:
    ids = partition.group_ids
    sums = np.bincount(ids, weights=amplitudes, minlength=partition.group_count)
    doubled_means = sums * (2.0 / partition.group_sizes)
    np.subtract(doubled_means[ids], amplitudes, out=amplitudes)


def materialize_dense(
    op: "OracleSpec | DiffusionSpec",
    geometry: GridGeometry,
    max_cells: int = DENSE_CELL_CAP,
) -> np.ndarray:
    """n x n matrix of the operator, built from its formula.

    Column x equals the operator applied to basis state x.  Refuses grids
    above ``max_cells`` cells.
    """
    n = geometry.cell_count
    if n > max_cells:
        raise ValueError(f"dense materialization capped at {max_cells} cells, grid has {n}")
    if isinstance(op, OracleSpec):
        matrix = np.eye(n)
        idx = op.marked.indices(geometry)
        matrix[idx, idx] = -1.0
        return matrix
    if isinstance(op, DiffusionSpec):
        if op.partition.geometry != geometry:
            raise ValueError("partition geometry does not match the requested geometry")
        matrix = -np.eye(n)
        for flat in np.split(op.partition.cells, op.partition.offsets[1:-1]):
            matrix[np.ix_(flat, flat)] += 2.0 / flat.size
        return matrix
    raise TypeError(f"cannot materialize {type(op).__name__}")
