"""Reflections applied to the grid state: the oracle and the group diffusion.

Both are real involutions, applied in place:

* oracle           -- negate the amplitude of every cell of a ``MarkedSet``.
* group diffusion  -- within each partition group with mean m, map a -> 2m - a
  (reflect about the group's uniform superposition).

There is no separate global diffusion: the complete-graph inversion about
the mean is the reflection about the one-tile tessellation
``square_partition(geometry, geometry.side)``, which the Grover reference
in ``simulator`` runs on a one-tile ``TileState``.  The operators do not
check the norm; the round loop in ``simulator`` does, once per round.

A run over two d x d tile lattices holds a ``grid.TileState``, built from
the marked set and the two tile partitions, and both operators update its
tile coefficients through ``TileState._oracle`` and ``TileState._reflect``,
never the n amplitudes; the ``TileState`` docstring gives the updates.

Every other run holds a ``GridState``, the amplitude vector.  Crosses, four
corners and custom groups reflect it through one ``bincount`` of the
amplitudes by their cell -> group map, built at the first diffusion, and one
gather of the doubled means.  d x d tiles, aligned or shifted, share one
kernel that never rolls the grid (m = L/d): it sums the d rows of each tile
row into an (m, L) array, sums each tile's d columns there with strided adds,
spreads the doubled means back over that array and writes ``2 * mean - a`` in
place with broadcast subtracts; the tile row and column that wrap around the
torus are two edge strips each.  That is about 1.5 memcpy of traffic (3-4
measured at L = 1024 on a 2-vCPU Xeon virtual machine), and it stays the
large-n reference that tests hold the coefficient path to.  The dense n x n
matrices that tests compare both routes with live in ``tests/dense.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridState, MarkedSet, TileState
from .tessellation import Partition

__all__ = ["DiffusionSpec", "apply_oracle", "apply_partition_diffusion"]


@dataclass(frozen=True)
class DiffusionSpec:
    """Reflection about the group superpositions of a partition."""

    partition: Partition


def apply_oracle(state: "GridState | TileState", marked: MarkedSet) -> "GridState | TileState":
    """Negate the amplitudes of the marked cells in place; everything else is untouched."""
    if isinstance(state, TileState):
        state._oracle(marked)
    else:
        state.amplitudes[marked.indices(state.geometry)] *= -1.0
    return state


def apply_partition_diffusion(
    state: "GridState | TileState", spec: DiffusionSpec
) -> "GridState | TileState":
    """Reflect each group about its mean: a -> 2*mean(group) - a, in place."""
    partition = spec.partition
    if partition.geometry != state.geometry:
        raise ValueError(
            f"partition is for side {partition.geometry.side}, "
            f"state has side {state.geometry.side}"
        )
    if isinstance(state, TileState):
        state._reflect(partition)
    elif partition.tile_side is not None:
        _tile_sweep(state.as_grid(), partition.tile_side, partition.tile_shift)
    else:
        _group_sweep(state.amplitudes, partition)
    return state


def _tile_sweep(grid: np.ndarray, d: int, shift: tuple[int, int]) -> None:
    """a -> 2 * mean(tile) - a over the d x d tiles shifted by ``shift``, in place.

    The lattice depends only on the shift modulo d.  Rows and columns
    ``s .. s+k-1`` (k = (m-1)*d) hold the m-1 tiles of each axis that do not
    wrap; the last tile is the strip from s+k to the edge plus the strip
    before s, which for the aligned lattice (s = 0) is just the last tile.
    """
    side = grid.shape[0]
    si, sj = shift[0] % d, shift[1] % d
    m = side // d
    k = (m - 1) * d
    # Pass 1 over the grid: the d rows of each tile row summed into (m, L).
    rows = np.empty((m, side))
    grid[si:si + k].reshape(m - 1, d, side).sum(axis=1, out=rows[:-1])
    np.add(grid[si + k:].sum(axis=0), grid[:si].sum(axis=0), out=rows[-1])
    # Tile sums from d strided column adds, the wrapped tile last; then doubled means.
    sums = np.empty((m, m))
    sums[:, :-1] = rows[:, sj:sj + k:d]
    for r in range(1, d):
        sums[:, :-1] += rows[:, sj + r:sj + k:d]
    np.add(rows[:, sj + k:].sum(axis=1), rows[:, :sj].sum(axis=1), out=sums[:, -1])
    sums *= 2.0 / (d * d)
    # Spread each doubled mean over its tile's d columns, reusing the row sums;
    # the reshape splits only the contiguous axis, so it writes through to rows.
    rows[:, sj:sj + k].reshape(m, m - 1, d)[...] = sums[:, :-1, None]
    rows[:, sj + k:] = sums[:, -1:]
    rows[:, :sj] = sums[:, -1:]
    # Pass 2 over the grid: a -> 2 * mean - a.
    body = grid[si:si + k].reshape(m - 1, d, side)
    np.subtract(rows[:-1, None], body, out=body)
    for strip in (grid[si + k:], grid[:si]):
        np.subtract(rows[-1], strip, out=strip)


def _group_sweep(amplitudes: np.ndarray, partition: Partition) -> None:
    # Every Partition is an exact cover by nonempty groups, so no mean divides by zero.
    ids = partition.group_ids
    doubled_means = np.bincount(ids, weights=amplitudes) * (2.0 / partition.group_sizes)
    np.subtract(doubled_means[ids], amplitudes, out=amplitudes)
