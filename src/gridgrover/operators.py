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

Each state applies both reflections to itself, through its ``_oracle`` and
``_reflect``: a ``grid.TileState`` updates its tile coefficients, a
``grid.GridState`` its n amplitudes (the two docstrings give the kernels).
The dense n x n matrices that tests compare both routes with live in
``tests/dense.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import GridState, MarkedSet, TileState
from .tessellation import Partition

__all__ = ["DiffusionSpec", "apply_oracle", "apply_partition_diffusion"]


@dataclass(frozen=True)
class DiffusionSpec:
    """Reflection about the group superpositions of a partition."""

    partition: Partition


def apply_oracle(state: "GridState | TileState", marked: MarkedSet) -> "GridState | TileState":
    """Negate the amplitudes of the marked cells in place; everything else is untouched."""
    state._oracle(marked)
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
    state._reflect(partition)
    return state
