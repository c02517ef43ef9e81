"""Cyclic L x L grid geometry and the real-valued amplitude vector over it.

The search space is a torus: coordinate arithmetic wraps modulo the side
length in both axes.  Cells are laid out row-major, so cell (i, j) lives at
flat offset i*L + j.  All wrap-around happens at this boundary; code that
consumes flat indices never does modular arithmetic itself.

Amplitudes are kept real.  Every operator in this package is a real
reflection, so a real float64 vector is exact, halves memory, and doubles
throughput relative to a complex state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "NORM_ATOL",
    "Coord",
    "GridGeometry",
    "GridState",
    "MarkedSet",
    "NormDriftError",
    "basis_state",
    "cell_index",
    "coord_of_index",
    "marked_probability",
    "normalize_coord",
    "uniform_state",
]

# Tolerance on |sum(a^2) - 1|, checked on construction and once per simulated round.
NORM_ATOL = 1e-9


class NormDriftError(RuntimeError):
    """Raised when the squared norm of a state drifts beyond ``NORM_ATOL``."""


class Coord(NamedTuple):
    """A grid cell address.  Components may be raw; the geometry wraps them."""

    row: int
    col: int


@dataclass(frozen=True)
class GridGeometry:
    """Side length of the cyclic grid; ``cell_count`` is ``side ** 2``."""

    side: int

    def __post_init__(self) -> None:
        if self.side < 2:
            raise ValueError(f"grid side must be at least 2, got {self.side}")

    @property
    def cell_count(self) -> int:
        return self.side * self.side


def normalize_coord(geometry: GridGeometry, cell: tuple[int, int]) -> Coord:
    """Reduce both components modulo the side length."""
    i, j = cell
    return Coord(i % geometry.side, j % geometry.side)


def cell_index(geometry: GridGeometry, cell: tuple[int, int]) -> int:
    """Row-major flat offset of a (possibly unwrapped) cell."""
    i, j = cell
    side = geometry.side
    return (i % side) * side + (j % side)


def coord_of_index(geometry: GridGeometry, index: int) -> Coord:
    """Inverse of :func:`cell_index` on ``[0, cell_count)``."""
    if not 0 <= index < geometry.cell_count:
        raise ValueError(f"flat index {index} outside grid of {geometry.cell_count} cells")
    return Coord(index // geometry.side, index % geometry.side)


@dataclass(frozen=True)
class MarkedSet:
    """The cells the search is looking for.  Nonempty, duplicates rejected."""

    cells: frozenset[Coord]
    # geometry -> read-only flat offsets, filled by ``indices``.
    _indices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("marked set must contain at least one cell")

    @classmethod
    def of(cls, *cells: tuple[int, int]) -> "MarkedSet":
        return cls(frozenset(Coord(i, j) for i, j in cells))

    def normalized(self, geometry: GridGeometry) -> tuple[Coord, ...]:
        """Wrapped cells in sorted order; rejects cells that collide after wrapping."""
        wrapped = [normalize_coord(geometry, c) for c in self.cells]
        if len(set(wrapped)) != len(wrapped):
            raise ValueError("marked cells coincide after wrapping onto the grid")
        return tuple(sorted(wrapped))

    def indices(self, geometry: GridGeometry) -> np.ndarray:
        """Flat offsets of the marked cells, sorted; built once per geometry, read-only."""
        idx = self._indices.get(geometry)
        if idx is None:
            idx = np.array(
                [cell_index(geometry, c) for c in self.normalized(geometry)], dtype=np.intp
            )
            idx.flags.writeable = False
            self._indices[geometry] = idx
        return idx


@dataclass
class GridState:
    """Real amplitude per cell, unit Euclidean norm.

    The amplitude vector is owned by the state and mutated in place by
    operator applications; snapshots copy.  Construction validates length,
    realness and normalization.
    """

    geometry: GridGeometry
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.amplitudes):
            raise TypeError("amplitudes must be real; every implemented operator is real")
        values = np.array(self.amplitudes, dtype=np.float64, copy=True).reshape(-1)
        if values.size != self.geometry.cell_count:
            raise ValueError(
                f"expected {self.geometry.cell_count} amplitudes, got {values.size}"
            )
        self.amplitudes = values
        self.check_norm()

    @property
    def norm_squared(self) -> float:
        return float(self.amplitudes @ self.amplitudes)

    def check_norm(self, atol: float = NORM_ATOL) -> None:
        drift = abs(self.norm_squared - 1.0)
        # Written so that a NaN drift fails too.
        if not drift <= atol:
            raise NormDriftError(f"state norm drifted by {drift:.3e} (> {atol:.1e})")

    def as_grid(self) -> np.ndarray:
        """(L, L) view sharing the underlying buffer."""
        side = self.geometry.side
        return self.amplitudes.reshape(side, side)

    def copy(self) -> "GridState":
        return GridState(self.geometry, self.amplitudes)

    def amplitude(self, cell: tuple[int, int]) -> float:
        return float(self.amplitudes[cell_index(self.geometry, cell)])


def uniform_state(geometry: GridGeometry) -> GridState:
    """The equal superposition 1/sqrt(n), copied once by the state from a broadcast view."""
    n = geometry.cell_count
    return GridState(geometry, np.broadcast_to(1.0 / np.sqrt(n), n))


def basis_state(geometry: GridGeometry, cell: tuple[int, int]) -> GridState:
    """All amplitude concentrated on one cell."""
    values = np.zeros(geometry.cell_count)
    values[cell_index(geometry, cell)] = 1.0
    return GridState(geometry, values)


def marked_probability(state: GridState, marked: MarkedSet) -> float:
    """Born-rule probability of measuring any marked cell."""
    picked = state.amplitudes[marked.indices(state.geometry)]
    return float(picked @ picked)
