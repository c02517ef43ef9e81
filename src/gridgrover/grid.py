"""Cyclic L x L grid geometry and the real-valued amplitude vector over it.

The search space is a torus: coordinate arithmetic wraps modulo the side
length in both axes.  Cells are laid out row-major, so cell (i, j) lives at
flat offset i*L + j.  All wrap-around happens at this boundary; code that
consumes flat indices never does modular arithmetic itself.

Amplitudes are kept real.  Every operator in this package is a real
reflection, so a real float64 vector is exact, halves memory, and doubles
throughput relative to a complex state.

A run holds one of two states: ``GridState``, the amplitude vector, or
``TileState``, a run over two d x d tile lattices held by one coefficient
per tile and one delta per marked cell, built from the marked set and the
two tile partitions.  Both answer the same reads: the norm, the marked
amplitudes and the (L, L) grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .tessellation import Partition

__all__ = [
    "NORM_ATOL",
    "Coord",
    "GridGeometry",
    "GridState",
    "MarkedSet",
    "NormDriftError",
    "TileState",
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
    operator applications; snapshots copy.  Construction copies the values
    and validates length, realness and normalization.
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

    def check_norm(self) -> float:
        """The drift |norm^2 - 1|; raises ``NormDriftError`` above ``NORM_ATOL``."""
        drift = abs(self.norm_squared - 1.0)
        # Written so that a NaN drift fails too.
        if not drift <= NORM_ATOL:
            raise NormDriftError(f"state norm drifted by {drift:.3e} (> {NORM_ATOL:.1e})")
        return drift

    def marked_amplitudes(self, marked: MarkedSet) -> np.ndarray:
        return self.amplitudes[marked.indices(self.geometry)]

    def as_grid(self) -> np.ndarray:
        """(L, L) view sharing the underlying buffer."""
        side = self.geometry.side
        return self.amplitudes.reshape(side, side)


class TileState:
    """The uniform state of a run over two d x d tile lattices, as tile coefficients.

    From the uniform start the oracle and the reflections about the tile
    partitions ``local`` (lattice A) and ``dispersion`` (B), of one side d on
    one grid, keep the amplitudes at
    a = sum_x c_x e_x + up_A(M) + up_B(N): one coefficient per tile of each
    lattice (up_A(M) puts M[t] on every cell of tile t) and one delta per
    marked cell, so a round costs O((L/d)^2 + K) instead of O(n).

    A's tile (p, q) covers rows o_r + p*d + [0, d) and columns o_c + q*d +
    [0, d), o = ``origins[0]``; B's is moved by the lattices' relative shift
    s in [0, d) per axis, so per axis A tile p meets B tiles p and p - 1 in
    d - s and s lines.  ``coefficients`` are two (m + 1)^2 arrays, m = L/d,
    in one stacked buffer: M in [:m, :m], N in [1:, 1:], the spare row and
    column repeating the opposite edge (the torus wrap), and lattice k is
    ``signs[k] * coefficients[k]``.  Each lattice's tiles lie in one flat
    window, the other's tiles of each overlap region in a slice at a fixed
    offset: every pass is contiguous and 1-D, and one more window-sized
    buffer serves the overlap product and the norm.  ``deltas`` holds c in
    sorted cell order, ``marked_tiles`` each marked cell's tile per lattice.
    """

    def __init__(self, marked: MarkedSet, local: "Partition", dispersion: "Partition"):
        geometry, d = local.geometry, local.tile_side
        if d is None or dispersion.tile_side != d or dispersion.geometry != geometry:
            raise ValueError("a tile state needs two tile lattices of one tile side and grid")
        side, m = geometry.side, geometry.side // d
        origin = [s % d for s in local.tile_shift]
        shift = [(s - o) % d for s, o in zip(dispersion.tile_shift, origin)]
        self.geometry, self.marked, self.tile_side = geometry, marked, d
        self.origins = (tuple(origin), tuple(o + s for o, s in zip(origin, shift)))
        # (d, origin mod d) -> lattice; identical lattices reflect about A, written last.
        self._lattices = {(d, tuple(o % d for o in self.origins[k])): k for k in (1, 0)}
        stack = np.stack([np.full((m + 1, m + 1), 1.0 / side), np.zeros((m + 1, m + 1))])
        self.coefficients, self.signs = tuple(stack), np.ones(2)
        self._flat, (a, b), size = stack.reshape(-1), stack.reshape(2, -1), m * (m + 1) - 1
        self._buffer = np.empty((m + 1) ** 2 - 1)
        head, tail = self._buffer[m + 1:], self._buffer[:size]
        # A tile (p, q) meets B tile (p - er, q - ec) in rows[er] * cols[ec] cells, so with
        # T = X[ec = 0] + (c1/c0) X[ec = 1], W X = r0 c0 (T[er = 0] + (r1/r0) T[er = 1]).
        rows, cols = ((d - s, s) for s in shift)
        self._scale = 2.0 / (d * d)
        self._taps = (self._scale * rows[0] * cols[0], cols[1] / cols[0], rows[1] / rows[0])
        # Per lattice: its window; the other's ec = 0 and ec = 1 taps; T at er = 0 and er = 1.
        self._passes = ((a[:size], b[1:], b[:-1], head, tail),
                        (b[m + 2:], a[:-1], a[1:], tail, head))
        # The norm's overlap regions, aligned with A's window, and its spare column there.
        self._regions = [(rows[er] * cols[ec], b[o:o + size]) for er in (0, 1) for ec in (0, 1)
                         if rows[er] * cols[ec] for o in [(1 - er) * (m + 1) + 1 - ec]]
        self._region, self._spare = tail, tail[m::m + 1]
        self.deltas = np.zeros(len(marked.cells))
        cell_rows, cell_cols = np.divmod(marked.indices(geometry), side)
        self.marked_tiles = np.stack([((k * (m + 1) + (cell_rows - o_r) % side // d + k) * (m + 1)
                                       + (cell_cols - o_c) % side // d + k)
                                      for k, (o_r, o_c) in enumerate(self.origins)])
        self.check_norm()

    def _reflect(self, partition: "Partition") -> None:
        """2P - I about one of the two lattices (the ``operators`` docstring has the update)."""
        d, (si, sj) = self.tile_side, partition.tile_shift
        k = self._lattices.get((partition.tile_side, (si % d, sj % d)))
        if k is None:
            raise ValueError("partition is neither tile lattice of the tile state")
        (window, tap0, tap1, at0, at1), (kappa, col_ratio, row_ratio) = self._passes[k], self._taps
        np.multiply(tap1, col_ratio, out=self._buffer)
        self._buffer += tap0
        self._buffer *= kappa * self.signs[0] * self.signs[1]
        window += at0
        at1 *= row_ratio
        window += at1
        np.add.at(self._flat, self.marked_tiles[k], (self._scale * self.signs[k]) * self.deltas)
        own, pad, edge = self.coefficients[k], k - 1, -k  # A's spares copy line 0, B's line m
        own[pad], own[:, pad] = own[edge], own[:, edge]
        self.signs[1 - k] *= -1.0
        np.negative(self.deltas, out=self.deltas)

    @property
    def norm_squared(self) -> float:
        # Each overlap region is constant at M + N; the marked cells add c on top.
        combine = np.add if self.signs[0] == self.signs[1] else np.subtract
        region, spare, total = self._region, self._spare, 0.0
        for cells, other in self._regions:
            combine(self._passes[0][0], other, out=region)
            total += cells * (float(region @ region) - float(spare @ spare))
        marked = self.marked_amplitudes(self.marked)
        tile = marked - self.deltas
        return total + float(marked @ marked - tile @ tile)

    check_norm = GridState.check_norm

    def marked_amplitudes(self, marked: MarkedSet) -> np.ndarray:
        if marked != self.marked:
            raise ValueError("a tile state holds only the marked set it was built with")
        return self.signs @ self._flat.take(self.marked_tiles) + self.deltas

    def as_grid(self) -> np.ndarray:
        """(L, L) amplitudes, materialized afresh."""
        side, d = self.geometry.side, self.tile_side
        lines = np.arange(side)
        (ar, ac), (br, bc) = (((lines - o) % side // d for o in origin) for origin in self.origins)
        grid = (self.signs[0] * self.coefficients[0]).take(ar, 0).take(ac, 1)
        grid += (self.signs[1] * self.coefficients[1]).take(br + 1, 0).take(bc + 1, 1)
        grid.reshape(-1)[self.marked.indices(self.geometry)] += self.deltas
        return grid

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only flat copy of ``as_grid()``."""
        values = self.as_grid().reshape(-1)
        values.flags.writeable = False
        return values


def uniform_state(geometry: GridGeometry) -> GridState:
    """The equal superposition 1/sqrt(n), copied once by the state from a broadcast view."""
    n = geometry.cell_count
    return GridState(geometry, np.broadcast_to(1.0 / np.sqrt(n), n))


def marked_probability(state: "GridState | TileState", marked: MarkedSet) -> float:
    """Born-rule probability of measuring any marked cell."""
    picked = state.marked_amplitudes(marked)
    return float(picked @ picked)
