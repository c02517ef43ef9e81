"""Cyclic L x L grid geometry and the real-valued amplitude vector over it.

The search space is a torus: coordinate arithmetic wraps modulo the side
length in both axes.  Cells are laid out row-major, so cell (i, j) lives at
flat offset i*L + j.  All wrap-around happens at this boundary; code that
consumes flat indices never does modular arithmetic itself.

Amplitudes are kept real.  Every operator in this package is a real
reflection, so a real float64 vector is exact, halves memory, and doubles
throughput relative to a complex state.

A run holds one of two states: ``GridState``, the amplitude vector, or
``TileState``, one coefficient per tile of two d x d tile lattices and one
delta per marked cell (the Grover reference's two lattices are the one
tile, d = L).  Both answer the same reads: the norm, the marked
amplitudes and the (L, L) grid; each applies the oracle and reflections to
itself (``_oracle``, ``_reflect``).  ``_uniform_start`` picks a run's state.
"""

from __future__ import annotations

import math
import operator
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

# A tile lattice's window of up to TILE_ONE_BLOCK numbers is one block; a larger one runs its
# reflection and norm in row blocks of about TILE_BLOCK numbers, so each scratch row is read back
# from L2 right after it is written.  Set by interleaved round timings at d = 4 (Xeon VM, 2 MiB
# of L2 per core): at L = 1024 one block beat 2^15- and 2^16-number blocks by about 5%; at
# L = 2048 ... 8192 those two tied and 2^13-number blocks were over 20% slower.
TILE_ONE_BLOCK = 2**17
TILE_BLOCK = 2**15


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


def _side_of(n: int) -> int:
    """The side L of an n = L^2 grid; ValueError unless n is the square of some L >= 2."""
    root = math.isqrt(max(n, 0))
    if root * root != n or root < 2:
        raise ValueError(f"{n} is not a perfect square of a side >= 2")
    return root


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
        # A float coordinate would index the wrong cell.  operator.index passes ints and numpy
        # ints at a ninth of the cost of an isinstance on numbers.Integral.
        try:
            for cell in self.cells:
                for v in cell:
                    operator.index(v)
        except TypeError:
            raise ValueError(f"marked cells need integer coordinates, got {tuple(cell)}") from None

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
    """Real amplitude per cell, unit Euclidean norm: the state of every run but tile pairs.

    The amplitude vector is owned by the state and mutated in place by
    operator applications.  Construction copies the values and validates
    length, realness and normalization.

    ``_reflect`` about crosses, four corners or custom groups is one
    ``bincount`` of the amplitudes by the cell -> group map and one gather
    of the doubled means.  d x d tiles, aligned or shifted, share a kernel
    that never rolls the grid: about 1.5 memcpy of traffic, and the
    large-n reference that tests hold ``TileState`` to.
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
        """(L, L) amplitudes, a fresh copy."""
        side = self.geometry.side
        return self.amplitudes.reshape(side, side).copy()

    def _oracle(self, marked: MarkedSet) -> None:
        self.amplitudes[marked.indices(self.geometry)] *= -1.0

    def _reflect(self, partition: "Partition") -> None:
        """a -> 2 * mean(group) - a in place.  For d x d tiles shifted by s (m = L/d,
        k = (m-1)*d), lines s .. s+k-1 of each axis hold the m-1 tiles that do not wrap;
        the last tile is the strip from s+k to the edge plus the strip before s.
        """
        d, amplitudes = partition.tile_side, self.amplitudes
        if d is None:
            # Every Partition is an exact cover by nonempty groups, so no mean divides by zero.
            ids = partition.group_ids
            doubled_means = np.bincount(ids, weights=amplitudes) * (2.0 / partition.group_sizes)
            np.subtract(doubled_means[ids], amplitudes, out=amplitudes)
            return
        side = self.geometry.side
        grid, m = amplitudes.reshape(side, side), side // d
        si, sj = partition.tile_shift[0] % d, partition.tile_shift[1] % d
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
    in one stacked array: M in [:m, :m], N in [1:, 1:], the spare row and
    column repeating the opposite edge (the torus wrap), and lattice k is
    ``signs[k] * coefficients[k]``.  Each lattice's tiles lie in one flat
    window, the other's tiles of each overlap region in a slice at a fixed
    offset: every pass is contiguous and 1-D, and one block-sized scratch
    serves the overlap product and the norm.  ``deltas`` holds c in
    sorted cell order, ``marked_tiles`` each marked cell's tile per lattice.

    The oracle, a -> -a at each marked cell x, sets
    c <- -c - 2 (M[A(x)] + N[B(x)]), O(K).  The reflection about A sets
    M <- M + (2/d^2) (W N + scatter_A(c)), N <- -N and c <- -c, where
    (W N)[t] sums the B tiles meeting A tile t weighted by the cells they
    share: a two-tap sum along the columns into the scratch, then along the
    rows into M.  N <- -N flips N's sign; the reflection about B is the
    mirror image.  With s = d/2 on both axes both tap ratios are 1 and go
    unmultiplied, so a reflection makes four passes over the window (six
    for other shifts).  A window of more than ``TILE_ONE_BLOCK`` numbers
    runs these passes, and the norm's, in row blocks of about
    ``TILE_BLOCK`` numbers, so the scratch is read back from L2.
    """

    def __init__(self, marked: MarkedSet, local: "Partition", dispersion: "Partition"):
        if not _is_tile_pair(local, dispersion):
            raise ValueError("a tile state needs two tile lattices of one tile side and grid")
        geometry, d = local.geometry, local.tile_side
        side, m = geometry.side, geometry.side // d
        origin = [s % d for s in local.tile_shift]
        shift = [(s - o) % d for s, o in zip(dispersion.tile_shift, origin)]
        self.geometry, self.marked, self.tile_side = geometry, marked, d
        self.origins = (tuple(origin), tuple(o + s for o, s in zip(origin, shift)))
        # (d, origin mod d) -> lattice; identical lattices reflect about A, written last.
        self._lattices = {(d, tuple(o % d for o in self.origins[k])): k for k in (1, 0)}
        stack = np.zeros((2, m + 1, m + 1))
        stack[0] = 1.0 / side
        self.coefficients, self.signs = tuple(stack), np.ones(2)
        width = m + 1
        self._flat, (a, b), size = stack.reshape(-1), stack.reshape(2, -1), m * width - 1
        # A tile (p, q) meets B tile (p - er, q - ec) in rows[er] * cols[ec] cells, so with
        # T = X[ec = 0] + (c1/c0) X[ec = 1], W X = r0 c0 (T[er = 0] + (r1/r0) T[er = 1]).
        rows, cols = ((d - s, s) for s in shift)
        self._scale = 2.0 / (d * d)
        self._taps = (self._scale * rows[0] * cols[0], cols[1] / cols[0], rows[1] / rows[0])
        # Window blocks of whole rows.  Block [lo, hi) fills scratch[:hi - lo + width] from the
        # taps over [lo, hi + width), both its T rows width apart, so blocks run in any order.
        block_rows = m if size <= TILE_ONE_BLOCK else max(1, TILE_BLOCK // width)
        cuts = [*range(0, size, block_rows * width), size]
        blocks = list(zip(cuts, cuts[1:]))
        # 64-byte aligned: at 16-byte offsets an L = 1024 round ran 10-30% slower (Xeon VM).
        raw = np.empty((block_rows + 1) * width + 7)
        scratch = raw[-raw.ctypes.data % 64 // 8:][:(block_rows + 1) * width]
        # Per lattice: its window; the other's ec = 0 and ec = 1 taps; T[er = 0], T[er = 1] offsets.
        lattices = ((a[:size], b[1:], b[:-1], width, 0), (b[m + 2:], a[:-1], a[1:], 0, width))
        self._passes = tuple(
            [(window[lo:hi], tap0[lo:hi + width], tap1[lo:hi + width], scratch[:hi - lo + width],
              scratch[t0:t0 + hi - lo], scratch[t1:t1 + hi - lo]) for lo, hi in blocks]
            for window, tap0, tap1, t0, t1 in lattices)
        # The norm's overlap regions, aligned with A's window, block by block.  Every block sums
        # into the scratch, which stays in L2, and drops its spare column there.
        regions = [(rows[er] * cols[ec], b[o:o + size]) for er in (0, 1) for ec in (0, 1)
                   if rows[er] * cols[ec] for o in [(1 - er) * width + 1 - ec]]
        self._norm_passes = [(cells, a[lo:hi], other[lo:hi], region, region[m::width])
                             for lo, hi in blocks for region in [scratch[:hi - lo]]
                             for cells, other in regions]
        self.deltas = np.zeros(len(marked.cells))
        cell_rows, cell_cols = np.divmod(marked.indices(geometry), side)
        self.marked_tiles = np.stack([((k * (m + 1) + (cell_rows - o_r) % side // d + k) * (m + 1)
                                       + (cell_cols - o_c) % side // d + k)
                                      for k, (o_r, o_c) in enumerate(self.origins)])
        self.check_norm()

    def _reflect(self, partition: "Partition") -> None:
        """2P - I about one of the two lattices (the class docstring has the update)."""
        d, (si, sj) = self.tile_side, partition.tile_shift
        k = self._lattices.get((partition.tile_side, (si % d, sj % d)))
        if k is None:
            raise ValueError("partition is neither tile lattice of the tile state")
        kappa, col_ratio, row_ratio = self._taps
        weight = kappa * self.signs[0] * self.signs[1]
        # A ratio of 1 (shift d/2) is not multiplied: x * 1.0 is exact, so the sums are the same.
        for window, tap0, tap1, scratch, at0, at1 in self._passes[k]:
            if col_ratio == 1.0:
                np.add(tap0, tap1, out=scratch)
            else:
                np.multiply(tap1, col_ratio, out=scratch)
                scratch += tap0
            scratch *= weight
            window += at0
            if row_ratio != 1.0:
                at1 *= row_ratio
            window += at1
        np.add.at(self._flat, self.marked_tiles[k], (self._scale * self.signs[k]) * self.deltas)
        own, pad, edge = self.coefficients[k], k - 1, -k  # A's spares copy line 0, B's line m
        own[pad], own[:, pad] = own[edge], own[:, edge]
        self.signs[1 - k] *= -1.0
        np.negative(self.deltas, out=self.deltas)

    def _oracle(self, marked: MarkedSet) -> None:
        """a -> -a at each marked cell: c <- c - 2 a there."""
        self.deltas -= 2.0 * self.marked_amplitudes(marked)

    @property
    def norm_squared(self) -> float:
        # Each overlap region is constant at M + N; the marked cells add c on top.
        combine = np.add if self.signs[0] == self.signs[1] else np.subtract
        total = 0.0
        for cells, window, other, region, spare in self._norm_passes:
            combine(window, other, out=region)
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


def _is_tile_pair(local: "Partition", dispersion: "Partition") -> bool:
    """Whether two partitions are tile lattices of one tile side on one grid."""
    d = local.tile_side
    return d is not None and dispersion.tile_side == d and dispersion.geometry == local.geometry


def _uniform_start(marked: MarkedSet, local: "Partition", dispersion: "Partition"):
    """The uniform start of a run: a ``TileState`` for a tile pair, else a ``GridState``."""
    if _is_tile_pair(local, dispersion):
        return TileState(marked, local, dispersion)
    return uniform_state(local.geometry)


def marked_probability(state: "GridState | TileState", marked: MarkedSet) -> float:
    """Born-rule probability of measuring any marked cell."""
    picked = state.marked_amplitudes(marked)
    return float(picked @ picked)
