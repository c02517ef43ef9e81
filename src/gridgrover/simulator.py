"""The round loop: schedule the operator round, record traces, count costs.

One iteration is one complete round of the schedule.  The two-diffusion
search round is a four-step product read in either direction: ``ltr`` runs
``oracle, local_diffusion, oracle, dispersion`` and ``rtl`` the reverse.
Calibrating both readings against the reference result series (see
``experiments``) picks ``ltr`` as the default: its first-crest amplitudes
match the reference series to all four printed decimals at every table
size, with the reference's iteration column equal to exactly two
oracle-diffusion pairs per round.  Both toggles remain available.

``run`` and the complete-graph ``run_grover_reference`` differ only in the
(apply, operand) steps of their round; one loop runs both from the uniform
state, checks the norm once per round (keeping the largest drift), and
records probabilities, snapshots and costs.  ``run`` holds the state that
``grid`` picks: a ``TileState``, O((L/d)^2) a round, for two tile lattices
of one side, as in every table run, else a ``GridState``.  The Grover
reference holds the one-tile (d = L) ``TileState``: O(K) a round.

Cost accounting is nominal walk steps: 2*sqrt(n) once for building the
initial superposition, then per round one step per oracle call plus each
diffusion's step cost (the tile side for squares, 1 for crosses).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import analysis
from .grid import (
    Coord,
    GridGeometry,
    GridState,
    MarkedSet,
    TileState,
    _side_of,
    _uniform_start,
    coord_of_index,
    marked_probability,
    normalize_coord,
)
from .operators import DiffusionSpec, apply_oracle, apply_partition_diffusion
from .tessellation import Partition, shifted_square_partition, square_partition

__all__ = [
    "DEFAULT_ORDER",
    "DEFAULT_TILE_SIDE",
    "STEP_DISPERSION",
    "STEP_LOCAL",
    "STEP_ORACLE",
    "CostCounters",
    "RunConfig",
    "SimulationTrace",
    "default_horizon",
    "default_marked_cell",
    "run",
    "run_grover_reference",
    "snapshot",
]

STEP_ORACLE = "oracle"
STEP_LOCAL = "local_diffusion"
STEP_DISPERSION = "dispersion"
# The two readings of the four-operator round, named in the order the table runs them.
_ORDERS = {
    "rtl": (STEP_DISPERSION, STEP_ORACLE, STEP_LOCAL, STEP_ORACLE),
    "ltr": (STEP_ORACLE, STEP_LOCAL, STEP_ORACLE, STEP_DISPERSION),
}

DEFAULT_TILE_SIDE = 4
# Fixed by calibration against the reference peak series; see experiments.py.
DEFAULT_ORDER = "ltr"


def default_marked_cell(geometry: GridGeometry) -> Coord:
    """An interior cell generically misaligned with both tile lattices."""
    return normalize_coord(geometry, (geometry.side // 2 + 1, geometry.side // 2 + 1))


def default_horizon(geometry: GridGeometry) -> int:
    """4 * sqrt(n) rounds, generous next to the ~sqrt(n) peak location."""
    return 4 * geometry.side


@dataclass(frozen=True)
class RunConfig:
    """Everything one grid run needs.

    Unset fields fall back to the calibrated defaults: square / shifted
    square d=4 partitions, marked cell just off grid center, ltr order and a
    4*sqrt(n) horizon.  ``order`` names the reading of the round; ``steps`` lists it.
    """

    geometry: GridGeometry
    marked: MarkedSet | None = None
    local_partition: Partition | None = None
    dispersion_partition: Partition | None = None
    order: str = DEFAULT_ORDER
    max_iterations: int | None = None
    snapshot_stride: int = 0

    def __post_init__(self) -> None:
        if self.marked is None:
            object.__setattr__(self, "marked", MarkedSet.of(default_marked_cell(self.geometry)))
        if self.local_partition is None:
            object.__setattr__(
                self, "local_partition", square_partition(self.geometry, DEFAULT_TILE_SIDE)
            )
        if self.dispersion_partition is None:
            object.__setattr__(
                self,
                "dispersion_partition",
                shifted_square_partition(self.geometry, DEFAULT_TILE_SIDE),
            )
        if self.order not in _ORDERS:
            raise ValueError(f"order must be 'rtl' or 'ltr', got {self.order!r}")
        if self.max_iterations is None:
            object.__setattr__(self, "max_iterations", default_horizon(self.geometry))
        for role, partition in (
            ("local", self.local_partition),
            ("dispersion", self.dispersion_partition),
        ):
            if partition.geometry != self.geometry:
                raise ValueError(f"{role} partition geometry does not match the run geometry")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be nonnegative")
        # Raises if the marked cells collide after wrapping.
        self.marked.normalized(self.geometry)

    @property
    def steps(self) -> tuple[str, ...]:
        """The operators of one round, in the order they are applied."""
        return _ORDERS[self.order]

    @property
    def steps_per_iteration(self) -> int:
        """Nominal walk steps charged per round."""
        cost = {
            STEP_ORACLE: 1,
            STEP_LOCAL: self.local_partition.step_cost,
            STEP_DISPERSION: self.dispersion_partition.step_cost,
        }
        return sum(cost[step] for step in self.steps)


@dataclass
class CostCounters:
    """Operation tallies plus the nominal walk-step account."""

    oracle_calls: int = 0
    diffusion_applications: int = 0
    nominal_steps: int = 0


@dataclass
class SimulationTrace:
    """Per-iteration marked probability plus snapshots, costs and the peak.

    ``probabilities[k-1]`` is the probability after round k; the probability
    of the untouched initial state is ``initial_probability``.  Snapshots map
    iteration -> (L, L) amplitude copy.  ``per_cell_probabilities`` columns
    follow ``marked_cells`` order.  ``max_norm_drift`` is the largest
    |norm^2 - 1| the per-round norm check saw.
    """

    geometry: GridGeometry
    marked_cells: tuple[Coord, ...]
    initial_probability: float
    probabilities: np.ndarray
    per_cell_probabilities: np.ndarray
    cumulative_steps: np.ndarray
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    counters: CostCounters = field(default_factory=CostCounters)
    max_norm_drift: float = 0.0

    @property
    def peak(self) -> analysis.PeakSummary:
        """The earliest global maximum of ``probabilities``."""
        return analysis.peak(self.probabilities)


def snapshot(state: "GridState | TileState") -> np.ndarray:
    """Row-major (L, L) copy of the amplitudes; never aliases the run."""
    return state.as_grid()


def _iterate(
    state: "GridState | TileState",
    marked: MarkedSet,
    steps: Sequence[tuple[Callable[..., None], object]],
    iterations: int,
    stride: int,
    per_round: CostCounters,
    initial_steps: int,
) -> SimulationTrace:
    """The round loop: apply each ``(apply, operand)`` of ``steps`` to a uniform ``state`` in
    place, as ``apply(state, operand)``, then check the norm and record.

    ``per_round`` holds the counts one round adds; the totals and the
    cumulative step column follow from them.
    """
    geometry = state.geometry
    marked_cells = marked.normalized(geometry)
    per_cell = np.empty((iterations, len(marked_cells)))
    snapshots: dict[int, np.ndarray] = {}
    initial = min(marked_probability(state, marked), 1.0)
    max_drift = 0.0

    for iteration in range(1, iterations + 1):
        for apply, operand in steps:
            apply(state, operand)
        max_drift = max(max_drift, state.check_norm())
        picked = state.marked_amplitudes(marked)
        per_cell[iteration - 1] = picked * picked
        if stride and iteration % stride == 0:
            snapshots[iteration] = snapshot(state)

    # The norm check bounds every Born sum by 1 + 1e-9; clip the last-ulp excess.
    probabilities = np.minimum(per_cell.sum(axis=1), 1.0)
    rounds = np.arange(1, iterations + 1, dtype=np.int64)
    return SimulationTrace(
        geometry=geometry,
        marked_cells=marked_cells,
        initial_probability=initial,
        probabilities=probabilities,
        per_cell_probabilities=per_cell,
        cumulative_steps=initial_steps + per_round.nominal_steps * rounds,
        snapshots=snapshots,
        counters=CostCounters(
            oracle_calls=per_round.oracle_calls * iterations,
            diffusion_applications=per_round.diffusion_applications * iterations,
            nominal_steps=initial_steps + per_round.nominal_steps * iterations,
        ),
        max_norm_drift=max_drift,
    )


def run(config: RunConfig) -> SimulationTrace:
    """Drive the grid search from the uniform state over the full horizon."""
    operators = {
        STEP_ORACLE: (apply_oracle, config.marked),
        STEP_LOCAL: (apply_partition_diffusion, DiffusionSpec(config.local_partition)),
        STEP_DISPERSION: (apply_partition_diffusion, DiffusionSpec(config.dispersion_partition)),
    }
    steps = [operators[step] for step in config.steps]
    oracles = config.steps.count(STEP_ORACLE)
    per_round = CostCounters(oracles, len(steps) - oracles, config.steps_per_iteration)
    state = _uniform_start(config.marked, config.local_partition, config.dispersion_partition)
    return _iterate(
        state, config.marked, steps, config.max_iterations,
        config.snapshot_stride, per_round, initial_steps=2 * config.geometry.side,
    )


def run_grover_reference(
    n: int,
    marked_count: int,
    iterations: int,
    marked_indices: Sequence[int] | None = None,
    snapshot_stride: int = 0,
) -> SimulationTrace:
    """Complete-graph search: oracle plus inversion about the global mean.

    The closed-form probability after k rounds is sin^2((2k+1) * theta) with
    sin^2(theta) = marked_count / n.  ``n`` must be L^2 for a grid side
    L >= 2: marked indices are row-major cells of that grid and snapshots
    are L x L.  The inversion is the reflection about the one-tile
    tessellation, so the state is a ``TileState`` over that one tile and a
    round costs O(marked_count).  Nominal steps count one per oracle call
    and one per diffusion; the walk-cost model of the grid algorithm does
    not apply to the complete graph.
    """
    geometry = GridGeometry(_side_of(n))
    if not 1 <= marked_count < n:
        raise ValueError(f"need 1 <= marked_count < n, got marked_count={marked_count}, n={n}")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if snapshot_stride < 0:
        raise ValueError("snapshot_stride must be nonnegative")
    if marked_indices is None:
        marked_indices = range(marked_count)
    if not all(isinstance(i, numbers.Integral) for i in marked_indices):
        raise ValueError("marked_indices must be integers")
    # coord_of_index rejects indices outside [0, n).
    marked = MarkedSet(frozenset(coord_of_index(geometry, int(i)) for i in marked_indices))
    if len(marked.cells) != marked_count:
        raise ValueError("marked_indices must contain marked_count distinct indices")
    tile = square_partition(geometry, geometry.side)
    steps = ((TileState._oracle, marked), (TileState._reflect, tile))
    per_round = CostCounters(oracle_calls=1, diffusion_applications=1, nominal_steps=2)
    state = TileState(marked, tile, tile)
    return _iterate(state, marked, steps, iterations, snapshot_stride, per_round, 0)
