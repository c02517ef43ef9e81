"""Quantum search on a cyclic 2D grid via tessellated diffuse-and-disperse rounds.

A state-vector simulator for Grover-style search when the walker is confined
to a torus grid: local tile diffusion alternates with a half-tile-shifted
dispersion so amplitude can travel, with a complete-graph Grover reference
for comparison.
"""

from .analysis import (
    MultiMarkedSummary,
    PeakSummary,
    ScalingFit,
    chebyshev_distance,
    first_crest,
    multi_marked_summary,
    neighborhood_mass,
    peak,
    scaling_fit,
)
from .config import ConfigError, ExperimentConfig, make_partition, parse_config
from .experiments import (
    REFERENCE_PEAKS,
    TABLE_SIZES,
    ExperimentReport,
    TableReport,
    TableRow,
    reference_peak,
    run_experiment,
    table_report,
)
from .grid import (
    Coord,
    GridGeometry,
    GridState,
    MarkedSet,
    NormDriftError,
    TileState,
    basis_state,
    cell_index,
    coord_of_index,
    marked_probability,
    normalize_coord,
    uniform_state,
)
from .operators import (
    DiffusionSpec,
    OracleSpec,
    apply_oracle,
    apply_partition_diffusion,
    materialize_dense,
)
from .outputs import (
    bin_index,
    emit_heatmap,
    emit_partition_csv,
    emit_snapshot_csv,
    emit_trace_csv,
    read_trace_csv,
)
from .simulator import (
    CostCounters,
    RunConfig,
    SimulationTrace,
    default_horizon,
    default_marked_cell,
    run,
    run_grover_reference,
    snapshot,
)
from .tessellation import (
    InvalidPartitionError,
    Partition,
    cross_partition,
    custom_partition,
    four_corners_partition,
    shifted_square_partition,
    square_partition,
    translate_partition,
    validate_partition,
)

__version__ = "0.1.0"
