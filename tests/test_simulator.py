import math
import tracemalloc

import numpy as np
import pytest

from gridgrover import (
    DiffusionSpec,
    GridGeometry,
    MarkedSet,
    NormDriftError,
    OracleSpec,
    RunConfig,
    cross_partition,
    default_horizon,
    default_marked_cell,
    first_crest,
    materialize_dense,
    peak,
    run,
    run_grover_reference,
    snapshot,
    square_partition,
    uniform_state,
)
from gridgrover import simulator
from gridgrover.simulator import DEFAULT_ORDER, STEP_DISPERSION, STEP_LOCAL, STEP_ORACLE


def test_calibrated_defaults():
    assert DEFAULT_ORDER == "ltr"
    assert default_marked_cell(GridGeometry(20)) == (11, 11)
    assert default_horizon(GridGeometry(16)) == 64
    assert RunConfig(GridGeometry(8)).steps == (
        STEP_ORACLE,
        STEP_LOCAL,
        STEP_ORACLE,
        STEP_DISPERSION,
    )
    assert RunConfig(GridGeometry(8), order="rtl").steps == (
        STEP_DISPERSION,
        STEP_ORACLE,
        STEP_LOCAL,
        STEP_ORACLE,
    )


def test_schedule_validation():
    # The order is the only schedule selector; an unknown one fails at construction.
    for order in ("boustrophedon", "", "LTR"):
        with pytest.raises(ValueError, match="order must be"):
            RunConfig(GridGeometry(8), order=order)


def test_initial_probability_is_uniform_measure():
    for side in (4, 8, 20):
        trace = run(RunConfig(GridGeometry(side), max_iterations=1))
        assert trace.initial_probability == pytest.approx(1.0 / side**2, abs=1e-15)


def test_trace_shapes_and_cost_counters():
    config = RunConfig(GridGeometry(8), max_iterations=5)
    trace = run(config)
    assert trace.probabilities.shape == (5,)
    assert trace.per_cell_probabilities.shape == (5, 1)
    assert trace.counters.oracle_calls == 10
    assert trace.counters.diffusion_applications == 10
    # 2 * sqrt(n) setup plus (1 + 4 + 1 + 4) per round
    assert config.steps_per_iteration == 10
    assert trace.counters.nominal_steps == 2 * 8 + 5 * 10
    np.testing.assert_array_equal(trace.cumulative_steps, 16 + 10 * np.arange(1, 6))


def test_cross_local_diffusion_costs_one_step():
    g = GridGeometry(20)
    config = RunConfig(g, local_partition=cross_partition(g), max_iterations=3)
    assert config.steps_per_iteration == 1 + 1 + 1 + 4
    trace = run(config)
    assert trace.counters.nominal_steps == 40 + 3 * 7


def test_runs_are_bit_deterministic():
    config = RunConfig(GridGeometry(12), max_iterations=30)
    a, b = run(config), run(config)
    np.testing.assert_array_equal(a.probabilities, b.probabilities)
    np.testing.assert_array_equal(a.per_cell_probabilities, b.per_cell_probabilities)


@pytest.mark.parametrize("side", [4, 8])
@pytest.mark.parametrize("order", ["ltr", "rtl"])
def test_trace_matches_dense_operator_product(side, order):
    g = GridGeometry(side)
    config = RunConfig(g, order=order, snapshot_stride=1)
    trace = run(config)

    oracle = materialize_dense(OracleSpec(config.marked), g)
    local = materialize_dense(DiffusionSpec(config.local_partition), g)
    dispersion = materialize_dense(DiffusionSpec(config.dispersion_partition), g)
    step_matrix = {"oracle": oracle, "local_diffusion": local, "dispersion": dispersion}

    psi = uniform_state(g).amplitudes
    idx = config.marked.indices(g)
    for k in range(1, config.max_iterations + 1):
        for step in config.steps:
            psi = step_matrix[step] @ psi
        assert abs(float(psi[idx] @ psi[idx]) - trace.probabilities[k - 1]) <= 1e-10
        assert np.max(np.abs(psi.reshape(side, side) - trace.snapshots[k])) <= 1e-10


def test_snapshots_do_not_interfere():
    config = RunConfig(GridGeometry(8), max_iterations=20)
    with_snapshots = run(RunConfig(GridGeometry(8), max_iterations=20, snapshot_stride=1))
    without = run(config)
    np.testing.assert_array_equal(with_snapshots.probabilities, without.probabilities)
    assert sorted(with_snapshots.snapshots) == list(range(1, 21))
    assert without.snapshots == {}


def test_snapshot_stride_selects_iterations():
    trace = run(RunConfig(GridGeometry(8), max_iterations=10, snapshot_stride=3))
    assert sorted(trace.snapshots) == [3, 6, 9]


def test_snapshot_returns_an_independent_copy():
    state = uniform_state(GridGeometry(2))
    grid = snapshot(state)
    np.testing.assert_array_equal(grid, [[0.5, 0.5], [0.5, 0.5]])
    grid[0, 0] = 9.0
    assert state.amplitudes[0] == 0.5


def test_snapshot_after_oracle():
    state = uniform_state(GridGeometry(2))
    from gridgrover import apply_oracle

    apply_oracle(state, OracleSpec(MarkedSet.of((0, 0))))
    np.testing.assert_array_equal(snapshot(state), [[-0.5, 0.5], [0.5, 0.5]])


def test_smallest_table_grid_reproduces_reference_row():
    # On L=4 both tessellations span the whole grid, so the dynamics is the
    # complete-graph walk and the first crest is exactly sin(5 asin(1/4)).
    trace = run(RunConfig(GridGeometry(4)))
    crest = first_crest(trace)
    assert crest.iteration == 1
    assert crest.amplitude == pytest.approx(math.sin(5 * math.asin(0.25)), abs=1e-9)
    assert crest.amplitude == pytest.approx(0.9531, abs=5e-5)


def test_400_cell_grid_crests_near_reference_probability():
    trace = run(RunConfig(GridGeometry(20)))
    assert first_crest(trace).probability == pytest.approx(0.79, abs=0.01)


def test_crest_iteration_nondecreasing_in_n():
    crests = [
        first_crest(run(RunConfig(GridGeometry(side)))).iteration for side in (4, 8, 16, 32, 64)
    ]
    assert crests == sorted(crests)


def test_both_orders_peak_within_horizon():
    for order in ("ltr", "rtl"):
        trace = run(RunConfig(GridGeometry(16), order=order))
        assert 1 <= trace.peak.iteration <= 64
        assert 1 <= first_crest(trace).iteration < 64


def test_trace_peak_matches_analysis_peak():
    trace = run(RunConfig(GridGeometry(8)))
    assert trace.peak == peak(trace.probabilities)
    assert trace.peak.probability == float(np.max(trace.probabilities))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(GridGeometry(8), local_partition=square_partition(GridGeometry(4), 4))
    with pytest.raises(ValueError):
        RunConfig(GridGeometry(8), max_iterations=0)
    with pytest.raises(ValueError):
        RunConfig(GridGeometry(8), snapshot_stride=-1)
    with pytest.raises(ValueError):
        RunConfig(GridGeometry(4), marked=MarkedSet.of((0, 0), (4, 4)))


def test_grover_reference_matches_closed_form():
    for n, m in ((4, 1), (400, 1), (400, 2)):
        trace = run_grover_reference(n, m, 40)
        theta = math.asin(math.sqrt(m / n))
        for k in range(1, 41):
            expected = math.sin((2 * k + 1) * theta) ** 2
            assert abs(trace.probabilities[k - 1] - expected) <= 1e-9, (n, m, k)


def test_grover_reference_small_and_large_examples():
    assert run_grover_reference(4, 1, 1).probabilities[0] == pytest.approx(1.0, abs=1e-12)

    trace = run_grover_reference(400, 1, 40)
    assert trace.initial_probability == pytest.approx(1 / 400, abs=1e-15)
    assert trace.peak.iteration == 15
    assert trace.peak.probability >= 0.999


def test_grover_reference_counters_and_snapshots():
    trace = run_grover_reference(400, 1, 10, marked_indices=[231], snapshot_stride=5)
    assert trace.counters.oracle_calls == 10
    assert trace.counters.diffusion_applications == 10
    assert trace.counters.nominal_steps == 20
    assert sorted(trace.snapshots) == [5, 10]
    assert trace.snapshots[5].shape == (20, 20)
    assert trace.marked_cells == ((11, 11),)
    assert trace.geometry == GridGeometry(20)

    trace = run_grover_reference(400, 3, 2, marked_indices=[399, 0, 45])
    assert trace.geometry == GridGeometry(20)
    assert trace.marked_cells == ((0, 0), (2, 5), (19, 19))


def test_grover_reference_validation():
    with pytest.raises(ValueError):
        run_grover_reference(4, 4, 3)
    with pytest.raises(ValueError):
        run_grover_reference(4, 1, 0)
    with pytest.raises(ValueError):
        run_grover_reference(4, 2, 3, marked_indices=[1, 1])
    with pytest.raises(ValueError):
        run_grover_reference(4, 1, 3, marked_indices=[9])
    with pytest.raises(ValueError):
        run_grover_reference(4, 1, 3, marked_indices=[-1])
    # n must be the cell count of a grid of side at least 2
    with pytest.raises(ValueError):
        run_grover_reference(8, 1, 3)
    with pytest.raises(ValueError):
        run_grover_reference(2, 1, 3)


def test_final_state_norm_survives_a_long_run():
    # the round loop asserts the norm after every round; a completed run is
    # the evidence
    trace = run(RunConfig(GridGeometry(32)))
    assert trace.probabilities.shape == (128,)
    assert np.all(trace.probabilities >= 0) and np.all(trace.probabilities <= 1)


def test_run_raises_on_norm_drift(monkeypatch):
    real_oracle = simulator.apply_oracle

    def leaky_oracle(state, spec):
        real_oracle(state, spec)
        state.amplitudes *= 1.0 + 1e-6
        return state

    monkeypatch.setattr(simulator, "apply_oracle", leaky_oracle)
    with pytest.raises(NormDriftError):
        run(RunConfig(GridGeometry(8)))


def test_run_raises_on_nan(monkeypatch):
    real_oracle = simulator.apply_oracle

    def nan_oracle(state, spec):
        real_oracle(state, spec)
        state.amplitudes[0] = np.nan
        return state

    monkeypatch.setattr(simulator, "apply_oracle", nan_oracle)
    with pytest.raises(NormDriftError):
        run(RunConfig(GridGeometry(8)))


def test_run_never_builds_coord_groups():
    # The tile kernel reads the lattice; tile cell arrays and the cell -> group
    # map are for emission, dense matrices and tests only.
    config = RunConfig(GridGeometry(64))
    run(config)
    for partition in (config.local_partition, config.dispersion_partition):
        assert partition.tile_side is not None
        for derived in ("cells", "offsets", "group_ids"):
            assert derived not in partition.__dict__


def test_default_run_setup_allocates_no_grid_sized_arrays():
    # Tile partitions are their (d, shift) lattice: at L = 2048 the run config
    # and both diffusion specs stay far below one 32 MiB state.
    tracemalloc.start()
    try:
        config = RunConfig(GridGeometry(2048))
        DiffusionSpec(config.local_partition), DiffusionSpec(config.dispersion_partition)
        _current, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 2**20
