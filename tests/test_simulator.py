import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridgrover import (
    DiffusionSpec,
    GridGeometry,
    GridState,
    MarkedSet,
    NormDriftError,
    RunConfig,
    TileState,
    apply_oracle,
    apply_partition_diffusion,
    cross_partition,
    custom_partition,
    default_horizon,
    default_marked_cell,
    first_crest,
    peak,
    run,
    run_grover_reference,
    shifted_square_partition,
    snapshot,
    square_partition,
    translate_partition,
    uniform_state,
)
from gridgrover import simulator
from gridgrover.simulator import DEFAULT_ORDER, STEP_DISPERSION, STEP_LOCAL, STEP_ORACLE
from dense import dense_diffusion, dense_oracle


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

    oracle = dense_oracle(config.marked, g)
    local = dense_diffusion(config.local_partition, g)
    dispersion = dense_diffusion(config.dispersion_partition, g)
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

    apply_oracle(state, MarkedSet.of((0, 0)))
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
    with pytest.raises(ValueError, match="snapshot_stride"):
        run_grover_reference(16, 1, 6, snapshot_stride=-2)


def test_grover_reference_takes_only_integer_indices():
    for indices in ([1.7], [1.0], ["1"], [np.float64(1.0)]):
        with pytest.raises(ValueError, match="integers"):
            run_grover_reference(16, 1, 6, marked_indices=indices)
    # NumPy integers, as the grover subcommand passes them, mark the same cell as ints.
    numpy_indices = run_grover_reference(16, 1, 6, marked_indices=np.array([5], dtype=np.intp))
    assert numpy_indices.marked_cells == ((1, 1),)
    np.testing.assert_array_equal(
        numpy_indices.probabilities, run_grover_reference(16, 1, 6, marked_indices=[5]).probabilities
    )


def test_final_state_norm_survives_a_long_run():
    # the round loop asserts the norm after every round; a completed run is
    # the evidence
    trace = run(RunConfig(GridGeometry(32)))
    assert trace.probabilities.shape == (128,)
    assert np.all(trace.probabilities >= 0) and np.all(trace.probabilities <= 1)


def _scale_state(state, factor):
    """Multiply the state's own data by ``factor``: the vector, or every tile coefficient and delta."""
    if isinstance(state, TileState):
        for data in (*state.coefficients, state.deltas):
            data *= factor
    else:
        state.amplitudes *= factor


def _poison_state(state):
    """Write a NaN into the state's own data."""
    (state.deltas if isinstance(state, TileState) else state.amplitudes)[0] = np.nan


# Two tile lattices run on TileState; a cross local diffusion keeps GridState.
STATE_KINDS = {
    "tile": (TileState, lambda g: RunConfig(g)),
    "grid": (GridState, lambda g: RunConfig(g, local_partition=cross_partition(g))),
}


def _run_with_faulty_oracle(monkeypatch, fault):
    """Run each state kind with ``fault`` applied to the state's own data after every oracle."""
    real_oracle = simulator.apply_oracle
    for state_type, make_config in STATE_KINDS.values():

        def faulty_oracle(state, marked):
            assert type(state) is state_type
            real_oracle(state, marked)
            fault(state)
            return state

        monkeypatch.setattr(simulator, "apply_oracle", faulty_oracle)
        with pytest.raises(NormDriftError):
            run(make_config(GridGeometry(20)))


def test_run_raises_on_norm_drift(monkeypatch):
    _run_with_faulty_oracle(monkeypatch, lambda state: _scale_state(state, 1.0 + 1e-6))


def test_run_raises_on_nan(monkeypatch):
    _run_with_faulty_oracle(monkeypatch, _poison_state)


@pytest.mark.parametrize("kind", sorted(STATE_KINDS))
def test_trace_keeps_the_largest_norm_drift(monkeypatch, kind):
    state_type, make_config = STATE_KINDS[kind]
    config = make_config(GridGeometry(20))
    drifts = []
    real_check = state_type.check_norm

    def recording_check(state, *args):
        drifts.append(real_check(state, *args))
        return drifts[-1]

    monkeypatch.setattr(state_type, "check_norm", recording_check)
    trace = run(config)
    # The construction check comes first; the rest are the 80 per-round checks.
    per_round = drifts[1:]
    assert len(per_round) == config.max_iterations == 80
    assert trace.max_norm_drift == max(per_round) <= 1e-9
    assert trace.max_norm_drift > 0.0


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


def test_tile_run_allocates_no_grid_sized_array():
    # Two tile lattices run on their (L/d)^2 tile coefficients: at L = 2048 the
    # whole run stays under half of one 32 MiB state vector.
    tracemalloc.start()
    try:
        run(RunConfig(GridGeometry(2048), max_iterations=4))
        _current, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 16 * 2**20


def test_run_picks_the_state_by_partition_pair(monkeypatch):
    kinds = []
    real_iterate = simulator._iterate

    def recording_iterate(state, *args, **kwargs):
        kinds.append(type(state))
        return real_iterate(state, *args, **kwargs)

    monkeypatch.setattr(simulator, "_iterate", recording_iterate)
    g = GridGeometry(20)
    run(RunConfig(g, max_iterations=2))
    run(RunConfig(g, dispersion_partition=square_partition(g, 4), max_iterations=2))
    run(RunConfig(g, local_partition=cross_partition(g), max_iterations=2))
    run(RunConfig(g, local_partition=square_partition(g, 2), max_iterations=2))
    assert kinds == [TileState, TileState, GridState, GridState]


def test_tile_state_rejects_foreign_operators():
    g = GridGeometry(8)
    config = RunConfig(g)
    state = TileState(config.marked, config.local_partition, config.dispersion_partition)
    with pytest.raises(ValueError, match="marked set"):
        apply_oracle(state, MarkedSet.of((1, 1)))
    for partition in (
        translate_partition(config.local_partition, (1, 0)),
        square_partition(g, 2),
        custom_partition(g, [[(i, j) for i in range(8) for j in range(8)]]),
    ):
        with pytest.raises(ValueError, match="neither tile lattice"):
            apply_partition_diffusion(state, DiffusionSpec(partition))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_tile_state_needs_two_tile_lattices_of_one_side_and_grid():
    g = GridGeometry(8)
    tiles, marked = square_partition(g, 4), MarkedSet.of((1, 1))
    for local, dispersion in (
        (cross_partition(GridGeometry(10)), cross_partition(GridGeometry(10))),
        (tiles, custom_partition(g, [[(i, j) for i in range(8) for j in range(8)]])),
        (tiles, square_partition(g, 2)),
        (tiles, square_partition(GridGeometry(12), 4)),
    ):
        with pytest.raises(ValueError, match="two tile lattices"):
            TileState(marked, local, dispersion)


def operators_of(config):
    """Step name -> (apply, operand) for the three operators of ``config``."""
    return {
        STEP_ORACLE: (apply_oracle, config.marked),
        STEP_LOCAL: (apply_partition_diffusion, DiffusionSpec(config.local_partition)),
        STEP_DISPERSION: (apply_partition_diffusion, DiffusionSpec(config.dispersion_partition)),
    }


def tile_state_of(config):
    return TileState(config.marked, config.local_partition, config.dispersion_partition)


def grid_state_rounds(config):
    """Yield the GridState after each round of ``config``, applied by the per-operator kernels."""
    state = uniform_state(config.geometry)
    steps = operators_of(config)
    for _ in range(config.max_iterations):
        for step in config.steps:
            apply, operand = steps[step]
            apply(state, operand)
        yield state


def assert_tile_run_matches_grid_state(config, tolerance=1e-12):
    """run() (on TileState) against GridState: probabilities, per-cell probabilities, snapshots."""
    trace = run(config)
    idx = config.marked.indices(config.geometry)
    for k, state in enumerate(grid_state_rounds(config), start=1):
        per_cell = state.amplitudes[idx] ** 2
        assert np.max(np.abs(trace.per_cell_probabilities[k - 1] - per_cell)) <= tolerance, k
        assert abs(trace.probabilities[k - 1] - min(per_cell.sum(), 1.0)) <= tolerance, k
        if k in trace.snapshots:
            assert np.max(np.abs(trace.snapshots[k] - state.as_grid())) <= tolerance, k
    return trace


@st.composite
def tile_run_configs(draw):
    side = draw(st.integers(2, 24))
    d = draw(st.sampled_from([k for k in range(1, side + 1) if side % k == 0]))
    g = GridGeometry(side)
    offsets = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    local = translate_partition(square_partition(g, d), draw(offsets))
    if draw(st.booleans()):
        dispersion = local
    else:
        dispersion = translate_partition(shifted_square_partition(g, d), draw(offsets))
    # Tile corners of either lattice and the torus wrap, plus unwrapped coordinates.
    lines = sorted({0, side - 1, d - 1, d % side, *(s % side for s in (*local.tile_shift, *dispersion.tile_shift))})
    coordinate = st.sampled_from(lines) | st.integers(-side, 2 * side - 1)
    cells = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=min(4, side * side),
                          unique_by=lambda c: (c[0] % side, c[1] % side)))
    return RunConfig(
        g, marked=MarkedSet.of(*cells), local_partition=local, dispersion_partition=dispersion,
        order=draw(st.sampled_from(("ltr", "rtl"))), max_iterations=draw(st.integers(1, 40)),
        snapshot_stride=1,
    )


def lattice_config(side, d, local_shift, dispersion_shift, cells, order="ltr", rounds=12):
    """Two square lattices of tile side ``d`` at the given shifts, every round snapshotted."""
    g = GridGeometry(side)
    return RunConfig(
        g, marked=MarkedSet.of(*cells), order=order, max_iterations=rounds, snapshot_stride=1,
        local_partition=translate_partition(square_partition(g, d), local_shift),
        dispersion_partition=translate_partition(square_partition(g, d), dispersion_shift),
    )


# Relative shift (0, s) and (s, 0), where one tap weight of the overlap product is 0;
# identical lattices; d = 1, d = L and L = 2.
EDGE_CASE_CONFIGS = [
    lattice_config(12, 4, (1, 1), (1, 3), [(5, 6), (5, 7), (0, 11)]),
    lattice_config(12, 4, (0, 0), (3, 0), [(3, 3)], order="rtl"),
    lattice_config(8, 4, (2, 1), (2, 1), [(2, 1), (7, 7)]),
    lattice_config(6, 1, (0, 0), (3, 1), [(2, 3)]),
    lattice_config(6, 6, (1, 2), (4, 5), [(0, 0), (5, 5)], order="rtl"),
    lattice_config(2, 2, (0, 0), (1, 1), [(1, 0)]),
    lattice_config(2, 1, (0, 0), (0, 0), [(0, 1), (1, 1)]),
]


@settings(max_examples=150, deadline=None)
@given(tile_run_configs())
@example(EDGE_CASE_CONFIGS[0])
@example(EDGE_CASE_CONFIGS[1])
@example(EDGE_CASE_CONFIGS[2])
@example(EDGE_CASE_CONFIGS[3])
@example(EDGE_CASE_CONFIGS[4])
@example(EDGE_CASE_CONFIGS[5])
@example(EDGE_CASE_CONFIGS[6])
def test_tile_state_matches_grid_state(config):
    assert_tile_run_matches_grid_state(config)


@settings(max_examples=80, deadline=None)
@given(tile_run_configs(),
       st.lists(st.sampled_from((STEP_ORACLE, STEP_LOCAL, STEP_DISPERSION)), min_size=1, max_size=9))
@example(EDGE_CASE_CONFIGS[0], list(EDGE_CASE_CONFIGS[0].steps))
@example(EDGE_CASE_CONFIGS[1], list(EDGE_CASE_CONFIGS[1].steps))
@example(EDGE_CASE_CONFIGS[0], [STEP_LOCAL, STEP_LOCAL])
@example(EDGE_CASE_CONFIGS[1], [STEP_ORACLE, STEP_DISPERSION, STEP_LOCAL, STEP_LOCAL, STEP_ORACLE])
def test_tile_state_matches_grid_state_after_every_operator(config, sequence):
    # A sign slip in one reflection can cancel out by the end of a round, so compare
    # the reads of both states after every single operator.
    tile, grid, steps = tile_state_of(config), uniform_state(config.geometry), operators_of(config)
    history = [grid.as_grid().copy()]
    for k, step in enumerate(sequence):
        apply, operand = steps[step]
        apply(tile, operand)
        apply(grid, operand)
        assert np.max(np.abs(tile.as_grid() - grid.as_grid())) <= 1e-12, k
        picked = tile.marked_amplitudes(config.marked) - grid.marked_amplitudes(config.marked)
        assert np.max(np.abs(picked)) <= 1e-12, k
        assert abs(tile.norm_squared - grid.norm_squared) <= 1e-12, k
        history.append(grid.as_grid().copy())
        if k and step == sequence[k - 1]:
            # Every operator is an involution: applied twice in a row it is the identity.
            assert np.max(np.abs(tile.as_grid() - history[-3])) <= 1e-12, k


def test_tile_rounds_allocate_no_window_sized_array():
    # At L = 1024 and d = 4 the two coefficient arrays and the one buffer hold 528 KB
    # each and fit a 2 MiB L2 together; a window-sized temporary in a round would not.
    config = RunConfig(GridGeometry(1024))
    state, steps = tile_state_of(config), [operators_of(config)[step] for step in config.steps]

    def rounds(count):
        for _ in range(count):
            for apply, operand in steps:
                apply(state, operand)
            state.check_norm()
            state.marked_amplitudes(config.marked)

    rounds(1)
    tracemalloc.start()
    try:
        rounds(8)
        _current, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 64 * 2**10


@pytest.mark.slow
@pytest.mark.parametrize("side,rounds", [(1024, 640), (256, 2000)])
def test_tile_state_matches_grid_state_on_long_runs(side, rounds):
    # The coefficients grow about linearly with the rounds (a few hundred times the
    # uniform amplitude after 2000); the agreement must hold all the same.
    config = RunConfig(GridGeometry(side), max_iterations=rounds, snapshot_stride=rounds)
    trace = assert_tile_run_matches_grid_state(config)
    assert sorted(trace.snapshots) == [rounds]
