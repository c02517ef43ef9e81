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
    Partition,
    RunConfig,
    TileGrid,
    TileState,
    apply_oracle,
    apply_partition_diffusion,
    cross_partition,
    custom_partition,
    default_horizon,
    default_marked_cell,
    first_crest,
    four_corners_partition,
    marked_probability,
    peak,
    run,
    run_grover_reference,
    shifted_square_partition,
    snapshot,
    square_partition,
    translate_partition,
    uniform_state,
)
from gridgrover import grid, simulator
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


def test_one_lattice_built_three_ways_gives_one_trace():
    # The kind fixes the step cost, so cumulative_steps cannot depend on the builder.
    g = GridGeometry(16)
    traces = [
        run(RunConfig(g, local_partition=local, max_iterations=40))
        for local in (square_partition(g, 4), Partition(g, "square", d=4),
                      translate_partition(shifted_square_partition(g, 4), (-2, -2)))
    ]
    for trace in traces[1:]:
        for field in ("probabilities", "per_cell_probabilities", "cumulative_steps"):
            assert np.array_equal(getattr(trace, field), getattr(traces[0], field)), field
        assert trace.counters == traces[0].counters
    assert traces[0].cumulative_steps[:3].tolist() == [42, 52, 62]


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


def _union_of_groups(partition, groups):
    flat = np.flatnonzero(np.isin(partition.group_ids, groups))
    return MarkedSet.of(*(divmod(int(x), partition.geometry.side) for x in flat))


def _scattered_partition(g):
    """Groups of 3, 5 and 8 cells drawn from a seeded shuffle of the grid."""
    cells = np.random.default_rng(7).permutation(g.cell_count)
    bounds = np.cumsum([3, 5, 8] * (g.cell_count // 16))[:-1]
    return custom_partition(g, [[divmod(int(x), g.side) for x in group]
                                for group in np.split(cells, bounds)])


_LOCAL_PARTITIONS = {
    "square": lambda g: square_partition(g, 4),
    "cross": cross_partition,
    "four-corners": lambda g: four_corners_partition(g, 4),
    "scattered": _scattered_partition,
}


# A marked set that is a union of local groups is never found: O u lies in the
# span of the local group superpositions, so R_A O u = O u, O R_A O u = u, and
# the dispersion fixes u too.  Every round returns the uniform state.
@pytest.mark.parametrize("order", ["ltr", "rtl"])
@pytest.mark.parametrize("local", sorted(_LOCAL_PARTITIONS))
def test_a_union_of_local_groups_stays_at_the_uniform_measure(local, order):
    g = GridGeometry(40)
    partition = _LOCAL_PARTITIONS[local](g)
    for groups in ([0], [0, 7], [0, 7, 42]):
        marked = _union_of_groups(partition, groups)
        trace = run(RunConfig(g, marked=marked, local_partition=partition, order=order))
        assert len(trace.probabilities) == 4 * g.side
        uniform = len(marked.normalized(g)) / g.cell_count
        assert np.max(np.abs(trace.probabilities - uniform)) <= 1e-12, (groups, trace.peak)


@pytest.mark.parametrize("order", ["ltr", "rtl"])
@pytest.mark.parametrize("local", ["square", "four-corners", "scattered"])
def test_dense_round_fixes_the_uniform_state_for_a_union_of_local_groups(local, order):
    g = GridGeometry(8)
    partition = _LOCAL_PARTITIONS[local](g)
    for groups in ([0], [0, 2]):
        config = RunConfig(g, marked=_union_of_groups(partition, groups),
                           local_partition=partition, order=order)
        matrices = {
            STEP_ORACLE: dense_oracle(config.marked, g),
            STEP_LOCAL: dense_diffusion(partition, g),
            STEP_DISPERSION: dense_diffusion(config.dispersion_partition, g),
        }
        u = uniform_state(g).amplitudes
        psi = u
        for step in config.steps:
            psi = matrices[step] @ psi
        assert np.max(np.abs(psi - u)) <= 1e-12, groups


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


def _closed_form_error(trace, n: int, marked_count: int) -> float:
    theta = math.asin(math.sqrt(marked_count / n))
    k = np.arange(1, trace.probabilities.size + 1)
    return float(np.max(np.abs(trace.probabilities - np.sin((2 * k + 1) * theta) ** 2)))


def test_grover_reference_holds_a_one_tile_state(monkeypatch):
    states = []
    real_iterate = simulator._iterate

    def recording_iterate(state, *args, **kwargs):
        states.append(state)
        return real_iterate(state, *args, **kwargs)

    monkeypatch.setattr(simulator, "_iterate", recording_iterate)
    run_grover_reference(400, 2, 5)
    (state,) = states
    assert type(state) is TileState
    assert state.tile_side == 20
    assert state.origins == ((0, 0), (0, 0))


def test_grover_reference_calls_no_public_operator_and_no_run(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the Grover round must not call the public operators or run")

    for name in ("apply_oracle", "apply_partition_diffusion", "run"):
        monkeypatch.setattr(simulator, name, refuse)
    for n, m in ((16, 1), (400, 3), (4096, 2)):
        assert _closed_form_error(run_grover_reference(n, m, 60), n, m) <= 1e-9


def test_grover_reference_at_two_to_the_thirty_holds_no_grid():
    # An n = 2^30 amplitude vector would take 8 GiB; the one-tile state holds O(K).
    tracemalloc.start()
    try:
        trace = run_grover_reference(2**30, 1, 2000, marked_indices=[123456789])
        _current, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 2**20
    assert _closed_form_error(trace, 2**30, 1) <= 1e-9
    assert trace.marked_cells == ((3767, 19733),)


def test_grover_reference_on_two_by_two_with_three_marked():
    trace = run_grover_reference(4, 3, 12, marked_indices=[0, 1, 3])
    assert trace.marked_cells == ((0, 0), (0, 1), (1, 1))
    assert _closed_form_error(trace, 4, 3) <= 1e-12


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


def test_tile_norm_drift_stays_at_rounding_level():
    # The tile norm sums (M + N)^2 over each overlap region.  Expanded as
    # d^2 (|M|^2 + |N|^2) + 2 sum_r cells_r M . N_r it cancels large terms: that
    # form drifted 6.8e-10 at L = 1024 and past 1e-9 in 1200 rounds at L = 2048.
    # L = 2048 runs the norm in row blocks.
    for side in (1024, 2048):
        trace = run(RunConfig(GridGeometry(side), max_iterations=640))
        assert trace.max_norm_drift <= 1e-12, side


def test_run_never_builds_coord_groups():
    # The tile kernel reads the lattice; the cell -> group map is for
    # emission, dense matrices and tests only.
    config = RunConfig(GridGeometry(64))
    run(config)
    for partition in (config.local_partition, config.dispersion_partition):
        assert partition.tile_side is not None
        assert "group_ids" not in partition.__dict__


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
    # Two tile lattices run on their (L/d)^2 tile coefficients plus a block-sized
    # scratch: at L = 2048 the whole run stays under a fifth of one 32 MiB state vector.
    tracemalloc.start()
    try:
        run(RunConfig(GridGeometry(2048), max_iterations=4))
        _current, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 6 * 2**20


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
    # Over every ordered pair of named partitions, run holds a TileState exactly when one
    # can be built: the tile-pair rule has one form.
    g = GridGeometry(40)
    partitions = [cross_partition(g), translate_partition(square_partition(g, 4), (1, 3))]
    for d in (2, 4):
        for build in (square_partition, shifted_square_partition, four_corners_partition):
            partitions.append(build(g, d))
    marked = MarkedSet.of(default_marked_cell(g))
    for local in partitions:
        for dispersion in partitions:
            kinds.clear()
            run(RunConfig(g, marked, local, dispersion, max_iterations=1))
            try:
                TileState(marked, local, dispersion)
            except ValueError:
                assert kinds == [GridState], (local.kind, dispersion.kind)
            else:
                assert kinds == [TileState], (local.kind, dispersion.kind)


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


def assert_bitwise_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(tile_run_configs(), st.integers(1, 60))
@example(EDGE_CASE_CONFIGS[0], 1)
@example(EDGE_CASE_CONFIGS[0], 8)
@example(EDGE_CASE_CONFIGS[1], 1)
@example(EDGE_CASE_CONFIGS[1], 8)
@example(EDGE_CASE_CONFIGS[2], 1)
@example(EDGE_CASE_CONFIGS[3], 1)
@example(EDGE_CASE_CONFIGS[3], 14)
@example(EDGE_CASE_CONFIGS[4], 1)
@example(EDGE_CASE_CONFIGS[5], 1)
@example(EDGE_CASE_CONFIGS[6], 1)
@example(lattice_config(12, 4, (0, 0), (2, 2), [(5, 6), (11, 0)]), 1)
@example(lattice_config(12, 4, (1, 2), (2, 5), [(5, 6)], order="rtl"), 8)
def test_tile_row_blocks_match_one_block(config, block):
    # Every window here is one block by default; forced row blocks of about ``block``
    # numbers (whole rows, the last one short) must give the same bits in either block
    # order, since each block refills the scratch from the taps.  A buffer that kept rows
    # across blocks raised NormDriftError in reverse order at relative shifts (0, 2),
    # (2, 2) and (1, 3).
    one_block = run(config)
    real_init = grid.TileState.__init__

    def reversed_blocks(state, *args):
        real_init(state, *args)
        state._passes = tuple(passes[::-1] for passes in state._passes)

    for reverse in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid, "TILE_ONE_BLOCK", 0)
            patch.setattr(grid, "TILE_BLOCK", block)
            if reverse:
                patch.setattr(grid.TileState, "__init__", reversed_blocks)
            blocked = assert_tile_run_matches_grid_state(config)
        assert_bitwise_equal(blocked.probabilities, one_block.probabilities)
        assert_bitwise_equal(blocked.per_cell_probabilities, one_block.per_cell_probabilities)
        assert sorted(blocked.snapshots) == sorted(one_block.snapshots)
        for k, grid_values in one_block.snapshots.items():
            assert_bitwise_equal(blocked.snapshots[k], grid_values)


def stored_and_grids(state, steps, rounds):
    """The stored grid and a fresh ``as_grid()`` of ``state`` after each of ``rounds`` rounds."""
    stored, grids = [], []
    for _ in range(rounds):
        for apply, operand in steps:
            apply(state, operand)
        stored.append(snapshot(state))
        grids.append(state.as_grid())
    return stored, grids


def assert_stored_grids_match(stored, grids, marked_count):
    side = grids[0].shape[0]
    for k, (kept, grid_values) in enumerate(zip(stored, grids)):
        assert isinstance(kept, TileGrid) and kept.shape == grid_values.shape, k
        # The coefficient stack, the deltas and the signs: 8 (2 (m + 1)^2 + K + 2) bytes.
        m = side // kept.tile_side
        held = sum(a.nbytes for a in (*kept.coefficients, kept.deltas, kept.signs))
        assert held == 8 * (2 * (m + 1) ** 2 + marked_count + 2), k
        assert_bitwise_equal(kept, grid_values)
        for rows in (slice(None), slice(1, side - 1), slice(side // 2, None), slice(-3, None),
                     slice(2, 3), slice(5, 2), slice(0, 5 * side)):
            assert_bitwise_equal(kept[rows], grid_values[rows])


@pytest.mark.parametrize("block", [None, 40])
@pytest.mark.parametrize("order", ["ltr", "rtl"])
@pytest.mark.parametrize("side,d,local_shift,dispersion_shift,cells", [
    (12, 2, (0, 0), (1, 1), [(5, 6), (11, 0)]),
    (12, 3, (1, 2), (2, 0), [(5, 6), (0, 0), (7, 11)]),
    (24, 4, (0, 0), (2, 2), [(13, 13), (1, 2)]),
    (24, 4, (3, 1), (0, 2), [(13, 13), (23, 0)]),
    (24, 6, (5, 0), (2, 5), [(4, 4), (4, 5), (20, 3)]),
])
def test_stored_tile_grids_are_the_grid_at_their_round(monkeypatch, block, order, side, d,
                                                       local_shift, dispersion_shift, cells):
    # The stored grid of each round, and every row slice of it, must hold the bits of as_grid()
    # at that round after later rounds change the state, in run() too, whose last grid keeps
    # the state's arrays.  block = 40 runs the windows and the grid builder in row blocks.
    if block is not None:
        monkeypatch.setattr(grid, "TILE_ONE_BLOCK", 0)
        monkeypatch.setattr(grid, "TILE_BLOCK", block)
    config = lattice_config(side, d, local_shift, dispersion_shift, cells, order=order, rounds=9)
    steps = [operators_of(config)[step] for step in config.steps]
    stored, grids = stored_and_grids(tile_state_of(config), steps, config.max_iterations)
    assert_stored_grids_match(stored, grids, len(cells))
    trace = run(config)
    assert_stored_grids_match([trace.snapshots[k] for k in sorted(trace.snapshots)], grids,
                              len(cells))


def test_stored_grover_grids_are_the_grid_at_their_round():
    # The one-tile state of the complete-graph reference: two 2 x 2 lattices a grid.
    marked_indices = [5, 230, 399]
    trace = run_grover_reference(400, 3, 12, marked_indices=marked_indices, snapshot_stride=1)
    marked = MarkedSet.of(*(divmod(i, 20) for i in marked_indices))
    tile = square_partition(GridGeometry(20), 20)
    steps = [(TileState._oracle, marked), (TileState._reflect, tile)]
    stored, grids = stored_and_grids(TileState(marked, tile, tile), steps, 12)
    assert_stored_grids_match(stored, grids, 3)
    assert_stored_grids_match([trace.snapshots[k] for k in range(1, 13)], grids, 3)


def test_a_grid_state_run_keeps_its_last_grid_in_its_state():
    # At L = 400 a GridState is a 1.22 MiB grid.  A stride that divides the horizon stores its
    # last grid as the state's own buffer, which the run then drops: storing rounds 2 and 4 of
    # 4 peaks one grid lower than storing rounds 2 and 4 of 5.
    g = GridGeometry(400)
    peaks = {}
    for rounds in (4, 5):
        config = RunConfig(g, local_partition=cross_partition(g), max_iterations=rounds,
                           snapshot_stride=2)
        run(config)  # builds the partitions' period blocks
        tracemalloc.start()
        try:
            trace = run(config)
            peaks[rounds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(trace.snapshots) == [2, 4]
    grid_bytes = 8 * g.cell_count
    assert 0.9 * grid_bytes <= peaks[5] - peaks[4] <= 1.1 * grid_bytes
    assert peaks[4] <= 2.75 * grid_bytes


def test_a_tile_run_storing_ten_grids_holds_their_coefficients():
    # At L = 1024 and d = 4 a stored grid is two 257 x 257 lattices, 1.01 MiB, not the 8 MiB
    # grid: ten of them and the 1.5 MiB state peak within 12 MiB.
    config = RunConfig(GridGeometry(1024), max_iterations=10, snapshot_stride=1)
    tracemalloc.start()
    try:
        trace = run(config)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.snapshots) == 10
    assert 10 * 8 * 2 * 257**2 <= held <= peak <= 12 * 2**20


def test_tile_windows_block_only_past_l2():
    # d = 4: L = 1024 runs one block, exactly the unblocked passes; L = 2048 runs row blocks.
    for side, blocks in ((1024, 1), (2048, 9)):
        state = tile_state_of(RunConfig(GridGeometry(side)))
        assert [len(passes) for passes in state._passes] == [blocks, blocks]
        assert len(state._norm_passes) == 4 * blocks


def test_tile_rounds_allocate_no_window_sized_array():
    # At L = 1024 and d = 4 the two coefficient arrays and the scratch hold 528 KB
    # each and fit a 2 MiB L2 together; a window-sized temporary in a round would not.
    # L = 2048 runs in row blocks, where a block-sized temporary would show too.
    for side in (1024, 2048):
        config = RunConfig(GridGeometry(side))
        state = tile_state_of(config)
        steps = [operators_of(config)[step] for step in config.steps]

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
        assert peak_bytes < 64 * 2**10, side


@pytest.mark.slow
@pytest.mark.parametrize("side,rounds", [(1024, 640), (256, 2000)])
def test_tile_state_matches_grid_state_on_long_runs(side, rounds):
    # The round pumps the gauge mode (M + g, N - g), which leaves the amplitudes alone:
    # at L = 256 mean(M) reads -0.60, -0.64, -0.56 and +0.44 at rounds 100, 640, 1200
    # and 2000: bounded, but about 150 times the uniform amplitude.  The agreement must
    # hold all the same.
    config = RunConfig(GridGeometry(side), max_iterations=rounds, snapshot_stride=rounds)
    trace = assert_tile_run_matches_grid_state(config)
    assert sorted(trace.snapshots) == [rounds]


def test_stored_grids_must_fit_in_physical_memory(monkeypatch):
    # 256 rounds at stride 1 on the 64 x 64 grid store 256 grids beside 256 x (1 + 2) numbers of
    # trace, 6144 bytes.  A default tile pair's grid is its two 17 x 17 lattices, one delta and
    # two signs, 4648 bytes; its 6992-byte state (the lattices and an 18 x 17 + 7 scratch) holds
    # the last one, so 2344 bytes count besides.  The Grover reference's grid is two 2 x 2
    # lattices, 88 bytes, in a 152-byte state.
    g, trace = GridGeometry(64), 6144
    tiles = 256 * 4648 + trace + 6992 - 4648
    monkeypatch.setattr(simulator, "_physical_memory", lambda: tiles)
    assert RunConfig(g, max_iterations=256, snapshot_stride=1).snapshot_stride == 1
    # floor(256 / 3) = 85 grids of 4648 bytes fit; none of them is the state's.
    assert RunConfig(g, max_iterations=256, snapshot_stride=3).snapshot_stride == 3
    monkeypatch.setattr(simulator, "_physical_memory", lambda: tiles - 1)
    message = (r"^a run on the 64 x 64 grid holds 1,198,376 B: its 2,344 B state past its last "
               r"stored grid, 256 stored grids of 1,189,888 B and 6,144 B of trace over 256 "
               r"rounds, more than the 1,198,375 B of physical memory$")
    with pytest.raises(ValueError, match=message):
        RunConfig(g, max_iterations=256, snapshot_stride=1)
    grover = 256 * 88 + trace + 152 - 88
    monkeypatch.setattr(simulator, "_physical_memory", lambda: grover)
    assert run_grover_reference(4096, 1, 256, snapshot_stride=1).snapshots[256].shape == (64, 64)
    monkeypatch.setattr(simulator, "_physical_memory", lambda: grover - 1)
    with pytest.raises(ValueError, match="holds 28,736 B: its 64 B state past its last stored "
                                         "grid, 256 stored grids of 22,528 B"):
        run_grover_reference(4096, 1, 256, snapshot_stride=1)
    # A run that stores no grid holds its state and its trace.
    monkeypatch.setattr(simulator, "_physical_memory", lambda: trace + 6992)
    assert RunConfig(g, max_iterations=256).snapshot_stride == 0
    # A platform without the sysconf names skips the check.
    monkeypatch.setattr(simulator, "_physical_memory", lambda: None)
    assert RunConfig(GridGeometry(8192), snapshot_stride=1).snapshot_stride == 1


def test_the_memory_rule_sums_the_state_stored_grids_and_trace(monkeypatch):
    # An L = 40 cross run holding one stored grid from round 100 of 160: 12 800 bytes of state,
    # 12 800 of grid and 3840 of trace.  Each part alone fits in 20 000 bytes; together they
    # need 29 440.  Stored at round 160, the grid is the state's own buffer: 16 640 bytes.
    g = GridGeometry(40)
    run_config = dict(local_partition=cross_partition(g), snapshot_stride=100)
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 20000)
    with pytest.raises(ValueError, match=r"^a run on the 40 x 40 grid holds 29,440 B: its 12,800 B "
                                         r"state, 1 stored grids of 12,800 B and 3,840 B of trace "
                                         r"over 160 rounds, more than the 20,000 B of physical "
                                         r"memory$"):
        RunConfig(g, **run_config)
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 29440)
    assert RunConfig(g, **run_config).snapshot_stride == 100
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 29439)
    with pytest.raises(ValueError, match="holds 29,440 B"):
        RunConfig(g, **run_config)
    run_config["snapshot_stride"] = 160
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 16640)
    assert RunConfig(g, **run_config).snapshot_stride == 160
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 16639)
    with pytest.raises(ValueError, match="holds 16,640 B: its 0 B state past its last stored grid, "
                                         "1 stored grids of 12,800 B"):
        RunConfig(g, **run_config)


def test_a_horizon_whose_trace_cannot_fit_is_refused_before_it_runs(monkeypatch):
    # 10^12 rounds of trace take 24 TB: refused before _iterate asks np.empty for them.
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**33)
    message = "24,000,000,000,000 B of trace over 1,000,000,000,000 rounds, more than the 8,589,"
    with pytest.raises(ValueError, match=message):
        RunConfig(GridGeometry(4), max_iterations=10**12)
    with pytest.raises(ValueError, match=message):
        run_grover_reference(16, 1, 10**12)


def test_a_run_peaks_within_the_memory_rule(monkeypatch):
    # The rule holds a 10 000-round Grover run at n = 16 to 152 bytes of state and 10 000 x
    # (1 + 2) numbers of trace, 240 152 bytes.  _iterate fills its two round columns in place,
    # so tracemalloc sees a peak within a few KiB of array and object headers of the trace
    # held afterwards (five round columns peaked at 406 577 B over 241 953 B held).
    run_grover_reference(16, 1, 10)
    tracemalloc.start()
    try:
        trace = run_grover_reference(16, 1, 10_000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.probabilities.size == 10_000 and 8 * 10_000 * 3 < held <= 240152 + 4 * 2**10
    assert peak <= held + 8 * 2**10
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 240152)
    assert run_grover_reference(16, 1, 10_000).probabilities.size == 10_000
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 240151)
    with pytest.raises(ValueError, match="holds 240,152 B: its 152 B state"):
        run_grover_reference(16, 1, 10_000)


def test_physical_memory_reads_sysconf(monkeypatch):
    memory = simulator._physical_memory()
    assert memory is None or memory >= 2**20
    assert simulator._physical_memory() == memory  # read once per process
    # The uncached reader, so that the fakes below stay out of the cache.
    read = simulator._physical_memory.__wrapped__
    monkeypatch.setattr(simulator.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 4096,
                                                              "SC_PHYS_PAGES": 3}[name])
    assert read() == 3 * 4096

    def missing(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(simulator.os, "sysconf", missing)
    assert read() is None
    monkeypatch.delattr(simulator.os, "sysconf")
    assert read() is None
    assert simulator._physical_memory() == memory


def test_state_must_fit_in_physical_memory(monkeypatch):
    # A GridState is 8n bytes: 12 800 at L = 40, beside 160 x (1 + 2) numbers of trace, 3840
    # bytes.  The default tile pair at L = 64 holds two 17 x 17 lattices and a scratch of 18
    # rows of 17 numbers plus 7, 6992 bytes, beside 256 rounds of trace, 6144 bytes.
    g, tiles = GridGeometry(40), GridGeometry(64)
    crosses = dict(local_partition=cross_partition(g))
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 16640)
    assert RunConfig(g, **crosses).max_iterations == 160
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 16639)
    with pytest.raises(ValueError, match=r"^a run on the 40 x 40 grid holds 16,640 B: its 12,800 B "
                                         r"state, 0 stored grids of 0 B and 3,840 B of trace over "
                                         r"160 rounds, more than the 16,639 B of physical memory$"):
        RunConfig(g, **crosses)
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 13136)
    assert RunConfig(tiles).max_iterations == 256
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 13135)
    with pytest.raises(ValueError, match="64 x 64 grid holds"):
        RunConfig(tiles)
    # The tile state's bytes are what it allocates.
    monkeypatch.undo()
    config = RunConfig(tiles)
    tracemalloc.start()
    try:
        state = TileState(config.marked, config.local_partition, config.dispersion_partition)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 6992 <= held <= 6992 + 16 * 2**10 and state.tile_side == 4


@pytest.mark.parametrize("side,kinds", [(16, None), (64, None), (40, "cross")])
def test_rtl_state_is_the_dispersion_reflection_of_the_ltr_state(side, kinds):
    # R_B fixes the uniform start and R_B U_ltr = O R_A O = U_rtl R_B (R_B^2 = I), so after
    # k rounds the rtl state is R_B applied to the ltr state: tile states at L = 16 and 64,
    # a cross / shifted-square GridState at L = 40.
    g = GridGeometry(side)
    pair = {} if kinds is None else dict(local_partition=cross_partition(g))
    rounds = 3 * side
    ltr = run(RunConfig(g, order="ltr", max_iterations=rounds, snapshot_stride=1, **pair))
    rtl = run(RunConfig(g, order="rtl", max_iterations=rounds, **pair))
    config = RunConfig(g, **pair)
    for k, probability in enumerate(rtl.probabilities, start=1):
        state = GridState(g, ltr.snapshots[k])
        state._reflect(config.dispersion_partition)
        assert abs(marked_probability(state, config.marked) - probability) <= 1e-12, k


def test_group_runs_hold_one_period_block_per_partition():
    # At L = 1000 the state is 7.6 MiB; a cross or four-corners run peaks at its state, the
    # group sums of a few bands and the partitions' period blocks, not a cell -> group map
    # (7.6 MiB more) or the sums of every group, and the partitions keep only their blocks.
    g = GridGeometry(1000)
    for local in (cross_partition(g), four_corners_partition(g, 4)):
        tracemalloc.start()
        try:
            config = RunConfig(g, local_partition=local, max_iterations=2)
            trace = run(config)
            del trace
            held, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_bytes < 1.5 * 8 * g.cell_count, local.kind
        assert held < 2**20, local.kind
        assert "group_ids" not in local.__dict__
