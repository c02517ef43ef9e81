import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridgrover import (
    DiffusionSpec,
    GridGeometry,
    GridState,
    InvalidPartitionError,
    MarkedSet,
    apply_oracle,
    apply_partition_diffusion,
    custom_partition,
    marked_probability,
    shifted_square_partition,
    square_partition,
    translate_partition,
    uniform_state,
)
from dense import dense_diffusion, dense_oracle
from test_tessellation import all_legal_partitions, groups


def random_state(geometry, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=geometry.cell_count)
    return GridState(geometry, values / np.linalg.norm(values))


def test_oracle_negates_marked_only():
    g = GridGeometry(4)
    state = apply_oracle(uniform_state(g), MarkedSet.of((2, 1)))
    grid = state.as_grid()
    assert grid[2, 1] == -0.25
    grid[2, 1] = 0.25
    np.testing.assert_array_equal(grid, 0.25)


def test_oracle_is_an_involution():
    g = GridGeometry(6)
    state = random_state(g, 7)
    before = state.amplitudes.copy()
    marked = MarkedSet.of((1, 5), (3, 3))
    apply_oracle(apply_oracle(state, marked), marked)
    np.testing.assert_array_equal(state.amplitudes, before)


def test_oracle_fixes_states_supported_off_the_marked_cells():
    g = GridGeometry(4)
    state = GridState(g, np.arange(g.cell_count) == 3)  # all amplitude on cell (0, 3)
    before = state.amplitudes.copy()
    apply_oracle(state, MarkedSet.of((2, 2)))
    np.testing.assert_array_equal(state.amplitudes, before)


def test_diffusion_reflects_about_group_mean():
    # one group of four: (1, 0, 0, 0) has mean 1/4 -> (-0.5, 0.5, 0.5, 0.5)
    g = GridGeometry(2)
    state = GridState(g, [1.0, 0.0, 0.0, 0.0])
    p = custom_partition(g, [[(0, 0), (0, 1), (1, 0), (1, 1)]])
    apply_partition_diffusion(state, DiffusionSpec(p))
    np.testing.assert_allclose(state.amplitudes, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_uniform_state_is_fixed_by_every_diffusion():
    for side in (4, 5, 8, 10, 20):
        g = GridGeometry(side)
        expected = 1.0 / side
        for p in all_legal_partitions(side):
            state = apply_partition_diffusion(uniform_state(g), DiffusionSpec(p))
            assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12, p.kind


def one_tile(geometry):
    # The complete-graph inversion about the mean: the tessellation with one tile.
    return DiffusionSpec(square_partition(geometry, geometry.side))


@pytest.mark.parametrize("side", [2, 4, 8, 10])
def test_single_tile_diffusion_equals_global_reflection(side):
    g = GridGeometry(side)
    n = g.cell_count
    global_reflection = np.full((n, n), 2.0 / n) - np.eye(n)
    matrix = dense_diffusion(one_tile(g).partition, g)
    assert np.max(np.abs(matrix - global_reflection)) <= 1e-12
    state = random_state(g, 3)
    expected = global_reflection @ state.amplitudes
    apply_partition_diffusion(state, one_tile(g))
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_global_grover_on_uniform_and_basis():
    g = GridGeometry(2)
    state = apply_partition_diffusion(uniform_state(g), one_tile(g))
    np.testing.assert_allclose(state.amplitudes, 0.5, atol=1e-15)

    state = apply_partition_diffusion(GridState(g, [1.0, 0.0, 0.0, 0.0]), one_tile(g))
    np.testing.assert_allclose(state.amplitudes, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_one_grover_round_on_four_cells_is_exact():
    # sin^2(3 * asin(1/2)) = 1: a single round nails the marked cell at n=4
    g = GridGeometry(2)
    marked = MarkedSet.of((1, 0))
    state = uniform_state(g)
    apply_partition_diffusion(apply_oracle(state, marked), one_tile(g))
    assert marked_probability(state, marked) == pytest.approx(1.0, abs=1e-12)


def test_global_grover_closed_form():
    g = GridGeometry(4)
    marked = MarkedSet.of((1, 2))
    theta = math.asin(1.0 / 4.0)
    state = uniform_state(g)
    diffusion = one_tile(g)
    for k in range(1, 21):
        apply_partition_diffusion(apply_oracle(state, marked), diffusion)
        expected = math.sin((2 * k + 1) * theta) ** 2
        assert marked_probability(state, marked) == pytest.approx(expected, abs=1e-9)


def test_dense_oracle_and_tiny_diffusion():
    g = GridGeometry(2)
    oracle = dense_oracle(MarkedSet.of((0, 0)), g)
    np.testing.assert_array_equal(oracle, np.diag([-1.0, 1.0, 1.0, 1.0]))

    diffusion = dense_diffusion(square_partition(g, 2), g)
    expected = np.full((4, 4), 0.5) - np.eye(4)
    np.testing.assert_allclose(diffusion, expected, atol=1e-15)


def test_dense_matrices_respect_cap():
    g = GridGeometry(65)
    partition = square_partition(g, 65)
    for build, operator in ((dense_oracle, MarkedSet.of((0, 0))), (dense_diffusion, partition)):
        with pytest.raises(ValueError, match="capped"):
            build(operator, g)
    # explicit cap override
    assert dense_diffusion(partition, g, max_cells=65 * 65).shape == (4225, 4225)


def test_dense_matrices_are_unitary():
    # max |M^T M - I| <= 1e-12 for every built-in operator
    for side in (4, 8, 10):
        g = GridGeometry(side)
        n = g.cell_count
        operators = [
            dense_oracle(MarkedSet.of((1, 1)), g),
            dense_oracle(MarkedSet.of((0, 0), (side - 1, 2)), g),
            dense_diffusion(one_tile(g).partition, g),
        ]
        operators += [dense_diffusion(p, g) for p in all_legal_partitions(side)]
        for matrix in operators:
            assert np.max(np.abs(matrix.T @ matrix - np.eye(n))) <= 1e-12


def test_diffusion_agrees_with_dense_everywhere():
    for side in (4, 5, 8):
        g = GridGeometry(side)
        for p in all_legal_partitions(side):
            state = random_state(g, side)
            expected = dense_diffusion(p, g) @ state.amplitudes
            apply_partition_diffusion(state, DiffusionSpec(p))
            assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12, p.kind


def test_tile_and_generic_sweeps_agree():
    # the reshape fast path and the bincount path must produce the same state
    from gridgrover import shifted_square_partition

    g = GridGeometry(8)
    fast = shifted_square_partition(g, 4)
    generic = custom_partition(g, [list(grp) for grp in groups(fast)])
    assert fast.tile_side is not None and generic.tile_side is None
    a = random_state(g, 11)
    b = GridState(g, a.amplitudes)
    apply_partition_diffusion(a, DiffusionSpec(fast))
    apply_partition_diffusion(b, DiffusionSpec(generic))
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12


def test_translated_tile_partition_keeps_its_fast_path():
    from gridgrover import square_partition, translate_partition

    g = GridGeometry(8)
    p = translate_partition(square_partition(g, 4), (1, 3))
    assert p.tile_side == 4 and p.tile_shift == (1, 3)
    state = random_state(g, 13)
    expected = dense_diffusion(p, g) @ state.amplitudes
    apply_partition_diffusion(state, DiffusionSpec(p))
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_diffusion_applied_twice_is_identity(seed):
    side = 8
    g = GridGeometry(side)
    state = random_state(g, seed)
    before = state.amplitudes.copy()
    for p in all_legal_partitions(side):
        spec = DiffusionSpec(p)
        apply_partition_diffusion(apply_partition_diffusion(state, spec), spec)
        assert np.max(np.abs(state.amplitudes - before)) <= 1e-12
        state.amplitudes[:] = before


def test_group_locality():
    # Amplitudes outside a group cannot influence the group's image.
    from gridgrover import square_partition

    g = GridGeometry(8)
    p = square_partition(g, 4)
    spec = DiffusionSpec(p)
    group = groups(p)[0]
    inside = [c for c in group]
    outside_a, outside_b = (6, 6), (7, 0)

    one = random_state(g, 21)
    two = GridState(g, one.amplitudes)
    # swap two amplitudes outside the group: norm intact, group untouched
    ia = two.geometry.side * outside_a[0] + outside_a[1]
    ib = two.geometry.side * outside_b[0] + outside_b[1]
    two.amplitudes[ia], two.amplitudes[ib] = two.amplitudes[ib], two.amplitudes[ia]

    apply_partition_diffusion(one, spec)
    apply_partition_diffusion(two, spec)
    for cell in inside:
        assert one.as_grid()[cell] == pytest.approx(two.as_grid()[cell], abs=1e-15)


def test_operators_keep_states_real():
    # The dense matrices of every operator are real, so a complex-cast state
    # keeps an exactly zero imaginary part through any application.
    g = GridGeometry(4)
    psi = uniform_state(g).amplitudes.astype(np.complex128)
    for matrix in (
        dense_oracle(MarkedSet.of((3, 3)), g),
        dense_diffusion(all_legal_partitions(4)[0], g),
        dense_diffusion(one_tile(g).partition, g),
    ):
        psi = matrix @ psi
        assert np.all(psi.imag == 0.0)


def test_diffusion_rejects_geometry_mismatch():
    from gridgrover import square_partition

    state = uniform_state(GridGeometry(8))
    with pytest.raises(ValueError):
        apply_partition_diffusion(state, DiffusionSpec(square_partition(GridGeometry(4), 4)))


def test_diffusion_spec_rejects_invalid_partition():
    # An invalid cover cannot be built, so no DiffusionSpec can hold one.
    g = GridGeometry(4)
    with pytest.raises(InvalidPartitionError, match="15 missing cells"):
        DiffusionSpec(custom_partition(g, [[(0, 0)]]))


def reference_tile_sweep(grid, d, shift):
    # The np.roll + 4-D mean formulation of the tile kernel, kept as the reference.
    si, sj = shift
    rolled = grid if (si, sj) == (0, 0) else np.roll(grid, (-si, -sj), axis=(0, 1))
    side = grid.shape[0]
    tiles = rolled.reshape(side // d, d, side // d, d)
    means = tiles.mean(axis=(1, 3), keepdims=True)
    tiles *= -1.0
    tiles += 2.0 * means
    if rolled is not grid:
        grid[:] = np.roll(rolled, (si, sj), axis=(0, 1))


@pytest.mark.parametrize("side", [2, 6, 8, 12])
def test_tile_sweep_matches_the_rolled_one_to_4_ulp(side):
    # The kernel sums rows before columns, the 4-D mean columns first (pairwise
    # for d >= 8), so the two agree to rounding, not bitwise.
    g = GridGeometry(side)
    state = random_state(g, side)
    for d in (d for d in range(1, side + 1) if side % d == 0):
        for shift in [(si, sj) for si in range(d) for sj in range(d)] + [(side + 1, -1)]:
            p = translate_partition(square_partition(g, d), shift)
            expected = state.as_grid().copy()
            reference_tile_sweep(expected, d, p.tile_shift)
            apply_partition_diffusion(state, DiffusionSpec(p))
            np.testing.assert_allclose(
                state.as_grid(), expected, rtol=0, atol=4 * np.finfo(float).eps
            )


@st.composite
def tile_lattices(draw):
    side = draw(st.integers(min_value=2, max_value=12))
    d = draw(st.sampled_from([d for d in range(1, side + 1) if side % d == 0]))
    shift = draw(st.tuples(*[st.integers(min_value=-2 * side, max_value=2 * side)] * 2))
    return side, d, shift


@settings(max_examples=60, deadline=None)
@given(tile_lattices(), st.integers(min_value=0, max_value=10_000))
@example((2, 1, (0, 0)), 0)  # L = 2, d = 1: the identity
@example((2, 2, (1, 1)), 1)  # L = 2, d = L: the global inversion
@example((9, 3, (4, -2)), 2)  # odd d
@example((12, 12, (5, 7)), 3)  # d = L, shifted
@example((12, 1, (3, 3)), 4)  # d = 1
def test_tile_group_and_dense_paths_agree(lattice, seed):
    side, d, shift = lattice
    g = GridGeometry(side)
    fast = translate_partition(square_partition(g, d), shift)
    generic = custom_partition(g, [list(grp) for grp in groups(fast)])
    assert fast.tile_side == d and generic.tile_side is None
    a = random_state(g, seed)
    expected = dense_diffusion(fast, g) @ a.amplitudes
    b = GridState(g, a.amplitudes)
    apply_partition_diffusion(a, DiffusionSpec(fast))
    apply_partition_diffusion(b, DiffusionSpec(generic))
    assert np.max(np.abs(a.amplitudes - expected)) <= 1e-12
    assert np.max(np.abs(b.amplitudes - expected)) <= 1e-12


def test_oracle_indices_are_built_once_per_geometry():
    marked = MarkedSet.of((1, 5), (3, 3))
    g = GridGeometry(6)
    idx = marked.indices(g)
    assert not idx.flags.writeable
    apply_oracle(apply_oracle(uniform_state(g), marked), marked)
    assert marked.indices(g) is idx
    assert marked.indices(GridGeometry(4)).tolist() == [5, 15]
    assert marked.indices(g) is idx


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=6, unique=True
    ),
    st.integers(min_value=0, max_value=10_000),
)
@example(4, [(0, 0), (4, -4)], 0)  # the same cell after wrapping
@example(12, [(-1, 12), (11, 0), (5, 5)], 1)
def test_oracle_matches_dense_matrix_on_unwrapped_marked_sets(side, cells, seed):
    g = GridGeometry(side)
    state = random_state(g, seed)
    # Separate MarkedSets, so neither path reads flat indices the other cached.
    marked, dense_marked = MarkedSet.of(*cells), MarkedSet.of(*cells)
    if len({(i % side, j % side) for i, j in cells}) < len(cells):
        with pytest.raises(ValueError):
            apply_oracle(state, marked)
        with pytest.raises(ValueError):
            dense_oracle(dense_marked, g)
        return
    expected = dense_oracle(dense_marked, g) @ state.amplitudes
    np.testing.assert_array_equal(apply_oracle(state, marked).amplitudes, expected)
