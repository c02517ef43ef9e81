import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridgrover import (
    Coord,
    GridGeometry,
    GridState,
    MarkedSet,
    NormDriftError,
    TileState,
    cell_index,
    coord_of_index,
    marked_probability,
    normalize_coord,
    shifted_square_partition,
    square_partition,
    uniform_state,
)


def test_uniform_state_small_grids():
    state = uniform_state(GridGeometry(4))
    assert state.amplitudes.shape == (16,)
    np.testing.assert_allclose(state.amplitudes, 0.25, rtol=0, atol=0)

    state = uniform_state(GridGeometry(2))
    np.testing.assert_allclose(state.amplitudes, 0.5, rtol=0, atol=0)


def test_uniform_state_is_a_writable_plain_vector():
    # Built from a read-only broadcast view; the state must still hold a plain vector
    # bitwise equal to np.full(n, 1/sqrt(n)).
    for side in (3, 20, 64):
        n = side * side
        a = uniform_state(GridGeometry(side)).amplitudes
        assert a.flags.writeable and a.flags.c_contiguous
        assert a.tobytes() == np.full(n, 1.0 / np.sqrt(n)).tobytes()


def test_uniform_state_single_cell_probability():
    state = uniform_state(GridGeometry(20))
    assert marked_probability(state, MarkedSet.of((7, 3))) == pytest.approx(0.0025, abs=1e-15)


def test_cell_index_row_major():
    g = GridGeometry(4)
    assert cell_index(g, (0, 0)) == 0
    assert cell_index(g, (1, 2)) == 6
    # wraparound: (5, -1) is (1, 3)
    assert cell_index(g, (5, -1)) == 7


@given(st.integers(min_value=2, max_value=32))
def test_cell_index_bijection(side):
    g = GridGeometry(side)
    offsets = {cell_index(g, (i, j)) for i in range(side) for j in range(side)}
    assert offsets == set(range(side * side))


@given(
    st.integers(min_value=2, max_value=32),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
)
def test_cell_index_wraps_both_axes(side, i, j):
    g = GridGeometry(side)
    assert cell_index(g, (i, j)) == cell_index(g, (i + side, j - 3 * side))
    assert coord_of_index(g, cell_index(g, (i, j))) == normalize_coord(g, (i, j))


def test_coord_of_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        coord_of_index(GridGeometry(4), 16)


def test_marked_probability_uniform_and_basis():
    g = GridGeometry(4)
    assert marked_probability(uniform_state(g), MarkedSet.of((2, 1))) == pytest.approx(
        0.0625, abs=1e-15
    )
    basis = GridState(g, np.arange(g.cell_count) == cell_index(g, (2, 1)))
    assert marked_probability(basis, MarkedSet.of((2, 1))) == 1.0


def test_marked_probability_two_cells():
    state = uniform_state(GridGeometry(20))
    assert marked_probability(state, MarkedSet.of((0, 0), (10, 10))) == pytest.approx(
        0.005, abs=1e-15
    )


def test_grid_state_validates_length_and_norm():
    g = GridGeometry(2)
    with pytest.raises(ValueError):
        GridState(g, np.ones(3))
    with pytest.raises(Exception):
        GridState(g, np.array([1.0, 1.0, 0.0, 0.0]))  # norm 2


def test_grid_state_rejects_nan():
    a = np.full(16, 0.25)
    a[5] = np.nan
    with pytest.raises(NormDriftError):
        GridState(GridGeometry(4), a)


def test_grid_state_rejects_complex():
    g = GridGeometry(2)
    with pytest.raises(TypeError):
        GridState(g, np.array([1j, 0, 0, 0]))


def test_grid_state_copies_input():
    g = GridGeometry(2)
    values = np.array([1.0, 0.0, 0.0, 0.0])
    state = GridState(g, values)
    values[0] = 5.0
    assert state.amplitudes[0] == 1.0


def test_as_grid_returns_a_fresh_array():
    # Both states hand out a new (L, L) array; writing to it changes neither state.
    g = GridGeometry(8)
    marked = MarkedSet.of((3, 5))
    tiles = TileState(marked, square_partition(g, 4), shifted_square_partition(g, 4))
    for state in (uniform_state(g), tiles):
        before = state.as_grid()
        state.as_grid()[...] = -1.0
        assert before.shape == (8, 8)
        np.testing.assert_array_equal(state.as_grid(), before)
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)


def test_geometry_requires_side_at_least_two():
    with pytest.raises(ValueError):
        GridGeometry(1)


def test_marked_set_nonempty_and_wrap_collisions():
    with pytest.raises(ValueError):
        MarkedSet(frozenset())
    clashing = MarkedSet.of((0, 0), (4, 4))  # same cell on a 4-grid
    with pytest.raises(ValueError):
        clashing.indices(GridGeometry(4))
    # distinct on a larger grid
    assert len(clashing.indices(GridGeometry(8))) == 2


def test_marked_set_rejects_non_integer_coordinates():
    # On an 8-grid (1.5, 2) would index cell 14, that is (1, 6), while a trace names (1.5, 2).
    for cell in ((1.5, 2), (1, 2.0), (np.float64(3), 0)):
        with pytest.raises(ValueError, match="need integer coordinates"):
            MarkedSet.of(cell)
    # NumPy integers mark the same cell as ints.
    numpy_cell = MarkedSet.of((np.int64(1), np.int32(2)))
    assert numpy_cell.indices(GridGeometry(8)).tolist() == [10]


def test_marked_set_normalized_sorted():
    cells = MarkedSet.of((5, -1), (0, 0)).normalized(GridGeometry(4))
    assert cells == (Coord(0, 0), Coord(1, 3))


def reference_tile_grid(state):
    # The whole-grid materialization: two grid-sized gathers and their sum.
    side, d = state.geometry.side, state.tile_side
    lines = np.arange(side)
    (ar, ac), (br, bc) = (((lines - o) % side // d for o in origin) for origin in state.origins)
    grid = (state.signs[0] * state.coefficients[0]).take(ar, 0).take(ac, 1)
    grid += (state.signs[1] * state.coefficients[1]).take(br + 1, 0).take(bc + 1, 1)
    grid.reshape(-1)[state.marked.indices(state.geometry)] += state.deltas
    return grid


@pytest.mark.parametrize("side,d,block", [(400, 4, None), (24, 4, 50), (30, 6, 7), (12, 12, 5)])
def test_tile_as_grid_blocks_match_the_whole_grid(monkeypatch, side, d, block):
    # L = 400 fills its grid in blocks of 81 rows, the last one 76; small blocks cut small
    # grids into one-row and two-row blocks.  Each step flips one lattice sign, so all four
    # sign pairs are checked, with nonzero marked-cell deltas.
    from gridgrover import grid as grid_module

    if block is not None:
        monkeypatch.setattr(grid_module, "TILE_BLOCK", block)
    g = GridGeometry(side)
    marked = MarkedSet.of((side // 2 + 1, side // 2 + 1), (1, 2), (side - 1, 0))
    local, dispersion = square_partition(g, d), shifted_square_partition(g, d)
    state = TileState(marked, local, dispersion)
    signs = set()
    for partition in (local, dispersion, local, dispersion, dispersion, local) * 2:
        state._oracle(marked)
        state._reflect(partition)
        signs.add(tuple(state.signs))
        assert state.as_grid().tobytes() == reference_tile_grid(state).tobytes()
    assert len(signs) == 4 or d == side


def test_tile_as_grid_holds_one_grid():
    # At L = 1024 the grid is 8 MiB; the blocks add two block-sized gathers, not a second grid.
    state = TileState(MarkedSet.of((513, 513)), square_partition(GridGeometry(1024), 4),
                      shifted_square_partition(GridGeometry(1024), 4))
    tracemalloc.start()
    try:
        state.as_grid()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * 2**20
