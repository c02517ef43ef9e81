import csv
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridgrover import (
    Coord,
    GridGeometry,
    InvalidPartitionError,
    Partition,
    cell_index,
    cross_partition,
    custom_partition,
    emit_partition_csv,
    four_corners_partition,
    shifted_square_partition,
    square_partition,
    translate_partition,
    validate_partition,
)
from gridgrover.tessellation import KIND_CROSS, KIND_FOUR_CORNERS, KIND_SHIFTED_SQUARE, KIND_SQUARE


def legal_square_sides(side):
    return [d for d in range(1, side + 1) if side % d == 0]


def all_legal_partitions(side):
    """Every generator/parameter combination that tiles an L x L torus."""
    g = GridGeometry(side)
    out = []
    for d in legal_square_sides(side):
        out.append(square_partition(g, d))
        out.append(shifted_square_partition(g, d))
    if side % 5 == 0:
        out.append(cross_partition(g))
    for d in range(1, side // 2 + 1):
        if side % (2 * d) == 0:
            out.append(four_corners_partition(g, d))
    return out


def groups(partition):
    """Per-group ``Coord`` sets in group order, read off the cell -> group map."""
    side = partition.geometry.side
    members = [[] for _ in range(partition.group_count)]
    for flat, group in enumerate(partition.group_ids.tolist()):
        members[group].append(Coord(flat // side, flat % side))
    return tuple(map(frozenset, members))


# Reference generators: the per-cell loops that define each tessellation's
# groups and their numbering, the oracle for the closed-form group maps.


def reference_block_groups(side, d, shift):
    return [
        tuple(
            Coord((d * bi + x + shift) % side, (d * bj + y + shift) % side)
            for x in range(d)
            for y in range(d)
        )
        for bi in range(side // d)
        for bj in range(side // d)
    ]


def reference_cross_groups(side):
    return [
        (
            Coord(i, j),
            Coord((i - 1) % side, j),
            Coord((i + 1) % side, j),
            Coord(i, (j - 1) % side),
            Coord(i, (j + 1) % side),
        )
        for i in range(side)
        for j in range(side)
        if (i + 2 * j) % 5 == 0
    ]


def reference_four_corners_groups(side, d):
    return [
        tuple(
            Coord((2 * d * bi + a + x) % side, (2 * d * bj + b + y) % side)
            for x in (0, d)
            for y in (0, d)
        )
        for bi in range(side // (2 * d))
        for bj in range(side // (2 * d))
        for a in range(d)
        for b in range(d)
    ]


def reference_translate(groups, side, di, dj):
    return [tuple(Coord((c.row + di) % side, (c.col + dj) % side) for c in g) for g in groups]


def legal_partitions_with_reference(side):
    """(partition, reference groups) for every generator/parameter that tiles the torus."""
    g = GridGeometry(side)
    out = []
    for d in legal_square_sides(side):
        out.append((square_partition(g, d), reference_block_groups(side, d, 0)))
        out.append((shifted_square_partition(g, d), reference_block_groups(side, d, d // 2)))
    if side % 5 == 0:
        out.append((cross_partition(g), reference_cross_groups(side)))
    for d in range(1, side // 2 + 1):
        if side % (2 * d) == 0:
            out.append((four_corners_partition(g, d), reference_four_corners_groups(side, d)))
    return out


def test_array_generators_match_reference_loops_up_to_40():
    # Group numbering and each group's cells; the map holds no order inside a group.
    rng = random.Random(1303)
    for side in range(2, 41):
        for p, reference in legal_partitions_with_reference(side):
            assert groups(p) == tuple(map(frozenset, reference)), (side, p.kind, p.d)
            di, dj = rng.randint(-3 * side, 3 * side), rng.randint(-3 * side, 3 * side)
            moved = translate_partition(p, (di, dj))
            want = reference_translate(reference, side, di, dj)
            assert groups(moved) == tuple(map(frozenset, want)), (side, p.kind, p.d, di, dj)
            assert (moved.kind, moved.step_cost, moved.tile_side) == (
                p.kind,
                p.step_cost,
                p.tile_side,
            )


def test_period_blocks_give_the_reference_maps_band_by_band(monkeypatch, tmp_path):
    # Bands of one period each: every named map and partition CSV is read band by band,
    # with groups across the band edges and the row wrap.
    from gridgrover import grid

    monkeypatch.setattr(grid, "GROUP_BLOCK", 1)
    rng = random.Random(26)
    for side in (10, 16, 20, 24, 30, 40):
        for p, reference in legal_partitions_with_reference(side):
            di, dj = rng.randrange(side), rng.randrange(side)
            moved = translate_partition(p, (di, dj))
            want = reference_translate(reference, side, di, dj)
            assert groups(moved) == tuple(map(frozenset, want)), (side, p.kind, p.d, di, dj)
            got = emit_partition_csv(translate_partition(p, (di, dj)), tmp_path / "got.csv")
            expected = reference_partition_csv(p.geometry, want, tmp_path / "want.csv")
            assert got.read_bytes() == expected.read_bytes(), (side, p.kind, p.d, di, dj)


def reference_partition_csv(geometry, groups, path):
    ids = np.full(geometry.cell_count, -1, dtype=np.int64)
    for g, group in enumerate(groups):
        for cell in group:
            ids[cell_index(geometry, cell)] = g
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "j", "group"])
        for flat in range(geometry.cell_count):
            writer.writerow([flat // geometry.side, flat % geometry.side, int(ids[flat])])
    return path


@pytest.mark.parametrize("side", [4, 10, 12])
def test_partition_csv_bytes_match_reference_emitter(tmp_path, side):
    g = GridGeometry(side)
    # Hand-built groups: the first two rows, then every other cell, in the order given.
    rows = [(i, j) for i in range(2) for j in range(side)]
    rest = [(i, j) for i in range(2, side) for j in range(side)]
    hand = [rows, rest[1::2], rest[::2]]
    cases = legal_partitions_with_reference(side)
    cases.append((custom_partition(g, hand), hand))
    for k, (p, reference) in enumerate(cases):
        got = emit_partition_csv(p, tmp_path / f"got{k}.csv").read_bytes()
        want = reference_partition_csv(g, reference, tmp_path / f"want{k}.csv").read_bytes()
        assert got == want, (side, p.kind, p.tile_side)


def test_group_map_describes_groups():
    p = four_corners_partition(GridGeometry(8), 2)
    assert p.group_ids.dtype == np.intp and p.group_ids.shape == (64,)
    assert p.group_count == 16 and p.tile_side is None
    np.testing.assert_array_equal(p.group_sizes, 4.0)
    want = {cell_index(p.geometry, c) for c in reference_four_corners_groups(8, 2)[0]}
    assert set(np.flatnonzero(p.group_ids == 0).tolist()) == want
    assert validate_partition(p) is None


def test_partition_map_is_checked_at_construction():
    # A stored map numbers its groups 0 .. max(ids); each must hold a cell.
    g = GridGeometry(2)
    ids = np.array([0, 0, 1, 1])
    p = Partition(g, ids=ids)
    assert validate_partition(p) is None and p.group_count == 2
    for bad in (None, ids[:3], ids.astype(np.float64), ids.reshape(2, 2)):
        with pytest.raises(InvalidPartitionError, match="integer ids"):
            Partition(g, ids=bad)
    with pytest.raises(InvalidPartitionError, match=r"^invalid partition: 1 negative group ids$"):
        Partition(g, ids=np.array([-1, 0, 1, 1]))
    with pytest.raises(InvalidPartitionError, match=r"^invalid partition: 2 empty groups$"):
        Partition(g, ids=np.array([0, 0, 3, 3]))


def test_tile_descriptor_is_checked_at_construction():
    g = GridGeometry(12)
    for d in (0, -4, 5, 8, 24):
        for build in (square_partition, shifted_square_partition):
            with pytest.raises(ValueError, match="tessellation needs"):
                build(g, d)
        for kind in (KIND_SQUARE, KIND_FOUR_CORNERS):
            with pytest.raises(ValueError, match="tessellation needs"):
                Partition(g, kind, d=d, tile_shift=(1, 2))
    with pytest.raises(ValueError, match="5 does not divide 12"):
        Partition(g, KIND_CROSS, tile_shift=(3, 1))
    # "shifted-square" is a config word for the square kind at a shift, not a kind.
    for kind in ("hexagon", KIND_SHIFTED_SQUARE):
        with pytest.raises(ValueError, match=f"unknown tessellation kind '{kind}'"):
            Partition(g, kind, d=3)
    # A named kind derives its map; it is not silently replaced by a given one.
    for kind in (KIND_SQUARE, KIND_CROSS, KIND_FOUR_CORNERS):
        with pytest.raises(ValueError, match="only custom takes ids"):
            Partition(GridGeometry(20), kind, d=4, ids=np.zeros(400, dtype=np.intp))
    # A descriptor has no stored map; its map and group count follow from it.
    p = Partition(GridGeometry(10), KIND_CROSS, tile_shift=(3, 1))
    assert (p.ids, p.tile_side) == (None, None) and "group_ids" not in p.__dict__
    assert p.group_count == 20


def test_named_tessellations_hold_no_map_until_it_is_read():
    # At L = 2000 a cell -> group map is 32 MB; constructing a named kind makes none.
    g = GridGeometry(2000)
    builds = (
        cross_partition,
        lambda g: four_corners_partition(g, 4),
        lambda g: square_partition(g, 4),
        lambda g: shifted_square_partition(g, 4),
    )
    for build in builds:
        tracemalloc.start()
        try:
            p = build(g)
            _current, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak_bytes < 64 * 1024, p.kind
        assert "group_ids" not in p.__dict__


def test_square_partition_whole_grid():
    p = square_partition(GridGeometry(4), 4)
    assert p.group_count == 1
    assert len(groups(p)[0]) == 16


def test_square_partition_block_origins():
    p = square_partition(GridGeometry(8), 4)
    assert p.group_count == 4
    assert all(len(g) == 16 for g in groups(p))
    origins = {min(g) for g in groups(p)}
    assert origins == {Coord(0, 0), Coord(0, 4), Coord(4, 0), Coord(4, 4)}


def test_square_partition_group_count_20():
    p = square_partition(GridGeometry(20), 4)
    assert p.group_count == 25
    assert all(len(g) == 16 for g in groups(p))


def test_square_partition_rejects_non_divisor():
    with pytest.raises(ValueError):
        square_partition(GridGeometry(20), 3)
    with pytest.raises(ValueError):
        shifted_square_partition(GridGeometry(20), 3)


def test_shifted_partition_is_relabeling_on_single_tile():
    p = shifted_square_partition(GridGeometry(4), 4)
    assert p.group_count == 1
    assert set(groups(p)[0]) == {Coord(i, j) for i in range(4) for j in range(4)}


def test_shifted_partition_wraps():
    p = shifted_square_partition(GridGeometry(8), 4)
    by_cells = {frozenset(g) for g in groups(p)}
    inner = frozenset(Coord(i, j) for i in range(2, 6) for j in range(2, 6))
    wrapped = frozenset(Coord(i, j) for i in (6, 7, 0, 1) for j in (6, 7, 0, 1))
    assert inner in by_cells
    assert wrapped in by_cells


def test_shifted_tiles_overlap_exactly_four_aligned_tiles():
    # Enumerated overlap count between the two tilings at L=8, d=4.
    aligned = square_partition(GridGeometry(8), 4)
    shifted = shifted_square_partition(GridGeometry(8), 4)
    for tile in groups(shifted):
        cells = set(tile)
        touching = sum(1 for other in groups(aligned) if cells & set(other))
        assert touching == 4


@pytest.mark.parametrize("side,expected_groups", [(5, 5), (10, 20)])
def test_cross_partition_tiles_exactly(side, expected_groups):
    p = cross_partition(GridGeometry(side))
    assert p.group_count == expected_groups
    validate_partition(p)
    # brute-force cover check, independent of the validator
    seen = Counter(cell for group in groups(p) for cell in group)
    assert set(seen.values()) == {1}
    assert len(seen) == side * side


def test_cross_groups_are_center_plus_cardinal_neighbors():
    side = 10
    p = cross_partition(GridGeometry(side))
    for group in groups(p):
        (center,) = [c for c in group if (c.row + 2 * c.col) % 5 == 0]
        want = {
            center,
            Coord((center.row - 1) % side, center.col),
            Coord((center.row + 1) % side, center.col),
            Coord(center.row, (center.col - 1) % side),
            Coord(center.row, (center.col + 1) % side),
        }
        assert group == want


def test_cross_partition_rejects_bad_side():
    with pytest.raises(ValueError):
        cross_partition(GridGeometry(8))


def test_four_corners_small_grid():
    p = four_corners_partition(GridGeometry(4), 2)
    assert p.group_count == 4
    assert {frozenset(g) for g in groups(p)} >= {
        frozenset({Coord(0, 0), Coord(2, 0), Coord(0, 2), Coord(2, 2)})
    }


def test_four_corners_exact_cover_8():
    p = four_corners_partition(GridGeometry(8), 2)
    assert p.group_count == 16
    seen = Counter(cell for group in groups(p) for cell in group)
    assert set(seen.values()) == {1} and len(seen) == 64


@pytest.mark.parametrize("side,d", [(4, 2), (8, 2), (8, 4), (12, 3), (20, 5)])
def test_four_corners_group_size_always_four(side, d):
    p = four_corners_partition(GridGeometry(side), d)
    assert all(len(g) == 4 for g in groups(p))


def test_four_corners_rejects_bad_param():
    with pytest.raises(ValueError):
        four_corners_partition(GridGeometry(8), 3)


def test_validate_partition_reports_duplicates_and_missing():
    # custom_partition checks the cover as it builds the map, so no partition misses a cell.
    g = GridGeometry(8)
    good = square_partition(g, 4)
    assert validate_partition(good) is None

    tiles = [list(grp) for grp in groups(good)]
    assert validate_partition(custom_partition(g, tiles)) is None
    with pytest.raises(InvalidPartitionError, match=r"^invalid partition: 16 duplicated cells$"):
        custom_partition(g, tiles + [tiles[0]])
    with pytest.raises(InvalidPartitionError, match=r"^invalid partition: 1 missing cells$"):
        custom_partition(g, [tiles[0][:-1]] + tiles[1:])


def test_validate_partition_rejects_empty_groups():
    # An empty group has no superposition to reflect about: its mean would divide by zero.
    g = GridGeometry(4)
    with pytest.raises(InvalidPartitionError, match=r"^invalid partition: 1 empty groups$"):
        custom_partition(g, [[(i, j) for i in range(4) for j in range(4)], []])


def test_all_legal_generators_tile_up_to_40():
    for side in range(2, 41):
        for p in all_legal_partitions(side):
            validate_partition(p)
            assert sum(len(g) for g in groups(p)) == side * side


def test_group_counts_match_formulas():
    g = GridGeometry(20)
    assert square_partition(g, 4).group_count == (20 // 4) ** 2
    assert shifted_square_partition(g, 2).group_count == (20 // 2) ** 2
    assert cross_partition(g).group_count == 400 // 5
    assert four_corners_partition(g, 5).group_count == 400 // 4


def test_gram_matrix_of_indicator_states_is_identity():
    # Disjoint supports make the normalized group indicators orthonormal.
    for side in (4, 5, 8, 10):
        for p in all_legal_partitions(side):
            n = side * side
            vectors = np.zeros((p.group_count, n))
            for row, group in enumerate(groups(p)):
                for cell in group:
                    vectors[row, cell_index(p.geometry, cell)] = 1.0 / np.sqrt(len(group))
            gram = vectors @ vectors.T
            assert np.max(np.abs(gram - np.eye(p.group_count))) <= 1e-12


@settings(max_examples=40)
@given(st.integers(min_value=-25, max_value=25), st.integers(min_value=-25, max_value=25))
def test_translation_preserves_tiling(di, dj):
    for p in (
        square_partition(GridGeometry(8), 4),
        shifted_square_partition(GridGeometry(8), 2),
        cross_partition(GridGeometry(10)),
        four_corners_partition(GridGeometry(12), 3),
    ):
        validate_partition(translate_partition(p, (di, dj)))


def test_custom_partition_numbers_groups_in_order():
    # Cells wrap onto the grid; a translation rolls the map and keeps the numbering.
    g = GridGeometry(4)
    lower = [(i, j) for i in range(1, 4) for j in range(4)]
    p = custom_partition(g, [[(0, 0), (4, 1)], lower, [(0, 2), (0, -1)]])
    np.testing.assert_array_equal(p.group_ids, [0, 0, 2, 2] + [1] * 12)
    assert (p.kind, p.step_cost, p.group_count, p.tile_side) == ("custom", 1, 3, None)
    moved = translate_partition(p, (1, -1))
    np.testing.assert_array_equal(moved.group_ids.reshape(4, 4)[1], [0, 2, 2, 0])
    assert groups(moved) == tuple(map(frozenset, reference_translate(groups(p), 4, 1, -1)))


def test_step_costs():
    g = GridGeometry(20)
    assert square_partition(g, 4).step_cost == 4
    assert shifted_square_partition(g, 4).step_cost == 4
    assert cross_partition(g).step_cost == 1
    assert four_corners_partition(g, 5).step_cost == 5
    # The kind fixes the step cost and tile side; neither can be passed in.
    for fixed in ("step_cost", "tile_side"):
        with pytest.raises(TypeError):
            Partition(g, KIND_SQUARE, d=4, **{fixed: 4})


def test_custom_partition_needs_integer_cells():
    # At L = 4, (0.5, 0) would land in row-major cell 2, that is (0, 2), with no error.
    g = GridGeometry(4)
    lower = [(i, j) for i in range(1, 4) for j in range(4)]
    with pytest.raises(ValueError, match=r"cells need integer coordinates, got \(0.5, 0\)"):
        custom_partition(g, [[(0, 0), (0, 1), (0, 3)], [(0.5, 0)], lower])
    numpy_ints = [[(np.int64(i), np.int32(j)) for i, j in lower]]
    assert custom_partition(g, [[(0, j) for j in range(4)], *numpy_ints]).group_count == 2


def test_named_partition_needs_integer_tile_shift():
    # A float shift made a float64 group map, and a run failed only inside np.bincount.
    g = GridGeometry(8)
    with pytest.raises(ValueError, match=r"tile shifts need integer coordinates, got \(0.5, 0\)"):
        Partition(g, KIND_SQUARE, d=4, tile_shift=(0.5, 0))
    for partition in (square_partition(g, 4), cross_partition(GridGeometry(10)),
                      custom_partition(GridGeometry(2), [[(0, 0), (0, 1)], [(1, 0), (1, 1)]])):
        with pytest.raises(ValueError, match=r"offsets need integer coordinates, got \(0, 1.0\)"):
            translate_partition(partition, (0, 1.0))
    moved = translate_partition(square_partition(g, 4), (np.int64(3), np.int32(1)))
    assert moved.tile_shift == (3, 1) and moved.group_ids.dtype == np.intp
