import csv
import math
import tracemalloc
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridgrover import (
    GridGeometry,
    MarkedSet,
    RunConfig,
    TileGrid,
    bin_index,
    cross_partition,
    custom_partition,
    emit_heatmap,
    emit_partition_csv,
    emit_snapshot_csv,
    emit_trace_csv,
    four_corners_partition,
    read_trace_csv,
    run,
    run_grover_reference,
    shifted_square_partition,
    square_partition,
    translate_partition,
    uniform_state,
)
from gridgrover import outputs
from gridgrover.outputs import CELL_BLOCK, DEFAULT_HEATMAP_COLORS


@pytest.fixture(scope="module")
def small_trace():
    return run(RunConfig(GridGeometry(8), max_iterations=3, snapshot_stride=1))


def test_trace_csv_layout(tmp_path, small_trace):
    path = emit_trace_csv(small_trace, tmp_path / "trace.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,marked_probability,marked_amplitude,nominal_steps"
    assert len(lines) == 4  # header + 3 iterations
    assert lines[1].startswith("1,")
    assert lines[3].startswith("3,")


def test_trace_csv_round_trips_exactly(tmp_path, small_trace):
    path = emit_trace_csv(small_trace, tmp_path / "trace.csv")
    columns = read_trace_csv(path)
    np.testing.assert_array_equal(columns["iteration"], [1, 2, 3])
    assert np.max(np.abs(columns["marked_probability"] - small_trace.probabilities)) <= 1e-12
    np.testing.assert_array_equal(
        columns["marked_amplitude"], np.sqrt(columns["marked_probability"])
    )
    np.testing.assert_array_equal(columns["nominal_steps"], small_trace.cumulative_steps)


def reference_trace_csv(trace, path):
    # The per-row csv.writer emitter, kept as the byte reference.
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "marked_probability", "marked_amplitude", "nominal_steps"])
        for k, (p, steps) in enumerate(zip(trace.probabilities, trace.cumulative_steps), start=1):
            writer.writerow([k, format(float(p), ".17g"), format(math.sqrt(p), ".17g"), int(steps)])


def test_read_trace_csv_refuses_an_empty_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=f"^{path}: empty file, expected a trace CSV header$"):
        read_trace_csv(path)


def test_trace_csv_bytes_match_reference_emitter(tmp_path):
    g = GridGeometry(16)
    traces = {
        "ltr": run(RunConfig(g, order="ltr")),
        "rtl": run(RunConfig(g, order="rtl")),
        "grover": run_grover_reference(256, 2, 40),
        # 1.0 prints as "1"; values below 1e-5 print in exponent form.
        "hand_built": SimpleNamespace(
            probabilities=np.array([1.0, 9.5e-6, 2.5e-7, 5e-324, 0.0, 1 / 3]),
            cumulative_steps=np.arange(6, dtype=np.int64) * 10**12,
        ),
    }
    for name, trace in traces.items():
        reference_trace_csv(trace, tmp_path / f"{name}_reference.csv")
        emit_trace_csv(trace, tmp_path / f"{name}.csv")
        expected = (tmp_path / f"{name}_reference.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name


def test_emitted_files_are_byte_deterministic(tmp_path, small_trace):
    a = emit_trace_csv(small_trace, tmp_path / "a.csv").read_bytes()
    b = emit_trace_csv(small_trace, tmp_path / "b.csv").read_bytes()
    assert a == b
    grid = small_trace.snapshots[2]
    x = emit_heatmap(grid, tmp_path / "a.ppm").read_bytes()
    y = emit_heatmap(grid, tmp_path / "b.ppm").read_bytes()
    assert x == y


def test_snapshot_csv(tmp_path):
    grid = np.array([[0.5, -0.5], [0.25, 0.0]])
    path = emit_snapshot_csv(grid, tmp_path / "snap.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,amplitude"
    assert lines[1] == "0,0,0.5"
    assert lines[2] == "0,1,-0.5"
    assert lines[4] == "1,1,0"


def reference_snapshot_csv(grid, path):
    # The per-cell csv.writer emitter, kept as the byte reference.
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "j", "amplitude"])
        for i in range(grid.shape[0]):
            for j in range(grid.shape[1]):
                writer.writerow([i, j, format(float(grid[i, j]), ".17g")])


def _run_snapshot(config):
    """The last stored grid of a run, checked to repeat values as a run over two partitions does."""
    trace = run(config)
    grid = trace.snapshots[max(trace.snapshots)]
    values = np.asarray(grid)
    assert np.unique(values.view(np.uint64)).size < values.size / 2
    return grid


def test_snapshot_csv_bytes_match_reference_emitter(tmp_path):
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(400, 400)) / 400
    grid[0, :4] = [-0.0, 5e-324, np.inf, 1 / 3]
    grid[399, 399] = -np.inf
    grid[17, 3] = 1e300
    g = GridGeometry(40)
    marked = MarkedSet.of((3, 5), (21, 30))
    # Signed zeros and NaNs of two payloads share one block; each bit pattern keeps its text.
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    specials = np.resize(np.array([0.0, -0.0, *nans, 0.5]), (6, 7))
    rows_per_block = CELL_BLOCK // 300
    assert rows_per_block and 29 % rows_per_block
    grids = {
        "distinct": grid,
        # A non-square grid keeps its row and column numbering.
        "wide": grid[:3, :7],
        # Other dtypes print as their float64 value: "%.17g" of float(v).
        "float32": (rng.normal(size=(40, 50)) * 10.0 ** rng.integers(-13, 17, (40, 50))).astype(
            np.float32),
        "float16": rng.normal(size=(20, 30)).astype(np.float16),
        "int64": np.concatenate([rng.integers(-2**62, 2**62, (10, 20)),
                                 rng.integers(-120, 120, (10, 20))]),
        "bool": rng.random((20, 30)) > 0.5,
        "tile_run": _run_snapshot(RunConfig(g, marked, max_iterations=12, snapshot_stride=12)),
        "cross_run": _run_snapshot(RunConfig(g, marked, local_partition=cross_partition(g),
                                             max_iterations=12, snapshot_stride=12)),
        "specials": specials,
        # One row per block.
        "wider_than_block": np.round(rng.normal(size=(3, CELL_BLOCK + 5)), 2),
        # The last block holds fewer rows than the others.
        "short_last_block": np.round(rng.normal(size=(29, 300)), 3),
        "single": np.array([[0.1]]),
        "no_columns": np.zeros((3, 0)),
        "no_rows": np.zeros((0, 3)),
    }
    for name, values in grids.items():
        reference_snapshot_csv(np.asarray(values), tmp_path / f"{name}_reference.csv")
        emit_snapshot_csv(values, tmp_path / f"{name}.csv")
        expected = (tmp_path / f"{name}_reference.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name


def kernel_texts(values):
    """The float kernel's text of each value, NULs dropped."""
    text = outputs._float_text(np.asarray(values, dtype=np.float64))
    return [bytes(row[row != 0]) for row in text]


def percent_texts(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


# Doubles whose biased exponent puts them in and around the kernel's window (about 2^-37 to 2^50).
window_floats = st.builds(
    lambda sign, exponent, mantissa: np.uint64((sign << 63) | (exponent << 52) | mantissa),
    st.integers(0, 1), st.integers(1023 - 40, 1023 + 52), st.integers(0, 2**52 - 1),
)


@given(st.lists(st.integers(0, 2**64 - 1) | window_floats, min_size=1, max_size=40))
def test_float_text_matches_percent_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert kernel_texts(values) == percent_texts(values)


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_text_matches_percent_on_floats(values):
    assert kernel_texts(values) == percent_texts(values)


def half_way_ties():
    """Dyadic values in the kernel's window whose exact decimal has 18 significant digits,
    so that "%.17g" rounds a final 5 half to even: both ways occur."""
    ties = []
    for power in range(-36, 50):
        for odd in range(1, 2**8, 2):
            value = odd * 2.0**power
            digits = Decimal(value).as_tuple().digits
            if len(digits) == 18 and 1e-11 <= value < 1e15:
                ties.append(value)
    return ties


def test_float_text_matches_percent_on_edge_cases():
    ties = half_way_ties()
    kept = [Decimal(t).as_tuple().digits[16] % 2 == 0 for t in ties]
    assert len(ties) > 100 and 50 < sum(kept) < len(ties) - 50
    tens = np.array([float(f"1e{k}") for k in range(-13, 18)])
    edges = np.array([outputs._FLOAT_LOW, 1e-11, 1e15, 1e14, 1e-4, 1e-5])
    cases = {
        "ties": ties,
        # Each power of ten and its neighbours one ulp away.
        "tens": np.concatenate([np.nextafter(tens, 0), tens, np.nextafter(tens, np.inf)]),
        # Decimal exponents X >= -4 print in fixed notation, X < -4 in exponent notation.
        "notation": [1e-4, 9.9999999999999991e-05, 0.00012345678901234567, 1e-5,
                     9.999999999999999e-06, 1.2345e-5, 0.001, 0.5, 1.0],
        # The window's edges, with the neighbours just outside them.
        "edges": np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf)]),
        # Trailing zeros and the point go, integer digits stay.
        "trailing": [0.5, 0.25, 1.5, 100.0, 123.0, 12345.5, 123456789012345.0, 1e14 + 0.5,
                     99999999999999.98, 3.0, 2.0**-20, 10.0, 7e-11],
        "outside": [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan,
                    1.7976931348623157e308, 1e300, 1e-300],
    }
    for name, values in cases.items():
        values = np.asarray(values, dtype=np.float64)
        values = np.concatenate([values, -values])
        assert kernel_texts(values) == percent_texts(values), name
        # One call per value gives the same text as one call for all.
        assert [kernel_texts([v])[0] for v in values] == percent_texts(values), name


def test_decimal_fields_match_percent_d():
    # Row, column and group fields: right-aligned digits after NULs, four digits a group.
    for width in range(1, 19):
        values = sorted({0, 9, 10, 99, 100} | {10**k - 1 for k in range(1, width + 1)}
                        | {10**k for k in range(width)} | {10**width - 1})
        text = outputs._decimal(np.array(values), width)
        assert text.shape == (len(values), -(-width // 4) * 4)
        for value, row in zip(values, text):
            digits = bytes(row).lstrip(b"\0")
            assert digits == b"%d" % value, (width, value)


def test_snapshot_csv_memory_stays_within_a_block(tmp_path):
    # An L = 1024 snapshot is 8 MiB and an L = 1000 cross map would be 7.6 MiB; the writer
    # holds one block's text, not the file's, and a partition's ids a block of rows at a time.
    grid = _run_snapshot(RunConfig(GridGeometry(1024), max_iterations=2, snapshot_stride=2))
    partition = cross_partition(GridGeometry(1000))
    for emit, source in ((emit_snapshot_csv, grid), (emit_partition_csv, partition)):
        tracemalloc.start()
        try:
            emit(source, tmp_path / "cells.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, emit.__name__
    assert "group_ids" not in partition.__dict__


def test_writers_stream_a_stored_tile_grid(tmp_path):
    # An L = 1024 tile run stores its grid as two 257 x 257 lattices (1 MiB), not the 8 MiB
    # grid; the writers read it a block of rows at a time and never build the whole grid.
    config = RunConfig(GridGeometry(1024), max_iterations=2, snapshot_stride=1)
    trace = run(config)
    for stored in trace.snapshots.values():  # a copy at round 1, the state's arrays at round 2
        assert stored.shape == (1024, 1024) and not isinstance(stored, np.ndarray)
        for emit in (emit_snapshot_csv, emit_heatmap):
            tracemalloc.start()
            try:
                path = emit(stored, tmp_path / "grid.out")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20, emit.__name__
            if emit is emit_heatmap:
                assert path.read_bytes() == reference_heatmap(np.asarray(stored), 1)
            else:
                reference_snapshot_csv(np.asarray(stored)[:3], tmp_path / "head.csv")
                head = (tmp_path / "head.csv").read_bytes()
                assert path.read_bytes()[:len(head)] == head


def reference_partition_csv(partition, path):
    # The per-cell csv.writer emitter, kept as the byte reference.
    side = partition.geometry.side
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["i", "j", "group"])
        for cell, group in enumerate(partition.group_ids.tolist()):
            writer.writerow([cell // side, cell % side, group])


def test_partition_csv_bytes_match_reference_emitter(tmp_path):
    g = GridGeometry(60)
    cells = np.random.default_rng(5).permutation(g.cell_count)
    # Uneven groups of scattered cells, numbered in order.
    hand = [[divmod(int(c), 60) for c in group] for group in np.split(cells, [1, 7, 900, 2000])]
    partitions = {
        "square": square_partition(g, 4),
        "shifted_square": shifted_square_partition(g, 6),
        "cross": cross_partition(g),
        "moved_cross": translate_partition(cross_partition(g), (3, 7)),
        "four_corners": four_corners_partition(g, 3),
        "custom": custom_partition(g, hand),
        # Every cell a group: ids 0, 9, 10, 99, 100 up to the widest, 120.
        "singletons": custom_partition(GridGeometry(11), [[(i, j)] for i in range(11)
                                                         for j in range(11)]),
    }
    for name, partition in partitions.items():
        reference_partition_csv(partition, tmp_path / f"{name}_reference.csv")
        emit_partition_csv(partition, tmp_path / f"{name}.csv")
        expected = (tmp_path / f"{name}_reference.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name


def test_partition_csv(tmp_path):
    p = square_partition(GridGeometry(4), 2)
    path = emit_partition_csv(p, tmp_path / "partition.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,group"
    assert len(lines) == 17
    # row-major cells; cell (0,0) and (1,1) share the first tile
    assert lines[1] == "0,0,0"
    assert lines[2 + 4] == "1,1,0"


def test_heatmap_rejects_scale_below_one(tmp_path):
    for scale in (0, -2):
        with pytest.raises(ValueError, match="scale"):
            emit_heatmap(np.zeros((4, 4)), tmp_path / "x.ppm", scale)
    assert not (tmp_path / "x.ppm").exists()


def test_bin_index_rule():
    # clamp at -0.5, floor((a + 0.5) / 0.15), cap at 9
    values = [-0.7, -0.5, 0.0, 0.149, 0.15, 1.0]
    expected = [0, 0, 3, 4, 4, 9]
    assert list(bin_index(np.array(values))) == expected
    assert bin_index(0.05) == 3  # the uniform amplitude on a 20-grid


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_bin_index_stays_in_range(amplitude):
    assert 0 <= int(bin_index(amplitude)) <= 9


def test_heatmap_header_and_uniform_pixels(tmp_path):
    grid = uniform_state(GridGeometry(20)).as_grid()
    path = emit_heatmap(grid, tmp_path / "u.ppm")
    blob = path.read_bytes()
    header = b"P6\n20 20\n255\n"
    assert blob.startswith(header)
    pixels = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(20, 20, 3)
    expected = np.broadcast_to(np.array(DEFAULT_HEATMAP_COLORS[3], dtype=np.uint8), (20, 20, 3))
    np.testing.assert_array_equal(pixels, expected)


def test_heatmap_upscaling(tmp_path):
    grid = np.zeros((4, 4))
    path = emit_heatmap(grid, tmp_path / "s.ppm", scale=3)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n12 12\n255\n")
    assert len(blob) == len(b"P6\n12 12\n255\n") + 12 * 12 * 3


def test_heatmap_pixel_binning_golden(tmp_path):
    grid = np.full((20, 20), 0.05)
    for col, a in enumerate([-0.7, -0.5, 0.0, 0.149, 0.15, 1.0]):
        grid[0, col] = a
    path = emit_heatmap(grid, tmp_path / "g.ppm")
    blob = path.read_bytes()
    header = b"P6\n20 20\n255\n"
    pixels = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(20, 20, 3)
    for col, bin_id in enumerate([0, 0, 3, 4, 4, 9]):
        assert tuple(pixels[0, col]) == DEFAULT_HEATMAP_COLORS[bin_id]


def test_heatmap_rejects_flat_input(tmp_path):
    with pytest.raises(ValueError):
        emit_heatmap(np.zeros(16), tmp_path / "x.ppm")


def test_default_colors_brighten_monotonically():
    # documented contract: bin 0 darkest through bin 9 brightest
    luminance = [0.299 * r + 0.587 * g + 0.114 * b for r, g, b in DEFAULT_HEATMAP_COLORS]
    assert luminance == sorted(luminance)
    assert len(DEFAULT_HEATMAP_COLORS) == 10


def reference_heatmap(grid, scale):
    # The whole-raster emitter, kept as the byte reference.
    bins = np.minimum(np.floor((np.clip(grid, -0.5, 1.0) + 0.5) / 0.15).astype(np.int64), 9)
    pixels = np.array(DEFAULT_HEATMAP_COLORS, dtype=np.uint8)[bins]
    pixels = np.repeat(np.repeat(pixels, scale, axis=0), scale, axis=1)
    height, width = pixels.shape[:2]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes()


@pytest.mark.parametrize("cell_block", [10, CELL_BLOCK])
def test_heatmap_bytes_match_the_whole_raster_reference(tmp_path, monkeypatch, cell_block):
    # With 10-cell blocks a 7 x 5 grid runs as 2 + 2 + 2 + 1 rows and 401 x 3 ends on 2 rows;
    # a 1 x 13 row is wider than a block.  1000 x 7 ends on a partial block of the default size.
    monkeypatch.setattr(outputs, "CELL_BLOCK", cell_block)
    rng = np.random.default_rng(11)
    for shape in ((7, 5), (1, 13), (401, 3), (1000, 7), (0, 3), (3, 0)):
        grid = rng.uniform(-0.8, 1.2, shape)
        if grid.size:
            grid.flat[0], grid.flat[-1] = np.inf, -np.inf
        for scale in (1, 2, 3):
            path = emit_heatmap(grid, tmp_path / "h.ppm", scale)
            assert path.read_bytes() == reference_heatmap(grid, scale), (shape, scale)
    # A strided view streams like its contiguous copy.
    view = rng.uniform(-0.8, 1.2, (30, 40))[::3, ::-2]
    assert emit_heatmap(view, tmp_path / "v.ppm", 2).read_bytes() == reference_heatmap(view, 2)


def test_heatmap_memory_stays_within_a_block(tmp_path):
    # An L = 400 raster at scale 2 is 1.9 MB of pixels; the writer holds one block of them.
    grid = np.random.default_rng(3).uniform(-0.6, 1.1, (400, 400))
    tracemalloc.start()
    try:
        emit_heatmap(grid, tmp_path / "h.ppm", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**19
    assert (tmp_path / "h.ppm").read_bytes() == reference_heatmap(grid, 2)


def test_bin_index_refuses_nan_and_clamps_infinities():
    with pytest.raises(ValueError, match="^2 amplitude cells are NaN"):
        bin_index(np.array([0.0, np.nan, 1.0, np.nan]))
    with pytest.raises(ValueError, match="^1 amplitude cells are NaN"):
        bin_index(float("nan"))
    assert list(bin_index(np.array([-np.inf, np.inf]))) == [0, 9]


def test_heatmap_refuses_nan_before_opening_the_file(tmp_path):
    grid = np.zeros((400, 30))
    grid[399, 29] = grid[7, 0] = grid[200, 3] = np.nan
    for scale in (1, 2):
        with pytest.raises(ValueError, match="^3 amplitude cells are NaN"):
            emit_heatmap(grid, tmp_path / "x.ppm", scale)
        assert not (tmp_path / "x.ppm").exists()
    # +inf next to -inf sums to NaN; with no NaN cell the raster is still written.
    grid[[399, 7, 200], [29, 0, 3]] = np.inf, -np.inf, 0.5
    assert emit_heatmap(grid, tmp_path / "x.ppm").read_bytes() == reference_heatmap(grid, 1)


def test_heatmap_builds_each_block_of_a_stored_tile_grid_once(tmp_path, monkeypatch):
    # Finite coefficients and deltas cannot sum to NaN, so a stored tile grid skips the NaN
    # pass: each block of rows is built once, to bin it.
    stored = run(RunConfig(GridGeometry(200), MarkedSet.of((3, 5)), max_iterations=2,
                           snapshot_stride=2)).snapshots[2]
    expected = {scale: reference_heatmap(np.asarray(stored), scale) for scale in (1, 2)}
    built = []
    build = TileGrid.__getitem__
    monkeypatch.setattr(TileGrid, "__getitem__", lambda grid, rows: built.append(rows) or build(
        grid, rows))
    for scale, raster in expected.items():
        built.clear()
        path = emit_heatmap(stored, tmp_path / "h.ppm", scale)
        block_rows = outputs._pixel_block(200, 200, scale)[0]
        assert [rows.start for rows in built] == list(range(0, 200, block_rows)), scale
        assert path.read_bytes() == raster, scale


def test_heatmap_refuses_a_stored_tile_grid_with_a_nan_before_opening_the_file(tmp_path):
    trace = run(RunConfig(GridGeometry(40), MarkedSet.of((3, 5)), max_iterations=2,
                          snapshot_stride=1))
    nan_coefficient, opposite_infinities = trace.snapshots[1], trace.snapshots[2]
    nan_coefficient.coefficients[0][1, 2] = np.nan
    # +inf in one lattice against -inf in the other: every cell sums to NaN.
    (a, b), (sa, sb) = opposite_infinities.coefficients, opposite_infinities.signs
    a[...], b[...] = sa * np.inf, -sb * np.inf
    for stored in (nan_coefficient, opposite_infinities):
        with np.errstate(invalid="ignore"):  # inf - inf
            nan_cells = np.count_nonzero(np.isnan(np.asarray(stored)))
            assert nan_cells
            with pytest.raises(ValueError, match=f"^{nan_cells} amplitude cells are NaN"):
                emit_heatmap(stored, tmp_path / "x.ppm")
        assert not (tmp_path / "x.ppm").exists()
