import csv
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridgrover import (
    GridGeometry,
    MarkedSet,
    RunConfig,
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
    assert np.unique(grid.view(np.uint64)).size < grid.size / 2
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
        reference_snapshot_csv(values, tmp_path / f"{name}_reference.csv")
        emit_snapshot_csv(values, tmp_path / f"{name}.csv")
        expected = (tmp_path / f"{name}_reference.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name


def test_snapshot_csv_memory_stays_within_a_block(tmp_path):
    # An L = 1024 snapshot is 8 MiB and an L = 1000 cross map 7.6 MiB; the writer
    # holds one block's text, not the file's.
    grid = _run_snapshot(RunConfig(GridGeometry(1024), max_iterations=2, snapshot_stride=2))
    partition = cross_partition(GridGeometry(1000))
    assert partition.group_ids.size == 1000**2  # derived and cached outside the traced write
    for emit, source in ((emit_snapshot_csv, grid), (emit_partition_csv, partition)):
        tracemalloc.start()
        try:
            emit(source, tmp_path / "cells.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, emit.__name__


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
