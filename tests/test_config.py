import dataclasses
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_config
from gridgrover import (
    ConfigError,
    GridGeometry,
    config,
    emit_partition_csv,
    experiments,
    make_partition,
    parse_config,
    run,
    run_experiment,
)
from gridgrover.tessellation import (
    KIND_CROSS, KIND_FOUR_CORNERS, KIND_SHIFTED_SQUARE, KIND_SQUARE,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_minimal_config_fills_defaults():
    config = parse_config("L = 20\nd = 4\nmarked = 11,11\n")
    assert config.side == 20
    assert config.marked_cells == ((11, 11),)
    assert config.d == 4
    assert config.local_kind == KIND_SQUARE
    assert config.dispersion_kind == KIND_SHIFTED_SQUARE
    assert config.order == "ltr"
    assert config.max_iterations is None
    assert config.emit_trace and not config.emit_heatmaps


def test_comments_and_blank_lines_are_ignored():
    config = parse_config("# an experiment\n\nL = 8\n# d defaults to 4\n")
    assert config.side == 8


def test_divisibility_violation_is_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("L = 20\nd = 3\n")
    assert any("3 does not divide 20" in v for v in err.value.violations)


def test_cross_tessellation_on_a_20_grid_is_valid():
    config = parse_config("L = 20\ntessellation = cross\n")
    assert config.local_kind == KIND_CROSS
    assert config.marked_cells is None  # default placement applies


def test_marked_default_keyword():
    config = parse_config("L = 20\nmarked = default\n")
    assert config.marked_cells is None


def test_n_instead_of_L():
    assert parse_config("n = 400\n").side == 20
    with pytest.raises(ConfigError) as err:
        parse_config("n = 401\n")
    assert any("perfect square" in v for v in err.value.violations)
    with pytest.raises(ConfigError):
        parse_config("L = 10\nn = 400\n")


def test_all_violations_reported_at_once():
    text = "L = 20\nd = 3\nmarked = 1,2,3\nwibble = 4\norder = diagonal\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    messages = "\n".join(err.value.violations)
    assert "does not divide" in messages
    assert "even-length" in messages
    assert "unknown key" in messages
    assert "'rtl' or 'ltr'" in messages
    assert len(err.value.violations) >= 4


def test_missing_grid_size_is_an_error():
    with pytest.raises(ConfigError) as err:
        parse_config("d = 4\n")
    assert any("'L' or 'n'" in v for v in err.value.violations)


def test_duplicate_keys_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("L = 8\nL = 16\n")
    assert any("more than once" in v for v in err.value.violations)


def test_marked_wrap_collision_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("L = 4\nmarked = 0,0,4,4\n")
    assert any("coincide" in v for v in err.value.violations)


def test_heatmaps_require_a_snapshot_stride():
    with pytest.raises(ConfigError) as err:
        parse_config("L = 8\nemit_heatmaps = true\n")
    assert any("snapshot_stride" in v for v in err.value.violations)
    config = parse_config("L = 8\nemit_heatmaps = true\nsnapshot_stride = 2\n")
    assert config.emit_heatmaps


def test_snapshot_stride_must_fit_every_horizon():
    # A stride past a point's horizon, max_iters or 4 L, would store no grid.
    emit = "emit_snapshots = true\nemit_heatmaps = true\n"
    with pytest.raises(ConfigError) as err:
        parse_config("L = 8\nmax_iters = 4\nsnapshot_stride = 10\n" + emit)
    assert err.value.violations == (
        "snapshot_stride: 10 exceeds the 4-round horizon of a point, which would store no grid",
    )
    assert parse_config("L = 8\nmax_iters = 4\nsnapshot_stride = 4\n" + emit).snapshot_stride == 4
    # Without max_iters each swept side has its own horizon; the smallest must fit.
    assert parse_config("L = 8\nsnapshot_stride = 32\n" + emit).snapshot_stride == 32
    with pytest.raises(ConfigError, match="40 exceeds the 32-round horizon"):
        parse_config("L = 40\nsweep_n = 64, 1600\nsnapshot_stride = 40\n" + emit)
    config = parse_config("L = 40\nsnapshot_stride = 40\n" + emit)
    for overrides in (dict(max_iterations=39), dict(snapshot_stride=161)):
        with pytest.raises(ConfigError, match="round horizon of a point"):
            dataclasses.replace(config, **overrides)


def test_grids_are_stored_only_for_the_emitters(tmp_path):
    # Grids are stored only for the snapshot and heatmap emitters; a stride without either is refused.
    with pytest.raises(ConfigError) as err:
        parse_config("L = 16\nsnapshot_stride = 1\nemit_trace = false\n")
    assert err.value.violations == (
        "snapshot_stride: stored grids are read only by emit_snapshots or emit_heatmaps; "
        "set one of them or use 0",
    )
    quiet = parse_config("L = 16\nemit_trace = false\n")
    with pytest.raises(ConfigError):
        dataclasses.replace(quiet, snapshot_stride=2)
    ((_label, point),) = quiet.sweep_points()
    assert point.snapshot_stride == 0
    assert run(point).snapshots == {}
    (result,) = run_experiment(dataclasses.replace(quiet, out_dir=str(tmp_path))).points
    assert result.error is None and not list(tmp_path.rglob("snapshot_*"))
    for emit in ("emit_snapshots", "emit_heatmaps"):
        noisy = dataclasses.replace(quiet, snapshot_stride=1, **{emit: True})
        ((_label, point),) = noisy.sweep_points()
        assert point.snapshot_stride == 1, emit


def test_a_sweep_writes_each_partition_csv_once(tmp_path, monkeypatch):
    # Square, cross and four-corners local maps share one shifted-square dispersion map:
    # four distinct partitions among six files.  The rest are copies of the first file.
    text = ("L = 20\nd = 2\nmarked = 3, 4\ndispersion = shifted-square\nmax_iters = 2\n"
            "sweep_tessellation = square, cross, four-corners\nemit_trace = false\n"
            "emit_partition = true\n")
    swept = dataclasses.replace(parse_config(text), out_dir=str(tmp_path / "sweep"))
    written = []
    emit = experiments.emit_partition_csv
    monkeypatch.setattr(experiments, "emit_partition_csv",
                        lambda partition, path: written.append(path) or emit(partition, path))
    assert run_experiment(swept).ok
    assert len(written) == 4
    points = list(swept.sweep_points())
    assert len(points) == 3
    for label, point in points:
        for role in ("local", "dispersion"):
            alone = emit_partition_csv(getattr(point, f"{role}_partition"), tmp_path / "alone.csv")
            copied = tmp_path / "sweep" / label / f"partition_{role}.csv"
            assert copied.read_bytes() == alone.read_bytes(), (label, role)


def test_a_sweep_holds_one_point_at_a_time(tmp_path):
    # Each point stores 16 grids of 64 x 64 cells, 512 KiB.  Once written, a point keeps its
    # peak, crest and drift, not its trace, so six points peak less than one point's grids
    # above three.
    def sweep_peak(points):
        cells = ", ".join(f"{i}, {i}" for i in range(points))
        text = ("L = 64\nmax_iters = 64\nsnapshot_stride = 4\nemit_trace = false\n"
                f"emit_heatmaps = true\nsweep_marked = {cells}\n")
        swept = dataclasses.replace(parse_config(text), out_dir=str(tmp_path / f"{points}"))
        tracemalloc.start()
        try:
            report = run_experiment(swept)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and len(report.points) == points
        return peak, report

    (three, _), (six, report) = sweep_peak(3), sweep_peak(6)
    assert six - three < 16 * 64 * 64 * 8
    point = report.points[0]
    assert not hasattr(point, "trace") and point.max_norm_drift <= 1e-12
    assert point.crest.iteration <= point.peak.iteration <= 64
    assert (tmp_path / "6" / "report.txt").read_text() == report.render()


def test_every_point_state_must_fit_in_physical_memory(monkeypatch):
    # Each point holds its state and a 160-round trace of 1 + 2 numbers a round, 3840 bytes.  At
    # L = 40 the cross point's GridState takes 12 800 bytes and the square point's tile state
    # 2960, so a 16 639-byte memory refuses the cross point alone.
    from gridgrover import simulator

    text = "L = 40\nsweep_tessellation = square, cross\n"
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 16640)
    assert len(list(parse_config(text).sweep_points())) == 2
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 16639)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == ("a run on the 40 x 40 grid holds 16,640 B: its 12,800 B "
                                    "state, 0 stored grids of 0 B and 3,840 B of trace over 160 "
                                    "rounds, more than the 16,639 B of physical memory",)
    # Square tiles under square or shifted-square ones of the same d are a tile pair.
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 6800)
    for text in ("L = 40\n", "L = 40\ndispersion = square\n"):
        ((_label, point),) = parse_config(text).sweep_points()
        assert point.local_partition.tile_side == point.dispersion_partition.tile_side == 4
    for text in ("L = 40\ntessellation = cross\n", "L = 40\ndispersion = four-corners\n",
                 "L = 40\nd = 2\nsweep_d = 2, 4\n"):
        with pytest.raises(ConfigError, match="40 x 40 grid holds"):
            parse_config(text)
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 6799)
    with pytest.raises(ConfigError, match="its 2,960 B state"):
        parse_config("L = 40\n")


def test_the_memory_rule_sums_the_state_stored_grids_and_trace(monkeypatch):
    # An L = 40 cross point holding one stored grid from round 100 of 160: 12 800 bytes of
    # state, 12 800 of grid and 3840 of trace.  Each part alone fits in 20 000 bytes; together
    # they need 29 440.
    from gridgrover import simulator

    text = "L = 40\ntessellation = cross\nsnapshot_stride = 100\nemit_snapshots = true\n"
    message = ("a run on the 40 x 40 grid holds 29,440 B: its 12,800 B state, 1 stored grids of "
               "12,800 B and 3,840 B of trace over 160 rounds, more than the 20,000 B of physical "
               "memory")
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 20000)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == (message,)
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 29440)
    assert len(list(parse_config(text).sweep_points())) == 1
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 29439)
    with pytest.raises(ConfigError, match="holds 29,440 B"):
        parse_config(text)


def test_a_horizon_whose_trace_cannot_fit_is_refused_at_parse(monkeypatch):
    # 10^12 rounds of trace take 24 TB, whatever the grid.
    from gridgrover import simulator

    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**33)
    with pytest.raises(ConfigError) as err:
        parse_config("L = 4\nmax_iters = 1000000000000\n")
    assert err.value.violations == ("a run on the 4 x 4 grid holds 24,000,000,000,152 B: its 152 "
                                    "B state, 0 stored grids of 0 B and 24,000,000,000,000 B of "
                                    "trace over 1,000,000,000,000 rounds, more than the "
                                    "8,589,934,592 B of physical memory",)


def test_the_heatmap_block_counts_in_place_of_a_smaller_state(monkeypatch):
    # At scale 100 000 the one 8-row pixel block of an 8 x 8 grid is 8 x 10^5 x 8 x 10^5 x 3
    # bytes, 1.7 TiB, far more than the state it replaces at write time: the 272-byte tile
    # state less its last stored grid (two 3 x 3 lattices, a delta and two signs, 168 bytes).
    from gridgrover import simulator

    monkeypatch.setattr(simulator, "_physical_memory", lambda: 2**33)
    text = ("L = 8\nsnapshot_stride = 4\nemit_heatmaps = true\nmax_iters = 8\n"
            "heatmap_scale = {}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text.format(100000))
    assert err.value.violations == ("a run on the 8 x 8 grid holds 1,920,000,000,528 B: the "
                                    "larger of its 104 B state past its last stored grid and a "
                                    "1,920,000,000,000 B heatmap block, 2 stored grids of 336 B "
                                    "and 192 B of trace over 8 rounds, more than the "
                                    "8,589,934,592 B of physical memory",)
    # 336 B of grids and 192 of trace, then the rest of the state (104 B) or, in its place, a
    # 192 B block at scale 1.
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 720)
    assert parse_config(text.format(1)).heatmap_scale == 1
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 719)
    with pytest.raises(ConfigError, match="the larger of its 104 B state past its last stored "
                                          "grid and a 192 B heatmap"):
        parse_config(text.format(1))
    snapshots = text.format(1).replace("emit_heatmaps", "emit_snapshots")
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 632)
    assert parse_config(snapshots).snapshot_stride == 4
    monkeypatch.setattr(simulator, "_physical_memory", lambda: 631)
    with pytest.raises(ConfigError, match="its 104 B state past its last stored grid, 2 stored"):
        parse_config(snapshots)


def test_sweep_lists_and_expansion():
    config = parse_config("L = 4\nsweep_n = 16,64\nsweep_d = 2,4\n")
    points = list(config.sweep_points())
    assert len(points) == 4
    labels = [label for label, _ in points]
    assert labels[0].startswith("n16_d2_square")
    sides = {rc.geometry.side for _, rc in points}
    assert sides == {4, 8}


def test_only_the_swept_combinations_must_tile():
    # The sweep replaces L = 8 by L = 6 and d = 4 by d = 2; 4 does not divide 6,
    # but no point runs d = 4 on the 6-grid.
    config = parse_config("L = 8\nsweep_n = 36\nsweep_d = 2\n")
    points = list(config.sweep_points())
    assert [label for label, _ in points] == ["n36_d2_square_ltr_m4-4"]
    ((_, point),) = points
    assert (point.geometry.side, point.local_partition.tile_side) == (6, 2)
    assert point.dispersion_partition.tile_shift == (1, 1)
    # The dispersion kind is checked on every swept side and tile side.
    with pytest.raises(ConfigError) as err:
        parse_config("L = 10\ndispersion = cross\nsweep_n = 64\nsweep_d = 2\n")
    assert list(err.value.violations) == ["cross tessellation needs 5 | L: 5 does not divide 8"]


def test_sweep_validates_each_size():
    with pytest.raises(ConfigError) as err:
        parse_config("L = 8\nsweep_n = 64,100\n")  # square d=4 needs 4 | 10
    assert any("does not divide 10" in v for v in err.value.violations)


def test_sweep_marked_placements():
    config = parse_config("L = 8\nsweep_marked = 1,1,5,5\n")
    points = list(config.sweep_points())
    assert len(points) == 2
    cells = [rc.marked.normalized(rc.geometry) for _, rc in points]
    assert cells == [((1, 1),), ((5, 5),)]


def test_sweep_points_must_be_distinct():
    # Each repeat would run one point twice into one output directory.
    with pytest.raises(ConfigError) as err:
        parse_config("L = 20\nsweep_d = 4, 4\nsweep_marked = 1, 1, 21, 1\nmax_iters = 10\n")
    assert list(err.value.violations) == [
        "sweep_d: 4 is listed more than once",
        "sweep_marked: two cells coincide on the 20-side grid",
    ]
    with pytest.raises(ConfigError) as err:
        parse_config("L = 20\nsweep_n = 400, 1600, 400\nsweep_tessellation = square, Square\n")
    assert list(err.value.violations) == [
        "sweep_n: 400 is listed more than once",
        "sweep_tessellation: 'square' is listed more than once",
    ]
    # Placements only need to differ on the grids the sweep runs.
    config = parse_config("L = 20\nsweep_n = 400\nsweep_marked = 1, 1, 11, 1\n")
    assert len(list(config.sweep_points())) == 2
    with pytest.raises(ConfigError, match="coincide on the 10-side grid"):
        parse_config("L = 20\nsweep_n = 400, 100\nsweep_marked = 1, 1, 11, 1\n")


def test_marked_cells_must_be_distinct_on_every_swept_grid():
    # The previous rule checked the base cells on the base side alone, so this sweep
    # ran the 16-grid point and then failed to build the 8-grid one.
    with pytest.raises(ConfigError) as err:
        parse_config("L = 16\nmarked = 1,1,9,9\nsweep_n = 256, 64\nmax_iters = 5\n")
    assert list(err.value.violations) == ["marked: two cells coincide on the 8-side grid"]
    # Only the grids and cells that points run count: no point runs the 8-grid here,
    # and sweep_marked placements replace the base cells.
    for text in ("L = 8\nmarked = 1,1,9,9\nsweep_n = 256\n",
                 "L = 8\nmarked = 1,1,9,9\nsweep_marked = 1,1,2,2\n"):
        config = parse_config(text)
        assert len(list(config.sweep_points())) in (1, 2)
        # `run` drops the sweep lists, so the base cells on the 8-grid are refused there.
        with pytest.raises(ConfigError, match="^invalid configuration:\n  - marked: two cells "
                                              "coincide on the 8-side grid$"):
            dataclasses.replace(config, sweep_n=(), sweep_marked=())


def test_replace_revalidates():
    config = parse_config("L = 8\nemit_heatmaps = true\nsnapshot_stride = 1\n")
    bumped = dataclasses.replace(config, order="rtl", snapshot_stride=2, max_iterations=9)
    assert (bumped.order, bumped.snapshot_stride, bumped.max_iterations) == ("rtl", 2, 9)
    with pytest.raises(ConfigError):
        dataclasses.replace(config, snapshot_stride=-3)


def test_boolean_parsing():
    config = parse_config("L = 8\nemit_trace = no\nemit_partition = 1\n")
    assert not config.emit_trace
    assert config.emit_partition
    with pytest.raises(ConfigError):
        parse_config("L = 8\nemit_trace = sometimes\n")


def test_make_partition_dispatch():
    g = GridGeometry(20)
    assert make_partition(g, KIND_SQUARE, 4).kind == KIND_SQUARE
    assert make_partition(g, KIND_CROSS, 4).group_count == 80
    # "shifted-square" names the square lattice moved by (d//2, d//2).
    shifted = make_partition(g, KIND_SHIFTED_SQUARE, 4)
    assert (shifted.kind, shifted.tile_shift, shifted.step_cost) == (KIND_SQUARE, (2, 2), 4)
    assert make_partition(g, KIND_FOUR_CORNERS, 2).kind == KIND_FOUR_CORNERS
    with pytest.raises(ValueError):
        make_partition(g, "hexagon", 4)


def test_garbled_line_reported_with_number():
    with pytest.raises(ConfigError) as err:
        parse_config("L = 8\nthis is not a pair\n")
    assert any(v.startswith("line 2:") for v in err.value.violations)


@pytest.mark.parametrize(
    "text,violations",
    [
        ("L = 0\nd = 2\n", ["L: side must be at least 2, got 0"]),
        ("L = 0\n", ["L: side must be at least 2, got 0"]),
        ("d = 4\n", ["one of 'L' or 'n' is required"]),
        ("n = 0\n", ["n: 0 is not a perfect square of a side >= 2"]),
        ("n = 17\n", ["n: 17 is not a perfect square of a side >= 2"]),
        ("L = abc\n", ["L: expected an integer, got 'abc'"]),
        ("L = 8\nheatmap_scale = 0\n", ["heatmap_scale: must be a positive integer, got 0"]),
    ],
)
def test_invalid_values_are_reported_not_replaced(text, violations):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert list(err.value.violations) == violations


def test_negative_sizes_are_config_errors():
    with pytest.raises(ConfigError) as err:
        parse_config("n = -4\n")
    assert list(err.value.violations) == ["n: -4 is not a perfect square of a side >= 2"]
    with pytest.raises(ConfigError) as err:
        parse_config("L = 4\nsweep_n = -16\n")
    assert list(err.value.violations) == ["sweep_n: -16 is not a perfect square of a side >= 2"]


def test_comments_may_follow_values():
    config = parse_config("L = 8  # the side\nmarked = 1,2 # one cell\n")
    assert (config.side, config.marked_cells) == (8, ((1, 2),))


def test_readme_example_config_parses():
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    config = parse_config(block)
    assert (config.side, config.sweep_n, config.sweep_tessellation) == (
        20, (400, 1600), (KIND_SQUARE, KIND_CROSS)
    )
    assert len(list(config.sweep_points())) == 16


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "PeakSummary(iteration=" in capsys.readouterr().out


def test_docstring_lists_every_key():
    listing = config.__doc__.split("Keys::")[1].split("\n\n")[1]
    documented = {
        key
        for line in listing.splitlines()
        if line[4:5].strip()
        for key in line.strip().split("  ")[0].split(" / ")
    }
    assert documented == set(config._KEYS)


def test_replace_reports_every_violation():
    base = parse_config("L = 8\n")
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(base, side=10)
    assert list(err.value.violations) == [
        "square tessellation needs d | L: 4 does not divide 10",
        "shifted-square tessellation needs d | L: 4 does not divide 10",
    ]
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(base, order="diagonal", max_iterations=0)
    assert len(err.value.violations) == 2


_WORDS = (
    "square", "cross", "four-corners", "four_corners", "shifted-square", "Square", "hexagon",
    "ltr", "rtl", "true", "false", "yes", "no", "1", "0", "default", "results", "",
)
_SIZE_KEYS = ("L", "n", "sweep_n")


def _integer_lists(values):
    return st.lists(values, max_size=5).map(lambda items: ",".join(map(str, items)))


def _values(integers):
    return st.one_of(
        integers.map(str),
        st.sampled_from((4, 16, 64, 100, 400, 1600)).map(str),
        st.sampled_from(_WORDS),
        _integer_lists(integers),
        st.lists(st.sampled_from(_WORDS), max_size=4).map(",".join),
    )


def _lines(values, stray):
    keyed = st.tuples(st.sampled_from(sorted(config._KEYS)), values)
    # Kind lines are drawn on their own too, so every tiling rule is met often.
    kinds = st.tuples(
        st.sampled_from(("tessellation", "dispersion", "sweep_tessellation")),
        st.sampled_from(_WORDS[:6]),
    )
    return st.one_of(keyed, keyed, kinds, keyed).map(lambda kv: f"{kv[0]} = {kv[1]}") | stray


def _texts(lines):
    return st.tuples(st.sampled_from(("L = 20", "n = 400", "L = 8", "L = 40", "")),
                     st.lists(lines, max_size=6)).map(lambda t: "\n".join((t[0], *t[1])))


@settings(max_examples=300, deadline=None)
@given(_texts(_lines(
    _values(st.integers(-20, 10**6)) | st.text(alphabet="0123456789-=#, abc", max_size=12),
    st.sampled_from(("=", "# note", "L", "= 4", "wibble = 1", "n = 16 = 4", "#", " = # = ")),
)))
@example("n = -4\n")
@example("L = 4\nsweep_n = -16\n")
def test_parse_config_raises_only_config_errors(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


def _outside_known_faults(text):
    """No ``#``, no L = 0, no heatmap_scale = 0, no negative size and no repeated
    sweep point: the old parser's faults.

    Two sweep_marked pairs are skipped when some grid side s >= 2 divides both of
    their differences, so that they coincide on the s-side grid.
    """
    for line in text.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        items = [item.strip() for item in value.split(",")]
        numbers = [int(item) for item in items if re.fullmatch(r"-?\d+", item)]
        if key in ("L", "heatmap_scale") and value == "0":
            return False
        if key in _SIZE_KEYS and any(number < 0 for number in numbers):
            return False
        if key in ("sweep_n", "sweep_d") and len(set(numbers)) < len(numbers):
            return False
        kinds = [item.lower().replace("_", "-") for item in items if item]
        if key == "sweep_tessellation" and len(set(kinds)) < len(kinds):
            return False
        pairs = list(zip(numbers[::2], numbers[1::2]))
        if key == "sweep_marked" and any(
            math.gcd(i - k, j - l) != 1 for (i, j), (k, l) in itertools.combinations(pairs, 2)
        ):
            return False
    return "#" not in text


def _outcome(parse, text):
    try:
        return dataclasses.asdict(parse(text))
    except (ConfigError, reference_config.ConfigError) as exc:
        return exc.violations


@settings(max_examples=400, deadline=None)
@given(_texts(_lines(
    _values(st.integers(-8, 64)),
    st.sampled_from(("garbage", "wibble = 1", "= 4", "n = 16 = 4")),
)).filter(_outside_known_faults))
@example("L = 20\ntessellation = cross\nsweep_d = 5,10")
@example("n = 400\nL = 20\nmarked = 1,2,21,22")
@example("L = 40\ntessellation = four_corners\nd = 4\nsweep_n = 1600,6400")
@example("L = 20\ntessellation = four-corners")
@example("L = 8\ndispersion = cross\nsweep_d = 2")
@example("L = 20\nd = 3\ntessellation = cross")
@example("L = 8\nsweep_n = 36\nsweep_d = 2")
@example("L = 10\nmarked = 0,0,8,8\nsweep_n = 64")
@example("L = 16\nmarked = 1,1,9,9\nsweep_n = 256, 64\nmax_iters = 5")
@example("L = 8\nmarked = 1,1,9,9\nsweep_n = 256")
@example("L = 8\nmarked = 1,1,9,9\nsweep_marked = 1,1,2,2")
@example("L = 8\nsnapshot_stride = 2")
@example("L = 8\nmax_iters = 4\nsnapshot_stride = 10\nemit_snapshots = true\nemit_heatmaps = true")
@example("L = 40\nsweep_n = 64\nsnapshot_stride = 40\nemit_heatmaps = true")
def test_parser_matches_the_previous_parser(text):
    new, old = _outcome(parse_config, text), _outcome(reference_config.parse_config, text)
    if isinstance(new, tuple) and isinstance(old, dict):
        # Three rules now refuse what the previous parser accepted: base marked cells
        # that coincide on a swept grid, which it checked on the base side alone; a
        # stride with neither emitter; and one beyond the horizon of a point, max_iters
        # or 4 L, which stores no grid.  The run dropped those strides.
        sides = [math.isqrt(n) for n in old["sweep_n"]] or [old["side"]]
        horizon = old["max_iterations"] or 4 * min(sides)
        for violation in new:
            if coincide := re.fullmatch(r"marked: two cells coincide on the (\d+)-side grid",
                                        violation):
                side = int(coincide.group(1))
                assert side in sides and side != old["side"] and not old["sweep_marked"]
            elif violation.startswith("snapshot_stride: stored grids"):
                assert not (old["emit_snapshots"] or old["emit_heatmaps"])
                assert old["snapshot_stride"] >= 1
            else:
                assert violation.startswith(f"snapshot_stride: {old['snapshot_stride']} exceeds "
                                            f"the {horizon}-round horizon")
                assert old["snapshot_stride"] > horizon
        return
    if isinstance(new, tuple) or isinstance(old, dict):
        # Both reject, or both accept and build equal configs.
        assert new == old if isinstance(new, dict) else isinstance(old, tuple)
        return
    # The previous parser checked every size against every tile side the text
    # named, and the base marked cells on the base side even when no point runs
    # them there; now only the combinations that sweep points run must tile, and
    # only their marked cells must be distinct.  So it may reject, for those two
    # rules alone, a text that now parses, and then every sweep point must build.
    moved = "marked: cells coincide after wrapping onto the grid"
    assert old and all(" tessellation needs " in violation or violation == moved
                       for violation in old)
    if moved in old:
        sides = [math.isqrt(n) for n in new["sweep_n"]] or [new["side"]]
        assert new["sweep_marked"] or new["side"] not in sides
    assert list(parse_config(text).sweep_points())


def test_stored_grids_must_fit_on_every_swept_side(monkeypatch):
    # At stride 8 the default tile pair stores its two lattices, a delta and two signs: L = 8
    # stores 4 grids of 168 B, L = 64 32 grids of 4648 B (148 736 B) and L = 80 40 grids of
    # 7080 B.  L = 64 also holds 6144 bytes of trace over 256 rounds and its 12 288-byte heatmap
    # block, which outweighs the 2344 bytes its 6992-byte state holds past the last grid.
    from gridgrover import simulator

    text = "L = 8\nsnapshot_stride = 8\nemit_heatmaps = true\n"
    fits = 32 * 4648 + 6144 + 12288
    monkeypatch.setattr(simulator, "_physical_memory", lambda: fits)
    assert len(list(parse_config(text + "sweep_n = 64, 4096\n").sweep_points())) == 2
    with pytest.raises(ConfigError) as err:
        parse_config(text + "sweep_n = 64, 6400, 4096\n")
    assert err.value.violations == ("a run on the 80 x 80 grid holds 303,120 B: the larger of "
                                    "its 3,560 B state past its last stored grid and a 12,240 B "
                                    "heatmap block, 40 stored grids of 283,200 B and 7,680 B of "
                                    "trace over 320 rounds, more than the 167,168 B of physical "
                                    "memory",)
    config = parse_config("L = 64\nsnapshot_stride = 8\nemit_snapshots = true\n")
    with pytest.raises(ConfigError, match="64 stored grids of 297,472 B"):
        dataclasses.replace(config, snapshot_stride=4)
    monkeypatch.setattr(simulator, "_physical_memory", lambda: fits - 1)
    with pytest.raises(ConfigError, match="holds 167,168 B: the larger of its 2,344 B state past "
                                          "its last stored grid and a 12,288 B heatmap block, 32 "
                                          "stored grids of 148,736"):
        parse_config(text + "sweep_n = 64, 4096\n")
