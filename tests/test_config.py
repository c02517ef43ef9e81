import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_config
from gridgrover import (
    ConfigError,
    GridGeometry,
    config,
    make_partition,
    parse_config,
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
    ((_label, build),) = quiet.sweep_points()
    assert build().snapshot_stride == 0
    quiet = dataclasses.replace(quiet, out_dir=str(tmp_path))
    (point,) = run_experiment(quiet).points
    assert point.trace.snapshots == {}
    for emit in ("emit_snapshots", "emit_heatmaps"):
        ((_label, build),) = dataclasses.replace(quiet, snapshot_stride=1, **{emit: True}).sweep_points()
        assert build().snapshot_stride == 1, emit


def test_sweep_lists_and_expansion():
    config = parse_config("L = 4\nsweep_n = 16,64\nsweep_d = 2,4\n")
    points = [(label, build()) for label, build in config.sweep_points()]
    assert len(points) == 4
    labels = [label for label, _ in points]
    assert labels[0].startswith("n16_d2_square")
    sides = {rc.geometry.side for _, rc in points}
    assert sides == {4, 8}


def test_only_the_swept_combinations_must_tile():
    # The sweep replaces L = 8 by L = 6 and d = 4 by d = 2; 4 does not divide 6,
    # but no point runs d = 4 on the 6-grid.
    config = parse_config("L = 8\nsweep_n = 36\nsweep_d = 2\n")
    points = [(label, build()) for label, build in config.sweep_points()]
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
    points = [(label, build()) for label, build in config.sweep_points()]
    assert len(points) == 2
    cells = [rc.marked.normalized(rc.geometry) for _, rc in points]
    assert cells == [((1, 1),), ((5, 5),)]


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
    shifted = make_partition(g, KIND_SHIFTED_SQUARE, 4)
    assert (shifted.kind, shifted.tile_shift, shifted.step_cost) == (KIND_SHIFTED_SQUARE, (2, 2), 4)
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
    """No ``#``, no L = 0, no heatmap_scale = 0 and no negative size: the old parser's faults."""
    for line in text.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        items = [item.strip() for item in value.split(",")]
        numbers = [int(item) for item in items if re.fullmatch(r"-?\d+", item)]
        if key in ("L", "heatmap_scale") and value == "0":
            return False
        if key in _SIZE_KEYS and any(number < 0 for number in numbers):
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
@example("L = 8\nsnapshot_stride = 2")
@example("L = 8\nmax_iters = 4\nsnapshot_stride = 10\nemit_snapshots = true\nemit_heatmaps = true")
@example("L = 40\nsweep_n = 64\nsnapshot_stride = 40\nemit_heatmaps = true")
def test_parser_matches_the_previous_parser(text):
    new, old = _outcome(parse_config, text), _outcome(reference_config.parse_config, text)
    if isinstance(new, tuple) and isinstance(old, dict):
        # Two strides are now refused that the previous parser accepted and the run
        # dropped: one with neither emitter, and one beyond the horizon of a point,
        # max_iters or 4 L, which stores no grid.  These are the only rules it adds.
        sides = [math.isqrt(n) for n in old["sweep_n"]] or [old["side"]]
        horizon = old["max_iterations"] or 4 * min(sides)
        for violation in new:
            if violation.startswith("snapshot_stride: stored grids"):
                assert not (old["emit_snapshots"] or old["emit_heatmaps"])
            else:
                assert violation.startswith(f"snapshot_stride: {old['snapshot_stride']} exceeds "
                                            f"the {horizon}-round horizon")
                assert old["snapshot_stride"] > horizon
        assert old["snapshot_stride"] >= 1
        return
    if isinstance(new, tuple) or isinstance(old, dict):
        # Both reject, or both accept and build equal configs.
        assert new == old if isinstance(new, dict) else isinstance(old, tuple)
        return
    # The previous parser checked every size against every tile side the text
    # named; now only the combinations that sweep points run must tile.  So it
    # may reject, for tiling alone, a text that now parses, and then every
    # sweep point must build (unless its marked cells coincide on a swept grid).
    assert old and all(" tessellation needs " in violation for violation in old)
    for _label, build in parse_config(text).sweep_points():
        try:
            build()
        except ValueError as exc:
            assert "coincide" in str(exc)
