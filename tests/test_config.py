import pytest

from gridgrover import ConfigError, GridGeometry, make_partition, parse_config
from gridgrover.tessellation import KIND_CROSS, KIND_SHIFTED_SQUARE, KIND_SQUARE


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


def test_sweep_lists_and_expansion():
    config = parse_config("L = 4\nsweep_n = 16,64\nsweep_d = 2,4\n")
    points = [(label, build()) for label, build in config.sweep_points()]
    assert len(points) == 4
    labels = [label for label, _ in points]
    assert labels[0].startswith("n16_d2_square")
    sides = {rc.geometry.side for _, rc in points}
    assert sides == {4, 8}


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


def test_with_overrides_revalidates():
    config = parse_config("L = 8\n")
    bumped = config.with_overrides(order="rtl", snapshot_stride=2, max_iterations=9)
    assert (bumped.order, bumped.snapshot_stride, bumped.max_iterations) == ("rtl", 2, 9)
    with pytest.raises(ConfigError):
        config.with_overrides(snapshot_stride=-3)


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
    with pytest.raises(ValueError):
        make_partition(g, "hexagon", 4)


def test_garbled_line_reported_with_number():
    with pytest.raises(ConfigError) as err:
        parse_config("L = 8\nthis is not a pair\n")
    assert any(v.startswith("line 2:") for v in err.value.violations)
