from pathlib import Path

import numpy as np
import pytest

from gridgrover import read_trace_csv, table_report
from gridgrover.cli import main


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "experiment.cfg"
    path.write_text(text)
    return path


def test_run_writes_trace_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "L = 8\nmarked = 5,5\nmax_iters = 6\n")
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "n64_d4_square_ltr_m5-5" in report
    trace = read_trace_csv(out / "n64_d4_square_ltr_m5-5" / "trace.csv")
    assert trace["iteration"].shape == (6,)
    assert "peak_prob" in capsys.readouterr().out


def test_run_ignores_sweep_lists(tmp_path):
    cfg = write_config(tmp_path, "L = 8\nsweep_n = 16,64\nmax_iters = 4\n")
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    point_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(point_dirs) == 1


def test_sweep_expands_points(tmp_path):
    cfg = write_config(tmp_path, "L = 8\nsweep_n = 16,64,256\nmax_iters = 4\n")
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    point_dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert len(point_dirs) == 3
    assert {d.split("_")[0] for d in point_dirs} == {"n16", "n64", "n256"}
    assert all((out / d / "trace.csv").exists() for d in point_dirs)
    report = (out / "report.txt").read_text()
    assert len(report.strip().splitlines()) == 4  # header + 3 peak rows


def test_cli_overrides(tmp_path):
    cfg = write_config(tmp_path, "L = 8\n")
    out = tmp_path / "results"
    assert (
        main(
            [
                "run",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--order",
                "rtl",
                "--max-iters",
                "3",
            ]
        )
        == 0
    )
    (point_dir,) = [p for p in out.iterdir() if p.is_dir()]
    assert "_rtl_" in point_dir.name
    assert read_trace_csv(point_dir / "trace.csv")["iteration"].shape == (3,)


def test_heatmap_emission(tmp_path):
    cfg = write_config(
        tmp_path,
        "L = 20\nmarked = 11,11\nmax_iters = 4\nsnapshot_stride = 1\n"
        "emit_heatmaps = true\nemit_snapshots = true\nemit_partition = true\n",
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    (point_dir,) = [p for p in out.iterdir() if p.is_dir()]
    heatmaps = sorted(point_dir.glob("heatmap_iter*.ppm"))
    assert len(heatmaps) == 4  # one raster per iteration at stride 1
    assert heatmaps[0].read_bytes().startswith(b"P6\n20 20\n255\n")
    assert len(sorted(point_dir.glob("snapshot_iter*.csv"))) == 4
    assert (point_dir / "partition_local.csv").exists()
    assert (point_dir / "partition_dispersion.csv").exists()


def test_table_subcommand(tmp_path, capsys):
    out = tmp_path / "table"
    assert main(["table", "--out", str(out), "--order", "ltr"]) == 0
    text = (out / "table_report.txt").read_text()
    assert text == capsys.readouterr().out
    assert len(text.strip().splitlines()) == 8  # header + 7 sizes
    assert "65536" in text
    assert (out / "table_n16_ltr" / "trace.csv").exists()


def test_grover_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "L = 20\nmarked = 11,11\nmax_iters = 20\n")
    out = tmp_path / "grover"
    assert main(["grover", "--config", str(cfg), "--out", str(out)]) == 0
    assert "peak probability" in capsys.readouterr().out
    trace = read_trace_csv(out / "grover_trace.csv")
    # closed-form check against the emitted file
    theta = np.arcsin(np.sqrt(1 / 400))
    expected = np.sin((2 * trace["iteration"] + 1) * theta) ** 2
    assert np.max(np.abs(trace["marked_probability"] - expected)) <= 1e-9


def test_grover_honours_the_emit_flags(tmp_path):
    base = "L = 8\nmax_iters = 6\n"
    quiet = write_config(tmp_path, base + "emit_trace = false\nemit_snapshots = false\n")
    for command in ("run", "grover"):
        out = tmp_path / f"quiet_{command}"
        assert main([command, "--config", str(quiet), "--out", str(out)]) == 0
        assert not [p.name for p in out.rglob("*.csv")], command

    loud = write_config(
        tmp_path,
        base + "snapshot_stride = 2\nemit_snapshots = true\nemit_heatmaps = true\nemit_partition = true\n",
    )
    out = tmp_path / "loud"
    assert main(["grover", "--config", str(loud), "--out", str(out)]) == 0
    # The partitions belong to the grid run, not to the complete-graph search.
    assert sorted(p.name for p in out.iterdir()) == [
        *(f"grover_heatmap_iter{k:05d}.ppm" for k in (2, 4, 6)),
        *(f"grover_snapshot_iter{k:05d}.csv" for k in (2, 4, 6)),
        "grover_trace.csv",
    ]


def test_validate_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, "L = 20\ntessellation = cross\n")
    out = tmp_path / "partitions"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "local (cross" in printed and "ok" in printed
    assert (out / "partition_local.csv").exists()
    assert (out / "partition_dispersion.csv").exists()


def test_config_errors_exit_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, "L = 20\nd = 3\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "3 does not divide 20" in err


@pytest.mark.parametrize("command", ["run", "sweep", "grover"])
def test_snapshots_without_an_emitter_exit_nonzero(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "L = 8\nmax_iters = 4\n")
    out = tmp_path / "results"
    assert main([command, "--config", str(cfg), "--out", str(out), "--snapshots", "2"]) == 1
    assert "snapshot_stride: stored grids are read only by emit_snapshots or emit_heatmaps" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command,text,flags",
    [
        ("run", "L = 8\nmax_iters = 4\nsnapshot_stride = 10\n", ()),
        ("grover", "L = 20\nsnapshot_stride = 40\n", ("--max-iters", "3")),
        ("sweep", "L = 8\nmax_iters = 6\nsnapshot_stride = 2\n", ("--snapshots", "7")),
    ],
    ids=["config", "max-iters", "snapshots"],
)
def test_snapshot_stride_beyond_the_horizon_exits_nonzero(tmp_path, capsys, command, text, flags):
    # Such a stride stores no grid, so the run would write no snapshot or heatmap.
    cfg = write_config(tmp_path, text + "emit_snapshots = true\nemit_heatmaps = true\n")
    out = tmp_path / "results"
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
    assert "round horizon of a point, which would store no grid" in capsys.readouterr().err
    assert not out.exists()


def test_table_without_a_crest_in_the_horizon_exits_nonzero(tmp_path, capsys):
    # At 5 rounds the n = 256 trace still rises: its last round is no crest to compare.
    out = tmp_path / "table"
    assert main(["table", "--order", "ltr", "--max-iters", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "n=256 ltr: the marked probability still rises at the 5-round horizon" in captured.err
    assert captured.out == ""
    # The n = 16 and 64 rows crest within 5 rounds, but no row is written before all have run.
    assert not list(out.glob("table_n*")) and not (out / "table_report.txt").exists()
    # A size without a reference row fails before any row runs.
    with pytest.raises(KeyError, match="no reference row for n=100"):
        table_report(out, sizes=(16, 100))
    assert not out.exists()


def test_run_report_prints_no_crest_for_a_rising_trace(tmp_path, capsys):
    # At L = 16 the probability still rises at round 5: the report shows no crest.
    cfg = write_config(tmp_path, "L = 16\n")
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--max-iters", "5"]) == 0
    report = (out / "report.txt").read_text()
    assert report == capsys.readouterr().out
    header, row = report.splitlines()
    assert header.split()[-2:] == ["crest_prob", "crest_iter"]
    assert row.split()[-2:] == ["-", "-"]
    assert row.split()[3] == "5"  # the peak column still names the last round
    assert len(row) == len(header)


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error" in capsys.readouterr().err


def test_sweep_continues_past_failing_points(tmp_path):
    # (0,0) and (8,8) coincide on the swept 8-grid but not on the 16-grid;
    # the bad point is recorded and the good one still writes artifacts
    cfg = write_config(
        tmp_path, "L = 16\nmarked = 0,0,8,8\nsweep_n = 64,256\nmax_iters = 4\n"
    )
    out = tmp_path / "results"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    report = (out / "report.txt").read_text()
    assert "ERROR" in report
    assert "ValueError:" in report
    dirs = [p.name for p in out.iterdir() if p.is_dir()]
    assert any(d.startswith("n256") for d in dirs)
    assert not any(d.startswith("n64") for d in dirs)


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("table", "--config", "does-not-exist.cfg"),
        ("table", "--snapshots", "3"),
        ("grover", "--order", "rtl"),
        ("validate", "--order", "rtl"),
        ("validate", "--snapshots", "2"),
        ("validate", "--max-iters", "1"),
    ],
)
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag, value):
    cfg = write_config(tmp_path, "L = 8\n")
    args = [command] if command == "table" else [command, "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main([*args, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
