"""Experiment orchestration: sweeps, artifact emission, and the reference table.

``run_experiment`` executes every sweep point of an :class:`ExperimentConfig`,
writes the requested files under one subdirectory per point, and returns a
report; a failing point is recorded and the rest continue.

``table_report`` reruns the reference result series for the d=4 shifted
square schedule (the series this simulator was built to reproduce) and
prints measured-vs-reference deltas for both round orders.  Comparison
convention, fixed by calibration: the reference series reports the trace's
first crest and counts two iterations per four-operator round (one per
oracle-diffusion pair), so measured crest rounds are doubled into a pair
count before comparing against the reference iteration column.  Under the
ltr order the reproduction is exact to the reference's printed precision.
The series' 16384-entry row is labelled 16386 in the source table; it is
recorded here as 16384 since the series is powers of 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .analysis import first_crest
from .config import ExperimentConfig
from .outputs import emit_heatmap, emit_partition_csv, emit_snapshot_csv, emit_trace_csv
from .grid import GridGeometry, _side_of
from .simulator import RunConfig, SimulationTrace, run

__all__ = [
    "ExperimentReport",
    "PointResult",
    "REFERENCE_PEAKS",
    "TABLE_SIZES",
    "TableReport",
    "TableRow",
    "reference_peak",
    "run_experiment",
    "table_report",
    "write_point_artifacts",
]

# Reference peak amplitude and iteration count per grid size for the d=4
# shifted-square schedule (original experiment series).
REFERENCE_PEAKS: tuple[tuple[int, float, int], ...] = (
    (16, 0.9531, 2),
    (64, 0.9373, 6),
    (256, 0.9023, 12),
    (1024, 0.8626, 30),
    (4096, 0.8338, 64),
    (16384, 0.8073, 128),
    (65536, 0.7812, 264),
    (262144, 0.7581, 556),
    (1048576, 0.7377, 1144),
    (4194304, 0.7178, 2294),
)

# Default sizes for the table preset: the reference rows that rerun in
# seconds rather than hours.
TABLE_SIZES: tuple[int, ...] = (16, 64, 256, 1024, 4096, 16384, 65536)


def reference_peak(n: int) -> tuple[float, int]:
    """(amplitude, iterations) of the reference series row for size n."""
    for size, amplitude, iterations in REFERENCE_PEAKS:
        if size == n:
            return amplitude, iterations
    raise KeyError(f"no reference row for n={n}")


@dataclass
class PointResult:
    """One sweep point: its label and either a trace or the failure text."""

    label: str
    trace: SimulationTrace | None = None
    error: str | None = None


@dataclass
class ExperimentReport:
    """All sweep point results."""

    points: list[PointResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.error is None for p in self.points)

    def render(self) -> str:
        lines = [
            f"{'point':<42} {'peak_prob':>10} {'peak_amp':>9} {'peak_iter':>9} "
            f"{'crest_prob':>10} {'crest_iter':>10}"
        ]
        for point in self.points:
            if point.error is not None:
                lines.append(f"{point.label:<42} ERROR: {point.error}")
            else:
                p, crest = point.trace.peak, first_crest(point.trace)
                crest_columns = (f"{'-':>10} {'-':>10}" if crest is None
                                 else f"{crest.probability:>10.4f} {crest.iteration:>10d}")
                lines.append(
                    f"{point.label:<42} {p.probability:>10.4f} {p.amplitude:>9.4f} "
                    f"{p.iteration:>9d} {crest_columns}"
                )
        return "\n".join(lines) + "\n"


def write_point_artifacts(
    config: ExperimentConfig, trace: SimulationTrace, point_dir: Path,
    run_config: "RunConfig | None" = None, prefix: str = "",
) -> None:
    """Write the files the emit flags ask for; partition CSVs need the ``run_config``."""
    point_dir.mkdir(parents=True, exist_ok=True)
    if config.emit_trace:
        emit_trace_csv(trace, point_dir / f"{prefix}trace.csv")
    if config.emit_snapshots:
        for iteration, grid in sorted(trace.snapshots.items()):
            emit_snapshot_csv(grid, point_dir / f"{prefix}snapshot_iter{iteration:05d}.csv")
    if config.emit_heatmaps:
        for iteration, grid in sorted(trace.snapshots.items()):
            path = point_dir / f"{prefix}heatmap_iter{iteration:05d}.ppm"
            emit_heatmap(grid, path, config.heatmap_scale)
    if config.emit_partition and run_config is not None:
        emit_partition_csv(run_config.local_partition, point_dir / "partition_local.csv")
        emit_partition_csv(
            run_config.dispersion_partition, point_dir / "partition_dispersion.csv"
        )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every sweep point; write artifacts under ``config.out_dir``; record failed points."""
    base = Path(config.out_dir) if config.out_dir is not None else None
    report = ExperimentReport()
    for label, build in config.sweep_points():
        try:
            run_config = build()
            trace = run(run_config)
        except Exception as exc:  # precondition failures must not kill the sweep
            report.points.append(PointResult(label=label, error=f"{type(exc).__name__}: {exc}"))
            continue
        report.points.append(PointResult(label=label, trace=trace))
        if base is not None:
            write_point_artifacts(config, trace, base / label, run_config)
    if base is not None:
        base.mkdir(parents=True, exist_ok=True)
        (base / "report.txt").write_text(report.render())
    return report


@dataclass(frozen=True)
class TableRow:
    """One measured-vs-reference comparison.

    ``crest_round`` is the first crest of the trace (in rounds) and
    ``pair_count`` its doubled value, the unit of the reference iteration
    column.  ``trace_max_*`` record the global maximum over the full
    horizon, where late revivals can edge past the first crest.
    """

    n: int
    order: str
    amplitude: float
    crest_round: int
    trace_max_amplitude: float
    trace_max_iteration: int
    reference_amplitude: float
    reference_iterations: int

    @property
    def pair_count(self) -> int:
        return 2 * self.crest_round

    @property
    def amplitude_delta(self) -> float:
        return self.amplitude - self.reference_amplitude

    @property
    def iteration_ratio(self) -> float:
        return self.pair_count / self.reference_iterations


@dataclass
class TableReport:
    rows: list[TableRow] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"{'n':>8} {'order':>5} {'amp':>8} {'ref_amp':>8} {'amp_delta':>9} "
            f"{'pairs':>6} {'ref_iter':>8} {'iter_ratio':>10} {'max_amp':>8} {'max_at':>7}"
        ]
        for r in self.rows:
            lines.append(
                f"{r.n:>8d} {r.order:>5} {r.amplitude:>8.4f} {r.reference_amplitude:>8.4f} "
                f"{r.amplitude_delta:>+9.4f} {r.pair_count:>6d} {r.reference_iterations:>8d} "
                f"{r.iteration_ratio:>10.2f} {r.trace_max_amplitude:>8.4f} "
                f"{r.trace_max_iteration:>7d}"
            )
        return "\n".join(lines) + "\n"


def table_report(
    out_dir: "str | Path | None" = None,
    orders: tuple[str, ...] = ("ltr", "rtl"),
    sizes: tuple[int, ...] = TABLE_SIZES,
    max_iterations: "int | None" = None,
) -> TableReport:
    """Rerun the reference series and compare measured first crests against it.

    Raises ``ValueError`` naming the first (n, order) whose trace never falls
    within the horizon, since its last round is no crest; every row runs
    before any file is written, so a failing table leaves no output.
    """
    base = Path(out_dir) if out_dir is not None else None
    report = TableReport()
    traces = []
    for n in sizes:
        # Every reference row is a perfect square; sizes without a row raise here.
        reference_amplitude, reference_iterations = reference_peak(n)
        for order in orders:
            trace = run(RunConfig(GridGeometry(_side_of(n)), order=order,
                                  max_iterations=max_iterations))
            crest, peak = first_crest(trace), trace.peak
            if crest is None:
                raise ValueError(f"n={n} {order}: the marked probability still rises at the "
                                 f"{trace.probabilities.size}-round horizon, which holds no crest")
            report.rows.append(TableRow(
                n=n, order=order, amplitude=crest.amplitude, crest_round=crest.iteration,
                trace_max_amplitude=peak.amplitude, trace_max_iteration=peak.iteration,
                reference_amplitude=reference_amplitude, reference_iterations=reference_iterations,
            ))
            traces.append(trace)
    if base is not None:
        for row, trace in zip(report.rows, traces):
            point_dir = base / f"table_n{row.n}_{row.order}"
            point_dir.mkdir(parents=True, exist_ok=True)
            emit_trace_csv(trace, point_dir / "trace.csv")
        base.mkdir(parents=True, exist_ok=True)
        (base / "table_report.txt").write_text(report.render())
    return report
