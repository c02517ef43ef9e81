"""The three benchmark workloads: inputs from a seed, the timed call, the output checks.

Each workload drives gridgrover only through its public entry points
(``gridgrover.cli.main``, ``run_grover_reference`` and the emitters' readers).
``execute`` is the timed region, from inputs on disk to the last artifact
written.  ``check`` runs afterwards and returns one ``(label, error)`` pair
per operation (a table row, grid run, sweep point or Grover run); ``error`` is
``None`` when the operation passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
PAPER_ROWS = {int(n): (amp, iters) for n, amp, iters in REFERENCE["paper_table"]["rows"]}
RTL_CRESTS = {int(n): row for n, row in REFERENCE["rtl_crests"]["rows"].items()}
TABLE_SIZES = tuple(sorted(RTL_CRESTS))
ORDERS = ("ltr", "rtl")


def _cli(pkg, argv: list[str]) -> "int | str":
    """Exit code of ``gridgrover <argv>``, or the error it raised."""
    try:
        # The CLI prints its report; keep the worker's stdout for the result line.
        with contextlib.redirect_stdout(io.StringIO()):
            return pkg.cli.main(argv)
    except Exception as exc:  # an uncaught error fails every operation of the call
        return f"{type(exc).__name__}: {exc}"


class PaperTable:
    """``gridgrover table`` (both orders, n = 16 ... 65536) plus the Grover reference."""

    name = "paper_table"
    expected_runs = len(TABLE_SIZES) * len(ORDERS)
    grover_calls = len(TABLE_SIZES)

    def prepare(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        return {"out": workdir / "out", "grover": [(n, rng.randrange(n)) for n in TABLE_SIZES]}

    def execute(self, pkg, inputs: dict) -> dict:
        rc = _cli(pkg, ["table", "--out", str(inputs["out"])])
        grover = []
        for n, index in inputs["grover"]:
            try:
                grover.append(pkg.run_grover_reference(n, 1, 4 * math.isqrt(n), marked_indices=[index]))
            except Exception as exc:  # a failing run is a failed operation, not a crash
                grover.append(exc)
        return {"rc": rc, "grover": grover}

    def check(self, pkg, inputs: dict, outcome: dict, tracer) -> list:
        rows = _table_rows(inputs["out"] / "table_report.txt") if outcome["rc"] == 0 else None
        ops = []
        for n in TABLE_SIZES:
            for order in ORDERS:
                if rows is None:
                    error = f"gridgrover table returned {outcome['rc']!r}"
                else:
                    error = _check_table_row(pkg, inputs["out"], rows, n, order)
                ops.append((f"table n={n} {order}", error))
        for (n, _index), trace in zip(inputs["grover"], outcome["grover"]):
            ops.append((f"grover n={n}", _check_grover(n, trace)))
        return ops


def _table_rows(path: Path) -> dict:
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        tokens = line.split()
        rows[(int(tokens[0]), tokens[1])] = tokens
    return rows


def _check_table_row(pkg, out: Path, rows: dict, n: int, order: str) -> "str | None":
    tokens = rows.get((n, order))
    if tokens is None:
        return "row missing from table_report.txt"
    amplitude, pairs = tokens[2], int(tokens[5])
    if order == "ltr":
        ref_amplitude, ref_pairs = PAPER_ROWS[n]
        if amplitude != f"{ref_amplitude:.4f}" or pairs != ref_pairs:
            return f"got {amplitude} at {pairs} pairs, paper has {ref_amplitude:.4f} at {ref_pairs}"
        return None
    stored = RTL_CRESTS[n]
    trace = pkg.read_trace_csv(out / f"table_n{n}_{order}" / "trace.csv")
    crest = pkg.first_crest(trace["marked_probability"])
    if abs(crest.amplitude - stored["amplitude"]) > 1e-12 or crest.iteration != stored["crest_round"]:
        return (
            f"crest {crest.amplitude!r} at round {crest.iteration}, stored "
            f"{stored['amplitude']!r} at round {stored['crest_round']}"
        )
    if pairs != 2 * stored["crest_round"]:
        return f"report prints {pairs} pairs, trace crest is round {crest.iteration}"
    return None


def _check_grover(n: int, trace) -> "str | None":
    if isinstance(trace, Exception):
        return f"raised {type(trace).__name__}: {trace}"
    theta = math.asin(math.sqrt(1.0 / n))
    k = np.arange(1, trace.probabilities.size + 1)
    error = float(np.max(np.abs(trace.probabilities - np.sin((2 * k + 1) * theta) ** 2)))
    return None if error <= 1e-9 else f"deviates from sin^2((2k+1)theta) by {error:.3e}"


class Crest2p20:
    """``gridgrover run`` at L = 1024 (n = 2^20) to a fixed 640-round horizon."""

    name = "crest_2p20"
    expected_runs = 1
    grover_calls = 0
    side = 1024

    def prepare(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        cell = (rng.randrange(self.side), rng.randrange(self.side))
        config = workdir / "crest.cfg"
        config.write_text(
            f"L = {self.side}\nmarked = {cell[0]}, {cell[1]}\nd = 4\n"
            "tessellation = square\ndispersion = shifted-square\norder = ltr\n"
            "max_iters = 640\nsnapshot_stride = 0\nemit_trace = true\n"
        )
        return {"config": config, "out": workdir / "out", "cell": cell}

    def execute(self, pkg, inputs: dict) -> dict:
        return {"rc": _cli(pkg, ["run", "--config", str(inputs["config"]), "--out", str(inputs["out"])])}

    def check(self, pkg, inputs: dict, outcome: dict, tracer) -> list:
        label = f"run n=2^20 marked={inputs['cell']}"
        if outcome["rc"] != 0:
            return [(label, f"gridgrover run returned {outcome['rc']!r}")]
        traces = sorted(inputs["out"].glob("*/trace.csv"))
        if len(traces) != 1:
            return [(label, f"expected one trace.csv, found {len(traces)}")]
        crest = pkg.first_crest(pkg.read_trace_csv(traces[0])["marked_probability"])
        ref_amplitude, ref_pairs = PAPER_ROWS[self.side * self.side]
        if f"{crest.amplitude:.4f}" != f"{ref_amplitude:.4f}" or 2 * crest.iteration != ref_pairs:
            return [(label, f"crest {crest.amplitude:.4f} at {2 * crest.iteration} pairs, "
                            f"paper has {ref_amplitude:.4f} at {ref_pairs}")]
        return [(label, None)]


class SweepArtifacts:
    """``gridgrover sweep`` at L = 400 over three local tessellations, every artifact on."""

    name = "sweep_artifacts"
    expected_runs = 3
    grover_calls = 0
    side = 400
    snapshots = (100, 200)

    def prepare(self, seed: int, workdir: Path) -> dict:
        rng = random.Random(seed)
        first = (rng.randrange(self.side), rng.randrange(self.side))
        second = first
        while second == first:
            second = (rng.randrange(self.side), rng.randrange(self.side))
        text = (
            f"L = {self.side}\nmarked = {first[0]}, {first[1]}, {second[0]}, {second[1]}\n"
            "d = 4\ntessellation = square\ndispersion = shifted-square\n"
            "sweep_tessellation = square, cross, four-corners\norder = ltr\n"
            "max_iters = 200\nsnapshot_stride = 100\nemit_trace = true\n"
            "emit_snapshots = true\nemit_heatmaps = true\nemit_partition = true\nheatmap_scale = 2\n"
        )
        config = workdir / "sweep.cfg"
        config.write_text(text)
        return {"config": config, "text": text, "out": workdir / "out"}

    def execute(self, pkg, inputs: dict) -> dict:
        return {"rc": _cli(pkg, ["sweep", "--config", str(inputs["config"]), "--out", str(inputs["out"])])}

    def check(self, pkg, inputs: dict, outcome: dict, tracer) -> list:
        config = pkg.parse_config(inputs["text"])
        labels = [label for label, _build in config.sweep_points()]
        if outcome["rc"] != 0:
            return [(label, f"gridgrover sweep returned {outcome['rc']!r}") for label in labels]
        traces = [record[3] for record in tracer.runs]
        if len(traces) != len(labels):
            return [(label, f"{len(traces)} grid runs for {len(labels)} sweep points") for label in labels]
        ops = []
        for label, trace in zip(labels, traces):
            try:
                error = self._check_point(pkg, inputs["out"] / label, trace, config.heatmap_scale)
            except Exception as exc:  # unreadable artifact
                error = f"{type(exc).__name__}: {exc}"
            ops.append((f"sweep {label}", error))
        return ops

    def _check_point(self, pkg, point: Path, trace, scale: int) -> "str | None":
        columns = pkg.read_trace_csv(point / "trace.csv")
        rounds = trace.probabilities.size
        if not (
            np.array_equal(columns["iteration"], np.arange(1, rounds + 1))
            and np.array_equal(columns["marked_probability"], trace.probabilities)
            and np.array_equal(columns["marked_amplitude"], np.sqrt(trace.probabilities))
            and np.array_equal(columns["nominal_steps"], trace.cumulative_steps)
        ):
            return "trace.csv differs from the in-memory trace"
        n = self.side * self.side
        for role in ("local", "dispersion"):
            i, j, group = np.loadtxt(point / f"partition_{role}.csv", delimiter=",",
                                     skiprows=1, dtype=np.int64, unpack=True)
            cover = np.bincount(i * self.side + j, minlength=n)
            if cover.size != n or np.any(cover != 1) or np.any(group < 0):
                return f"partition_{role}.csv does not cover every cell exactly once"
        palette = np.array(pkg.outputs.DEFAULT_HEATMAP_COLORS, dtype=np.uint8)
        for iteration in self.snapshots:
            grid = _read_snapshot(point / f"snapshot_iter{iteration:05d}.csv", self.side)
            if iteration not in trace.snapshots or not np.array_equal(grid, trace.snapshots[iteration]):
                return f"snapshot {iteration} differs from the in-memory snapshot"
            pixels = _read_ppm(point / f"heatmap_iter{iteration:05d}.ppm")
            # The palette's colors are distinct, so equal colors mean equal bins.
            expected = palette[pkg.bin_index(grid)]
            expected = np.repeat(np.repeat(expected, scale, axis=0), scale, axis=1)
            if not np.array_equal(pixels, expected):
                return f"heatmap {iteration} pixels differ from bin_index of its snapshot"
        return None


def _read_snapshot(path: Path, side: int) -> np.ndarray:
    i, j, amplitude = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    grid = np.full((side, side), np.nan)
    grid[i.astype(np.int64), j.astype(np.int64)] = amplitude
    return grid


def _read_ppm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, size, maxval, body = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path.name} is not an 8-bit P6 pixmap")
    width, height = (int(v) for v in size.split())
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)


WORKLOADS = {w.name: w for w in (PaperTable(), Crest2p20(), SweepArtifacts())}
