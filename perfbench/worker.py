"""One repeat of one workload, in a fresh process started by ``run.py``.

Usage: python3 perfbench/worker.py --workload NAME --seed N --mode plain|traced --workdir DIR

``plain`` wraps only the coarse calls the end-to-end metrics need; ``traced``
wraps every public function of the package and also reports per-layer
metrics.  The last stdout line is one JSON object with the repeat's numbers.

The workload is timed on two clocks: the wall clock and the CPU clock of this
process.  The end-to-end times come from the CPU clock; on a shared virtual
machine the wall clock also counts time the host runs other guests.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracer import BUILD_KEYS, CHECK_NORM, DIFFUSION, GROVER, ORACLE, RUN, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TILE_KINDS = ("tile_aligned", "tile_shifted", "group")
VALIDATE_KEYS = (
    "tessellation.validate_partition",
    "tessellation.Partition.group_ids",
    "tessellation.Partition.group_sizes",
)
CONFIG_BUILD_KEYS = (
    "config.make_partition",
    "config.ExperimentConfig.with_overrides",
    "simulator.RunConfig.__init__",
)
HEATMAP_KEYS = (
    "outputs.emit_heatmap",
    "outputs.bin_index",
    "outputs.HeatmapStyle.__init__",
    "outputs.HeatmapStyle.bin_count",
)
MIN_COVERAGE = 0.9


def import_package():
    import gridgrover
    import gridgrover.cli  # noqa: F401  (the package __init__ does not import it)

    source = Path(gridgrover.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported gridgrover from {source}, not from {ROOT / 'src'}")
    return gridgrover


def memcpy_seconds(n: int) -> float:
    """Median time of one np.copyto of an n-float64 vector, caches warm."""
    src = np.random.default_rng(0).random(n)
    dst = np.empty_like(src)
    samples = []
    clock = time.perf_counter
    for _ in range(max(21, min(2001, 2 * 10**7 // (8 * n)))):
        t0 = clock()
        np.copyto(dst, src)
        samples.append(clock() - t0)
    return float(np.median(samples))


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(tracer: Tracer, wall_s: float, out: Path) -> tuple[dict, dict]:
    """Per-layer metrics of a traced repeat, plus the memcpy reference per size."""
    t = tracer
    sizes = {n for n, *_ in t.runs} | {tr.geometry.side ** 2 for tr in t.grover_traces}
    memcpy = {n: memcpy_seconds(n) for n in sorted(sizes)}

    def in_memcpy(by_size: dict) -> float:
        calls = sum(c for c, _s in by_size.values())
        return sum(s / memcpy[n] for n, (_c, s) in by_size.items()) / calls if calls else 0.0

    rounds = sum(r for _n, r, _s, _tr in t.runs)
    m = {
        "tessellation.build_s": sum(t.self_s(k) for k in BUILD_KEYS),
        "tessellation.validate_s": sum(t.self_s(k) for k in VALIDATE_KEYS),
        "tessellation.validate_calls": t.calls("tessellation.validate_partition"),
        "operators.spec_s": t.self_s("operators.DiffusionSpec.__init__"),
        "config.parse_s": t.self_s("config.parse_config"),
        "config.build_s": sum(t.self_s(k) for k in CONFIG_BUILD_KEYS),
        "operators.oracle_s": t.self_s(ORACLE),
        "operators.oracle_calls": t.calls(ORACLE),
    }
    for kind in TILE_KINDS:
        m[f"operators.{kind}_s"] = t.self_s(DIFFUSION, kind)
        m[f"operators.{kind}_calls"] = t.calls(DIFFUSION, kind)
    m["operators.tile_aligned_memcpy"] = in_memcpy(t.self_by_size(DIFFUSION, "tile_aligned"))
    m["operators.tile_shifted_memcpy"] = in_memcpy(t.self_by_size(DIFFUSION, "tile_shifted"))
    # Computed, not measured: each diffusion reads and writes the state once,
    # each norm check reads it once; cache behaviour is ignored.
    passes = sum(16 * n * c for n, (c, _s) in t.self_by_size(DIFFUSION).items())
    passes += sum(8 * n * c for n, (c, _s) in t.self_by_size(CHECK_NORM).items())
    m["operators.bytes_per_round_computed"] = passes / rounds if rounds else 0.0
    m["grid.check_norm_s"] = t.self_s(CHECK_NORM)
    m["grid.check_norm_calls"] = t.calls(CHECK_NORM)
    m["grid.max_norm_drift"] = t.max_norm_drift
    m["simulator.run_s"] = t.self_s(RUN)
    m["simulator.record_s"] = t.self_s("simulator.snapshot")
    m["simulator.rounds"] = rounds
    m["simulator.round_memcpy"] = (
        sum(s / memcpy[n] for n, _r, s, _tr in t.runs) / rounds if rounds else 0.0
    )
    m["simulator.grover_s"] = t.self_s(GROVER)
    m["simulator.grover_rounds"] = sum(tr.probabilities.size for tr in t.grover_traces)
    m["outputs.trace_csv_s"] = t.self_s("outputs.emit_trace_csv")
    m["outputs.snapshot_csv_s"] = t.self_s("outputs.emit_snapshot_csv")
    m["outputs.heatmap_s"] = sum(t.self_s(k) for k in HEATMAP_KEYS)
    m["outputs.partition_csv_s"] = t.self_s("outputs.emit_partition_csv")
    written = directory_bytes(out) if out.exists() else 0
    output_s = t.module_self_s("outputs")
    m["outputs.bytes"] = written
    m["outputs.mb_per_s"] = written / 1e6 / output_s if output_s else 0.0
    m["analysis.s"] = t.module_self_s("analysis")
    m["experiments.self_s"] = t.module_self_s("experiments")
    m["cli.self_s"] = t.module_self_s("cli")
    m["ref.memcpy_s"] = memcpy[max(memcpy)] if memcpy else 0.0
    m["trace.coverage"] = t.total_self_s() / wall_s
    return m, {str(n): s for n, s in memcpy.items()}


def guard(tracer: Tracer, workload, layers: dict) -> list[str]:
    """Span counts must equal the program's own counters; a miss means a layer left view."""
    grid_traces = [tr for *_rest, tr in tracer.runs]
    rounds = sum(tr.probabilities.size for tr in grid_traces)
    problems = []
    expected = {
        "apply_oracle spans": (layers["operators.oracle_calls"],
                               sum(tr.counters.oracle_calls for tr in grid_traces)),
        "apply_partition_diffusion spans": (
            sum(layers[f"operators.{kind}_calls"] for kind in TILE_KINDS),
            sum(tr.counters.diffusion_applications for tr in grid_traces),
        ),
        "run_grover_reference spans": (tracer.calls(GROVER), workload.grover_calls),
        # Every workload runs the ltr or rtl schedule: two oracle calls a round.
        "apply_oracle spans per trace row": (layers["operators.oracle_calls"], 2 * rounds),
    }
    for what, (seen, want) in expected.items():
        if seen != want:
            problems.append(f"{what}: traced {seen}, program reports {want}")
    if tracer.calls(RUN) < workload.expected_runs:
        problems.append(f"run spans: traced {tracer.calls(RUN)}, workload makes {workload.expected_runs}")
    if layers["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"layer self times cover {layers['trace.coverage']:.3f} of the traced wall")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    pkg = import_package()
    tracer = Tracer(pkg, "full" if args.mode == "traced" else "probe")
    tracer.install()
    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.workdir)

    tracer.active = True
    t0, c0 = time.perf_counter(), time.process_time()
    outcome = workload.execute(pkg, inputs)
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        ops = workload.check(pkg, inputs, outcome, tracer)
    except Exception as exc:  # e.g. an artifact the workload needs was never written
        ops = [(args.workload, f"check raised {type(exc).__name__}: {exc}")]
    failures = [f"{label}: {error}" for label, error in ops if error is not None]
    rounds = sum(r for _n, r, _s, _tr in tracer.runs)
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": tracer.setup_s,
        "rounds": rounds,
        "cell_updates": sum(n * r for n, r, _s, _tr in tracer.runs),
        "round_s": sum(s for _n, _r, s, _tr in tracer.runs),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "sizes": sorted({n for n, *_ in tracer.runs}),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.mode == "traced":
        layers, memcpy = layer_metrics(tracer, wall_s, inputs["out"])
        result["layers"] = layers
        result["memcpy_s"] = memcpy
        result["guard"] = guard(tracer, workload, layers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
