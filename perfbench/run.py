"""gridgrover benchmark: one workload, repeated in fresh processes, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 22 --trace 0

Each repeat runs in a fresh child process (``worker.py``) with OpenBLAS, OpenMP
and MKL pinned to one thread, importing gridgrover from ``src/``.  Repeats
continue until their measured time adds up to ``--seconds`` and at least
``MIN_REPEATS`` have run; the result reports the median over repeats.

End-to-end metrics, each the median over repeats.  Times are CPU seconds of
the repeat's process: the program is single-threaded, so on a dedicated
machine they equal its wall time, while on a shared virtual machine they leave
out the time the host gives to other guests.  On a 2-vCPU Intel Xeon virtual
machine, sweep_artifacts' wall time swung between 9.8 and 14.5 s at a steady
9.6 s of CPU.  The median wall time per mode is echoed on the environment line.

    cpu_s               inputs on disk to the last artifact written
    setup_s             outermost config parse, partition, RunConfig and
                        DiffusionSpec calls (the time before the first round)
    rounds_per_s        grid rounds per second inside run(), not counting the
                        DiffusionSpec validation that setup_s already holds
    cell_updates_per_s  sum of n * rounds over the same seconds
    peak_rss_mb         peak resident memory of the repeat's own process
    success_ratio       operations that passed their output check, over those
                        attempted (1.0 when nothing fails)

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates untraced
and traced repeats and prints the per-layer metrics of the traced ones, plus
``trace.overhead`` (traced CPU time over untraced CPU time, minus one).

The line before the result echoes the environment: Python and numpy versions,
``nproc``, CPU model, the thread pin, the cache sizes ``lscpu`` reports and,
for each grid size, the state-vector bytes with the cache level that holds
them.  Those byte counts are computed from array sizes, not measured.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Scratch space for one run; removed when the run ends.
WORKDIR = ROOT / ".perfbench_work" / str(os.getpid())
MIN_REPEATS = 2
# A run must finish within 180 s; no repeat starts unless it is expected to end by then.
BUDGET_S = 170.0
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def lscpu() -> dict:
    """CPU model and cache sizes in bytes, as lscpu reports them."""
    info = {"cpu_model": "unknown", "l2_bytes_per_core": None, "llc_bytes": None}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        caches = subprocess.run(
            ["lscpu", "-B", "-C=NAME,ONE-SIZE,ALL-SIZE"],
            capture_output=True, text=True, timeout=10,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return info
    for line in text.splitlines():
        if line.startswith("Model name:"):
            info["cpu_model"] = line.split(":", 1)[1].strip()
    levels = {}
    for line in caches.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1].isdigit() and fields[2].isdigit():
            levels[fields[0]] = (int(fields[1]), int(fields[2]))
    if "L2" in levels:
        info["l2_bytes_per_core"] = levels["L2"][0]
    last = max((name for name in levels if name.startswith("L")), default=None)
    if last is not None:
        info["llc_bytes"] = levels[last][1]
        info["llc_level"] = last
    return info


def residency(state_bytes: int, cpu: dict) -> str:
    if cpu["l2_bytes_per_core"] and state_bytes <= cpu["l2_bytes_per_core"]:
        return "L2-resident"
    if cpu["llc_bytes"] and state_bytes <= cpu["llc_bytes"]:
        return f"{cpu.get('llc_level', 'LLC')}-resident"
    return "memory"


def run_repeat(workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    workdir = WORKDIR / str(index)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **THREAD_PIN)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--workdir", str(workdir)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{mode} repeat of {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _per_round_s(repeat: dict, count: str) -> float:
    # A repeat whose run raised before its first round has no rate; it already counts as failed.
    return repeat[count] / repeat["round_s"] if repeat["round_s"] else 0.0


def end_to_end(repeats: list[dict], success_ratio: float) -> dict:
    med = statistics.median
    return {
        "cpu_s": (med(r["cpu_s"] for r in repeats), "s"),
        "setup_s": (med(r["setup_s"] for r in repeats), "s"),
        "rounds_per_s": (med(_per_round_s(r, "rounds") for r in repeats), "1/s"),
        "cell_updates_per_s": (med(_per_round_s(r, "cell_updates") for r in repeats), "1/s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in repeats), "MiB"),
        "success_ratio": (success_ratio, "ratio"),
    }


def per_layer(plain: list[dict], traced: list[dict], units: dict) -> dict:
    names = traced[0]["layers"]
    metrics = {name: (statistics.median(r["layers"][name] for r in traced), units[name]) for name in names}
    overhead = statistics.median(r["cpu_s"] for r in traced) / statistics.median(r["cpu_s"] for r in plain) - 1
    metrics["trace.overhead"] = (overhead, units["trace.overhead"])
    return metrics


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="gridgrover benchmark (see module docstring)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridgrover" / "__init__.py").is_file():
        sys.stderr.write(f"no gridgrover source under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    started = time.monotonic()
    deadline = started + BUDGET_S
    modes = ("plain", "traced") if args.trace else ("plain",)
    repeats: dict[str, list[dict]] = {mode: [] for mode in modes}
    measured = 0.0
    try:
        while True:
            for mode in modes:
                record = run_repeat(args.workload, args.seed, mode, sum(map(len, repeats.values())), deadline)
                repeats[mode].append(record)
                measured += record["cpu_s"]
            # A traced run needs one repeat of each mode; an untraced one reports a median.
            enough = len(repeats["plain"]) >= (1 if args.trace else MIN_REPEATS)
            per_loop = (time.monotonic() - started) / len(repeats["plain"])
            if (enough and measured >= args.seconds) or time.monotonic() + per_loop > deadline:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()  # only when no other run is using it

    everything = [r for mode in modes for r in repeats[mode]]
    cpu = lscpu()
    sizes = sorted({n for r in everything for n in r["sizes"]})
    env = {
        "python": everything[0]["python"],
        "numpy": everything[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        **cpu,
        "thread_pin": THREAD_PIN,
        "state_vectors_computed": [
            {"n": n, "bytes": 8 * n, "cache": residency(8 * n, cpu)} for n in sizes
        ],
        "repeats": {mode: len(repeats[mode]) for mode in modes},
        "median_wall_s": {mode: statistics.median(r["wall_s"] for r in repeats[mode]) for mode in modes},
        "failures": [f for r in everything for f in r["failures"]][:10],
    }
    if args.trace:
        env["memcpy_s"] = repeats["traced"][0]["memcpy_s"]
        env["guard"] = [g for r in repeats["traced"] for g in r["guard"]]
    print(json.dumps({"env": env}))

    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    if args.trace:
        metrics = per_layer(repeats["plain"], repeats["traced"], units)
    else:
        metrics = end_to_end(repeats["plain"], (attempted - failed) / attempted)
    correct = failed == 0 and not env.get("guard")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
