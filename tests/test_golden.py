"""Golden traces: short runs checked against ``trace.csv`` files kept in ``tests/golden``.

Each case reruns one configuration and compares its marked probability,
marked amplitude and cumulative nominal steps with the stored file, floats to
1e-12 (a kernel rewrite may change the summation order and so the last bits),
iteration numbers and steps exactly.

The files were written by the simulator before its round loop was shared with
the Grover reference.  Regenerate them only for a change that is meant to
alter the traces::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from gridgrover import (
    GridGeometry,
    MarkedSet,
    RunConfig,
    cross_partition,
    emit_trace_csv,
    four_corners_partition,
    read_trace_csv,
    run,
    run_grover_reference,
)

GOLDEN = Path(__file__).with_name("golden")
TOLERANCE = 1e-12

CASES = {
    "grid_n256_ltr": lambda: run(RunConfig(GridGeometry(16), order="ltr")),
    "grid_n256_rtl": lambda: run(RunConfig(GridGeometry(16), order="rtl")),
    "grid_n4096_ltr": lambda: run(RunConfig(GridGeometry(64), order="ltr")),
    "grid_n4096_rtl": lambda: run(RunConfig(GridGeometry(64), order="rtl")),
    "cross_L40": lambda: run(
        RunConfig(GridGeometry(40), local_partition=cross_partition(GridGeometry(40)), max_iterations=80)
    ),
    "four_corners_L40": lambda: run(
        RunConfig(
            GridGeometry(40),
            local_partition=four_corners_partition(GridGeometry(40), 4),
            max_iterations=80,
        )
    ),
    "two_marked_L20": lambda: run(
        RunConfig(GridGeometry(20), marked=MarkedSet.of((11, 11), (6, 10)))
    ),
    "grover_n4096": lambda: run_grover_reference(4096, 1, 256, marked_indices=[1365]),
}


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}_trace.csv"


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    trace = CASES[name]()
    golden = read_trace_csv(golden_path(name))
    rounds = trace.probabilities.size
    np.testing.assert_array_equal(golden["iteration"], np.arange(1, rounds + 1))
    np.testing.assert_array_equal(trace.cumulative_steps, golden["nominal_steps"])
    worst_p = np.max(np.abs(trace.probabilities - golden["marked_probability"]))
    worst_a = np.max(np.abs(np.sqrt(trace.probabilities) - golden["marked_amplitude"]))
    assert worst_p <= TOLERANCE and worst_a <= TOLERANCE, (name, worst_p, worst_a)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, make in sorted(CASES.items()):
        print(emit_trace_csv(make(), golden_path(case)))
