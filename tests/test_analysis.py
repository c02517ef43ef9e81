import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridgrover import (
    GridGeometry,
    MarkedSet,
    PeakSummary,
    RunConfig,
    first_crest,
    peak,
    run,
    scaling_fit,
)

# Closed-form least-squares slope of the reference series' ten rows in
# log-log space (normal equations, computed independently of scaling_fit).
REFERENCE_SERIES_EXPONENT = 0.553271552629711


def test_peak_takes_first_global_maximum():
    summary = peak([0.1, 0.5, 0.9, 0.4])
    assert summary.iteration == 3
    assert summary.probability == 0.9
    assert summary.amplitude == pytest.approx(math.sqrt(0.9), abs=1e-15)


def test_peak_tie_breaks_earliest():
    assert peak([0.3, 0.3, 0.3]).iteration == 1
    assert peak([0.1, 0.7, 0.2, 0.7]).iteration == 2


def test_peak_rejects_empty():
    with pytest.raises(ValueError):
        peak([])
    with pytest.raises(ValueError, match="empty trace"):
        first_crest([])


def test_peak_ignores_lower_tail():
    base = [0.1, 0.5, 0.9, 0.4]
    assert peak(base) == peak(base + [0.2, 0.85, 0.0])


def test_first_crest_vs_peak():
    assert first_crest([0.1, 0.5, 0.9, 0.4]).iteration == 3
    # a later revival moves the global max but not the crest
    trace = [0.1, 0.5, 0.9, 0.4, 0.95, 0.2]
    assert first_crest(trace).iteration == 3
    assert peak(trace).iteration == 5
    # still rising at the horizon, or a single round: the last round is no crest
    assert first_crest([0.1, 0.2, 0.3]) is None
    assert first_crest([0.7]) is None
    assert first_crest([0.5, 0.5, 0.1]).iteration == 1


def test_peak_summary_amplitude_is_sqrt_probability():
    assert PeakSummary(2, 0.25).amplitude == 0.5
    summary = PeakSummary(iteration=1, probability=0.9)
    assert summary.amplitude == math.sqrt(0.9)
    assert summary == first_crest([0.9, 0.4]) == peak([0.9, 0.4])


def test_scaling_fit_recovers_square_root_exactly():
    points = [(n, math.sqrt(n)) for n in (16, 64, 256, 1024, 4096)]
    fit = scaling_fit(points)
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert fit.prefactor == pytest.approx(1.0, abs=1e-9)


def test_scaling_fit_on_the_reference_series():
    from gridgrover import REFERENCE_PEAKS

    points = [(n, iterations) for n, _, iterations in REFERENCE_PEAKS]
    fit = scaling_fit(points)
    assert fit.exponent == pytest.approx(REFERENCE_SERIES_EXPONENT, abs=1e-9)
    assert 0.5 < fit.exponent < 0.6


def test_scaling_fit_constant_series():
    assert scaling_fit([(16, 7), (64, 7), (256, 7)]).exponent == pytest.approx(0.0, abs=1e-12)


def test_scaling_fit_input_validation():
    with pytest.raises(ValueError):
        scaling_fit([(16, 4), (64, 8)])
    with pytest.raises(ValueError):
        scaling_fit([(16, 4), (64, 8), (256, 0)])


@settings(max_examples=50)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_scaling_fit_recovers_power_laws(exponent, prefactor):
    points = [(n, prefactor * n**exponent) for n in (16, 64, 256, 1024, 4096, 16384)]
    fit = scaling_fit(points)
    assert abs(fit.exponent - exponent) <= 1e-9
    assert abs(fit.prefactor - prefactor) <= 1e-6 * prefactor


def test_pyramid_forms_around_the_marked_cell():
    # at the 400-cell crest the cells within torus-Chebyshev radius 4 of the
    # marked cell, the 9 x 9 window centred on it, hold strictly more
    # probability than the marked cell alone
    trace = run(RunConfig(GridGeometry(20), snapshot_stride=1))
    crest = first_crest(trace)
    grid = np.asarray(trace.snapshots[crest.iteration])
    row, col = trace.marked_cells[0]
    window = np.roll(grid, (4 - row, 4 - col), axis=(0, 1))[:9, :9]
    assert window[4, 4] == grid[row, col]
    assert np.sum(window**2) > grid[row, col] ** 2 + 0.01


def test_transposed_pair_splits_symmetrically():
    # (5, 15) and (15, 5) swap under the transpose, which maps both tile
    # lattices onto themselves, so the split is equal at every iteration
    trace = run(RunConfig(GridGeometry(20), marked=MarkedSet.of((5, 15), (15, 5))))
    assert set(map(tuple, trace.marked_cells)) == {(5, 15), (15, 5)}
    split = np.asarray(trace.per_cell_probabilities)
    assert split.shape == (len(trace.probabilities), 2)
    np.testing.assert_allclose(split[:, 0], split[:, 1], rtol=0, atol=1e-9)
    np.testing.assert_allclose(split.sum(axis=1), trace.probabilities, rtol=0, atol=1e-12)
