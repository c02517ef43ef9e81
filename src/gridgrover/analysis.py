"""Post-processing of simulation traces.

Peak detection, log-log scaling fits over (n, peak iteration) series,
probability mass near the marked cells (the "pyramid" the dynamics builds),
and combined/per-item summaries for multi-marked runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .grid import Coord, GridGeometry, GridState, MarkedSet, normalize_coord

__all__ = [
    "MultiMarkedSummary",
    "PeakSummary",
    "ScalingFit",
    "chebyshev_distance",
    "first_crest",
    "multi_marked_summary",
    "neighborhood_mass",
    "peak",
    "scaling_fit",
]


@dataclass(frozen=True)
class PeakSummary:
    """First global maximum of the marked probability over a trace.

    ``iteration`` is 1-based: iteration k is the state after k complete
    rounds.  ``amplitude`` is sqrt(probability), the positive value reported
    by measurement-based summaries.
    """

    iteration: int
    probability: float

    @property
    def amplitude(self) -> float:
        return math.sqrt(self.probability)


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law iterations ~ prefactor * n ** exponent."""

    exponent: float
    prefactor: float
    residual: float


def peak(trace) -> PeakSummary:
    """Earliest iteration attaining the maximum probability.

    Accepts a trace object (anything with a ``probabilities`` attribute) or a
    bare probability sequence.
    """
    probabilities = np.asarray(getattr(trace, "probabilities", trace), dtype=np.float64)
    if probabilities.size == 0:
        raise ValueError("cannot locate a peak in an empty trace")
    best = int(np.argmax(probabilities))
    return PeakSummary(best + 1, float(probabilities[best]))


def first_crest(trace) -> "PeakSummary | None":
    """Earliest local maximum: where the probability first stops rising.

    The probability climbs to a crest near sqrt(n) rounds, falls off, and
    later quasi-periodic revivals can edge slightly higher; the reference
    result series reports the first crest, so comparisons against it use
    this rather than :func:`peak`.  None when no round is followed by a
    non-rising one: the trace still rises at the horizon, so its last round
    is no crest.
    """
    probabilities = np.asarray(getattr(trace, "probabilities", trace), dtype=np.float64)
    if probabilities.size == 0:
        raise ValueError("cannot locate a crest in an empty trace")
    falling = np.flatnonzero(probabilities[:-1] >= probabilities[1:])
    if not falling.size:
        return None
    at = int(falling[0])
    return PeakSummary(at + 1, float(probabilities[at]))


def scaling_fit(points: Iterable[tuple[float, float]]) -> ScalingFit:
    """Fit log(iterations) against log(n) by least squares.

    Requires at least three points with positive coordinates.  ``residual``
    is the RMS misfit in log space.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"scaling fit needs at least 3 points, got {len(pts)}")
    if any(n <= 0 or it <= 0 for n, it in pts):
        raise ValueError("scaling fit requires positive sizes and iteration counts")
    x = np.log([n for n, _ in pts])
    y = np.log([it for _, it in pts])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return ScalingFit(exponent=float(slope), prefactor=float(np.exp(intercept)), residual=residual)


def chebyshev_distance(geometry: GridGeometry, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Chebyshev distance on the torus: per-axis wrap, then max."""
    ca = normalize_coord(geometry, a)
    cb = normalize_coord(geometry, b)
    side = geometry.side
    dr = abs(ca.row - cb.row)
    dc = abs(ca.col - cb.col)
    return max(min(dr, side - dr), min(dc, side - dc))


def neighborhood_mass(state: GridState, marked: MarkedSet, radius: int) -> float:
    """Probability on cells within torus-Chebyshev ``radius`` of any marked cell."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    geometry = state.geometry
    side = geometry.side
    rows = np.arange(side)[:, None]
    cols = np.arange(side)[None, :]
    within = np.zeros((side, side), dtype=bool)
    for cell in marked.normalized(geometry):
        dr = np.abs(rows - cell.row)
        dc = np.abs(cols - cell.col)
        dist = np.maximum(np.minimum(dr, side - dr), np.minimum(dc, side - dc))
        within |= dist <= radius
    grid = state.as_grid()
    return float(np.sum(grid[within] ** 2))


@dataclass(frozen=True)
class MultiMarkedSummary:
    """Combined peak of a multi-marked run plus the per-cell split there."""

    combined: PeakSummary
    split: tuple[tuple[Coord, float], ...]


def multi_marked_summary(trace, marked: MarkedSet) -> MultiMarkedSummary:
    """Combined peak over the horizon and each cell's probability at it."""
    cells: Sequence[Coord] = trace.marked_cells
    if len(cells) < 2:
        raise ValueError("multi-marked summary needs at least two marked cells; use peak()")
    if set(cells) != set(marked.normalized(trace.geometry)):
        raise ValueError("marked set does not match the cells recorded in the trace")
    combined = peak(trace)
    at_peak = trace.per_cell_probabilities[combined.iteration - 1]
    split = tuple((cell, float(p)) for cell, p in zip(cells, at_peak))
    return MultiMarkedSummary(combined=combined, split=split)
