"""Post-processing of simulation traces.

Peaks, first crests, and log-log scaling fits over (n, crest iteration)
series.  The amplitude pyramid and the per-cell split of a multi-marked run
need no helper: they are read from a trace's ``snapshots`` and
``per_cell_probabilities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["PeakSummary", "ScalingFit", "first_crest", "peak", "scaling_fit"]


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
