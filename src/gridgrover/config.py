"""Experiment configuration: a flat key = value text format, fully validated.

One ``key = value`` pair per line; blank lines are ignored and ``#`` starts a
comment anywhere on a line, so values cannot contain ``#``; list values are
comma-separated.  Parsing collects every violation before failing, so a bad
file reports all of its problems at once.

Keys::

    L / n               grid side / cell count (one required; n = L^2)
    marked              flat integer list, consumed in (i, j) pairs, or
                        "default" for the built-in placement
    d                   tile side for square-family tessellations (default 4)
    tessellation        local diffusion kind: square | cross | four-corners
    dispersion          dispersion kind: shifted-square | square | cross |
                        four-corners (default shifted-square)
    order               ltr | rtl round reading (default ltr, the calibrated order)
    max_iters           horizon override (default 4 * L)
    snapshot_stride     rounds between stored grids (0 = none; >= 1 needs
                        emit_snapshots or emit_heatmaps, which read them,
                        and at most the horizon of every point)
    out                 output directory
    emit_trace          write trace.csv (default true)
    emit_snapshots      write snapshot CSVs (needs snapshot_stride >= 1)
    emit_heatmaps       write heatmap rasters (needs snapshot_stride >= 1)
    emit_partition      write partition CSVs
    heatmap_scale       integer pixel upscale for rasters (default 1)
    sweep_n             n values to sweep
    sweep_d             d values to sweep
    sweep_tessellation  local kinds to sweep
    sweep_marked        marked placements to sweep, one (i, j) pair each

``parse_config`` only turns text into typed values; every rule about those
values lives in ``ExperimentConfig``, which checks itself on construction,
so ``dataclasses.replace`` results are validated too.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from .grid import GridGeometry, MarkedSet, _side_of
from .simulator import (
    _ORDERS, DEFAULT_ORDER, DEFAULT_TILE_SIDE, RunConfig, default_horizon, default_marked_cell,
)
from .tessellation import (
    KIND_CROSS,
    KIND_FOUR_CORNERS,
    KIND_SHIFTED_SQUARE,
    KIND_SQUARE,
    Partition,
    cross_partition,
    four_corners_partition,
    shifted_square_partition,
    square_partition,
    tiling_problem,
)

__all__ = ["ConfigError", "ExperimentConfig", "make_partition", "parse_config"]

_LOCAL_KINDS = (KIND_SQUARE, KIND_CROSS, KIND_FOUR_CORNERS)
_DISPERSION_KINDS = (KIND_SHIFTED_SQUARE, KIND_SQUARE, KIND_CROSS, KIND_FOUR_CORNERS)
_NO_SIDE = "one of 'L' or 'n' is required"


class ConfigError(ValueError):
    """Invalid experiment configuration; ``violations`` lists every problem."""

    def __init__(self, violations: "list[str]"):
        self.violations = tuple(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in violations))


def make_partition(geometry: GridGeometry, kind: str, d: int) -> Partition:
    """Build one of the named tessellations (cross ignores ``d``)."""
    if kind == KIND_SQUARE:
        return square_partition(geometry, d)
    if kind == KIND_SHIFTED_SQUARE:
        return shifted_square_partition(geometry, d)
    if kind == KIND_CROSS:
        return cross_partition(geometry)
    if kind == KIND_FOUR_CORNERS:
        return four_corners_partition(geometry, d)
    raise ValueError(f"unknown tessellation kind {kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: one base run plus optional sweep axes."""

    side: int
    marked_cells: tuple[tuple[int, int], ...] | None = None
    d: int = DEFAULT_TILE_SIDE
    local_kind: str = KIND_SQUARE
    dispersion_kind: str = KIND_SHIFTED_SQUARE
    order: str = DEFAULT_ORDER
    max_iterations: int | None = None
    snapshot_stride: int = 0
    out_dir: str | None = None
    emit_trace: bool = True
    emit_snapshots: bool = False
    emit_heatmaps: bool = False
    emit_partition: bool = False
    heatmap_scale: int = 1
    sweep_n: tuple[int, ...] = ()
    sweep_d: tuple[int, ...] = ()
    sweep_tessellation: tuple[str, ...] = ()
    sweep_marked: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        violations: list[str] = []
        if self.side is None:  # the text gave neither L nor n
            violations.append(_NO_SIDE)
        elif self.side < 2:
            violations.append(f"L: side must be at least 2, got {self.side}")
        elif self.marked_cells and len(self.marked_cells) != len(
            {(i % self.side, j % self.side) for i, j in self.marked_cells}
        ):
            violations.append("marked: cells coincide after wrapping onto the grid")
        if self.marked_cells == ():
            violations.append("marked: expected at least one (i, j) pair")
        for n in self.sweep_n:
            try:
                _side_of(n)
            except ValueError as exc:
                violations.append(f"sweep_n: {exc}")
        for key, kinds, known in (
            ("tessellation", (self.local_kind,), _LOCAL_KINDS),
            ("dispersion", (self.dispersion_kind,), _DISPERSION_KINDS),
            ("sweep_tessellation", self.sweep_tessellation, _LOCAL_KINDS),
        ):
            violations.extend(f"{key}: {k!r} is not one of {known}" for k in kinds if k not in known)
        for key, tiles in (("d", (self.d,)), ("sweep_d", self.sweep_d)):
            violations.extend(f"{key}: tile side must be positive, got {t}" for t in tiles if t < 1)
        # Only the (side, kind, tile side) combinations that sweep_points runs must tile.
        sides, tiles, kinds = self._axes()
        sides = [side for side in sides if side is not None and side >= 2]
        for side, kind, tile in product(sides, (*kinds, self.dispersion_kind), tiles):
            if tile >= 1 and (problem := tiling_problem(side, kind, tile)):
                violations.append(problem)
        if self.order not in _ORDERS:
            names = " or ".join(map(repr, _ORDERS))
            violations.append(f"order: expected {names}, got {self.order!r}")
        if self.max_iterations is not None and self.max_iterations < 1:
            violations.append(f"max_iters: must be at least 1, got {self.max_iterations}")
        if self.snapshot_stride < 0:
            violations.append(f"snapshot_stride: must be nonnegative, got {self.snapshot_stride}")
        if self.heatmap_scale < 1:
            violations.append(f"heatmap_scale: must be a positive integer, got {self.heatmap_scale}")
        if (self.emit_snapshots or self.emit_heatmaps) and self.snapshot_stride == 0:
            violations.append("emit_snapshots/emit_heatmaps require snapshot_stride >= 1")
        if self.snapshot_stride >= 1 and not (self.emit_snapshots or self.emit_heatmaps):
            violations.append("snapshot_stride: stored grids are read only by emit_snapshots "
                              "or emit_heatmaps; set one of them or use 0")
        horizons = [self.max_iterations or default_horizon(GridGeometry(s)) for s in sides]
        if horizons and 1 <= min(horizons) < self.snapshot_stride:
            violations.append(f"snapshot_stride: {self.snapshot_stride} exceeds the "
                              f"{min(horizons)}-round horizon of a point, which would store no grid")
        if violations:
            # Sweeps can repeat one divisibility problem; report it once.
            raise ConfigError(list(dict.fromkeys(violations)))

    def _axes(self) -> "tuple[list[int], list[int], list[str]]":
        """Grid sides, tile sides and local kinds ``sweep_points`` crosses; bad sizes are skipped."""
        sides = []
        for n in self.sweep_n:
            with suppress(ValueError):
                sides.append(_side_of(n))
        tiles = list(self.sweep_d) or [self.d]
        return sides or [self.side], tiles, list(self.sweep_tessellation) or [self.local_kind]

    def sweep_points(self) -> Iterator[tuple[str, Callable[[], RunConfig]]]:
        """Expand the sweep axes into (label, builder) pairs.

        A builder may raise (e.g. marked cells that coincide on a swept grid
        size); callers decide whether one bad point aborts the sweep.
        """
        sides, tile_sides, kinds = self._axes()
        placements: "list[tuple[tuple[int, int], ...] | None]" = (
            [(cell,) for cell in self.sweep_marked] if self.sweep_marked else [self.marked_cells]
        )
        for side, d, kind, cells in product(sides, tile_sides, kinds, placements):
            resolved = cells if cells is not None else (tuple(default_marked_cell(GridGeometry(side))),)
            label = _point_label(side, d, kind, self.order, resolved)

            def build(side=side, d=d, kind=kind, cells=cells) -> RunConfig:
                geometry = GridGeometry(side)
                return RunConfig(
                    geometry=geometry,
                    marked=MarkedSet.of(*cells) if cells is not None else None,
                    local_partition=make_partition(geometry, kind, d),
                    dispersion_partition=make_partition(geometry, self.dispersion_kind, d),
                    order=self.order,
                    max_iterations=self.max_iterations,
                    snapshot_stride=self.snapshot_stride,
                )

            yield label, build


def _point_label(
    side: int, d: int, kind: str, order: str, cells: "tuple[tuple[int, int], ...]"
) -> str:
    tag = "+".join(f"{i % side}-{j % side}" for i, j in sorted(cells))
    return f"n{side * side}_d{d}_{kind}_{order}_m{tag}"


# Converters: one value's text to its field value, or a ValueError that follows the key's name.

def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _items(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _integers(text: str) -> tuple[int, ...]:
    return tuple(map(_integer, _items(text)))


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    values = _integers(text)
    if len(values) % 2:
        raise ValueError("expected an even-length list of (i, j) pairs")
    return tuple(zip(values[::2], values[1::2]))


def _kind(text: str) -> str:
    return text.lower().replace("_", "-")


_BOOL_WORDS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}


def _boolean(text: str) -> bool:
    if text.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected true/false, got {text!r}")
    return _BOOL_WORDS[text.lower()]


# key -> (ExperimentConfig field, converter).  L and n both set ``side``.
_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "L": ("side", _integer),
    "n": ("side", lambda text: _side_of(_integer(text))),
    "marked": ("marked_cells", lambda text: None if text.lower() == "default" else _pairs(text)),
    "d": ("d", _integer),
    "tessellation": ("local_kind", _kind),
    "dispersion": ("dispersion_kind", _kind),
    "order": ("order", str),
    "max_iters": ("max_iterations", _integer),
    "snapshot_stride": ("snapshot_stride", _integer),
    "out": ("out_dir", str),
    "emit_trace": ("emit_trace", _boolean),
    "emit_snapshots": ("emit_snapshots", _boolean),
    "emit_heatmaps": ("emit_heatmaps", _boolean),
    "emit_partition": ("emit_partition", _boolean),
    "heatmap_scale": ("heatmap_scale", _integer),
    "sweep_n": ("sweep_n", _integers),
    "sweep_d": ("sweep_d", _integers),
    "sweep_tessellation": ("sweep_tessellation", lambda text: tuple(map(_kind, _items(text)))),
    "sweep_marked": ("sweep_marked", _pairs),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the flat key = value format.

    Raises :class:`ConfigError` carrying every violated rule, not only the
    first.
    """
    fields: dict[str, object] = {}
    seen: set[str] = set()
    violations: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            violations.append(f"line {lineno}: expected 'key = value', got {line!r}")
        elif key not in _KEYS:
            violations.append(f"line {lineno}: unknown key {key!r}")
        elif key in seen:
            violations.append(f"line {lineno}: key {key!r} given more than once")
        else:
            seen.add(key)
            field, convert = _KEYS[key]
            try:
                parsed = convert(value)
            except ValueError as exc:
                violations.append(f"{key}: {exc}")
                continue
            if fields.setdefault(field, parsed) != parsed:
                violations.append(f"L and n disagree: sides {fields[field]} and {parsed}")
    try:
        config = ExperimentConfig(side=fields.pop("side", None), **fields)
    except ConfigError as exc:
        # After a bad L or n the side is missing only because that key reported itself.
        violations.extend(v for v in exc.violations if v != _NO_SIDE or not seen & {"L", "n"})
    if violations:
        raise ConfigError(violations)
    return config
