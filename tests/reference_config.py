"""The experiment-config parser as it stood before the key-table rewrite.

Kept unchanged (only its imports made absolute, and the parts that
``parse_config`` does not call left out) as the reference for the
differential test in ``test_config.py``: on texts that the old parser
handled without a known fault, the new parser must accept the same texts
and build equal configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gridgrover.simulator import DEFAULT_ORDER, DEFAULT_TILE_SIDE
from gridgrover.tessellation import (
    KIND_CROSS,
    KIND_FOUR_CORNERS,
    KIND_SHIFTED_SQUARE,
    KIND_SQUARE,
)

_LOCAL_KINDS = (KIND_SQUARE, KIND_CROSS, KIND_FOUR_CORNERS)
_DISPERSION_KINDS = (KIND_SHIFTED_SQUARE, KIND_SQUARE, KIND_CROSS, KIND_FOUR_CORNERS)


class ConfigError(ValueError):
    """Invalid experiment configuration; ``violations`` lists every problem."""

    def __init__(self, violations: "list[str]"):
        self.violations = tuple(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in violations))


def _divisibility_problem(side: int, kind: str, d: int) -> "str | None":
    if kind in (KIND_SQUARE, KIND_SHIFTED_SQUARE) and side % d != 0:
        return f"{kind} tessellation needs d | L: {d} does not divide {side}"
    if kind == KIND_CROSS and side % 5 != 0:
        return f"cross tessellation needs 5 | L: 5 does not divide {side}"
    if kind == KIND_FOUR_CORNERS and side % (2 * d) != 0:
        return f"four-corners tessellation needs 2d | L: {2 * d} does not divide {side}"
    return None


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


_BOOL_WORDS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}

_INT_KEYS = ("L", "n", "d", "max_iters", "snapshot_stride", "heatmap_scale")
_BOOL_KEYS = ("emit_trace", "emit_snapshots", "emit_heatmaps", "emit_partition")
_LIST_KEYS = ("marked", "sweep_n", "sweep_d", "sweep_tessellation", "sweep_marked")
_KNOWN_KEYS = frozenset(
    (*_INT_KEYS, *_BOOL_KEYS, *_LIST_KEYS, "tessellation", "dispersion", "order", "out")
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the flat key = value format.

    Raises :class:`ConfigError` carrying every violated rule, not only the
    first.
    """
    raw: dict[str, str] = {}
    violations: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            violations.append(f"line {lineno}: key {key!r} given more than once")
            continue
        raw[key] = value

    def take_int(key: str, default: "int | None") -> "int | None":
        if key not in raw:
            return default
        try:
            return int(raw[key])
        except ValueError:
            violations.append(f"{key}: expected an integer, got {raw[key]!r}")
            return default

    def take_bool(key: str, default: bool) -> bool:
        if key not in raw:
            return default
        word = raw[key].lower()
        if word not in _BOOL_WORDS:
            violations.append(f"{key}: expected true/false, got {raw[key]!r}")
            return default
        return _BOOL_WORDS[word]

    def take_int_list(key: str) -> tuple[int, ...]:
        if key not in raw:
            return ()
        items = [item.strip() for item in raw[key].split(",") if item.strip()]
        try:
            return tuple(int(item) for item in items)
        except ValueError:
            violations.append(f"{key}: expected comma-separated integers, got {raw[key]!r}")
            return ()

    side = take_int("L", None)
    n = take_int("n", None)
    if side is None and n is None:
        violations.append("one of 'L' or 'n' is required")
        side = 0
    if n is not None:
        root = math.isqrt(n)
        if root * root != n or root < 2:
            violations.append(f"n: {n} is not a perfect square of a side >= 2")
        elif side is None:
            side = root
        elif side != root:
            violations.append(f"L and n disagree: {side}^2 != {n}")
    if side is not None and side != 0 and side < 2:
        violations.append(f"L: side must be at least 2, got {side}")

    marked_cells: "tuple[tuple[int, int], ...] | None" = None
    if "marked" in raw and raw["marked"].strip().lower() != "default":
        values = take_int_list("marked")
        if len(values) % 2 != 0 or not values:
            violations.append("marked: expected a nonempty even-length list of (i, j) pairs")
        else:
            marked_cells = tuple(
                (values[k], values[k + 1]) for k in range(0, len(values), 2)
            )

    d = take_int("d", DEFAULT_TILE_SIDE)
    if d is not None and d < 1:
        violations.append(f"d: tile side must be positive, got {d}")

    local_kind = raw.get("tessellation", KIND_SQUARE).lower().replace("_", "-")
    if local_kind not in _LOCAL_KINDS:
        violations.append(f"tessellation: {raw.get('tessellation')!r} is not one of {_LOCAL_KINDS}")
    dispersion_kind = raw.get("dispersion", KIND_SHIFTED_SQUARE).lower().replace("_", "-")
    if dispersion_kind not in _DISPERSION_KINDS:
        violations.append(
            f"dispersion: {raw.get('dispersion')!r} is not one of {_DISPERSION_KINDS}"
        )

    order = raw.get("order", DEFAULT_ORDER)
    if order not in ("rtl", "ltr"):
        violations.append(f"order: expected 'rtl' or 'ltr', got {order!r}")

    max_iterations = take_int("max_iters", None)
    snapshot_stride = take_int("snapshot_stride", 0)
    heatmap_scale = take_int("heatmap_scale", 1)

    sweep_n = take_int_list("sweep_n")
    sweep_d = take_int_list("sweep_d")
    sweep_tessellation = tuple(
        item.strip().lower().replace("_", "-")
        for item in raw.get("sweep_tessellation", "").split(",")
        if item.strip()
    )
    sweep_marked_values = take_int_list("sweep_marked")
    if len(sweep_marked_values) % 2 != 0:
        violations.append("sweep_marked: expected an even-length list of (i, j) pairs")
        sweep_marked: tuple[tuple[int, int], ...] = ()
    else:
        sweep_marked = tuple(
            (sweep_marked_values[k], sweep_marked_values[k + 1])
            for k in range(0, len(sweep_marked_values), 2)
        )

    config = ExperimentConfig(
        side=side if side else 2,
        marked_cells=marked_cells,
        d=d if d else DEFAULT_TILE_SIDE,
        local_kind=local_kind if local_kind in _LOCAL_KINDS else KIND_SQUARE,
        dispersion_kind=(
            dispersion_kind if dispersion_kind in _DISPERSION_KINDS else KIND_SHIFTED_SQUARE
        ),
        order=order if order in ("rtl", "ltr") else DEFAULT_ORDER,
        max_iterations=max_iterations,
        snapshot_stride=snapshot_stride if snapshot_stride is not None else 0,
        out_dir=raw.get("out"),
        emit_trace=take_bool("emit_trace", True),
        emit_snapshots=take_bool("emit_snapshots", False),
        emit_heatmaps=take_bool("emit_heatmaps", False),
        emit_partition=take_bool("emit_partition", False),
        heatmap_scale=heatmap_scale if heatmap_scale else 1,
        sweep_n=sweep_n,
        sweep_d=sweep_d,
        sweep_tessellation=sweep_tessellation,
        sweep_marked=sweep_marked,
    )
    violations.extend(_collect_violations(config))
    if violations:
        raise ConfigError(violations)
    return config


def _collect_violations(config: ExperimentConfig) -> list[str]:
    violations: list[str] = []
    sides = [config.side]
    for n in config.sweep_n:
        root = math.isqrt(n)
        if root * root != n or root < 2:
            violations.append(f"sweep_n: {n} is not a perfect square of a side >= 2")
        else:
            sides.append(root)
    kinds = set(config.sweep_tessellation) | {config.local_kind, config.dispersion_kind}
    for kind in config.sweep_tessellation:
        if kind not in _LOCAL_KINDS:
            violations.append(f"sweep_tessellation: {kind!r} is not one of {_LOCAL_KINDS}")
    tile_sides = [config.d, *config.sweep_d]
    for tile in tile_sides:
        if tile < 1:
            violations.append(f"sweep_d: tile side must be positive, got {tile}")
    for side in sides:
        if side < 2:
            continue
        for kind in kinds:
            if kind not in (*_LOCAL_KINDS, KIND_SHIFTED_SQUARE):
                continue
            for tile in tile_sides:
                if tile < 1:
                    continue
                problem = _divisibility_problem(side, kind, tile)
                if problem:
                    violations.append(problem)
    if config.marked_cells is not None and len(config.marked_cells) != len(
        set((i % config.side, j % config.side) for i, j in config.marked_cells)
    ):
        violations.append("marked: cells coincide after wrapping onto the grid")
    if config.max_iterations is not None and config.max_iterations < 1:
        violations.append(f"max_iters: must be at least 1, got {config.max_iterations}")
    if config.snapshot_stride < 0:
        violations.append(f"snapshot_stride: must be nonnegative, got {config.snapshot_stride}")
    if config.heatmap_scale < 1:
        violations.append(f"heatmap_scale: must be a positive integer, got {config.heatmap_scale}")
    if (config.emit_snapshots or config.emit_heatmaps) and config.snapshot_stride == 0:
        violations.append("emit_snapshots/emit_heatmaps require snapshot_stride >= 1")
    # Deduplicate while keeping order: sweeps can repeat one divisibility problem.
    return list(dict.fromkeys(violations))
