"""Span tracer that wraps gridgrover's public functions from outside the package.

No file of the package changes.  The tracer replaces functions, methods,
properties and constructors with timing wrappers; a module-level function is
rebound at every module attribute of the package that holds it, so
``gridgrover.simulator.apply_partition_diffusion`` is wrapped as well as
``gridgrover.operators.apply_partition_diffusion``.

Two modes share one mechanism:

* ``probe`` wraps only the calls the end-to-end metrics need: config parse,
  partition construction, ``RunConfig`` and ``DiffusionSpec`` construction and
  ``run``.  An untraced repeat pays a few wrapped calls per grid run and none
  per round.  Probe spans read the process CPU clock, like the end-to-end
  metrics they feed.
* ``full`` wraps every public function of the nine modules, every public
  method and property of their public classes, and the constructor of each
  class that validates in ``__post_init__``.  Generator functions are left
  alone, since their work runs in the caller and belongs to its span.
  Full spans read ``perf_counter``, which costs less per call than the CPU
  clock on the hot paths that full mode wraps.

Spans are aggregated as they close (calls, total and self time per key and
tag), because the per-layer metrics need only those sums.  A span's self time
is its duration minus the durations of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = (
    "grid",
    "tessellation",
    "operators",
    "simulator",
    "analysis",
    "config",
    "outputs",
    "experiments",
    "cli",
)

RUN = "simulator.run"
GROVER = "simulator.run_grover_reference"
DIFFUSION = "operators.apply_partition_diffusion"
ORACLE = "operators.apply_oracle"
CHECK_NORM = "grid.GridState.check_norm"

BUILD_KEYS = (
    "tessellation.square_partition",
    "tessellation.shifted_square_partition",
    "tessellation.cross_partition",
    "tessellation.four_corners_partition",
    "tessellation.custom_partition",
    "tessellation.translate_partition",
)
# Outermost spans of these keys make up setup_s: config parse, partition and
# RunConfig construction, and DiffusionSpec validation.
SETUP_KEYS = frozenset(
    {
        "config.parse_config",
        "config.make_partition",
        "simulator.RunConfig.__init__",
        "operators.DiffusionSpec.__init__",
        *BUILD_KEYS,
    }
)
PROBE_KEYS = frozenset(
    {
        "config.parse_config",
        "config.make_partition",
        "simulator.RunConfig.__init__",
        "operators.DiffusionSpec.__init__",
        RUN,
    }
)


def _size(state) -> int:
    return state.amplitudes.size


def _diffusion_tag(args) -> tuple[str, int]:
    state, spec = args[0], args[1]
    partition = spec.partition
    if partition.tile_side is None:
        kind = "group"
    elif tuple(partition.tile_shift) == (0, 0):
        kind = "tile_aligned"
    else:
        kind = "tile_shifted"
    return kind, _size(state)


TAGGERS = {
    DIFFUSION: _diffusion_tag,
    ORACLE: lambda args: _size(args[0]),
    CHECK_NORM: lambda args: _size(args[0]),
}


class Tracer:
    """Wrap the package, then aggregate spans while ``active`` is true."""

    def __init__(self, package, mode: str):
        self.package = package
        self.mode = mode
        self.active = False
        # key -> tag -> [calls, total seconds, self seconds]
        self.stats: dict[str, dict] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        self.setup_s = 0.0
        self.max_norm_drift = 0.0
        # One record per grid run: (n, rounds, seconds in run() outside setup, trace).
        self.runs: list[tuple[int, int, float, object]] = []
        self.grover_traces: list = []
        self._stack: list[list[float]] = [[0.0, 0.0]]
        self._setup_depth = 0

    # ---- wrapping -------------------------------------------------------

    def _wrap(self, fn, key: str):
        tracer = self
        stack = self._stack
        stats = self.stats[key]
        clock = time.process_time if self.mode == "probe" else time.perf_counter
        setup = key in SETUP_KEYS
        tagger = TAGGERS.get(key)
        is_run = key == RUN
        is_grover = key == GROVER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0, 0.0]  # [child seconds, setup seconds inside]
            stack.append(frame)
            if setup:
                tracer._setup_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                if setup:
                    tracer._setup_depth -= 1
                    if tracer._setup_depth == 0:
                        parent[1] += dur
                        tracer.setup_s += dur
                else:
                    parent[1] += frame[1]
                record = stats[tagger(args) if tagger else None]
                record[0] += 1
                record[1] += dur
                record[2] += dur - frame[0]
            if is_run:
                n = result.geometry.side ** 2
                tracer.runs.append((n, result.probabilities.size, dur - frame[1], result))
            elif is_grover:
                tracer.grover_traces.append(result)
            return result

        return wrapper

    def _norm_probe(self, fget):
        tracer = self

        @functools.wraps(fget)
        def probe(state):
            value = fget(state)
            if tracer.active:
                drift = abs(value - 1.0)
                if drift > tracer.max_norm_drift:
                    tracer.max_norm_drift = drift
            return value

        return probe

    def install(self) -> None:
        """Wrap the selected callables and rebind module-level functions."""
        modules = {name: sys.modules[f"{self.package.__name__}.{name}"] for name in MODULES}
        replaced: dict[int, object] = {}
        for short, module in modules.items():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{short}.{name}"
                    if self._wanted(key) and not inspect.isgeneratorfunction(obj):
                        replaced[id(obj)] = self._wrap(obj, key)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    self._wrap_class(short, obj)
        # Rebind every module attribute of the package that holds an original.
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    def _wanted(self, key: str) -> bool:
        return self.mode == "full" or key in PROBE_KEYS

    def _wrap_class(self, short: str, cls) -> None:
        members = vars(cls)
        for name, member in list(members.items()):
            key = f"{short}.{cls.__name__}.{name}"
            if name == "__init__":
                if "__post_init__" in members and self._wanted(key):
                    setattr(cls, name, self._wrap(member, key))
                continue
            if name.startswith("_") or self.mode != "full":
                continue
            if name == "norm_squared" and isinstance(member, property):
                # Records drift without a span: the ddot stays in check_norm's self time.
                setattr(cls, name, property(self._norm_probe(member.fget)))
            elif isinstance(member, property):
                setattr(cls, name, property(self._wrap(member.fget, key)))
            elif isinstance(member, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(member.func, key))
                wrapped.__set_name__(cls, name)
                setattr(cls, name, wrapped)
            elif isinstance(member, classmethod):
                setattr(cls, name, classmethod(self._wrap(member.__func__, key)))
            elif isinstance(member, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(member.__func__, key)))
            elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                setattr(cls, name, self._wrap(member, key))

    def _package_modules(self):
        prefix = self.package.__name__
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    # ---- aggregation ----------------------------------------------------

    def _records(self, key: str, kind: "str | None"):
        """(grid size or None, record) pairs of a key, optionally of one diffusion kind."""
        for tag, record in self.stats.get(key, {}).items():
            tag_kind, n = tag if isinstance(tag, tuple) else (None, tag)
            if kind is None or tag_kind == kind:
                yield n, record

    def calls(self, key: str, kind: "str | None" = None) -> int:
        return sum(r[0] for _n, r in self._records(key, kind))

    def self_s(self, key: str, kind: "str | None" = None) -> float:
        return sum(r[2] for _n, r in self._records(key, kind))

    def self_by_size(self, key: str, kind: "str | None" = None) -> dict[int, tuple[int, float]]:
        """n -> (calls, self seconds) for a key whose tag carries the grid size."""
        out: dict[int, tuple[int, float]] = {}
        for n, (calls, _total, self_time) in self._records(key, kind):
            prev = out.get(n, (0, 0.0))
            out[n] = (prev[0] + calls, prev[1] + self_time)
        return out

    def total_self_s(self) -> float:
        return sum(r[2] for per_tag in self.stats.values() for r in per_tag.values())

    def module_self_s(self, short: str) -> float:
        return sum(
            r[2]
            for key, per_tag in self.stats.items()
            if key.split(".", 1)[0] == short
            for r in per_tag.values()
        )
