"""Command-line entry point.

Subcommands:

* ``run``      one simulation from a config file, artifacts to --out
* ``sweep``    expand the config's sweep lists, one artifact dir per point
* ``table``    rerun the reference result series and print the comparison
* ``grover``   complete-graph reference trace for the config's grid
* ``validate`` derive each tessellation's group map and check its cover
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, make_partition, parse_config
from .experiments import TABLE_SIZES, run_experiment, table_report, write_point_artifacts
from .grid import GridGeometry
from .outputs import emit_partition_csv
from .simulator import _ORDERS, run_grover_reference
from .tessellation import validate_partition

__all__ = ["main"]


# Flag -> add_argument arguments.  Each command takes --out plus the flags it reads.
_FLAGS = {
    "config": dict(type=Path, required=True, help="path to a key = value config file"),
    "order": dict(choices=tuple(_ORDERS), default=None,
                  help="round reading: rtl (dispersion first) or ltr (oracle first)"),
    "snapshots": dict(type=int, default=None, metavar="STRIDE",
                      help="iterations between stored grids (0 disables)"),
    "max-iters": dict(type=int, default=None, metavar="K", help="horizon override (default 4 * L)"),
}


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = parse_config(args.config.read_text())
    if args.command != "sweep":
        # Every other command executes the base point alone.
        config = dataclasses.replace(
            config, sweep_n=(), sweep_d=(), sweep_tessellation=(), sweep_marked=()
        )
    flags = dict(
        out_dir=str(args.out) if args.out is not None else None,
        order=getattr(args, "order", None),
        snapshot_stride=getattr(args, "snapshots", None),
        max_iterations=getattr(args, "max_iters", None),
    )
    # ExperimentConfig checks itself, so the result is validated.
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_experiment(_load_config(args))
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _cmd_table(args: argparse.Namespace) -> int:
    orders = tuple(_ORDERS) if args.order is None else (args.order,)
    report = table_report(
        out_dir=args.out, orders=orders, sizes=TABLE_SIZES, max_iterations=args.max_iters
    )
    sys.stdout.write(report.render())
    return 0


def _cmd_grover(args: argparse.Namespace) -> int:
    config = _load_config(args)
    # The grid run's config resolves the marked cells, horizon and snapshot stride.
    ((_label, point),) = config.sweep_points()
    indices = point.marked.indices(point.geometry)
    n = point.geometry.cell_count
    trace = run_grover_reference(
        n, indices.size, point.max_iterations, marked_indices=indices,
        snapshot_stride=point.snapshot_stride,
    )
    peak = trace.peak
    sys.stdout.write(
        f"grover reference: n={n} marked={indices.size} "
        f"peak probability {peak.probability:.6f} at round {peak.iteration}\n"
    )
    if config.out_dir is not None:
        write_point_artifacts(config, trace, Path(config.out_dir), prefix="grover_")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    geometry = GridGeometry(config.side)
    for role, kind in (("local", config.local_kind), ("dispersion", config.dispersion_kind)):
        partition = make_partition(geometry, kind, config.d)
        validate_partition(partition)  # an InvalidPartitionError exits 1 through main
        sys.stdout.write(f"{role} ({kind}, d={config.d}): ok [{partition.group_count} groups]\n")
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            emit_partition_csv(partition, args.out / f"partition_{role}.csv")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridgrover",
        description="Quantum search on a cyclic 2D grid via tessellated diffusion rounds.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text, flags in (
        ("run", _cmd_run, "single simulation from a config file",
         ("config", "order", "snapshots", "max-iters")),
        ("sweep", _cmd_run, "expand the config's sweep lists",
         ("config", "order", "snapshots", "max-iters")),
        ("table", _cmd_table, "rerun the reference result series", ("order", "max-iters")),
        ("grover", _cmd_grover, "complete-graph reference trace",
         ("config", "snapshots", "max-iters")),
        ("validate", _cmd_validate, "check the config's tessellations", ("config",)),
    ):
        command = commands.add_parser(name, help=help_text)
        command.add_argument("--out", type=Path, default=None, help="output directory")
        for flag in flags:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
        command.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
