"""Command-line entry point for the experiment harness.

The CLI is the scenario registry: any registered scenario — every figure and
table of the paper included — runs through three generic subcommands::

    repro list                                         # what can I run?
    repro run figure7 --set topology.nodes=4096 --engine fastpath
    repro sweep figure7 --grid engine=object,fastpath \\
                        --grid topology.nodes=1024,4096 --jobs 4 \\
                        --output sweep.json

(``repro`` is the installed console script; ``python -m
repro.experiments.cli`` works from a checkout.)  ``--set key=value`` overrides
any spec field by dotted path, ``--grid key=v1,v2`` adds a sweep axis, and
``--format text|json|csv`` picks the output encoding.  Sweeps derive a
deterministic per-cell seed from ``--seed``, so ``--jobs N`` parallelism
produces byte-identical JSON to a serial run.

One tooling subcommand rides along: ``check``, the static checker of
:mod:`repro.devtools`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

__all__ = ["build_parser", "main"]

FORMATS = ("text", "json", "csv")


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Aspnes, Diamadi & Shah (PODC 2002).",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_format_option(subparser, choices: Sequence[str] = FORMATS) -> None:
        subparser.add_argument(
            "--format",
            choices=tuple(choices),
            default="text",
            help="output encoding (default: aligned text tables)",
        )

    def add_telemetry_options(subparser) -> None:
        subparser.add_argument(
            "--telemetry",
            action="store_true",
            help="collect instrumentation and print the phase-tree summary",
        )
        subparser.add_argument(
            "--telemetry-json",
            default=None,
            metavar="PATH",
            help="collect instrumentation and dump the raw telemetry tree here",
        )

    # -- generic scenario commands ------------------------------------------

    list_command = subparsers.add_parser(
        "list", help="list every registered scenario with its description"
    )
    add_format_option(list_command, ("text", "json"))

    run_command = subparsers.add_parser(
        "run", help="run any registered scenario from its declarative spec"
    )
    run_command.add_argument("scenario", help="registered scenario name (see `repro list`)")
    run_command.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec field by dotted path, e.g. topology.nodes=4096, "
        "routing.recovery=terminate, extras.sizes=256,512",
    )
    run_command.add_argument(
        "--engine",
        choices=("object", "fastpath"),
        default=None,
        help="shorthand for --set engine=...",
    )
    run_command.add_argument(
        "--output", default=None, metavar="PATH", help="also write the RunResult JSON here"
    )
    add_telemetry_options(run_command)
    add_format_option(run_command)

    sweep_command = subparsers.add_parser(
        "sweep", help="expand a parameter grid over a scenario and run every cell"
    )
    sweep_command.add_argument("scenario", help="registered scenario name (see `repro list`)")
    sweep_command.add_argument(
        "--grid",
        dest="grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="one sweep axis; repeat for a cartesian product",
    )
    sweep_command.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="fixed override applied to every cell",
    )
    sweep_command.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial; results identical)"
    )
    sweep_command.add_argument(
        "--output", default=None, metavar="PATH", help="also write the sweep JSON here"
    )
    sweep_command.add_argument(
        "--resume", default=None, metavar="PATH",
        help="reuse matching cells from a previously saved sweep JSON",
    )
    sweep_command.add_argument(
        "--include-timing", action="store_true",
        help="keep per-cell wall-clock inline in the cell JSON (breaks "
        "byte-identical diffs; the default already preserves timings in a "
        "separate side table)",
    )
    add_telemetry_options(sweep_command)
    add_format_option(sweep_command, ("text", "json"))

    check = subparsers.add_parser(
        "check",
        help="run the static checker (AST invariant rules and the NumPy dtype "
        "dataflow rule) over src/ and tests/ (exit 0: clean; exit 1: "
        "findings; exit 2: usage error)",
    )
    from repro.devtools.cli import add_check_arguments

    add_check_arguments(check)
    return parser


def _parse_overrides(tokens: Sequence[str]) -> dict[str, str]:
    from repro.scenarios import parse_assignment

    overrides: dict[str, str] = {}
    for token in tokens:
        key, value = parse_assignment(token)
        overrides[key] = value
    return overrides


# ---------------------------------------------------------------------------
# Generic scenario commands
# ---------------------------------------------------------------------------


def _run_list(args) -> None:
    from repro.scenarios import available_scenarios

    definitions = available_scenarios()
    if getattr(args, "format", "text") == "json":
        print(json.dumps(
            [{"name": d.name, "description": d.description} for d in definitions],
            indent=2,
            sort_keys=True,
        ))
        return
    width = max(len(d.name) for d in definitions)
    print("Registered scenarios (run with `repro run <name>`):")
    for definition in definitions:
        print(f"  {definition.name.ljust(width)}  {definition.description}")


def _run_scenario(args) -> None:
    from repro.scenarios import get_scenario, run
    from repro.telemetry import render_telemetry

    overrides = _parse_overrides(args.overrides)
    if args.engine is not None and "engine" not in overrides:
        overrides["engine"] = args.engine
    definition = get_scenario(args.scenario)
    spec = definition.make_spec(overrides=overrides, seed=args.seed)
    collect = bool(args.telemetry or args.telemetry_json)
    result = run(spec, collect_telemetry=collect)
    if args.output:
        Path(args.output).write_text(result.to_json() + "\n", encoding="utf-8")
    if args.format == "json":
        print(result.to_json(include_telemetry=bool(args.telemetry)))
    elif args.format == "csv":
        print(result.to_csv(), end="")
    else:
        print(result.to_text())
    if args.telemetry_json and result.telemetry is not None:
        Path(args.telemetry_json).write_text(
            json.dumps(result.telemetry, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.telemetry and args.format != "json" and result.telemetry is not None:
        print()
        print(render_telemetry(result.telemetry))


def _run_sweep(args) -> None:
    from repro import telemetry
    from repro.scenarios import Sweep, SweepResult

    grid: dict[str, list[str]] = {}
    for token in args.grid:
        key, values = next(iter(_parse_overrides([token]).items()))
        grid[key] = values.split(",")
    sweep = Sweep(
        args.scenario,
        grid=grid,
        base=_parse_overrides(args.overrides),
        master_seed=args.seed,
    )
    resume = SweepResult.load(args.resume) if args.resume else None
    collect = bool(args.telemetry or args.telemetry_json)
    sweep_telemetry = None
    if collect:
        with telemetry.session() as tel:
            result = sweep.run(jobs=args.jobs, resume=resume, collect_telemetry=True)
        sweep_telemetry = tel.to_dict()
    else:
        result = sweep.run(jobs=args.jobs, resume=resume)
    if args.output:
        result.save(args.output, include_timing=args.include_timing)
    if args.format == "json":
        print(result.to_json(include_timing=args.include_timing))
    else:
        print(result.to_text())
    if args.telemetry_json and sweep_telemetry is not None:
        payload = {
            "sweep": sweep_telemetry,
            "cells": {
                cell.key: cell.result.telemetry
                for cell in result.cells
                if cell.result.telemetry is not None
            },
        }
        Path(args.telemetry_json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.telemetry and sweep_telemetry is not None:
        print()
        print(telemetry.render_telemetry(sweep_telemetry))


def _run_check(args) -> int:
    from repro.devtools.cli import run_check

    return run_check(args)


_DISPATCH = {
    "list": _run_list,
    "run": _run_scenario,
    "sweep": _run_sweep,
    "check": _run_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Most handlers return ``None`` (success); ``check`` returns 1 on findings
    and 2 on usage errors.
    """
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args) or 0


if __name__ == "__main__":
    sys.exit(main())
