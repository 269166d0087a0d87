"""The ``repro check`` subcommand.

Usage::

    repro check                             # src/ and tests/ from the repo root
    repro check --format json               # machine-readable report (repro.check/v1)
    repro check --select RPR001 --select RPA103
    repro check --ignore RPR000 src/repro/fastpath
    repro check --list-rules                # the catalog, one line per rule id

Exit codes: **0** clean, **1** at least one finding, **2** usage error
(argparse errors, unknown ``--select``/``--ignore`` rule ids, and a path
that is neither a ``.py`` file nor a directory).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.devtools.engine import LintEngine, discover_root
from repro.devtools.reporters import render_json, render_text
from repro.devtools.rules import catalog

__all__ = ["add_check_arguments", "run_check"]

USAGE_EXIT_CODE = 2


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro check`` options to an argparse subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATHS",
        help="files or directories to check (default: src tests at the repo root)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report encoding (default: file:line:col text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="ID",
        help="run only these rule ids (repeatable); RPR000 selects unused-suppression checks",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="ID",
        help="skip these rule ids (repeatable)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="project root (default: nearest ancestor with a pyproject.toml)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit 0",
    )


def run_check(args: argparse.Namespace) -> int:
    """Execute ``repro check``; returns the process exit code (0/1/2)."""
    if args.list_rules:
        rows = catalog()
        width = max(len(rule_id) for rule_id, _, _ in rows)
        for rule_id, name, description in rows:
            print(f"{rule_id.ljust(width)}  {name}: {description}")
        return 0
    root = Path(args.root).resolve() if args.root else discover_root()
    engine = LintEngine(root=root, select=args.select or None, ignore=args.ignore)
    try:
        result = engine.run(args.paths)
    except (KeyError, FileNotFoundError) as error:
        print(f"repro check: {error.args[0]}", file=sys.stderr)
        return USAGE_EXIT_CODE
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code
