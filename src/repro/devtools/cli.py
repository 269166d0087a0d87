"""The ``repro lint`` subcommand.

Usage::

    repro lint                              # src/ and tests/ from the repo root
    repro lint --format json                # machine-readable report (repro.lint/v1)
    repro lint --select RPR001 --select RPR003
    repro lint --ignore RPR000 src/repro/fastpath
    repro lint --list-rules                 # the rule catalog, one line per rule

Exit codes: **0** clean, **1** at least one finding, **2** usage error
(argparse errors, unknown ``--select``/``--ignore`` rule ids, and a path
that is neither a ``.py`` file nor a directory).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.devtools.engine import LintEngine, discover_root
from repro.devtools.reporters import render_json, render_text
from repro.devtools.rules import ALL_RULES

__all__ = ["add_lint_arguments", "run_lint"]

USAGE_EXIT_CODE = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to an argparse subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATHS",
        help="files or directories to lint (default: src tests at the repo root)",
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
        metavar="RULE",
        help="run only these rule ids (repeatable); RPR000 selects unused-suppression checks",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE",
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


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit code (0/1/2)."""
    if args.list_rules:
        width = max(len(rule.id) for rule in ALL_RULES)
        for rule in ALL_RULES:
            print(f"{rule.id.ljust(width)}  {rule.name}: {rule.description}")
        return 0
    root = Path(args.root).resolve() if args.root else discover_root()
    engine = LintEngine(root=root, select=args.select or None, ignore=args.ignore)
    try:
        result = engine.run(args.paths)
    except (KeyError, FileNotFoundError) as error:
        print(f"repro lint: {error.args[0]}", file=sys.stderr)
        return USAGE_EXIT_CODE
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover - thin shim
    """Standalone entry point (``python -m repro.devtools.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint", description="AST-based invariant linter for this repository."
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
