"""The ``repro analyze`` subcommand.

Usage::

    repro analyze                             # governed packages from the repo root
    repro analyze --format json               # machine-readable report (repro.analyze/v1)
    repro analyze --select RPA103 src/repro/fastpath/snapshot.py
    repro analyze --ignore RPA000
    repro analyze --list-checks               # the check catalog, one line per check

Exit codes match ``repro lint``: **0** clean, **1** at least one finding,
**2** usage error (argparse errors, unknown ``--select``/``--ignore`` check
ids, and a path that is neither a ``.py`` file nor a directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.devtools.analyze.checks import ALL_CHECKS
from repro.devtools.analyze.engine import AnalysisResult, AnalyzeEngine, discover_root

__all__ = ["add_analyze_arguments", "run_analyze", "render_text", "render_json"]

USAGE_EXIT_CODE = 2


def add_analyze_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro analyze`` options to an argparse subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATHS",
        help=(
            "files or directories to analyze (default: src/repro/fastpath, "
            "src/repro/faults, src/repro/overlay at the repo root)"
        ),
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
        metavar="CHECK",
        help="run only these check ids (repeatable); RPA000 selects unused-suppression checks",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CHECK",
        help="skip these check ids (repeatable)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="project root (default: nearest ancestor with a pyproject.toml)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="print the check catalog and exit 0",
    )


def render_text(result: AnalysisResult) -> str:
    """One ``path:line:col: CHECK message`` line per finding, plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in result.findings
    ]
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(
        f"repro analyze: {len(result.findings)} {noun} "
        f"({result.files_checked} files, checks: {', '.join(result.checks_run)})"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """The JSON report envelope (schema ``repro.analyze/v1``)."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def run_analyze(args: argparse.Namespace) -> int:
    """Execute ``repro analyze``; returns the process exit code (0/1/2)."""
    if args.list_checks:
        width = max(len(check.id) for check in ALL_CHECKS)
        for check in ALL_CHECKS:
            print(f"{check.id.ljust(width)}  {check.name}: {check.description}")
        return 0
    root = Path(args.root).resolve() if args.root else discover_root()
    engine = AnalyzeEngine(root=root, select=args.select or None, ignore=args.ignore)
    try:
        result = engine.run(args.paths)
    except (KeyError, FileNotFoundError) as error:
        print(f"repro analyze: {error.args[0]}", file=sys.stderr)
        return USAGE_EXIT_CODE
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover - thin shim
    """Standalone entry point (``python -m repro.devtools.analyze.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="NumPy dtype/shape dataflow analyzer for this repository.",
    )
    add_analyze_arguments(parser)
    return run_analyze(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
