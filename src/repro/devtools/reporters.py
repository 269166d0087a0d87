"""Report encodings: ``file:line:col`` text and a schema-stamped JSON."""

from __future__ import annotations

import json

from repro.devtools.engine import LintResult

__all__ = ["render_text", "render_json"]


def render_text(result: LintResult) -> str:
    """One ``path:line:col: RULE message`` line per finding, plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in result.findings
    ]
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(
        f"repro check: {len(result.findings)} {noun} "
        f"({result.files_checked} files, rules: {', '.join(result.rules_run)})"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The JSON report envelope (schema ``repro.check/v1``)."""
    return json.dumps(result.to_dict(), indent=2, sort_keys=True)
