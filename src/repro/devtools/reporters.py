"""Report encodings: ``file:line:col`` text and a schema-stamped JSON."""

from __future__ import annotations

import json

from repro.devtools.engine import LintResult
from repro.devtools.findings import CHECK_SCHEMA, Finding

__all__ = ["render_text", "render_json", "parse_json_report"]


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


def parse_json_report(text: str) -> LintResult:
    """Round-trip a JSON report back into a :class:`LintResult`.

    Raises
    ------
    ValueError
        If the payload does not carry the ``repro.check/v1`` schema stamp.
    """
    data = json.loads(text)
    if data.get("schema") != CHECK_SCHEMA:
        raise ValueError(
            f"not a repro check report: schema={data.get('schema')!r}, "
            f"expected {CHECK_SCHEMA!r}"
        )
    return LintResult(
        findings=[Finding.from_dict(entry) for entry in data["findings"]],
        files_checked=int(data["files_checked"]),
        rules_run=tuple(data["rules_run"]),
    )
