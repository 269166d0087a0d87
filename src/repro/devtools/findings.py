"""The :class:`Finding` record every rule emits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["CHECK_SCHEMA", "UNUSED_SUPPRESSION_ID", "Finding"]

#: Schema version stamped into the JSON report envelope.
CHECK_SCHEMA = "repro.check/v1"

#: Pseudo-rule id for suppression comments that matched no finding.  It is
#: reported like any rule (and honours ``--select`` / ``--ignore``) but can
#: never itself be suppressed — a suppression of a suppression is noise.
UNUSED_SUPPRESSION_ID = "RPR000"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a repo-relative ``path:line``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
