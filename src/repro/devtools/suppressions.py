"""Inline ``# repro: allow[RULE-ID]`` suppressions.

Syntax (comma-separated ids, optional free-text justification after the
bracket)::

    graph.mutate()  # repro: allow[RPR001] wall clock is compared cross-process
    # repro: allow[RPR005] list.index on a tiny segment beats flatnonzero
    seg.tolist().index(value)

A suppression applies to the physical line it sits on; a *standalone*
suppression comment (nothing but the comment on its line) also covers the
next line, so multi-clause statements can carry their justification above
rather than as an end-of-line tail.  Suppressions that match no finding are
themselves reported (``RPR000``), as are ones naming an id no rule has — a
stale ``allow`` silently rotting in the tree is exactly the drift this linter
exists to catch.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Suppression", "parse_suppressions"]

_ALLOW = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]")


@dataclass
class Suppression:
    """One parsed ``allow`` comment and the lines it covers."""

    line: int
    rules: frozenset[str]
    #: Physical lines this suppression applies to (its own, plus the next
    #: line when the comment stands alone).
    covers: frozenset[int]
    used: bool = field(default=False, compare=False)

    def matches(self, rule: str, line: int) -> bool:
        return rule in self.rules and line in self.covers


def parse_suppressions(source: str) -> list[Suppression]:
    """Extract every ``# repro: allow[...]`` comment via the tokenizer.

    Tokenizing (rather than regexing raw lines) means an ``allow`` spelled
    inside a string literal is *not* a suppression — fixture snippets in
    tests can mention the syntax without disarming the linter.
    """
    suppressions: list[Suppression] = []
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    try:
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW.search(token.string)
            if not match:
                continue
            rules = frozenset(
                part.strip().upper() for part in match.group(1).split(",") if part.strip()
            )
            if not rules:
                continue
            line = token.start[0]
            standalone = token.line[: token.start[1]].strip() == ""
            covers = frozenset({line, line + 1}) if standalone else frozenset({line})
            suppressions.append(Suppression(line=line, rules=rules, covers=covers))
    except tokenize.TokenError:
        # Unterminated constructs: keep whatever was parsed before the error;
        # the engine reports the syntax problem separately.
        pass
    return suppressions
