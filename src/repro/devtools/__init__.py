"""Project-specific static analysis: ``repro check``.

The repository's guarantees — engine parity, serial==parallel sweep
byte-identity, telemetry on/off result identity, the snapshot dtype
contract — are *determinism contracts*.  Property tests enforce them
dynamically; this package enforces their source-level preconditions
statically, so a violation is caught at check time instead of waiting for a
seed (or a million-node space) to hit it.

Layout:

* :mod:`repro.devtools.findings` — the :class:`Finding` record and the JSON
  report schema;
* :mod:`repro.devtools.suppressions` — ``# repro: allow[RULE-ID]`` inline
  suppression parsing and unused-suppression detection;
* :mod:`repro.devtools.engine` — the file walker / rule driver;
* :mod:`repro.devtools.rules` — the rule catalog: four AST rules
  (RPR001, RPR002, RPR003, RPR005; RPR004 and RPR006 are retired) and the
  dtype dataflow rule (RPA101..RPA104), which
  enforces the snapshot dtype contract from :mod:`repro.fastpath.dtypes`
  through the abstract interpreter in :mod:`repro.devtools.analyze`;
* :mod:`repro.devtools.reporters` — ``file:line`` text and JSON output;
* :mod:`repro.devtools.cli` — the ``repro check`` subcommand.

Run it as ``repro check [--format text|json] [--select/--ignore ID]
[PATHS]``; exit code 0 means clean, 1 means findings, 2 means usage error.
Adding a rule: see :mod:`repro.devtools.rules`.
"""

from repro.devtools.engine import LintEngine, LintResult
from repro.devtools.findings import CHECK_SCHEMA, Finding
from repro.devtools.rules import ALL_RULES, Rule, catalog, rule_ids
from repro.devtools.suppressions import Suppression, parse_suppressions

__all__ = [
    "ALL_RULES",
    "CHECK_SCHEMA",
    "Finding",
    "LintEngine",
    "LintResult",
    "Rule",
    "Suppression",
    "catalog",
    "parse_suppressions",
    "rule_ids",
]
