"""Ids of the dtype dataflow checks (the RPA1xx family) and their contract.

Every check is a probe the one dataflow interpreter
(:mod:`repro.devtools.analyze.interp`) fires while walking a module; this
module holds their stable ids and the dtype contract RPA102 enforces —
imported straight from :mod:`repro.fastpath.dtypes`, so the analyzer and the
runtime share a single source of truth.  The catalog rows live with the rule
that runs the interpreter, :mod:`repro.devtools.rules.dtype_flow`.
"""

from __future__ import annotations

from repro.fastpath.dtypes import SNAPSHOT_CONTRACT

__all__ = [
    "SILENT_UPCAST",
    "CONTRACT_MISMATCH",
    "DEFAULT_DTYPE",
    "MIXED_CONCAT",
    "snapshot_field_contract",
    "mirror_field_contract",
]

SILENT_UPCAST = "RPA101"
CONTRACT_MISMATCH = "RPA102"
DEFAULT_DTYPE = "RPA103"
MIXED_CONCAT = "RPA104"


def snapshot_field_contract() -> dict[str, frozenset]:
    """``FastpathSnapshot`` constructor-kwarg name -> admissible dtype names."""
    return {
        entry.field: frozenset(entry.dtypes)
        for entry in SNAPSHOT_CONTRACT
        if entry.owner == "FastpathSnapshot"
    }


def mirror_field_contract() -> dict[str, frozenset]:
    """Mirror attribute name -> admissible dtype names (DeltaSnapshot/_Slab).

    Keyed by bare attribute name: the mirror fields are distinctive
    (``_left``, ``_right``, ``data``, ``flags``, ...) and only assigned in
    ``repro/fastpath/delta.py``, so attribute-store checks match on the
    name alone.
    """
    return {
        entry.field: frozenset(entry.dtypes)
        for entry in SNAPSHOT_CONTRACT
        if entry.owner in ("DeltaSnapshot", "_Slab")
    }
