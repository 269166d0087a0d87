"""Declared dtype contracts for the fastpath array layout.

The ROADMAP's million-node target is gated on dtype discipline: one silent
upcast (a bare ``np.arange``, an ``int64``-promoting reduction, a mixed
``concatenate``) doubles the footprint the planned shared-memory sweep slabs
would ship to workers.  This module is the **single source of truth** for
what dtype every snapshot / delta-mirror array field carries:

* the snapshot constructors (``compile_snapshot``, ``build_snapshot``, the
  delta materializer, ``OverlayMixin.compile_snapshot``) call
  :func:`narrow_labels` / :func:`narrow_indptr` so labels and row pointers
  land in ``int32`` whenever the space and the total degree fit;
* the tier-1 property ``tests/property/test_property_dtypes.py`` reads
  :data:`SNAPSHOT_CONTRACT` and :func:`expected_snapshot_dtypes` and checks
  the dtype of every governed array the constructors, both delta tiers and
  the batch router actually produce;
* the README's dtype-contract table is generated from
  :data:`SNAPSHOT_CONTRACT` via :func:`render_contract`, mirroring the
  telemetry counter glossary (``python -m repro.fastpath.dtypes --write
  README.md`` refreshes it in place).

Why ``2**30`` is the label cutoff
---------------------------------
Labels are grid points in ``[0, space_size)``.  The ring arithmetic the
policies and the batch router execute stays within ``[-space_size,
space_size + 1]`` — label differences, shorter-arc distances
(``space_size - |a - b|``) and ``MetricGreedyPolicy``'s blocked sentinel
``space_size + 1`` — so ``space_size <= 2**30`` leaves every intermediate
well inside ``int32``.  This is the same cutoff
``FastpathSnapshot.labels_compact`` has always used, so the routing
arithmetic on narrowed labels is already parity-proven.
``ChordGreedyPolicy`` keys reach ``2 * size + 3`` and therefore widens its
own arithmetic back to ``int64`` above ``2**29`` internally; that is a key
computation detail, not a storage contract.

Internal *build* keys intentionally stay ``int64``: the direct builder packs
each incoming link as ``target * n + source`` (up to ``n**2``, i.e. ``2**34``
at paper scale).  Its per-slot storage does not: the slot matrix it draws
into is :data:`INDEX_DTYPE` from the start, so the only ``int64`` arrays
that grow with the edge count are those keys.  Labels and row pointers
narrow at the :class:`~repro.fastpath.snapshot.FastpathSnapshot`
construction boundary.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "INT32_SPACE_CUTOFF",
    "INT32_COUNT_CUTOFF",
    "INDEX_DTYPE",
    "EDGE_CLASS_DTYPE",
    "MASK_DTYPE",
    "label_dtype",
    "indptr_dtype",
    "narrow_labels",
    "narrow_indptr",
    "expected_snapshot_dtypes",
    "snapshot_nbytes",
    "FieldContract",
    "SNAPSHOT_CONTRACT",
    "render_contract",
    "update_contract_block",
]

#: Largest ``space_size`` whose labels (and every ring-arithmetic
#: intermediate, bounded by ``2 * space_size - 1``) fit ``int32``.
INT32_SPACE_CUTOFF = 1 << 30

#: Largest CSR entry count (``indptr[-1]``) representable in ``int32``.
INT32_COUNT_CUTOFF = (1 << 31) - 1

#: Dtype of ``neighbor_indices`` (positions into ``labels``): node counts
#: beyond ``int32`` would outgrow memory for the padded label matrix long
#: before this, so the index dtype is fixed rather than parametric.
INDEX_DTYPE = np.dtype(np.int32)

#: Dtype of per-edge class codes (Chord's finger/successor tiers).
EDGE_CLASS_DTYPE = np.dtype(np.int8)

#: Dtype of every liveness mask (node and edge).
MASK_DTYPE = np.dtype(np.bool_)


def label_dtype(space_size: int) -> np.dtype:
    """The policy dtype for label arrays of a ``space_size``-point space.

    ``int32`` when every label *and* every ring-arithmetic intermediate fits
    (``space_size <= 2**30``), else ``int64``.
    """
    return np.dtype(np.int32) if space_size <= INT32_SPACE_CUTOFF else np.dtype(np.int64)


def indptr_dtype(total_degree: int) -> np.dtype:
    """The policy dtype for CSR row pointers holding ``total_degree`` entries."""
    return np.dtype(np.int32) if total_degree <= INT32_COUNT_CUTOFF else np.dtype(np.int64)


def narrow_labels(labels: np.ndarray, space_size: int) -> np.ndarray:
    """Cast a label array to its policy dtype (no copy when already there)."""
    return labels.astype(label_dtype(space_size), copy=False)


def narrow_indptr(indptr: np.ndarray) -> np.ndarray:
    """Cast a CSR row-pointer array to its policy dtype (no copy if exact)."""
    total = int(indptr[-1]) if indptr.size else 0
    return indptr.astype(indptr_dtype(total), copy=False)


def expected_snapshot_dtypes(space_size: int, total_degree: int) -> dict[str, np.dtype]:
    """Map each ``FastpathSnapshot`` array field to its contract dtype.

    The golden dtype-map tests compare freshly built snapshots against this;
    ``edge_class`` / ``edge_alive`` entries give the dtype the field carries
    *when present* (both are ``None`` on untiered, fully live snapshots).
    """
    return {
        "labels": label_dtype(space_size),
        "alive": MASK_DTYPE,
        "neighbor_indptr": indptr_dtype(total_degree),
        "neighbor_indices": INDEX_DTYPE,
        "edge_class": EDGE_CLASS_DTYPE,
        "edge_alive": MASK_DTYPE,
    }


def snapshot_nbytes(snapshot: Any) -> int:
    """Total bytes of a snapshot's array fields (the shippable footprint).

    Counts the CSR arrays and masks a worker would need — not the lazily
    derived label matrix — so it measures exactly what narrowing saves.
    """
    total = (
        snapshot.labels.nbytes
        + snapshot.alive.nbytes
        + snapshot.neighbor_indptr.nbytes
        + snapshot.neighbor_indices.nbytes
    )
    if snapshot.edge_class is not None:
        total += snapshot.edge_class.nbytes
    if snapshot.edge_alive is not None:
        total += snapshot.edge_alive.nbytes
    return int(total)


@dataclass(frozen=True)
class FieldContract:
    """One array field's dtype policy (a row of the README contract table)."""

    owner: str  #: Owning structure ("FastpathSnapshot", "DeltaSnapshot").
    field: str  #: Attribute name.
    policy: str  #: Human-readable policy expression.
    dtypes: tuple[str, ...]  #: Admissible dtype names, in preference order.
    description: str  #: What the field holds and why the policy is safe.


#: Every governed array field, keyed for the runtime dtype property, the
#: golden dtype-map tests, and the generated README table.
SNAPSHOT_CONTRACT: tuple[FieldContract, ...] = (
    FieldContract(
        "FastpathSnapshot",
        "labels",
        "label_dtype(space_size)",
        ("int32", "int64"),
        "Sorted vertex labels; int32 iff space_size <= 2**30 (every ring "
        "intermediate is bounded by 2*space_size - 1).",
    ),
    FieldContract(
        "FastpathSnapshot",
        "alive",
        "bool",
        ("bool",),
        "Node liveness mask aligned with labels.",
    ),
    FieldContract(
        "FastpathSnapshot",
        "neighbor_indptr",
        "indptr_dtype(total_degree)",
        ("int32", "int64"),
        "CSR row pointers; int32 iff the entry count fits 2**31 - 1.",
    ),
    FieldContract(
        "FastpathSnapshot",
        "neighbor_indices",
        "int32 (INDEX_DTYPE)",
        ("int32",),
        "Neighbour positions into labels; node counts past int32 would "
        "outgrow memory for the padded label matrix first.",
    ),
    FieldContract(
        "FastpathSnapshot",
        "edge_class",
        "int8 (EDGE_CLASS_DTYPE) | None",
        ("int8",),
        "Per-edge class codes (Chord finger/successor tiers); None when "
        "all edges are equal.",
    ),
    FieldContract(
        "FastpathSnapshot",
        "edge_alive",
        "bool | None",
        ("bool",),
        "Per-edge liveness mask; None means every compiled edge is usable.",
    ),
    FieldContract(
        "FastpathSnapshot (derived)",
        "label_matrix()",
        "label_dtype(space_size)",
        ("int32", "int64"),
        "The router's one derived view, (num_nodes, max_degree): slot j of row "
        "v is the label of CSR entry neighbor_indptr[v] + j; pad slots hold v's own label.",
    ),
    FieldContract(
        "DeltaSnapshot",
        "_occupied",
        "bool",
        ("bool",),
        "Label-indexed membership mask of the structural mirror.",
    ),
    FieldContract(
        "DeltaSnapshot",
        "_alive",
        "bool",
        ("bool",),
        "Label-indexed node liveness of the structural mirror.",
    ),
    FieldContract(
        "DeltaSnapshot",
        "_mask_alive",
        "bool",
        ("bool",),
        "Node liveness of the liveness-tier mirror, aligned with the base "
        "snapshot's labels.",
    ),
    FieldContract(
        "DeltaSnapshot",
        "_mask_edge_alive",
        "bool | None",
        ("bool",),
        "Per-edge liveness of the liveness-tier mirror, aligned with the "
        "base CSR; None until the first link flip.",
    ),
)


# --------------------------------------------------------------------------- #
# README table generation (mirrors repro.telemetry.names' glossary block)
# --------------------------------------------------------------------------- #

CONTRACT_BEGIN = "<!-- dtype-contract:begin (generated from repro/fastpath/dtypes.py) -->"
CONTRACT_END = "<!-- dtype-contract:end -->"


def render_contract() -> str:
    """The dtype-contract table as a markdown fragment (marker to marker)."""
    lines = [
        CONTRACT_BEGIN,
        "| structure | field | dtype policy | meaning |",
        "|---|---|---|---|",
    ]
    for entry in SNAPSHOT_CONTRACT:
        lines.append(
            f"| `{entry.owner}` | `{entry.field}` | `{entry.policy}` "
            f"| {entry.description} |"
        )
    lines.append(CONTRACT_END)
    return "\n".join(lines)


def update_contract_block(text: str) -> str:
    """Replace the marker-delimited contract block inside ``text``.

    Raises
    ------
    ValueError
        If either marker is missing — the README must carry the block.
    """
    begin = text.find(CONTRACT_BEGIN)
    end = text.find(CONTRACT_END)
    if begin < 0 or end < 0:
        raise ValueError(
            "dtype-contract markers not found; add the begin/end comments "
            "before regenerating"
        )
    return text[:begin] + render_contract() + text[end + len(CONTRACT_END) :]


def main(argv: list[str] | None = None) -> int:
    """CLI: print the table, or rewrite a file's contract block in place."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--write",
        metavar="PATH",
        default=None,
        help="rewrite the contract block of PATH in place (default: print)",
    )
    options = parser.parse_args(argv)
    if options.write is None:
        print(render_contract())
        return 0
    path = Path(options.write)
    path.write_text(update_contract_block(path.read_text()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
