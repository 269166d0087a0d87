"""Direct-to-CSR network builds: sample a snapshot without object graphs.

The object build path (:func:`repro.core.builder.build_ideal_network` followed
by :func:`repro.fastpath.snapshot.compile_snapshot`) materialises an
:class:`~repro.core.graph.OverlayGraph` — one ``OverlayNode`` plus a
``LongLink`` record per sampled link — only to flatten it straight back into
arrays.  At paper scale (2^17 nodes, 17 links each) that detour through ~2.4
million Python objects dominates experiment start-up.

:func:`build_snapshot` skips it entirely and emits a
:class:`~repro.fastpath.snapshot.FastpathSnapshot` directly:

* **Chunked draw and dedup.**  The long links are drawn with the batched
  inverse-CDF sampler
  (:meth:`~repro.core.distributions.InversePowerLawDistribution.sample_neighbors_batch`)
  over fixed row chunks (``_CHUNK_ROWS``).  ``Generator.random`` fills
  sequentially, so the chunks consume the stream exactly as one call over
  every row would.  Each chunk is deduplicated (first occurrence per row)
  into the only two full-size per-slot arrays: an ``INDEX_DTYPE`` slot matrix
  ``[left, right, long targets]`` and its bool keep mask.  The outgoing part
  of the CSR is that matrix read through the mask in row-major order.
* **One key sort.**  With symmetric neighbour knowledge, every kept edge is
  packed as the ``int64`` key ``target * n + source`` and the keys are sorted
  once: ascending keys are the by-target, source-ascending order the incoming
  links take.  A key whose source already sits in the target's row (a short
  neighbour or a reciprocal long link) is found by searching the row's sorted
  slots, packed the same way.
* **Memory bound.**  Each temporary is freed after its last use, so the
  traced peak is the largest phase rather than the sum of them: about three
  snapshots' worth (``snapshot_nbytes``) at 2^17, and at most six at 2^15,
  where one chunk's temporaries weigh most (``tests/unit/test_fastpath.py``
  pins that bound).

Equivalence contract
--------------------
``build_snapshot(n, l, seed)`` is **bit-identical** to
``compile_snapshot(build_ideal_network(n, l, seed).graph)`` — same labels,
same CSR row pointers, same neighbour order per vertex.  That holds because
the object builder consumes the *same* batched draw from the same derived
stream (``spawn_rng(seed, "links")``) in the same row-major order, and the
CSR assembly reproduces ``compile_snapshot``'s neighbour order exactly: short
links first, then deduplicated long links in draw order, then (when
``symmetric_neighbors``) incoming long links in source-creation order,
skipping sources already present in the row.
``tests/property/test_property_fastpath.py`` asserts the equivalence across
random sizes, link counts, and seeds.

Only the fully populated ring is supported — the configuration of every
Figure-6/7 and Table-1 scaling run.  Binomially placed nodes
(``presence_probability < 1``) condition each node's link distribution on the
presence mask, which breaks the shift invariance batched sampling relies on;
build those through the object path.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import InversePowerLawDistribution
from repro.fastpath.dtypes import INDEX_DTYPE, narrow_indptr, narrow_labels
from repro.fastpath.snapshot import FastpathSnapshot
from repro.telemetry.core import spanned as telemetry_spanned
from repro.util.rng import spawn_rng
from repro.util.validation import ensure_positive

__all__ = ["build_snapshot"]

#: Rows drawn, deduplicated and key-tested per pass.  ``Generator.random``
#: fills sequentially, so a chunked draw consumes the stream exactly as one
#: call over every row would; the chunk only bounds the per-pass temporaries.
_CHUNK_ROWS = 1 << 14


@telemetry_spanned("build")
def build_snapshot(
    n: int,
    links_per_node: int | None = None,
    seed: int = 0,
    exponent: float = 1.0,
    symmetric_neighbors: bool = True,
) -> FastpathSnapshot:
    """Build the paper's standard ring network straight into a snapshot.

    Mirrors :func:`repro.core.builder.build_ideal_network` (fully populated
    ring, inverse power-law long links, ``ceil(lg n)`` links per node by
    default) but never touches the object layer; see the module docstring for
    the equivalence contract with the object build path.

    Parameters
    ----------
    n:
        Ring size; every point hosts a node, so this is also the node count.
    links_per_node:
        Long links per node (default ``ceil(lg n)``, the paper's Section-6
        choice).
    seed:
        Base seed; the long-link stream is ``spawn_rng(seed, "links")``,
        exactly as in :class:`~repro.core.builder.RandomGraphBuilder`.
    exponent:
        Power-law exponent of the link distribution (default 1).
    symmetric_neighbors:
        Fold incoming long links into each vertex's neighbour row (the
        handshake model the scalar router defaults to).
    """
    ensure_positive(n, "n")
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(n))))
    links = links_per_node if n >= 2 and links_per_node > 0 else 0

    labels = np.arange(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # The slot matrix: row ``r`` is ``[left, right, long targets in draw
    # order]`` (one short slot when n == 2, where both ring directions reach
    # the same node; none when n == 1), and ``keep`` masks the repeated
    # samples of a target out of the long slots.
    # ------------------------------------------------------------------ #
    short_count = min(n - 1, 2)
    slots = np.empty((n, short_count + links), dtype=INDEX_DTYPE)
    keep = np.ones((n, short_count + links), dtype=bool)
    if short_count >= 1:
        slots[:, 0] = np.roll(labels, 1)
    if short_count == 2:
        slots[:, 1] = np.roll(labels, -1)

    # ------------------------------------------------------------------ #
    # Long links, one row chunk at a time; with symmetric neighbour
    # knowledge each kept edge is also packed as its incoming key.
    # ------------------------------------------------------------------ #
    in_keys = np.empty(0, dtype=np.int64)
    if links:
        in_keys = _draw_long_links(
            slots[:, short_count:],
            keep[:, short_count:],
            InversePowerLawDistribution(n, exponent=exponent),
            spawn_rng(seed, "links"),
            symmetric_neighbors,
        )

    # ------------------------------------------------------------------ #
    # Incoming long links (symmetric neighbour knowledge).  Edges are unique
    # (source, target) pairs emitted in ascending source order, so the
    # ascending key order is exactly the stable by-target order
    # ``compile_snapshot`` appends them in.  A source already present in the
    # target's row (a short neighbour, or a reciprocal long link) is dropped.
    # ------------------------------------------------------------------ #
    if in_keys.size:
        in_keys.sort()
        in_keys = in_keys[_fresh_keys(in_keys, slots, labels)]

    # ------------------------------------------------------------------ #
    # CSR assembly: each row's kept slots (shorts, then long links in draw
    # order) are one masked gather in row-major order; incoming sources
    # follow them, interleaved row by row through a boolean position mask.
    # ------------------------------------------------------------------ #
    out_count = keep.sum(axis=1, dtype=np.int64)
    indices = slots[keep]
    del slots, keep
    in_count = np.diff(np.searchsorted(in_keys, labels * n), append=in_keys.size)
    in_keys %= n
    incoming = in_keys.astype(INDEX_DTYPE)
    del in_keys
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_count + in_count, out=indptr[1:])
    if incoming.size:
        outgoing = indices
        indices = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
        is_outgoing = np.repeat(
            np.tile(np.array([True, False], dtype=bool), n),
            np.column_stack((out_count, in_count)).ravel(),
        )
        indices[is_outgoing] = outgoing
        del outgoing
        indices[~is_outgoing] = incoming

    # Labels and row pointers narrow to the contract dtypes here, at the
    # snapshot boundary.
    return FastpathSnapshot(
        kind="ring",
        space_size=n,
        labels=narrow_labels(labels, n),
        alive=np.ones(n, dtype=bool),
        neighbor_indptr=narrow_indptr(indptr),
        neighbor_indices=indices,
        symmetric_neighbors=symmetric_neighbors,
    )


def _draw_long_links(
    long_slots: np.ndarray,
    long_keep: np.ndarray,
    distribution: InversePowerLawDistribution,
    link_rng: np.random.Generator,
    pack_keys: bool,
) -> np.ndarray:
    """Fill the long-link columns of the slot matrix and their keep mask.

    Row chunk by row chunk: draw, then keep each row's first occurrence of
    every target (the builder collapses repeated samples; the paper samples
    with replacement).  Returns the kept edges as incoming keys ``target * n
    + source`` in row-major order, or an empty array unless ``pack_keys``.
    """
    n, links = long_slots.shape
    in_keys = np.empty(n * links if pack_keys else 0, dtype=np.int64)
    size = 0
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        sources = np.arange(start, stop, dtype=np.int64)
        chunk = long_slots[start:stop]
        chunk[...] = distribution.sample_neighbors_batch(sources, links, link_rng)
        first = _first_occurrences(chunk)
        long_keep[start:stop] = first
        if pack_keys:
            kept = chunk[first].astype(np.int64)
            kept *= n
            kept += np.repeat(sources, first.sum(axis=1))
            in_keys[size : size + kept.size] = kept
            size += kept.size
    return in_keys[:size]


def _first_occurrences(block: np.ndarray) -> np.ndarray:
    """Mask of each row's first occurrence of every value, in slot order.

    One sort of the row keys ``value << shift | slot`` orders a row by value
    and, among equal values, by slot, so a slot is a repeat exactly when its
    value equals its predecessor's in that order.
    """
    width = block.shape[1]
    shift = max(width - 1, 1).bit_length()
    keys = block.astype(np.int64)
    keys <<= shift
    keys |= np.arange(width, dtype=np.int64)
    keys.sort(axis=1)
    slot = keys & ((1 << shift) - 1)
    keys >>= shift
    row, rank = np.nonzero(keys[:, 1:] == keys[:, :-1])
    first = np.ones(block.shape, dtype=bool)
    first[row, slot[row, rank + 1]] = False
    return first


def _fresh_keys(in_keys: np.ndarray, slots: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mask of the sorted incoming keys whose source is not yet in the row.

    Row chunk by row chunk, the sorted slots of each row are packed like the
    keys (``row * n + slot``), which makes them one ascending run per chunk
    to search the chunk's incoming keys in.
    """
    n = labels.size
    fresh = np.empty(in_keys.size, dtype=bool)
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        low, high = np.searchsorted(in_keys, [start * n, stop * n])
        row_keys = np.sort(slots[start:stop], axis=1).astype(np.int64)
        row_keys += labels[start:stop, None] * n
        row_keys = row_keys.ravel()
        keys = in_keys[low:high]
        position = np.searchsorted(row_keys, keys)
        np.minimum(position, row_keys.size - 1, out=position)
        fresh[low:high] = row_keys[position] != keys
    return fresh
