"""Compile an overlay graph into an immutable array snapshot.

The object layer (:class:`~repro.core.graph.OverlayGraph`) is optimised for
mutation: joins, link redirects, and failure injection all touch small Python
structures.  Routing *evaluation*, by contrast, is read-only and embarrassingly
parallel across queries, so the fastpath engine first **compiles** the graph
into flat NumPy arrays:

* ``labels`` — the metric-space position of every vertex, sorted ascending
  (the ring positions of the paper's identifier circle);
* ``alive`` — a boolean liveness mask aligned with ``labels``;
* ``neighbor_indptr`` / ``neighbor_indices`` — a CSR-style adjacency whose
  per-vertex slices preserve **exactly** the neighbour order the scalar
  :class:`~repro.core.routing.GreedyRouter` sees (short links first, then long
  links in creation order, then incoming links), which is what makes
  hop-for-hop parity between the two engines possible.

The snapshot is a frozen value object: node failures are modelled by deriving
a copy with a different ``alive`` mask (:meth:`FastpathSnapshot.with_alive`),
and link failures by deriving a copy with a per-edge ``edge_alive`` mask
(:meth:`FastpathSnapshot.with_edge_alive`) — never by mutating arrays in
place.  Graph compiles bake link liveness into the adjacency (dead links are
omitted, mirroring the scalar router's ``only_alive_links=True``); the edge
mask exists for the delta layer's liveness tier, where table-based overlays
flip per-edge health without recompiling.

The batch router needs one thing the CSR does not give it in a gatherable
shape: a vertex's neighbour *labels* as a fixed-width row.
:meth:`FastpathSnapshot.label_matrix` is that single derived view — slot
``j`` of row ``v`` aligned with CSR entry ``neighbor_indptr[v] + j``, short
rows padded with ``v``'s own label (inadmissible under every
:class:`~repro.overlay.policy.GreedyPolicy`, so there is no validity mask).
Everything else a hop needs — the chosen vertex, its liveness, the link's —
is read from the CSR at the picked slot.  The three padded matrices the
router used to gather survive as one measurement-only accessor for ``bench/``.

Graphs compile only on a :class:`~repro.core.metric.RingMetric`, the space of
the paper's experiments; the baseline overlays (torus, prefix, Chord) compile
through :class:`~repro.overlay.mixin.OverlayMixin` with their own policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.fastpath.dtypes import label_dtype, narrow_indptr, narrow_labels
from repro.overlay.policy import GreedyPolicy, MetricGreedyPolicy
from repro.telemetry.core import spanned as telemetry_spanned

__all__ = ["FastpathSnapshot", "compile_snapshot"]


@dataclass(frozen=True, eq=False)
class FastpathSnapshot:
    """Immutable array view of an overlay graph.

    Attributes
    ----------
    kind:
        Which overlay the snapshot was compiled from: ``"ring"`` for graph
        compiles and direct builds, the protocol's ``snapshot_kind``
        (``"chord"``, ``"torus"``, ``"prefix"``) for baseline overlays.
    space_size:
        Number of grid points of the underlying metric space.
    labels:
        ``label_dtype(space_size)[num_nodes]`` sorted vertex labels (ring
        positions) — ``int32`` whenever the space fits
        (:func:`repro.fastpath.dtypes.label_dtype`), else ``int64``.
    alive:
        ``bool[num_nodes]`` liveness mask aligned with ``labels``.
    neighbor_indptr:
        ``indptr_dtype(total_degree)[num_nodes + 1]`` CSR row pointers into
        ``neighbor_indices`` — ``int32`` whenever the entry count fits
        (:func:`repro.fastpath.dtypes.indptr_dtype`), else ``int64``.
    neighbor_indices:
        ``int32[total_degree]`` neighbour *indices* (positions in ``labels``),
        in the scalar router's neighbour order per vertex.
    symmetric_neighbors:
        Whether incoming long links were folded into the adjacency (the
        scalar router's ``symmetric_neighbors`` flag at compile time).
    policy:
        Optional :class:`~repro.overlay.policy.GreedyPolicy` giving this
        snapshot its next-hop rule.  ``None`` (graph-compiled ring
        snapshots) means the default strictly-decreasing metric rule; the
        baseline overlays attach their protocol's policy, which is how one
        batch router serves every topology.
    edge_class:
        Optional ``int8[total_degree]`` per-edge class codes aligned with
        ``neighbor_indices`` for protocols whose tables are tiered (Chord's
        fingers vs successors); ``None`` when all edges are equal.
    edge_alive:
        Optional ``bool[total_degree]`` per-edge liveness mask aligned with
        ``neighbor_indices``; ``None`` means every compiled edge is usable
        (the common case — an all-``True`` mask is normalised to ``None`` so
        fresh compiles and delta-derived snapshots stay field-identical).
    """

    kind: str
    space_size: int
    labels: np.ndarray
    alive: np.ndarray
    neighbor_indptr: np.ndarray
    neighbor_indices: np.ndarray
    symmetric_neighbors: bool = True
    policy: GreedyPolicy | None = None
    edge_class: np.ndarray | None = None
    edge_alive: np.ndarray | None = None
    # Lazily derived, liveness-independent views of the CSR arrays (the
    # label matrix the batch router gathers rows of, the class matrix, ...).
    _dense_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Total number of vertices (alive and failed)."""
        return int(self.labels.shape[0])

    def degrees(self) -> np.ndarray:
        """Out-degree (including folded incoming links) of every vertex."""
        return np.diff(self.neighbor_indptr)

    def indices_of(self, labels: np.ndarray) -> np.ndarray:
        """Map an array of vertex labels to their indices in ``labels``.

        Raises
        ------
        KeyError
            If any queried label is not a vertex of the snapshot.
        """
        queried = np.asarray(labels, dtype=np.int64)
        if self._labels_contiguous():
            # Sorted distinct labels spanning 0..n-1 are the identity map.
            mismatch = (queried < 0) | (queried >= self.num_nodes)
            if np.any(mismatch):
                missing = queried[mismatch].ravel()
                raise KeyError(
                    f"labels {missing[:5].tolist()} are not vertices of this snapshot"
                )
            return queried.copy()
        positions = np.searchsorted(self.labels, queried)
        positions = np.clip(positions, 0, self.num_nodes - 1)
        mismatch = self.labels[positions] != queried
        if np.any(mismatch):
            missing = queried[mismatch].ravel()
            raise KeyError(
                f"labels {missing[:5].tolist()} are not vertices of this snapshot"
            )
        return positions.astype(np.int64)

    def _labels_contiguous(self) -> bool:
        """Whether the (sorted, distinct) labels are exactly ``0..n-1``."""
        cached = self._dense_cache.get("contiguous")
        if cached is None:
            cached = bool(
                self.num_nodes
                and int(self.labels[0]) == 0
                and int(self.labels[-1]) == self.num_nodes - 1
            )
            self._dense_cache["contiguous"] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #

    def _slot_mask(self) -> np.ndarray:
        """``bool[num_nodes, max_degree]``: slot ``j`` of row ``v`` is a CSR entry.

        Its ``True`` positions, row-major, enumerate the CSR entries in order,
        so ``matrix[mask] = per_entry_array`` lays the array out slot by slot.
        """
        degrees = self.degrees()
        width = max(int(degrees.max()) if degrees.size else 0, 1)
        return np.arange(width, dtype=degrees.dtype) < degrees[:, None]

    def label_matrix(self) -> np.ndarray:
        """The one derived routing view (see the module docstring), cached.

        ``label_dtype(space_size)[num_nodes, max_degree]``: slot ``j`` of row
        ``v`` holds the label of CSR entry ``neighbor_indptr[v] + j``, padding
        slots ``v``'s **own** label.  A pure function of the immutable CSR
        arrays: built on first use and shared between liveness variants via
        :meth:`with_alive` / :meth:`with_edge_alive`.
        """
        cached = self._dense_cache.get("label_matrix")
        if cached is None:
            compact = self.labels_compact()
            mask = self._slot_mask()
            cached = np.empty(mask.shape, dtype=compact.dtype)
            cached[:] = compact[:, None]
            cached[mask] = compact[self.neighbor_indices]
            self._dense_cache["label_matrix"] = cached
        return cached

    def routing_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Measurement accessor: the retired ``(dense, valid, neighbor_labels)``.

        Nothing in ``src/`` calls this.  It keeps the shapes and dtypes it
        always had (``int32`` adjacency padded with ``-1``, the non-pad mask,
        neighbour labels with 0 in pad slots) because the benchmark harness
        sizes and times it, and goes when that is re-pointed (ROADMAP 1).
        """
        cached = self._dense_cache.get("matrices")
        if cached is None:
            valid = self._slot_mask()
            dense = np.full(valid.shape, -1, dtype=np.int32)
            dense[valid] = self.neighbor_indices
            labels = self.label_matrix()
            cached = (dense, valid, np.where(valid, labels, labels.dtype.type(0)))
            self._dense_cache["matrices"] = cached
        return cached

    def greedy_policy(self) -> GreedyPolicy:
        """The next-hop rule this snapshot routes under.

        Protocol snapshots carry their policy explicitly; graph-compiled
        ring snapshots fall back to the default metric rule (cached —
        it is what the batch router historically inlined).
        """
        if self.policy is not None:
            return self.policy
        cached = self._dense_cache.get("default_policy")
        if cached is None:
            cached = MetricGreedyPolicy(space_size=self.space_size)
            self._dense_cache["default_policy"] = cached
        return cached

    def class_matrix(self) -> np.ndarray | None:
        """Padded ``int8[num_nodes, max_degree]`` edge classes, or ``None``.

        The dense counterpart of ``edge_class``, aligned slot-for-slot with
        :meth:`label_matrix` (0 in padding slots); cached and shared between
        liveness variants the same way.
        """
        if self.edge_class is None:
            return None
        cached = self._dense_cache.get("class_matrix")
        if cached is None:
            mask = self._slot_mask()
            cached = np.zeros(mask.shape, dtype=np.int8)
            cached[mask] = self.edge_class
            self._dense_cache["class_matrix"] = cached
        return cached

    def labels_compact(self) -> np.ndarray:
        """The label array in the narrowest integer dtype that fits the space.

        Since the dtype contracts landed (:mod:`repro.fastpath.dtypes`),
        freshly built snapshots already store ``labels`` at
        :func:`~repro.fastpath.dtypes.label_dtype` and this returns them
        as-is; the cast-and-cache path remains for hand-constructed wide
        snapshots, keeping the halved per-hop memory traffic either way.
        """
        target = label_dtype(self.space_size)
        if self.labels.dtype == target:
            return self.labels
        cached = self._dense_cache.get("labels_compact")
        if cached is None:
            cached = self.labels.astype(target)
            self._dense_cache["labels_compact"] = cached
        return cached

    def with_alive(self, alive: np.ndarray) -> "FastpathSnapshot":
        """Return a copy of this snapshot with a different liveness mask.

        The adjacency arrays (and the cached label matrix) are shared — node
        failures do not change the topology, only which vertices count as
        usable, exactly as :meth:`OverlayGraph.fail_node` flips a flag.
        """
        alive = np.asarray(alive, dtype=bool)
        if alive.shape != self.alive.shape:
            raise ValueError(
                f"alive mask has shape {alive.shape}, expected {self.alive.shape}"
            )
        return FastpathSnapshot(
            kind=self.kind,
            space_size=self.space_size,
            labels=self.labels,
            alive=alive.copy(),
            neighbor_indptr=self.neighbor_indptr,
            neighbor_indices=self.neighbor_indices,
            symmetric_neighbors=self.symmetric_neighbors,
            policy=self.policy,
            edge_class=self.edge_class,
            edge_alive=self.edge_alive,
            _dense_cache=self._dense_cache,
        )

    def with_edge_alive(self, edge_alive: np.ndarray | None) -> "FastpathSnapshot":
        """Return a copy of this snapshot with a different per-edge mask.

        The adjacency arrays and derived-view cache are shared — edge
        failures do not change the topology, only which table entries count
        as usable (the cache holds only pure-adjacency derivatives; the batch
        router reads this mask at the slot it picked).  An
        all-``True`` mask is normalised to ``None`` so a fully repaired
        snapshot is field-identical to a fresh compile.
        """
        if edge_alive is not None:
            edge_alive = np.asarray(edge_alive, dtype=bool)
            if edge_alive.shape != self.neighbor_indices.shape:
                raise ValueError(
                    f"edge_alive mask has shape {edge_alive.shape}, "
                    f"expected {self.neighbor_indices.shape}"
                )
            edge_alive = None if bool(edge_alive.all()) else edge_alive.copy()
        return FastpathSnapshot(
            kind=self.kind,
            space_size=self.space_size,
            labels=self.labels,
            alive=self.alive,
            neighbor_indptr=self.neighbor_indptr,
            neighbor_indices=self.neighbor_indices,
            symmetric_neighbors=self.symmetric_neighbors,
            policy=self.policy,
            edge_class=self.edge_class,
            edge_alive=edge_alive,
            _dense_cache=self._dense_cache,
        )


@telemetry_spanned("compile")
def compile_snapshot(
    graph: OverlayGraph,
    symmetric_neighbors: bool = True,
) -> FastpathSnapshot:
    """Compile an :class:`~repro.core.graph.OverlayGraph` into a snapshot.

    The per-vertex neighbour order reproduces exactly what
    :meth:`OverlayGraph.neighbors_of` returns with ``only_alive_nodes=False``
    and ``only_alive_links=True`` — the candidate list the scalar
    :class:`~repro.core.routing.GreedyRouter` iterates — so the batched engine
    breaks distance ties identically and stays hop-for-hop compatible.

    Parameters
    ----------
    graph:
        The overlay graph to compile.  Link liveness is baked into the
        adjacency (dead links are omitted); node liveness is captured in the
        ``alive`` mask and can be varied later without re-compiling.
    symmetric_neighbors:
        Fold incoming long links into each vertex's neighbour list (the
        scalar router's default handshake model).

    Raises
    ------
    NotImplementedError
        If the graph's metric space is not a ring.
    """
    space = graph.space
    if not isinstance(space, RingMetric):
        raise NotImplementedError(
            f"fastpath snapshots require a RingMetric, got {type(space).__name__}"
        )

    label_list = sorted(graph.labels())
    labels = np.array(label_list, dtype=np.int64)
    num_nodes = labels.shape[0]

    alive_flags: list[bool] = []
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    flat_labels: list[int] = []
    append = flat_labels.append
    # Inlined OverlayGraph.neighbors_of(only_alive_nodes=False,
    # only_alive_links=True, include_incoming=symmetric_neighbors): the same
    # candidate row in the same order, built without the per-node temporary
    # lists — compilation is itself a hot path at large n.
    for index, label in enumerate(label_list):
        node = graph.node(label)
        alive_flags.append(node.alive)
        row_start = len(flat_labels)
        left, right = node.left, node.right
        if left is not None:
            append(left)
        if right is not None and right != left:
            append(right)
        for link in node.long_links:
            if link.alive:
                append(link.target)
        if symmetric_neighbors:
            incoming = graph.incoming_sources(label)
            if incoming:
                seen = set(flat_labels[row_start:])
                seen.add(label)
                for source in incoming:
                    if source not in seen:
                        seen.add(source)
                        append(source)
        indptr[index + 1] = len(flat_labels)

    # Bulk label -> index translation; every link endpoint is a vertex of the
    # graph (OverlayGraph maintains that invariant on node removal).
    flat = np.asarray(flat_labels, dtype=np.int64)
    indices = np.searchsorted(labels, flat)
    indices = np.clip(indices, 0, max(num_nodes - 1, 0))
    if flat.size and np.any(labels[indices] != flat):
        bad = flat[labels[indices] != flat]
        raise ValueError(
            f"graph links point at non-vertex labels {bad[:5].tolist()}; "
            "the overlay is corrupt"
        )

    # Label translation above runs in int64 (searchsorted intermediates);
    # storage narrows to the contract dtypes only at the snapshot boundary.
    return FastpathSnapshot(
        kind="ring",
        space_size=space.size(),
        labels=narrow_labels(labels, space.size()),
        alive=np.array(alive_flags, dtype=bool),
        neighbor_indptr=narrow_indptr(indptr),
        neighbor_indices=indices.astype(np.int32),
        symmetric_neighbors=symmetric_neighbors,
    )
