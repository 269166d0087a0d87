"""Shared-memory snapshot slabs: one segment, many read-only mappers.

A :class:`~repro.fastpath.snapshot.FastpathSnapshot` is immutable by
contract, which makes it the perfect candidate for OS-level sharing: a sweep
worker or a service-driver process only ever *reads* the CSR arrays.  Before
this module every worker either rebuilt the topology from its seed or
received a pickled copy of the arrays — at the million-node scale the ROADMAP
targets (~170 MB of CSR per snapshot) both options dominate worker start-up
and multiply resident memory by the worker count.

:class:`SnapshotArena` packs all of a snapshot's array fields into **one**
``multiprocessing.shared_memory`` segment:

* :meth:`SnapshotArena.create` copies the arrays in (64-byte aligned slabs)
  and returns the owning handle; :attr:`SnapshotArena.spec` is a small
  picklable :class:`ArenaSpec` describing the layout;
* :meth:`SnapshotArena.attach` (in any process) maps the same segment and
  rebuilds a field-identical, **read-only** ``FastpathSnapshot`` whose
  arrays are zero-copy views into the mapping — property-tested against the
  heap-backed original in ``tests/property/test_property_shm.py``;
* the lifecycle is explicit: :meth:`close` drops this process's mapping,
  :meth:`unlink` (owner) removes the segment from the OS.  The handle is a
  context manager — ``with SnapshotArena.create(snapshot) as arena: ...``
  closes and (for the owner) unlinks even when the body raises, so an
  exception mid-run never leaks a segment.

Only the declared array fields travel through the segment (exactly the
:func:`~repro.fastpath.dtypes.snapshot_nbytes` footprint); the dense routing
matrices stay lazy per-process caches, bounded by ``max_degree`` — sharing
the CSR is what removes the O(workers x snapshot) memory term.

Python 3.8–3.12 wart: a process that merely *attaches* a segment still
registers it with the ``resource_tracker``.  Fork and spawn children share
the owner's tracker process, whose per-name cache is a set — every such
registration collapses into the owner's single entry, which the owner's
:meth:`unlink` removes.  Attachers therefore leave the tracker alone
(unregistering would erase the owner's entry); attaching from a process
that does not share the owner's tracker is outside this module's contract,
and every consumer in this repository (sweep workers, the benchmark's
fan-out workers) is a child of the owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from types import TracebackType

import numpy as np

from repro.fastpath.snapshot import FastpathSnapshot
from repro.overlay.policy import GreedyPolicy
from repro.telemetry.core import current as telemetry_current

__all__ = ["ArenaSpec", "SnapshotArena"]

#: Slab alignment inside the segment; generous enough for any vector ISA.
_ALIGN = 64

#: Array fields shipped through the segment, in layout order.  The optional
#: fields (``edge_class`` / ``edge_alive``) are simply absent from a spec's
#: manifest when the snapshot carries ``None``.
_ARRAY_FIELDS = (
    "labels",
    "alive",
    "neighbor_indptr",
    "neighbor_indices",
    "edge_class",
    "edge_alive",
)


def _align(offset: int) -> int:
    """Round ``offset`` up to the next :data:`_ALIGN` boundary."""
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArenaSpec:
    """Picklable description of one arena: segment name + slab manifest.

    This is what crosses process boundaries instead of the arrays
    themselves: a worker calls :meth:`SnapshotArena.attach` with it and maps
    the segment the parent created.  ``fields`` holds one
    ``(field, dtype, length, offset)`` entry per shipped array, in layout
    order; the scalar snapshot attributes ride along verbatim (the policy is
    a small frozen dataclass, picklable by design).
    """

    name: str
    nbytes: int
    kind: str
    space_size: int
    symmetric_neighbors: bool
    policy: GreedyPolicy | None
    fields: tuple[tuple[str, str, int, int], ...]


def _pack_manifest(snapshot: FastpathSnapshot) -> tuple[tuple[tuple[str, str, int, int], ...], int]:
    """Lay the snapshot's arrays out in the segment; return (manifest, size)."""
    manifest: list[tuple[str, str, int, int]] = []
    offset = 0
    for name in _ARRAY_FIELDS:
        array = getattr(snapshot, name)
        if array is None:
            continue
        offset = _align(offset)
        manifest.append((name, array.dtype.str, int(array.shape[0]), offset))
        offset += int(array.nbytes)
    return tuple(manifest), max(offset, 1)


class SnapshotArena:
    """A shared-memory segment holding one snapshot's array fields.

    Construct through :meth:`create` (owner) or :meth:`attach` (mapper);
    :meth:`snapshot` hands out the arena-backed read-only
    :class:`~repro.fastpath.snapshot.FastpathSnapshot`.  See the module
    docstring for the lifecycle contract.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, spec: ArenaSpec, owner: bool
    ) -> None:
        self._shm: shared_memory.SharedMemory = shm
        self.spec: ArenaSpec = spec
        self.owner: bool = owner
        self._closed: bool = False
        self._unlinked: bool = False
        self._snapshot: FastpathSnapshot | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls, snapshot: FastpathSnapshot, name: str | None = None
    ) -> "SnapshotArena":
        """Copy ``snapshot``'s arrays into a fresh segment; return the owner.

        The owner's :meth:`snapshot` is itself arena-backed, so the creating
        process and every attacher share the same physical pages.  ``name``
        picks the segment name explicitly (tests); the default lets the OS
        choose a fresh one.
        """
        manifest, total = _pack_manifest(snapshot)
        shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        for field_name, dtype, length, offset in manifest:
            view: np.ndarray = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
            view[:] = getattr(snapshot, field_name)
        spec = ArenaSpec(
            name=shm.name,
            nbytes=total,
            kind=snapshot.kind,
            space_size=snapshot.space_size,
            symmetric_neighbors=snapshot.symmetric_neighbors,
            policy=snapshot.policy,
            fields=manifest,
        )
        arena = cls(shm, spec, owner=True)
        tel = telemetry_current()
        if tel is not None:
            tel.count("arena.created")
            tel.gauge("arena.snapshot_nbytes", float(total))
        return arena

    @classmethod
    def attach(cls, spec: ArenaSpec) -> "SnapshotArena":
        """Map an existing segment described by ``spec`` (any process).

        Raises
        ------
        FileNotFoundError
            If the segment was already unlinked — the owner controls the
            segment's life, attachers only borrow it.
        """
        shm = shared_memory.SharedMemory(name=spec.name)
        # Python's resource tracker registers *every* SharedMemory handle
        # (attachers included, 3.8–3.12; 3.13 grew track=False).  Fork and
        # spawn children both inherit the parent's tracker process, whose
        # per-name cache is a *set* — all those registrations collapse into
        # the owner's single entry, and the owner's ``unlink`` removes it.
        # So an attacher must NOT unregister (it would erase the owner's
        # entry and make unlink's bookkeeping complain); it simply leaves
        # the shared entry alone.  Attaching from a process that does not
        # share the owner's tracker is outside this module's contract.
        arena = cls(shm, spec, owner=False)
        tel = telemetry_current()
        if tel is not None:
            tel.count("arena.attached")
        return arena

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def snapshot(self) -> FastpathSnapshot:
        """The arena-backed snapshot: read-only zero-copy views, cached.

        The returned snapshot's array fields alias the shared mapping and
        are marked non-writeable; it must not outlive :meth:`close`.
        """
        if self._closed:
            raise ValueError("arena is closed")
        if self._snapshot is None:
            arrays: dict[str, np.ndarray] = {}
            for field_name, dtype, length, offset in self.spec.fields:
                view: np.ndarray = np.ndarray(
                    (length,), dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
                )
                view.flags.writeable = False
                arrays[field_name] = view
            self._snapshot = FastpathSnapshot(
                kind=self.spec.kind,
                space_size=self.spec.space_size,
                labels=arrays["labels"],
                alive=arrays["alive"],
                neighbor_indptr=arrays["neighbor_indptr"],
                neighbor_indices=arrays["neighbor_indices"],
                symmetric_neighbors=self.spec.symmetric_neighbors,
                policy=self.spec.policy,
                edge_class=arrays.get("edge_class"),
                edge_alive=arrays.get("edge_alive"),
            )
        return self._snapshot

    @property
    def nbytes(self) -> int:
        """Segment payload size — the shipped ``snapshot_nbytes`` footprint."""
        return self.spec.nbytes

    @property
    def name(self) -> str:
        """The OS-level segment name (what :meth:`attach` maps)."""
        return self.spec.name

    @property
    def closed(self) -> bool:
        """Whether this process's mapping has been dropped."""
        return self._closed

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        The arena's own snapshot reference is released first; if the caller
        still holds views into the mapping the unmap is deferred to their
        collection rather than failing — the *segment* is governed solely by
        :meth:`unlink`.
        """
        if self._closed:
            return
        self._closed = True
        self._snapshot = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - depends on caller's refs
            # Live views exported from snapshot() pin the mapping; the OS
            # releases it when they are garbage-collected or at process exit.
            pass

    def unlink(self) -> None:
        """Remove the segment from the OS (idempotent; owner's duty).

        After this, new :meth:`attach` calls raise ``FileNotFoundError``;
        existing mappings keep working until their processes close them.
        """
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    def __enter__(self) -> "SnapshotArena":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
        if self.owner:
            self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "mapper"
        state = "closed" if self._closed else "open"
        return (
            f"SnapshotArena({self.spec.name!r}, {self.spec.nbytes} bytes, "
            f"{role}, {state})"
        )
