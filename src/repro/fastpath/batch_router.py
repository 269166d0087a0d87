"""Batched greedy routing over a compiled snapshot.

The scalar :class:`~repro.core.routing.GreedyRouter` walks one message at a
time through Python objects; this module advances **thousands of queries one
hop per vectorized step**.  Each step gathers one row per active query from
the snapshot's single derived matrix
(:meth:`~repro.fastpath.snapshot.FastpathSnapshot.label_matrix`: neighbour
labels, short rows padded with the node's own label, which no policy ever
admits), asks the policy for every slot's key towards the query's target and
the row's bound in one NumPy expression, and takes the row's first minimum —
a hop when it keys below the bound, else the query is stuck.  The paper's
two-sided ring keys raw distances against the current node's own, so
"strictly closer" costs one comparison per row, not a mask over the matrix.
Slot ``j`` of row ``v`` is CSR entry ``neighbor_indptr[v] + j``, so the
chosen vertex — and everything known about it — is read straight from the
CSR arrays; the router derives nothing else and caches nothing that depends
on liveness.

**Rows are gathered with ``take``.**  Every per-round gather of whole rows is
``np.take(matrix, rows, axis=0)`` and every ``(row, slot)`` read is one flat
``take`` at ``row * width + slot`` (:func:`_cells`), never 2-D fancy
indexing, which NumPy 2.4 serves far slower on the same data: on a 2-core
Xeon, 5,000 CAN rows of width 4 take 6 µs against 65 µs, 10,000 rows of the
2^17 ring's width-53 matrix 282 µs against 368 µs, and a pick's key 11–19 µs
against 21–41 µs.  The results are the same arrays, so nothing else changes.

**Pick, then repair.**  A failed node or link is something the step
discovers when it looks (Sections 4.3.4 and 6), not something folded into the
matrix beforehand.  Liveness is checked on the pick alone — ``edge_alive`` at
its slot (a node knows its own table's health) and ``alive`` of the vertex —
and only the rows whose pick is ruled out are re-keyed once against the
liveness of their own CSR slice and re-``argmin``-ed, their keys, CSR slots
and repicks read through the same ``take`` gathers as the step's.  This
equals masking every row first: when the first minimum over *all* admissible
slots is usable it is also the first minimum over the usable ones (same key,
and no earlier slot can tie it), and a repaired row is exactly the masked
row.

**A compact frontier.**  Both loops, forward (terminate and random
re-route) and backtracking, carry their in-flight queries as four arrays
aligned row for row (query, current vertex, goal and hop count), filtered by
one mask per round.  The full-size result arrays are written only when a
query leaves the frontier: it arrives, gets stuck, runs out of hops, or
freezes to wait for a detour.
No round gathers per-query state out of, or scatters it back into, the
batch-wide arrays.

All three Section-6 recovery strategies are implemented:

* **terminate** — a stuck query simply fails; pure lock-step.
* **random re-route** — per-query detour targets (a Valiant-style detour to a
  uniformly random live node).  Stuck queries are frozen until every query
  either finishes or needs a detour, then detours are drawn *in query order*
  from the same derived stream the scalar router uses, so the draw sequence is
  identical to routing the batch one query at a time.
* **backtracking** — a ``(queries, backtrack_depth)`` history ring buffer plus
  a per-query map from visited node to the row slot of the last candidate it
  consumed there.  The scalar router's tried-set is always a *prefix* of the
  candidates in (key, slot) order, so that one integer per (query, node)
  reproduces it exactly, and backtracking runs the same step: only a row the
  query revisits is re-keyed against its tried set before the pick.  That
  re-keying blocks every slot whose neighbour a consumed slot names — one
  ``searchsorted`` of the rows' ``(row, neighbour)`` pairs among the sorted
  consumed ones — and the map's lookup returns the cell each row writes, so
  the round's update is two ``put`` calls.

Equivalence contract (see also :mod:`repro.core.routing`)
---------------------------------------------------------
For the configurations it supports, the batch engine is **hop-for-hop
identical** to the scalar router — not merely statistically similar.  The
guarantee rests on three details:

* the snapshot's per-vertex neighbour order equals the scalar router's
  candidate order (the label matrix keeps it slot for slot), so the first
  minimum of a row — and (key, slot) order — reproduce the scalar router's
  stable sort-by-distance tie-break;
* each query's hop budget is tracked individually, reproducing the scalar
  per-route hop limit exactly even when recovery detours desynchronise the
  queries;
* random re-route draws come from ``spawn_rng(seed, "random-reroute")`` in
  ascending query order — the order a scalar router consuming one shared
  stream would draw in (exact because both routers share
  :data:`~repro.core.routing.MAX_REROUTES`, one detour per query).

Supported: the paper's greedy rule (a node skips dead neighbours), node and
link failures (Sections 4.3.4.2 and 6), and all three recovery strategies of
Section 6.  Parity is asserted path-for-path by
``tests/property/test_property_fastpath.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.routing import MAX_REROUTES, FailureReason, RecoveryStrategy
from repro.fastpath.snapshot import FastpathSnapshot
from repro.telemetry.core import (
    HOP_BUCKETS,
    POW2_BUCKETS,
    current as telemetry_current,
)
from repro.util.rng import spawn_rng

__all__ = ["BatchRouteResult", "BatchGreedyRouter", "FAILURE_CODES"]


# Compact int8 encoding of FailureReason for the result arrays.
FAILURE_CODES: dict[FailureReason, int] = {
    FailureReason.NONE: 0,
    FailureReason.STUCK: 1,
    FailureReason.HOP_LIMIT: 2,
    FailureReason.DEAD_SOURCE: 3,
    FailureReason.DEAD_TARGET: 4,
}


@dataclass
class BatchRouteResult:
    """Array-of-structs outcome of a batched routing run.

    All arrays are aligned with the query order passed to
    :meth:`BatchGreedyRouter.route_batch`.

    Attributes
    ----------
    sources, targets:
        The queried (source, target) labels.
    success:
        ``bool[num_queries]`` — whether each message reached its target.
    hops:
        ``int64[num_queries]`` — edges traversed per query (detour and
        backtrack moves included, as in the scalar router).
    failure_codes:
        ``int8[num_queries]`` — :data:`FAILURE_CODES` encoding of the failure
        reason (0 on success).
    final:
        ``label_dtype(space_size)[num_queries]`` — label of the node each
        message stopped at (the snapshot's label dtype).
    paths:
        Per-query visited-label lists when the run recorded paths, else
        ``None`` (recording is intended for parity tests, not bulk runs).
    reroutes:
        ``int64[num_queries]`` — random re-route detours taken per query.
    backtracks:
        ``int64[num_queries]`` — backtracking moves taken per query.
    """

    sources: np.ndarray
    targets: np.ndarray
    success: np.ndarray
    hops: np.ndarray
    failure_codes: np.ndarray
    final: np.ndarray
    paths: list[list[int]] | None = None
    reroutes: np.ndarray | None = None
    backtracks: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.reroutes is None:
            self.reroutes = np.zeros(self.success.shape[0], dtype=np.int64)
        if self.backtracks is None:
            self.backtracks = np.zeros(self.success.shape[0], dtype=np.int64)

    def __len__(self) -> int:
        return int(self.success.shape[0])

    def success_rate(self) -> float:
        """Fraction of queries that succeeded (0.0 for an empty batch)."""
        if len(self) == 0:
            return 0.0
        return float(self.success.mean())

    def mean_hops(self) -> float:
        """Mean hop count over successful queries only.

        Matches the experiments' convention of averaging the delivery time of
        *successful* searches; returns 0.0 when no query succeeded.
        """
        if not np.any(self.success):
            return 0.0
        return float(self.hops[self.success].mean())


def _cells(matrix: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``matrix[rows, columns]`` as one ``take`` at the row-major positions."""
    return np.take(matrix, rows * matrix.shape[1] + columns)


class _PrefixTable:
    """Per-query map ``visited node -> row slot of the last consumed candidate``.

    The scalar backtracking router remembers, per visited node, which
    next-hop candidates it has already tried.  Because candidates are
    consumed in distance-sorted order — (key, slot) order over the node's
    label row — that set is always a prefix of it, so the row slot of the
    prefix's *last* candidate carries the full state; the row width (one past
    the last slot) marks a node with nothing usable left.  Entries live in a
    small, growable table per query; a free entry holds ``-1`` in both
    arrays.  :meth:`lookup` hands back the flat cell each row writes — the
    node's own entry, else the query's first free one — so :meth:`store` is
    two ``put`` calls.  The scalar router's bounded-memory rule — forget a
    node's tried-set when it falls out of the backtrack window — maps to
    :meth:`delete`.
    """

    def __init__(self, num_queries: int, initial_entries: int = 8) -> None:
        self._nodes = np.full((num_queries, initial_entries), -1, dtype=np.int64)
        self._last = np.full((num_queries, initial_entries), -1, dtype=np.int64)

    def lookup(self, queries: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Last consumed slot of ``nodes[i]`` for query ``queries[i]`` (``-1``
        where nothing was tried) and the flat cell :meth:`store` writes it to.

        ``queries`` are distinct.  A query with neither an entry for its node
        nor a free one gets one: the table grows first.
        """
        entries = self._nodes.take(queries, axis=0)
        # Own entry 2, free entry 1, another node's 0: the first maximum is
        # the node's entry when it has one, else the first free entry.
        rank = np.where(entries == nodes[:, None], 2, entries < 0)
        entry = rank.argmax(axis=1)
        full = ~rank.any(axis=1)
        if full.any():
            entry[full] = self._nodes.shape[1]
            self._grow()
        cells = queries * self._nodes.shape[1] + entry
        return self._last.take(cells), cells

    def store(self, cells: np.ndarray, nodes: np.ndarray, last: np.ndarray) -> None:
        """Record ``(nodes[i], last[i])`` at the cells :meth:`lookup` returned."""
        np.put(self._nodes, cells, nodes)
        np.put(self._last, cells, last)

    def delete(self, queries: np.ndarray, nodes: np.ndarray) -> None:
        """Forget the entries of ``nodes[i]`` for query ``queries[i]`` (if present)."""
        match = self._nodes.take(queries, axis=0) == nodes[:, None]
        found = match.any(axis=1)
        if not found.any():
            return
        cells = queries[found] * self._nodes.shape[1] + match.argmax(axis=1)[found]
        np.put(self._nodes, cells, -1)
        np.put(self._last, cells, -1)

    def _grow(self) -> None:
        num_queries, entries = self._nodes.shape
        nodes = np.full((num_queries, 2 * entries), -1, dtype=np.int64)
        last = np.full((num_queries, 2 * entries), -1, dtype=np.int64)
        nodes[:, :entries] = self._nodes
        last[:, :entries] = self._last
        self._nodes, self._last = nodes, last


@dataclass
class BatchGreedyRouter:
    """Vectorized greedy router over a :class:`FastpathSnapshot`.

    Parameters mirror :class:`~repro.core.routing.GreedyRouter` where the
    semantics overlap; see the module docstring for the equivalence contract.

    Parameters
    ----------
    snapshot:
        The compiled overlay.  Its ``alive`` mask is the node-liveness the
        router respects; link liveness was baked in at compile time, or
        rides along as the ``edge_alive`` mask of a liveness-tier delta.
    recovery:
        Any of the three Section-6 strategies (terminate, random re-route,
        backtracking).
    backtrack_depth:
        Number of recently visited nodes remembered for backtracking
        (the paper uses 5).
    hop_limit:
        Per-query hop budget; ``None`` derives the scalar router's default
        from the space size.
    seed:
        Seed for the random re-route stream, derived exactly as the scalar
        router derives it.
    reroute_pool:
        Optional sequence of live-node labels, in the order the paired scalar
        router's ``graph.labels(only_alive=True)`` returns them; detour draws
        index into this pool.  ``None`` (default) uses the snapshot's live
        vertices in ascending label order — correct for every graph built in
        sorted label order, which all one-shot builders guarantee.
    """

    snapshot: FastpathSnapshot
    recovery: RecoveryStrategy = RecoveryStrategy.TERMINATE
    backtrack_depth: int = 5
    hop_limit: int | None = None
    seed: int = 0
    reroute_pool: object = None
    _pool_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def policy(self):
        """The greedy next-hop rule the router executes (from the snapshot)."""
        return self.snapshot.greedy_policy()

    def rebase(self, snapshot: FastpathSnapshot) -> None:
        """Point the router at a delta-updated snapshot.

        Swaps the snapshot and drops the detour pool (it lists the live
        vertices) — nothing else: the router holds no liveness-derived state,
        so the next batch costs a warm batch (a liveness-only delta's snapshot
        shares the previous one's label matrix).  The configuration and the
        random re-route stream are kept — batches routed across successive
        deltas continue the same draw sequence, exactly like a scalar router
        observing the overlay mutate in place.
        """
        self.snapshot = snapshot
        self._pool_cache = None

    def __post_init__(self) -> None:
        if self.backtrack_depth < 1:
            raise ValueError(f"backtrack_depth must be >= 1, got {self.backtrack_depth}")
        if self.hop_limit is None:
            size = max(4, self.snapshot.space_size)
            self.hop_limit = int(50 * np.ceil(np.log2(size)) ** 2 + 100)
        # One stream for the router's lifetime, exactly like the scalar
        # router: batches routed back-to-back continue the same sequence.
        self._reroute_rng = spawn_rng(self.seed, "random-reroute")

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def route_pairs(
        self, pairs: Iterable[tuple[int, int]], record_paths: bool = False
    ) -> BatchRouteResult:
        """Route a sequence of (source, target) label pairs."""
        array = np.asarray(list(pairs), dtype=np.int64)
        if array.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return BatchRouteResult(
                sources=empty,
                targets=empty.copy(),
                success=np.empty(0, dtype=bool),
                hops=empty.copy(),
                failure_codes=np.empty(0, dtype=np.int8),
                final=np.empty(0, dtype=self.snapshot.labels.dtype),
                paths=[] if record_paths else None,
            )
        return self.route_batch(array[:, 0], array[:, 1], record_paths=record_paths)

    def route_batch(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        record_paths: bool = False,
    ) -> BatchRouteResult:
        """Route every ``sources[i] -> targets[i]`` query and return all outcomes.

        Parameters
        ----------
        sources, targets:
            Equal-length arrays of vertex labels.
        record_paths:
            Also record the per-query visited-label lists (slow; meant for
            parity tests and debugging, not bulk evaluation).
        """
        snapshot = self.snapshot
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise ValueError(
                "sources and targets must be equal-length 1-D arrays, got "
                f"shapes {sources.shape} and {targets.shape}"
            )
        num_queries = sources.shape[0]

        source_index = snapshot.indices_of(sources)
        target_index = snapshot.indices_of(targets)
        alive = snapshot.alive
        labels = snapshot.labels

        success = np.zeros(num_queries, dtype=bool)
        hops = np.zeros(num_queries, dtype=np.int64)
        codes = np.zeros(num_queries, dtype=np.int8)
        reroutes = np.zeros(num_queries, dtype=np.int64)
        backtracks = np.zeros(num_queries, dtype=np.int64)
        current = source_index.copy()
        paths: list[list[int]] | None = None
        if record_paths:
            paths = [[label] for label in sources.tolist()]

        # Endpoint checks, in the scalar router's order: dead source first.
        dead_source = ~alive[source_index]
        dead_target = ~dead_source & ~alive[target_index]
        codes[dead_source] = FAILURE_CODES[FailureReason.DEAD_SOURCE]
        codes[dead_target] = FAILURE_CODES[FailureReason.DEAD_TARGET]
        trivial = ~dead_source & ~dead_target & (source_index == target_index)
        success[trivial] = True

        active = np.flatnonzero(~dead_source & ~dead_target & ~trivial)
        # Telemetry is fetched once per batch; the per-round guards inside
        # the run loops are plain truthiness checks, so the disabled path
        # costs nothing measurable (property-tested to be bit-identical).
        tel = telemetry_current()
        if tel is not None:
            tel.count("route.batches")
            tel.count("route.queries", num_queries)
            # repro: allow[RPR001] — timing only reachable with telemetry on
            batch_started = time.perf_counter()
            with tel.span("route"):
                if self.recovery is RecoveryStrategy.BACKTRACK:
                    self._run_backtrack(
                        active, current, target_index, success, hops, codes, backtracks, paths
                    )
                else:
                    self._run_forward(
                        active, current, target_index, success, hops, codes, reroutes, paths
                    )
            # repro: allow[RPR001] — timing only reachable with telemetry on
            batch_ms = (time.perf_counter() - batch_started) * 1e3
            tel.observe("route.batch_ms", batch_ms)
            if success.any():
                tel.observe_many("route.hops", hops[success], buckets=HOP_BUCKETS)
        elif self.recovery is RecoveryStrategy.BACKTRACK:
            self._run_backtrack(
                active, current, target_index, success, hops, codes, backtracks, paths
            )
        else:
            self._run_forward(
                active, current, target_index, success, hops, codes, reroutes, paths
            )

        return BatchRouteResult(
            sources=sources,
            targets=targets,
            success=success,
            hops=hops,
            failure_codes=codes,
            final=labels[current].copy(),
            paths=paths,
            reroutes=reroutes,
            backtracks=backtracks,
        )

    # ------------------------------------------------------------------ #
    # Forward-only routing (terminate / random re-route)
    # ------------------------------------------------------------------ #

    def _run_forward(
        self,
        active: np.ndarray,
        current: np.ndarray,
        target_index: np.ndarray,
        success: np.ndarray,
        hops: np.ndarray,
        codes: np.ndarray,
        reroutes: np.ndarray,
        paths: list[list[int]] | None,
    ) -> None:
        """Lock-step greedy forwarding with optional random re-route detours.

        The frontier is compact (see the module docstring): ``query``, ``at``,
        ``goal`` (the target, or a detour node) and ``hop`` hold the in-flight
        rows, and the full-size ``current`` / ``hops`` / ``success`` /
        ``codes`` are written only for the rows that leave it.

        Stuck queries with detour budget are *frozen* rather than resolved in
        place; once every query has either finished or frozen, detours are
        drawn in ascending query order (the order a scalar router sharing one
        RNG stream would draw in) and the frozen queries resume.  With the
        shared budget of one detour per query this reproduces the scalar draw
        sequence exactly.
        """
        snapshot = self.snapshot
        labels = snapshot.labels
        # Skip the per-hop liveness gather entirely on a failure-free
        # snapshot — the common case for the no-failure experiment rows.
        all_alive = bool(snapshot.alive.all())
        rerouting = self.recovery is RecoveryStrategy.RANDOM_REROUTE
        hop_limit = self.hop_limit
        query = active
        at = current[query]
        goal = target_index[query]
        hop = hops[query]
        # Which frontier rows are headed for a detour node rather than their
        # target; ``None`` while none is (always, unless re-routing).
        detouring: np.ndarray | None = None
        pending: list[int] = []
        tel = telemetry_current()

        while query.size or pending:
            if not query.size:
                query, goal = self._draw_detours(pending, current, codes, reroutes)
                at = current[query]
                hop = hops[query]
                detouring = np.ones(query.size, dtype=bool) if query.size else None
                if tel is not None and query.size:
                    tel.count("route.recovery.reroute", int(query.size))
                pending = []
                continue

            # Per-query hop budget, checked before anything else — exactly
            # the scalar loop condition.
            over = hop >= hop_limit
            if over.any():
                leaving = query[over]
                current[leaving] = at[over]
                hops[leaving] = hop[over]
                codes[leaving] = FAILURE_CODES[FailureReason.HOP_LIMIT]
                keep = ~over
                query, at, goal, hop = query[keep], at[keep], goal[keep], hop[keep]
                if detouring is not None:
                    detouring = detouring[keep]
                if not query.size:
                    continue

            if detouring is not None:
                # Arriving at the detour node costs no hop: resume routing to
                # the real target from there.  Only a detouring row can sit
                # on its goal here — a row at its target has left.
                arrived_at_detour = at == goal
                if arrived_at_detour.any():
                    goal[arrived_at_detour] = target_index[query[arrived_at_detour]]
                    detouring &= ~arrived_at_detour
                if not detouring.any():
                    detouring = None

            chosen, stuck, repaired, _ = self._step(at, goal, all_alive)
            if tel is not None:
                tel.count("route.rounds")
                tel.count("route.rows_scanned", int(query.size))
                tel.count("route.rows_repaired", repaired)
                tel.observe("route.frontier", float(query.size), buckets=POW2_BUCKETS)

            any_stuck = bool(stuck.any())
            if any_stuck:
                at = np.where(stuck, at, chosen)
                hop += ~stuck
            else:
                at = chosen
                hop += 1
            if paths is not None:
                for row in np.flatnonzero(~stuck).tolist():
                    paths[int(query[row])].append(int(labels[at[row]]))

            arrived = at == goal
            if detouring is not None:
                # A detouring row arrives at its target, not its detour node.
                arrived[detouring] = at[detouring] == target_index[query[detouring]]
            # A stuck row stays off its goal: it was not on it before the step.
            leave = stuck | arrived if any_stuck else arrived
            if not leave.any():
                continue
            leaving = query[leave]
            current[leaving] = at[leave]
            hops[leaving] = hop[leave]
            success[query[arrived]] = True
            if any_stuck:
                stuck_queries = query[stuck]
                if rerouting:
                    can_detour = reroutes[stuck_queries] < MAX_REROUTES
                    pending.extend(int(q) for q in stuck_queries[can_detour])
                    codes[stuck_queries[~can_detour]] = FAILURE_CODES[FailureReason.STUCK]
                else:
                    codes[stuck_queries] = FAILURE_CODES[FailureReason.STUCK]
            keep = ~leave
            query, at, goal, hop = query[keep], at[keep], goal[keep], hop[keep]
            if detouring is not None:
                detouring = detouring[keep]

    def _reroute_pool_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The detour pool as (vertex indices, vertex -> pool position)."""
        if self._pool_cache is None:
            if self.reroute_pool is not None:
                pool_labels = np.asarray(list(self.reroute_pool), dtype=np.int64)
                pool = self.snapshot.indices_of(pool_labels)
            else:
                pool = np.flatnonzero(self.snapshot.alive).astype(np.int64)
            position = np.full(self.snapshot.num_nodes, -1, dtype=np.int64)
            position[pool] = np.arange(pool.size, dtype=np.int64)
            self._pool_cache = (pool, position)
        return self._pool_cache

    def _draw_detours(
        self,
        pending: list[int],
        current: np.ndarray,
        codes: np.ndarray,
        reroutes: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw a detour target for every frozen query, in query order.

        Reproduces ``GreedyRouter._pick_random_live_node`` per query: a
        uniform index into the live pool minus the query's current node, one
        ``integers`` call per draw from the shared stream.  Queries with no
        other live node fail as stuck without consuming a draw.  Returns the
        reactivated query indices, ascending, and each one's detour vertex.
        """
        pool, position = self._reroute_pool_arrays()
        rng = self._reroute_rng
        reactivated: list[int] = []
        detours: list[int] = []
        for query in sorted(pending):
            at = int(position[current[query]])
            available = pool.size - 1 if at >= 0 else pool.size
            if available <= 0:
                codes[query] = FAILURE_CODES[FailureReason.STUCK]
                continue
            index = int(rng.integers(0, available))
            if at >= 0 and index >= at:
                index += 1
            detours.append(int(pool[index]))
            reroutes[query] += 1
            reactivated.append(query)
        return np.asarray(reactivated, dtype=np.int64), np.asarray(detours, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Backtracking routing
    # ------------------------------------------------------------------ #

    def _run_backtrack(
        self,
        active: np.ndarray,
        current: np.ndarray,
        target_index: np.ndarray,
        success: np.ndarray,
        hops: np.ndarray,
        codes: np.ndarray,
        backtracks: np.ndarray,
        paths: list[list[int]] | None,
    ) -> None:
        """Lock-step greedy routing with per-query backtracking state.

        Per query: a ``backtrack_depth``-deep ring buffer of recently
        forwarded-from vertices and a :class:`_PrefixTable` of consumed
        candidates, which :meth:`_step` reads and updates.  Each iteration
        advances every in-flight query by exactly one scalar-loop iteration
        (a forward move, a backtrack move, or a terminal verdict), so hop
        counts, paths, and tie-breaks match the scalar router move for move.
        The frontier is compact, as in :meth:`_run_forward`: ``query``,
        ``at``, ``goal`` and ``hop`` hold the in-flight rows, and the
        full-size result arrays are written only for the rows that leave it.
        """
        labels = self.snapshot.labels
        all_alive = bool(self.snapshot.alive.all())
        depth = self.backtrack_depth
        hop_limit = self.hop_limit
        num_queries = current.shape[0]

        history = np.full((num_queries, depth), -1, dtype=np.int64)
        history_len = np.zeros(num_queries, dtype=np.int64)
        tried = _PrefixTable(num_queries)
        tel = telemetry_current()
        query = active
        at = current[query]
        goal = target_index[query]
        hop = hops[query]
        # The rows found with nothing to try and nowhere to back up to; they
        # leave at the top of the next round.  ``None`` while there are none.
        exhausted: np.ndarray | None = None

        while query.size:
            # Scalar loop order: hop budget first, then the arrival check.
            over = hop >= hop_limit
            arrived = ~over & (at == goal)
            leave = over | arrived
            if exhausted is not None:
                leave |= exhausted
            if leave.any():
                leaving = query[leave]
                current[leaving] = at[leave]
                hops[leaving] = hop[leave]
                codes[query[over]] = FAILURE_CODES[FailureReason.HOP_LIMIT]
                if exhausted is not None:
                    codes[query[exhausted]] = FAILURE_CODES[FailureReason.STUCK]
                success[query[arrived]] = True
                keep = ~leave
                query, at, goal, hop = query[keep], at[keep], goal[keep], hop[keep]
                if not query.size:
                    break

            chosen, stuck, repaired, revisited = self._step(at, goal, all_alive, tried, query)
            if tel is not None:
                tel.count("route.rounds")
                tel.count("route.rows_scanned", int(query.size))
                tel.count("route.rows_repaired", repaired)
                tel.count("route.rows_revisited", revisited)
                tel.observe("route.frontier", float(query.size), buckets=POW2_BUCKETS)

            any_stuck = bool(stuck.any())
            moving, from_vertex = (query[~stuck], at[~stuck]) if any_stuck else (query, at)
            if moving.size:
                # Push the departed vertex into the history window; when the
                # window overflows, forget the dropped vertex's tried-set
                # unless it still appears elsewhere in the window.
                full = history_len[moving] == depth
                if full.any():
                    full_queries = moving[full]
                    window = history.take(full_queries, axis=0)
                    dropped = window[:, 0].copy()
                    window[:, :-1] = window[:, 1:]
                    window[:, -1] = from_vertex[full]
                    history[full_queries] = window
                    still_present = (window == dropped[:, None]).any(axis=1)
                    if (~still_present).any():
                        tried.delete(full_queries[~still_present], dropped[~still_present])
                partial = ~full
                if partial.any():
                    partial_queries = moving[partial]
                    np.put(
                        history,
                        partial_queries * depth + history_len[partial_queries],
                        from_vertex[partial],
                    )
                    history_len[partial_queries] += 1

            exhausted = None
            if any_stuck:
                at = np.where(stuck, at, chosen)
                stuck_rows = np.flatnonzero(stuck)
                stuck_queries = query[stuck_rows]
                window_len = history_len[stuck_queries]
                can_return = window_len > 0
                if not can_return.all():
                    exhausted = np.zeros(query.size, dtype=bool)
                    exhausted[stuck_rows[~can_return]] = True
                returning = stuck_queries[can_return]
                if returning.size:
                    if tel is not None:
                        tel.count("route.recovery.backtrack", int(returning.size))
                    window_len = window_len[can_return] - 1
                    at[stuck_rows[can_return]] = history.take(returning * depth + window_len)
                    history_len[returning] = window_len
                    backtracks[returning] += 1
            else:
                at = chosen
            # Every row but an exhausted one moved, forward or back.
            moved = True if exhausted is None else ~exhausted
            hop += moved
            if paths is not None:
                for row in np.flatnonzero(np.broadcast_to(moved, query.shape)).tolist():
                    paths[int(query[row])].append(int(labels[at[row]]))

    # ------------------------------------------------------------------ #
    # One vectorized greedy step
    # ------------------------------------------------------------------ #

    def _row_slots(self, vertices: np.ndarray) -> np.ndarray:
        """CSR entry numbers aligned slot-for-slot with ``label_matrix()[vertices]``.

        Padding slots are clamped onto the last entry: they key at or above
        the row's bound, so what is read through them is never used.
        """
        snapshot = self.snapshot
        width = snapshot.label_matrix().shape[1]
        slots = snapshot.neighbor_indptr[vertices][:, None] + np.arange(width, dtype=np.int64)
        return np.minimum(slots, snapshot.neighbor_indices.shape[0] - 1)

    def _entry_live(self, slot: np.ndarray, vertex: np.ndarray, skip_dead: bool) -> np.ndarray:
        """Whether a node would propose CSR entry ``slot`` (leading to ``vertex``).

        A node knows its own table's health, so a dead *link* is never
        proposed; a dead *neighbour* is skipped too (``skip_dead`` is false
        only when every node is alive, which spares the liveness gather).
        """
        snapshot = self.snapshot
        usable = np.take(snapshot.alive, vertex) if skip_dead else np.ones(slot.shape, dtype=bool)
        if snapshot.edge_alive is not None:
            usable &= np.take(snapshot.edge_alive, slot)
        return usable

    def _untried_keys(
        self,
        vertices: np.ndarray,
        keyed: np.ndarray,
        bound: np.ndarray,
        blocked: np.generic,
        last: np.ndarray,
    ) -> np.ndarray:
        """Re-key revisited rows against their node's tried set.

        The tried set is every usable candidate at or before ``(keyed[last],
        last)`` in (key, slot) order — all of them where ``last`` is the row
        width.  The scalar router holds it as *labels*, so every slot sharing
        a consumed label is blocked too (parallel links, Chord's class-keyed
        duplicates); so is every dead-edge slot, which was never a candidate,
        and every slot at or above the row's ``bound``.  Only the usable
        cells are worked on, flat.  A label names one vertex, so the label
        test runs on the CSR neighbour: each cell's ``(row, neighbour)`` pair,
        as one integer, is looked up with one ``searchsorted`` among the
        sorted pairs of the consumed cells.  Padding slots key at or above the
        bound, so none is usable.
        """
        snapshot = self.snapshot
        width = keyed.shape[1]
        usable = keyed < bound[:, None]
        if snapshot.edge_alive is not None:
            usable &= snapshot.edge_alive.take(self._row_slots(vertices))
        cell = np.flatnonzero(usable)
        row, column = np.divmod(cell, width)
        key = keyed.take(cell)
        last_slot = last.take(row)
        # An exhausted row's threshold key is ``blocked`` (at or above the
        # bound): every usable slot lies before it.
        threshold = np.where(
            last_slot < width,
            keyed.take(cell - column + np.minimum(last_slot, width - 1)),
            blocked,
        )
        consumed = np.where(column <= last_slot, key <= threshold, key < threshold)
        neighbor = snapshot.neighbor_indices.take(
            snapshot.neighbor_indptr.take(vertices.take(row)) + column
        )
        pairs = neighbor + row * snapshot.num_nodes
        tried = np.sort(pairs[consumed])
        if tried.size:
            untried = tried.take(tried.searchsorted(pairs), mode="clip") != pairs
            cell, key = cell[untried], key[untried]
        rekeyed = np.full(keyed.shape, blocked, dtype=keyed.dtype)
        np.put(rekeyed, cell, key)
        return rekeyed

    def _step(
        self,
        current: np.ndarray,
        target: np.ndarray,
        all_alive: bool,
        tried: _PrefixTable | None = None,
        queries: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Advance every active query one hop towards its goal.

        Keys each query's label row and takes the row's first minimum — the
        scalar router's stable sort-by-distance with earliest-neighbour
        tie-break — as the hop when it keys below the row's bound (the
        policy's ``(keys, bound)`` contract), then reads liveness at the pick
        alone.  ``blocked`` is only the sentinel the step writes into the
        slots it rules out (dead, tried); it is at or above every bound.
        Backtracking passes its ``tried`` table and each row's query: a row at
        a node the query has tried candidates from is first re-keyed against
        that tried set (:meth:`_untried_keys`), and the pick becomes the
        node's last consumed slot; with nothing usable left, the node is
        exhausted.

        Returns ``(chosen, stuck, repaired, revisited)``: the next-hop vertex
        per query (undefined where stuck), the stuck mask, and how many rows
        were re-keyed for an unusable pick and against a tried set.
        """
        snapshot = self.snapshot
        skip_dead = not all_alive
        compact_labels = snapshot.labels_compact()
        class_matrix = snapshot.class_matrix()
        policy = self.policy
        keyed, bound = policy.candidate_keys(
            compact_labels[current],
            np.take(snapshot.label_matrix(), current, axis=0),
            compact_labels[target],
            edge_class=None if class_matrix is None else np.take(class_matrix, current, axis=0),
        )
        # Slot s of row r is admissible iff keyed[r, s] < bound[r]; the
        # sentinel for ruled-out slots, in the key dtype, is >= every bound.
        blocked = keyed.dtype.type(policy.blocked)
        revisited = 0
        if tried is not None:
            last, cells = tried.lookup(queries, current)
            revisit = np.flatnonzero(last >= 0)
            revisited = int(revisit.size)
            if revisited:
                keyed[revisit] = self._untried_keys(
                    current[revisit],
                    keyed.take(revisit, axis=0),
                    bound[revisit],
                    blocked,
                    last[revisit],
                )
        # The row's first raw minimum stands in for the first minimum over
        # the admissible slots.  When it is below the bound, every slot with
        # that key is admissible and no admissible slot keys lower, so it is
        # the slot the masked argmin would pick, tie-break included; when it
        # is not, nothing in the row is admissible.
        pick = np.argmin(keyed, axis=1)
        row = np.arange(current.shape[0], dtype=np.int64)
        has_candidate = _cells(keyed, row, pick) < bound
        slot = np.where(has_candidate, snapshot.neighbor_indptr[current] + pick, 0)
        indices = snapshot.neighbor_indices
        # An edgeless overlay has no entry 0 to read; nobody has a candidate.
        chosen = indices[slot] if indices.size else slot

        repaired = 0
        if skip_dead or snapshot.edge_alive is not None:
            # Pick, then repair: a usable first minimum of the whole row is
            # also the first minimum among the usable slots, so liveness is
            # read at the pick alone and only the rows it rules out are
            # re-keyed against their own CSR slice.
            repair = np.flatnonzero(has_candidate & ~self._entry_live(slot, chosen, skip_dead))
            repaired = int(repair.size)
            if repaired:
                slots = self._row_slots(current[repair])
                rekeyed = np.where(
                    self._entry_live(slots, np.take(indices, slots), skip_dead),
                    np.take(keyed, repair, axis=0),
                    blocked,
                )
                repick = np.argmin(rekeyed, axis=1)
                row = np.arange(repaired, dtype=np.int64)
                has_candidate[repair] = _cells(rekeyed, row, repick) < bound[repair]
                chosen[repair] = indices[_cells(slots, row, repick)]
                if tried is not None:
                    pick[repair] = repick

        if tried is not None:
            tried.store(cells, current, np.where(has_candidate, pick, keyed.shape[1]))
        return chosen, ~has_candidate, repaired, revisited
