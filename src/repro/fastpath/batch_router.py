"""Batched greedy routing over a compiled snapshot.

The scalar :class:`~repro.core.routing.GreedyRouter` walks one message at a
time through Python objects; this module advances **thousands of queries one
hop per vectorized step**.  Each step gathers one row per active query from
the snapshot's single derived matrix
(:meth:`~repro.fastpath.snapshot.FastpathSnapshot.label_matrix`: neighbour
labels, short rows padded with the node's own label, which no policy ever
admits), asks the policy for every slot's key towards the query's target in
one NumPy expression, and takes the row's first minimum.  Slot ``j`` of row
``v`` is CSR entry ``neighbor_indptr[v] + j``, so the chosen vertex — and
everything known about it — is read straight from the CSR arrays; the router
derives nothing else and caches nothing that depends on liveness.

**Pick, then repair.**  A failed node or link is something the step
discovers when it looks (Sections 4.3.4 and 6), not something folded into the
matrix beforehand.  Liveness is checked on the pick alone — ``edge_alive`` at
its slot in both knowledge regimes (a node knows its own table's health),
``alive`` of the vertex in the lenient regime — and only the rows whose pick
is ruled out are re-keyed once against the liveness of their own CSR slice
and re-``argmin``-ed.  This equals masking every row first: when the first
minimum over *all* admissible slots is usable it is also the first minimum
over the usable ones (same key, and no earlier slot can tie it), and a
repaired row is exactly the masked row.  The strict regime is unchanged —
commit to the best candidate, then learn whether it is alive.

All three Section-6 recovery strategies are implemented:

* **terminate** — a stuck query simply fails; pure lock-step.
* **random re-route** — per-query detour targets (a Valiant-style detour to a
  uniformly random live node).  Stuck queries are frozen until every query
  either finishes or needs a detour, then detours are drawn *in query order*
  from the same derived stream the scalar router uses, so the draw sequence is
  identical to routing the batch one query at a time.
* **backtracking** — a ``(queries, backtrack_depth)`` history ring buffer plus
  a per-query map from visited node to the number of already-tried candidates.
  The scalar router's tried-set is always a *prefix* of the distance-sorted
  candidate list, so one integer per (query, node) reproduces it exactly.

Equivalence contract (see also :mod:`repro.core.routing`)
---------------------------------------------------------
For the configurations it supports, the batch engine is **hop-for-hop
identical** to the scalar router — not merely statistically similar.  The
guarantee rests on three details:

* the snapshot's per-vertex neighbour order equals the scalar router's
  candidate order (the label matrix keeps it slot for slot), and ``argmin``
  / stable ``argsort`` reproduce the scalar router's stable sort-by-distance
  tie-break;
* each query's hop budget is tracked individually, reproducing the scalar
  per-route hop limit exactly even when recovery detours desynchronise the
  queries;
* random re-route draws come from ``spawn_rng(seed, "random-reroute")`` in
  ascending query order — the order a scalar router consuming one shared
  stream would draw in (exact for the scalar default budget of one detour
  per query, which is the only budget the batch router has: larger ones
  interleave draws across queries and stay scalar-only).

Supported: both routing modes (``TWO_SIDED`` and ``ONE_SIDED``, Sections 2
and 4 of the paper), both neighbour-knowledge regimes
(``strict_best_neighbor`` True/False), node failures (Sections 4.3.4.2 and
6), and all three recovery strategies of Section 6.  Parity is asserted
path-for-path by ``tests/property/test_property_fastpath.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.routing import (
    FailureReason,
    RecoveryStrategy,
    RouteResult,
    RoutingMode,
)
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
_CODE_TO_REASON = {code: reason for reason, code in FAILURE_CODES.items()}

# Random re-route detours per query: the scalar router's default, and the only
# budget whose draw order a batch can reproduce (see the module docstring).
_MAX_REROUTES = 1


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

    def failed_count(self) -> int:
        """Number of failed queries."""
        return int(len(self) - self.success.sum())

    def mean_hops(self, successful_only: bool = True) -> float:
        """Mean hop count, by default over successful queries only.

        Matches the experiments' convention of averaging the delivery time of
        *successful* searches; returns 0.0 when no query qualifies.
        """
        mask = self.success if successful_only else np.ones(len(self), dtype=bool)
        if not np.any(mask):
            return 0.0
        return float(self.hops[mask].mean())

    def failure_reason(self, index: int) -> FailureReason:
        """Decode the failure reason of the query at ``index``."""
        return _CODE_TO_REASON[int(self.failure_codes[index])]

    def to_route_results(self) -> list[RouteResult]:
        """Convert to scalar :class:`~repro.core.routing.RouteResult` objects.

        When paths were not recorded, each result's ``path`` contains only the
        endpoints actually known (source, and the final node when distinct).
        """
        results: list[RouteResult] = []
        for index in range(len(self)):
            if self.paths is not None:
                path = list(self.paths[index])
            else:
                path = [int(self.sources[index])]
                if int(self.final[index]) != path[-1]:
                    path.append(int(self.final[index]))
            results.append(
                RouteResult(
                    success=bool(self.success[index]),
                    hops=int(self.hops[index]),
                    path=path,
                    failure_reason=self.failure_reason(index),
                    reroutes=int(self.reroutes[index]),
                    backtracks=int(self.backtracks[index]),
                )
            )
        return results


class _PrefixTable:
    """Per-query map ``visited node -> consumed candidate-prefix length``.

    The scalar backtracking router remembers, per visited node, which
    next-hop candidates it has already tried.  Because candidates are
    consumed in distance-sorted order, that set is always a prefix of the
    sorted candidate list, so a single integer per (query, node) pair carries
    the full state.  Entries live in a small, growable slot table per query
    (``-1`` marks a free slot); the scalar router's bounded-memory rule —
    forget a node's tried-set when it falls out of the backtrack window —
    maps to :meth:`delete`.
    """

    def __init__(self, num_queries: int, initial_slots: int = 8) -> None:
        self._nodes = np.full((num_queries, initial_slots), -1, dtype=np.int64)
        self._counts = np.zeros((num_queries, initial_slots), dtype=np.int64)

    def lookup(self, queries: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Consumed-prefix length of ``nodes[i]`` for query ``queries[i]`` (0 if absent)."""
        match = self._nodes[queries] == nodes[:, None]
        found = match.any(axis=1)
        slot = match.argmax(axis=1)
        counts = self._counts[queries, slot]
        return np.where(found, counts, 0)

    def store(self, queries: np.ndarray, nodes: np.ndarray, counts: np.ndarray) -> None:
        """Set the consumed-prefix length, creating slots for new nodes."""
        match = self._nodes[queries] == nodes[:, None]
        found = match.any(axis=1)
        slot = match.argmax(axis=1)
        if found.any():
            self._counts[queries[found], slot[found]] = counts[found]
        new = ~found & (counts > 0)
        if not new.any():
            return
        new_queries = queries[new]
        while True:
            free = self._nodes[new_queries] == -1
            if free.any(axis=1).all():
                break
            self._grow()
        free_slot = free.argmax(axis=1)
        self._nodes[new_queries, free_slot] = nodes[new]
        self._counts[new_queries, free_slot] = counts[new]

    def delete(self, queries: np.ndarray, nodes: np.ndarray) -> None:
        """Forget the entries of ``nodes[i]`` for query ``queries[i]`` (if present)."""
        match = self._nodes[queries] == nodes[:, None]
        found = match.any(axis=1)
        if not found.any():
            return
        slot = match.argmax(axis=1)
        self._nodes[queries[found], slot[found]] = -1
        self._counts[queries[found], slot[found]] = 0

    def _grow(self) -> None:
        num_queries, slots = self._nodes.shape
        nodes = np.full((num_queries, 2 * slots), -1, dtype=np.int64)
        counts = np.zeros((num_queries, 2 * slots), dtype=np.int64)
        nodes[:, :slots] = self._nodes
        counts[:, :slots] = self._counts
        self._nodes, self._counts = nodes, counts


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
    mode:
        Two-sided (default) or one-sided greedy forwarding.
    recovery:
        Any of the three Section-6 strategies (terminate, random re-route,
        backtracking).
    backtrack_depth:
        Number of recently visited nodes remembered for backtracking
        (the paper uses 5).
    strict_best_neighbor:
        Same knowledge-regime switch as the scalar router.
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
    mode: RoutingMode = RoutingMode.TWO_SIDED
    recovery: RecoveryStrategy = RecoveryStrategy.TERMINATE
    backtrack_depth: int = 5
    strict_best_neighbor: bool = False
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
                final=empty.copy(),
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

        Stuck queries with detour budget are *frozen* rather than resolved in
        place; once every query has either finished or frozen, detours are
        drawn in ascending query order (the order a scalar router sharing one
        RNG stream would draw in) and the frozen queries resume.  With the
        supported budget of one detour per query this reproduces the scalar
        draw sequence exactly.
        """
        snapshot = self.snapshot
        labels = snapshot.labels
        # Skip the per-hop liveness gather entirely on a failure-free
        # snapshot — the common case for the no-failure experiment rows.
        all_alive = bool(snapshot.alive.all())
        rerouting = self.recovery is RecoveryStrategy.RANDOM_REROUTE
        # Per-query detour target (vertex index), -1 when routing to the
        # real target.
        detour = np.full(current.shape[0], -1, dtype=np.int64)
        pending: list[int] = []
        tel = telemetry_current()

        while active.size or pending:
            if not active.size:
                active = self._draw_detours(pending, current, detour, codes, reroutes)
                if tel is not None and active.size:
                    tel.count("route.recovery.reroute", int(active.size))
                pending = []
                continue

            # Per-query hop budget, checked before anything else — exactly
            # the scalar loop condition.
            over = hops[active] >= self.hop_limit
            if over.any():
                codes[active[over]] = FAILURE_CODES[FailureReason.HOP_LIMIT]
                active = active[~over]
                if not active.size:
                    continue

            # Arriving at the detour node costs no hop: resume routing to
            # the real target from there.
            active_detour = detour[active]
            at_detour = (active_detour >= 0) & (current[active] == active_detour)
            if at_detour.any():
                detour[active[at_detour]] = -1
            goal = np.where(detour[active] >= 0, detour[active], target_index[active])

            chosen, stuck, repaired = self._step(current[active], goal, all_alive)
            if tel is not None:
                tel.count("route.rounds")
                tel.count("route.rows_scanned", int(active.size))
                tel.count("route.rows_repaired", repaired)
                tel.observe("route.frontier", float(active.size), buckets=POW2_BUCKETS)

            if stuck.any():
                stuck_queries = active[stuck]
                if rerouting:
                    can_detour = reroutes[stuck_queries] < _MAX_REROUTES
                    pending.extend(int(q) for q in stuck_queries[can_detour])
                    codes[stuck_queries[~can_detour]] = FAILURE_CODES[
                        FailureReason.STUCK
                    ]
                else:
                    codes[stuck_queries] = FAILURE_CODES[FailureReason.STUCK]

            movers = ~stuck
            moving_queries = active[movers]
            current[moving_queries] = chosen[movers]
            hops[moving_queries] += 1
            if paths is not None:
                for query in moving_queries:
                    paths[query].append(int(labels[current[query]]))

            arrived = current[moving_queries] == target_index[moving_queries]
            success[moving_queries[arrived]] = True
            active = moving_queries[~arrived]

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
        pending: np.ndarray,
        current: np.ndarray,
        detour: np.ndarray,
        codes: np.ndarray,
        reroutes: np.ndarray,
    ) -> np.ndarray:
        """Draw a detour target for every frozen query, in query order.

        Reproduces ``GreedyRouter._pick_random_live_node`` per query: a
        uniform index into the live pool minus the query's current node, one
        ``integers`` call per draw from the shared stream.  Queries with no
        other live node fail as stuck without consuming a draw.  Returns the
        reactivated query indices.
        """
        pool, position = self._reroute_pool_arrays()
        rng = self._reroute_rng
        reactivated: list[int] = []
        for query in sorted(pending):
            at = int(position[current[query]])
            available = pool.size - 1 if at >= 0 else pool.size
            if available <= 0:
                codes[query] = FAILURE_CODES[FailureReason.STUCK]
                continue
            index = int(rng.integers(0, available))
            if at >= 0 and index >= at:
                index += 1
            detour[query] = pool[index]
            reroutes[query] += 1
            reactivated.append(query)
        return np.asarray(reactivated, dtype=np.int64)

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
        candidates.  Each iteration advances every in-flight query by exactly
        one scalar-loop iteration (a forward move, a backtrack move, or a
        terminal verdict), so hop counts, paths, and tie-breaks match the
        scalar router move for move.
        """
        labels = self.snapshot.labels
        depth = self.backtrack_depth
        num_queries = current.shape[0]

        history = np.full((num_queries, depth), -1, dtype=np.int64)
        history_len = np.zeros(num_queries, dtype=np.int64)
        tried = _PrefixTable(num_queries)
        tel = telemetry_current()

        while active.size:
            # Scalar loop order: hop budget first, then the arrival check.
            over = hops[active] >= self.hop_limit
            if over.any():
                codes[active[over]] = FAILURE_CODES[FailureReason.HOP_LIMIT]
                active = active[~over]
                if not active.size:
                    break
            arrived = current[active] == target_index[active]
            if arrived.any():
                success[active[arrived]] = True
                active = active[~arrived]
                if not active.size:
                    break

            chosen, new_consumed, consumed_nodes, stuck, repaired = self._backtrack_select(
                active, current, target_index, tried
            )
            if tel is not None:
                tel.count("route.rounds")
                tel.count("route.rows_scanned", int(active.size))
                tel.count("route.rows_repaired", repaired)
                tel.observe("route.frontier", float(active.size), buckets=POW2_BUCKETS)
            tried.store(active, consumed_nodes, new_consumed)

            movers = ~stuck
            moving_queries = active[movers]
            if moving_queries.size:
                from_vertex = current[moving_queries].copy()
                # Push the departed vertex into the history window; when the
                # window overflows, forget the dropped vertex's tried-set
                # unless it still appears elsewhere in the window.
                full = history_len[moving_queries] == depth
                if full.any():
                    full_queries = moving_queries[full]
                    dropped = history[full_queries, 0].copy()
                    history[full_queries, :-1] = history[full_queries, 1:]
                    history[full_queries, -1] = from_vertex[full]
                    still_present = (history[full_queries] == dropped[:, None]).any(axis=1)
                    if (~still_present).any():
                        tried.delete(full_queries[~still_present], dropped[~still_present])
                partial = ~full
                if partial.any():
                    partial_queries = moving_queries[partial]
                    history[partial_queries, history_len[partial_queries]] = (
                        from_vertex[partial]
                    )
                    history_len[partial_queries] += 1
                current[moving_queries] = chosen[movers]
                hops[moving_queries] += 1
                if paths is not None:
                    for query in moving_queries:
                        paths[query].append(int(labels[current[query]]))

            stuck_queries = active[stuck]
            returning = np.empty(0, dtype=np.int64)
            if stuck_queries.size:
                can_return = history_len[stuck_queries] > 0
                returning = stuck_queries[can_return]
                if returning.size:
                    if tel is not None:
                        tel.count("route.recovery.backtrack", int(returning.size))
                    previous = history[returning, history_len[returning] - 1]
                    history_len[returning] -= 1
                    current[returning] = previous
                    hops[returning] += 1
                    backtracks[returning] += 1
                    if paths is not None:
                        for query in returning.tolist():
                            paths[query].append(int(labels[current[query]]))
                exhausted = stuck_queries[~can_return]
                codes[exhausted] = FAILURE_CODES[FailureReason.STUCK]

            active = np.sort(np.concatenate([moving_queries, returning]))

    def _backtrack_select(
        self,
        active: np.ndarray,
        current: np.ndarray,
        target_index: np.ndarray,
        tried: _PrefixTable,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Pick each active query's next untried candidate, consuming prefixes.

        Returns ``(chosen, new_consumed, nodes, stuck, repaired)``: the
        next-hop vertex per query (undefined where stuck), the updated
        consumed-prefix length for the query's current vertex, that vertex,
        the stuck mask, and how many first-visit rows had an unusable pick.
        """
        snapshot = self.snapshot
        alive, edge_alive = snapshot.alive, snapshot.edge_alive
        cur = current[active]
        keyed, blocked, has_candidate, slot, chosen = self._first_pick(cur, target_index[active])

        # By far the most common case: the query is visiting this node for
        # the first time (nothing consumed), so the scalar router simply
        # takes its closest candidate — the first pick, consumed (prefix 1)
        # whether or not it turns out alive.  Rows that are revisited, or
        # whose pick the node knows better than to propose, take the general
        # path below over their own CSR slice.
        consumed = tried.lookup(active, cur)
        cheap = (consumed == 0) & (
            ~has_candidate | self._entry_live(slot, chosen, not self.strict_best_neighbor)
        )
        stuck = ~has_candidate
        if self.strict_best_neighbor:
            stuck |= ~alive[chosen]
        new_consumed = np.where(has_candidate, 1, 0)
        full = np.flatnonzero(~cheap)
        if full.size:
            slots = self._row_slots(cur[full])
            rekeyed = keyed[full]
            if edge_alive is not None:
                rekeyed = np.where(edge_alive[slots], rekeyed, blocked)
            chosen[full], new_consumed[full], stuck[full] = self._backtrack_select_full(
                snapshot.neighbor_indices[slots], rekeyed, blocked, alive, consumed[full]
            )
        return chosen, new_consumed, cur, stuck, int(np.count_nonzero(consumed[full] == 0))

    def _backtrack_select_full(
        self,
        neighbors: np.ndarray,
        keyed: np.ndarray,
        blocked: np.generic,
        alive: np.ndarray,
        consumed: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The general prefix-consuming selection for revisited/degraded rows."""
        # Stable argsort by distance == the scalar router's stable
        # sort-by-distance with earliest-neighbour tie-break; non-candidates
        # sink to the back.
        order = np.argsort(keyed, axis=1, kind="stable")
        sorted_neighbors = np.take_along_axis(neighbors, order, axis=1)
        sorted_keyed = np.take_along_axis(keyed, order, axis=1)
        is_candidate = sorted_keyed < blocked

        # A neighbour row may list the same vertex twice (e.g. a long link to
        # the node's own ring neighbour).  The scalar tried-set holds *labels*,
        # so consuming a candidate consumes every duplicate of it: the prefix
        # arithmetic lives on the deduplicated sorted list.  Mark every
        # repeated occurrence (value-sorted adjacency; the stable sort keeps
        # the distance-order first occurrence first).
        value = np.where(is_candidate, sorted_neighbors.astype(np.int64), -1)
        value_order = np.argsort(value, axis=1, kind="stable")
        value_sorted = np.take_along_axis(value, value_order, axis=1)
        repeat_sorted = np.zeros_like(is_candidate)
        repeat_sorted[:, 1:] = (value_sorted[:, 1:] == value_sorted[:, :-1]) & (
            value_sorted[:, 1:] >= 0
        )
        repeated = np.zeros_like(is_candidate)
        np.put_along_axis(repeated, value_order, repeat_sorted, axis=1)
        distinct = is_candidate & ~repeated
        candidate_count = distinct.sum(axis=1).astype(np.int64)
        # 0-based rank of each distinct candidate in distance order (garbage
        # in non-distinct slots; every use below is masked by ``distinct``).
        rank = distinct.cumsum(axis=1, dtype=np.int64) - 1

        row = np.arange(neighbors.shape[0], dtype=np.int64)
        if self.strict_best_neighbor:
            # The node commits to its single best untried candidate: the
            # candidate is consumed either way, and a dead pick means the
            # node is stuck for this visit.
            has_untried = consumed < candidate_count
            at_consumed = distinct & (rank == consumed[:, None])
            pick = at_consumed.argmax(axis=1)
            chosen = sorted_neighbors[row, pick].astype(np.int64)
            stuck = ~has_untried | ~alive[chosen]
            new_consumed = np.where(has_untried, consumed + 1, consumed)
        else:
            # Lenient model: dead untried candidates are consumed and
            # skipped until a live one is found.
            eligible = (
                distinct & (rank >= consumed[:, None]) & alive[sorted_neighbors]
            )
            found = eligible.any(axis=1)
            pick = eligible.argmax(axis=1)
            chosen = sorted_neighbors[row, pick].astype(np.int64)
            stuck = ~found
            new_consumed = np.where(found, rank[row, pick] + 1, candidate_count)
        return chosen, new_consumed, stuck

    # ------------------------------------------------------------------ #
    # One vectorized greedy step
    # ------------------------------------------------------------------ #

    def _first_pick(
        self, current: np.ndarray, target: np.ndarray
    ) -> tuple[np.ndarray, np.generic, np.ndarray, np.ndarray, np.ndarray]:
        """Key each query's label row and take the row's first minimum.

        Returns ``(keyed, blocked, has_candidate, slot, chosen)``: the key
        matrix (``>= blocked``, the sentinel in the key dtype, marks
        inadmissible slots, padding included); whether the row's minimum is
        admissible; and the CSR entry and vertex it names (0 where there is
        none).  Liveness is not looked at here.
        """
        snapshot = self.snapshot
        compact_labels = snapshot.labels_compact()
        class_matrix = snapshot.class_matrix()
        policy = self.policy
        keyed = policy.candidate_keys(
            compact_labels[current],
            snapshot.label_matrix()[current],
            compact_labels[target],
            self.mode,
            edge_class=class_matrix[current] if class_matrix is not None else None,
        )
        blocked = keyed.dtype.type(policy.blocked)
        # First minimum along the row == the scalar router's stable
        # sort-by-distance with earliest-neighbour tie-break.
        pick = np.argmin(keyed, axis=1)
        row = np.arange(current.shape[0], dtype=np.int64)
        has_candidate = keyed[row, pick] < blocked
        slot = np.where(has_candidate, snapshot.neighbor_indptr[current] + pick, 0)
        indices = snapshot.neighbor_indices
        # An edgeless overlay has no entry 0 to read; nobody has a candidate.
        chosen = indices[slot] if indices.size else slot
        return keyed, blocked, has_candidate, slot, chosen

    def _row_slots(self, vertices: np.ndarray) -> np.ndarray:
        """CSR entry numbers aligned slot-for-slot with ``label_matrix()[vertices]``.

        Padding slots are clamped onto the last entry: they key at
        ``blocked``, so what is read through them is never used.
        """
        snapshot = self.snapshot
        width = snapshot.label_matrix().shape[1]
        slots = snapshot.neighbor_indptr[vertices][:, None] + np.arange(width, dtype=np.int64)
        return np.minimum(slots, snapshot.neighbor_indices.shape[0] - 1)

    def _entry_live(self, slot: np.ndarray, vertex: np.ndarray, skip_dead: bool) -> np.ndarray:
        """Whether a node would propose CSR entry ``slot`` (leading to ``vertex``).

        A node knows its own table's health, so a dead *link* is never
        proposed in either knowledge regime; a dead *neighbour* is skipped
        only in the lenient one (``skip_dead``).
        """
        snapshot = self.snapshot
        usable = np.take(snapshot.alive, vertex) if skip_dead else np.ones(slot.shape, dtype=bool)
        if snapshot.edge_alive is not None:
            usable &= np.take(snapshot.edge_alive, slot)
        return usable

    def _step(
        self, current: np.ndarray, target: np.ndarray, all_alive: bool
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Advance every active query one hop towards its goal.

        Returns ``(chosen, stuck, repaired)``: the next-hop vertex index per
        query (undefined where stuck), the boolean stuck mask, and how many
        rows had an unusable first pick and were re-keyed.
        """
        snapshot = self.snapshot
        skip_dead = not self.strict_best_neighbor and not all_alive
        keyed, blocked, has_candidate, slot, chosen = self._first_pick(current, target)

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
                indices = snapshot.neighbor_indices
                rekeyed = np.where(
                    self._entry_live(slots, indices[slots], skip_dead), keyed[repair], blocked
                )
                pick = np.argmin(rekeyed, axis=1)
                row = np.arange(repaired, dtype=np.int64)
                has_candidate[repair] = rekeyed[row, pick] < blocked
                chosen[repair] = indices[slots[row, pick]]

        stuck = ~has_candidate
        if self.strict_best_neighbor and not all_alive:
            # The node commits to its best candidate before learning whether
            # it is alive; a dead best candidate means the query is stuck.
            stuck |= ~snapshot.alive[chosen]
        return chosen, stuck, repaired
