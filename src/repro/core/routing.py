"""Greedy routing over the overlay graph, with failure-recovery strategies.

Routing (Sections 2, 4 and 6 of the paper) is purely local: the node holding
the message forwards it to the neighbour whose metric-space point is closest
to the target, whichever side of the target it lands on (the paper's
*two-sided* greedy rule, the one its Section-6 experiments route with).

When failures leave a node without a usable next hop, Section 6 evaluates
three recovery strategies, all implemented here:

1. **terminate** — give up; the search fails.
2. **random re-route** — deliver the message to a uniformly random live node
   and retry towards the original target from there (a Valiant-style detour).
3. **backtracking** — remember the last ``backtrack_depth`` (default 5)
   visited nodes; when stuck, return to the most recent one and take its next
   best untried neighbour.

A node is *stuck* when it "cannot find a live neighbour that is closer to the
target node than itself" (Section 6): a node skips dead neighbours and
forwards to its closest **live** closer neighbour, which reproduces the
paper's observation that the terminate strategy loses slightly fewer than
``p`` of its searches when a fraction ``p`` of the nodes has failed.

Relationship to the fastpath engine (equivalence contract)
----------------------------------------------------------
This module is the **reference implementation**: all three Section-6
recovery strategies over arbitrary node/link failures.  :mod:`repro.fastpath`
provides a batched array engine for the statistically heavy experiments;
within its envelope — node failures and **all three** recovery strategies —
it is hop-for-hop identical to :class:`GreedyRouter` (same candidate order,
same tie-breaks, same hop limit, same re-route draws and backtrack victim
selection), which ``tests/property/test_property_fastpath.py`` asserts
path-for-path.  Re-route parity additionally assumes the scalar default
detour budget (``max_reroutes=1``) — one shared RNG stream, drawn in query
order — and the batch router rejects larger budgets.  The engine session
(:class:`repro.scenarios.rounds.EngineSession`) falls back here, with a
warning, whenever a configuration is outside the fastpath envelope (a graph
in a metric space that has no array mirror).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import OverlayGraph
from repro.util.rng import spawn_rng

__all__ = [
    "RecoveryStrategy",
    "FailureReason",
    "RouteResult",
    "GreedyRouter",
]


class RecoveryStrategy(enum.Enum):
    """What to do when no usable next hop exists (Section 6)."""

    TERMINATE = "terminate"
    RANDOM_REROUTE = "random-reroute"
    BACKTRACK = "backtrack"


class FailureReason(enum.Enum):
    """Why a routing attempt failed."""

    NONE = "none"
    STUCK = "stuck"
    HOP_LIMIT = "hop-limit"
    DEAD_SOURCE = "dead-source"
    DEAD_TARGET = "dead-target"
    NO_ROUTE = "no-route"


@dataclass
class RouteResult:
    """Outcome of a single routing attempt.

    Attributes
    ----------
    success:
        ``True`` when the message reached the target.
    hops:
        Number of edges traversed (including detours and backtracking moves).
    path:
        Sequence of node labels visited, starting with the source.  Detour and
        backtrack moves appear in order.
    failure_reason:
        Why the attempt failed (``FailureReason.NONE`` on success).
    reroutes:
        Number of random re-route detours taken.
    backtracks:
        Number of backtracking moves taken.
    """

    success: bool
    hops: int
    path: list[int] = field(default_factory=list)
    failure_reason: FailureReason = FailureReason.NONE
    reroutes: int = 0
    backtracks: int = 0

    @property
    def source(self) -> int | None:
        """The label the route started from (``None`` for an empty path)."""
        return self.path[0] if self.path else None

    @property
    def destination(self) -> int | None:
        """The label the route ended at (``None`` for an empty path)."""
        return self.path[-1] if self.path else None


@dataclass
class GreedyRouter:
    """Greedy router over an :class:`~repro.core.graph.OverlayGraph`.

    Parameters
    ----------
    graph:
        The overlay graph to route over.  Liveness flags on nodes and links
        are respected.
    recovery:
        Recovery strategy when the greedy step has no usable next hop.
    backtrack_depth:
        Number of recently visited nodes remembered for backtracking
        (the paper uses 5).
    max_reroutes:
        Maximum number of random re-route detours per search.
    symmetric_neighbors:
        When ``True`` (default) a node may forward along links that point *at*
        it as well as its own outgoing links — link creation is a handshake,
        so both endpoints know each other.  Set to ``False`` to route over the
        strictly directed graph.
    hop_limit:
        Safety limit on the total number of hops; ``None`` derives a generous
        default from the graph size.
    seed:
        Seed for the random re-route strategy.
    """

    graph: OverlayGraph
    recovery: RecoveryStrategy = RecoveryStrategy.TERMINATE
    backtrack_depth: int = 5
    max_reroutes: int = 1
    symmetric_neighbors: bool = True
    hop_limit: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backtrack_depth < 1:
            raise ValueError(f"backtrack_depth must be >= 1, got {self.backtrack_depth}")
        if self.max_reroutes < 0:
            raise ValueError(f"max_reroutes must be >= 0, got {self.max_reroutes}")
        if self.hop_limit is None:
            size = max(4, self.graph.space.size())
            self.hop_limit = int(50 * np.ceil(np.log2(size)) ** 2 + 100)
        self._reroute_rng = spawn_rng(self.seed, "random-reroute")

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def route(self, source: int, target: int) -> RouteResult:
        """Route a message from the node at ``source`` to the point ``target``.

        The attempt succeeds when the message arrives at the live node whose
        label equals ``target``.  The source must be a live node of the graph;
        the target must be a live node as well (the paper's experiments only
        route between live endpoints).
        """
        if not self.graph.is_alive(source):
            return RouteResult(
                success=False, hops=0, path=[source],
                failure_reason=FailureReason.DEAD_SOURCE,
            )
        if not self.graph.is_alive(target):
            return RouteResult(
                success=False, hops=0, path=[source],
                failure_reason=FailureReason.DEAD_TARGET,
            )
        if source == target:
            return RouteResult(success=True, hops=0, path=[source])

        if self.recovery is RecoveryStrategy.BACKTRACK:
            return self._route_with_backtracking(source, target)
        return self._route_forward_only(source, target)

    def route_many(
        self, pairs: list[tuple[int, int]]
    ) -> list[RouteResult]:
        """Route a batch of (source, target) pairs and return all results."""
        return [self.route(source, target) for source, target in pairs]

    # ------------------------------------------------------------------ #
    # Greedy next-hop selection
    # ------------------------------------------------------------------ #

    def _candidate_neighbors(self, current: int, target: int) -> list[int]:
        """Return the neighbours of ``current`` that make strict progress.

        Dead *links* are never candidates (a node knows its own link state);
        dead *nodes* are, and the callers skip them.
        """
        space = self.graph.space
        current_distance = space.distance(current, target)
        neighbors = self.graph.neighbors_of(
            current,
            only_alive_nodes=False,
            only_alive_links=True,
            include_incoming=self.symmetric_neighbors,
        )
        candidates: list[int] = []
        for neighbor in neighbors:
            if space.distance(neighbor, target) < current_distance:
                candidates.append(neighbor)
        candidates.sort(key=lambda label: space.distance(label, target))
        return candidates

    def _next_hop(self, current: int, target: int) -> int | None:
        """Pick the greedy next hop from ``current`` towards ``target``.

        Returns ``None`` when the node is stuck: it has no live neighbour
        closer to the target.
        """
        for candidate in self._candidate_neighbors(current, target):
            if self.graph.is_alive(candidate):
                return candidate
        return None

    # ------------------------------------------------------------------ #
    # Forward-only routing (terminate / random re-route)
    # ------------------------------------------------------------------ #

    def _route_forward_only(self, source: int, target: int) -> RouteResult:
        """Greedy routing with no backtracking; optionally detour when stuck."""
        path = [source]
        hops = 0
        reroutes = 0
        current = source
        detour_target: int | None = None

        while hops < self.hop_limit:
            goal = detour_target if detour_target is not None else target
            if current == goal:
                if detour_target is not None:
                    # Arrived at the detour node; resume routing to the target.
                    detour_target = None
                    continue
                return RouteResult(
                    success=True, hops=hops, path=path, reroutes=reroutes
                )

            next_hop = self._next_hop(current, goal)
            if next_hop is None:
                if (
                    self.recovery is RecoveryStrategy.RANDOM_REROUTE
                    and reroutes < self.max_reroutes
                ):
                    detour = self._pick_random_live_node(exclude={current})
                    if detour is None:
                        return RouteResult(
                            success=False, hops=hops, path=path,
                            failure_reason=FailureReason.STUCK, reroutes=reroutes,
                        )
                    reroutes += 1
                    detour_target = detour
                    continue
                return RouteResult(
                    success=False, hops=hops, path=path,
                    failure_reason=FailureReason.STUCK, reroutes=reroutes,
                )

            current = next_hop
            path.append(current)
            hops += 1
            if current == target:
                return RouteResult(
                    success=True, hops=hops, path=path, reroutes=reroutes
                )

        return RouteResult(
            success=False, hops=hops, path=path,
            failure_reason=FailureReason.HOP_LIMIT, reroutes=reroutes,
        )

    def _pick_random_live_node(self, exclude: set[int]) -> int | None:
        """Pick a uniformly random live node not in ``exclude``."""
        live = [label for label in self.graph.labels(only_alive=True) if label not in exclude]
        if not live:
            return None
        index = int(self._reroute_rng.integers(0, len(live)))
        return live[index]

    # ------------------------------------------------------------------ #
    # Backtracking routing
    # ------------------------------------------------------------------ #

    def _route_with_backtracking(self, source: int, target: int) -> RouteResult:
        """Greedy routing that backtracks through recently visited nodes.

        The router keeps a bounded history of the last ``backtrack_depth``
        nodes it forwarded from, and per node the candidates it has already
        tried there.  When the search gets stuck it returns to the most
        recent history entry and continues from there.  Every backtrack move
        costs one hop (the message physically travels back).
        """
        path = [source]
        hops = 0
        backtracks = 0

        history: list[int] = []
        tried_from: dict[int, set[int]] = {}

        current = source
        while hops < self.hop_limit:
            if current == target:
                return RouteResult(
                    success=True, hops=hops, path=path, backtracks=backtracks
                )

            candidates = self._candidate_neighbors(current, target)
            already_tried = tried_from.setdefault(current, set())
            untried = [c for c in candidates if c not in already_tried]

            next_hop = self._select_backtrack_hop(untried, already_tried)

            if next_hop is None:
                # Stuck at ``current``: backtrack if history allows.
                if not history:
                    return RouteResult(
                        success=False, hops=hops, path=path,
                        failure_reason=FailureReason.STUCK, backtracks=backtracks,
                    )
                current = history.pop()
                path.append(current)
                hops += 1
                backtracks += 1
                continue

            history.append(current)
            if len(history) > self.backtrack_depth:
                dropped_label = history.pop(0)
                # Forget the tried-set of nodes that fall out of the window so
                # the memory footprint stays bounded, as in the paper's model.
                if dropped_label not in history:
                    tried_from.pop(dropped_label, None)

            current = next_hop
            path.append(current)
            hops += 1

        return RouteResult(
            success=False, hops=hops, path=path,
            failure_reason=FailureReason.HOP_LIMIT, backtracks=backtracks,
        )

    def _select_backtrack_hop(
        self, untried: list[int], already_tried: set[int]
    ) -> int | None:
        """Choose the next hop among untried candidates, marking it as tried.

        Dead candidates are marked as tried and skipped until a live one is
        found.
        """
        for candidate in untried:
            already_tried.add(candidate)
            if self.graph.is_alive(candidate):
                return candidate
        return None
