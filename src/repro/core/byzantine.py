"""Routing in the presence of Byzantine nodes (paper Section 7, future work).

The paper closes by suggesting that greedy routing schemes be studied for
"robustness against Byzantine failures".  This module provides a concrete
instantiation of that extension:

* :class:`ByzantineAwareRouter` simulates greedy routing when a subset of the
  nodes (marked by a :class:`~repro.core.failures.ByzantineModel`) misbehaves:
  dropping messages, misrouting them towards the *farthest* neighbour, or
  forwarding them to a random neighbour.
* :class:`RedundantRouter` hardens routing by sending the message along
  ``redundancy`` independent greedy attempts (each restarted from a random
  live vantage point, in the spirit of the paper's random re-route strategy)
  and succeeding if any copy arrives.  This is the classic defence in
  S/Kademlia-style systems: disjoint-ish paths make a bounded adversary miss.

Both routers build on :class:`~repro.core.routing.GreedyRouter` for the honest
part of each hop, so all routing modes and recovery strategies compose with
the Byzantine behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.failures import ByzantineBehavior, ByzantineModel
from repro.core.graph import OverlayGraph
from repro.core.routing import (
    FailureReason,
    GreedyRouter,
    RecoveryStrategy,
    RouteResult,
)
from repro.util.rng import spawn_rng

__all__ = ["ByzantineAwareRouter", "RedundantRouter"]


@dataclass
class ByzantineAwareRouter:
    """Greedy router that simulates Byzantine misbehaviour at compromised hops.

    Honest nodes follow the ordinary greedy rule (delegating hop selection to
    an internal :class:`~repro.core.routing.GreedyRouter`); compromised nodes
    act according to the :class:`~repro.core.failures.ByzantineModel`'s
    behaviour.  The source is assumed honest (a compromised source can trivially
    drop its own message); the target only needs to be reached.

    Parameters
    ----------
    graph:
        Overlay graph to route over.
    adversary:
        The Byzantine model marking compromised nodes.
    seed:
        Seed for the adversary's random forwarding decisions.

    The safety bound on the number of hops, :attr:`hop_limit`, is the honest
    :class:`~repro.core.routing.GreedyRouter`'s default.
    """

    graph: OverlayGraph
    adversary: ByzantineModel
    seed: int = 0
    hop_limit: int = field(init=False)

    def __post_init__(self) -> None:
        self._honest_router = GreedyRouter(
            graph=self.graph,
            recovery=RecoveryStrategy.TERMINATE,
            seed=self.seed,
        )
        self.hop_limit = self._honest_router.hop_limit
        self._rng = spawn_rng(self.seed, "byzantine-router")

    def route(self, source: int, target: int) -> RouteResult:
        """Route from ``source`` to ``target`` through a partially Byzantine network."""
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

        path = [source]
        hops = 0
        current = source
        while hops < self.hop_limit:
            if current == target:
                return RouteResult(success=True, hops=hops, path=path)

            if self.adversary.is_compromised(current) and current != source:
                next_hop = self._byzantine_hop(current, target)
                if next_hop is None:
                    return RouteResult(
                        success=False, hops=hops, path=path,
                        failure_reason=FailureReason.STUCK,
                    )
            else:
                next_hop = self._honest_router._next_hop(current, target)
                if next_hop is None:
                    return RouteResult(
                        success=False, hops=hops, path=path,
                        failure_reason=FailureReason.STUCK,
                    )

            current = next_hop
            path.append(current)
            hops += 1

        return RouteResult(
            success=False, hops=hops, path=path,
            failure_reason=FailureReason.HOP_LIMIT,
        )

    def _byzantine_hop(self, current: int, target: int) -> int | None:
        """Return the next hop a compromised node chooses (or ``None`` to drop)."""
        behavior = self.adversary.behavior
        if behavior == ByzantineBehavior.DROP:
            return None
        neighbors = [
            n for n in self.graph.neighbors_of(current, only_alive_nodes=True)
            if n != current
        ]
        if not neighbors:
            return None
        if behavior == ByzantineBehavior.MISROUTE:
            space = self.graph.space
            return max(neighbors, key=lambda label: space.distance(label, target))
        # ByzantineBehavior.RANDOM
        index = int(self._rng.integers(0, len(neighbors)))
        return neighbors[index]


@dataclass
class RedundantRouter:
    """Defends against Byzantine hops by launching several independent attempts.

    The first attempt is the plain greedy route from the source; each further
    attempt detours through a uniformly random live node before heading to the
    target, which makes the attempts traverse largely different regions of the
    overlay.  The search succeeds as soon as any attempt succeeds; the
    reported hop count is the total traffic across all attempts made (a
    redundancy-versus-latency trade-off the experiments quantify).

    Parameters
    ----------
    graph:
        Overlay graph to route over.
    adversary:
        The Byzantine model marking compromised nodes.
    redundancy:
        Maximum number of attempts (>= 1).
    seed:
        Seed for detour selection and per-attempt adversarial randomness.
    """

    graph: OverlayGraph
    adversary: ByzantineModel
    redundancy: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {self.redundancy}")
        self._detour_rng = spawn_rng(self.seed, "redundant-detours")

    def route(self, source: int, target: int) -> RouteResult:
        """Route with up to ``redundancy`` independent attempts."""
        total_hops = 0
        combined_path: list[int] = []
        for attempt in range(self.redundancy):
            router = ByzantineAwareRouter(
                graph=self.graph,
                adversary=self.adversary,
                seed=self.seed + 1000 * (attempt + 1),
            )
            if attempt == 0:
                result = router.route(source, target)
                total_hops += result.hops
                combined_path.extend(result.path)
                if result.success:
                    return RouteResult(
                        success=True, hops=total_hops, path=combined_path
                    )
                continue

            detour = self._pick_detour(exclude={source, target})
            if detour is None:
                continue
            leg_one = router.route(source, detour)
            total_hops += leg_one.hops
            combined_path.extend(leg_one.path)
            if not leg_one.success:
                continue
            leg_two = router.route(detour, target)
            total_hops += leg_two.hops
            combined_path.extend(leg_two.path[1:])
            if leg_two.success:
                return RouteResult(success=True, hops=total_hops, path=combined_path)

        return RouteResult(
            success=False, hops=total_hops, path=combined_path,
            failure_reason=FailureReason.NO_ROUTE,
        )

    def _pick_detour(self, exclude: set[int]) -> int | None:
        """Pick a random live, non-compromised-looking detour node."""
        candidates = [
            label
            for label in self.graph.labels(only_alive=True)
            if label not in exclude
        ]
        if not candidates:
            return None
        index = int(self._detour_rng.integers(0, len(candidates)))
        return candidates[index]
