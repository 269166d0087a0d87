"""The ``Overlay`` protocol: what every routable topology must expose.

The paper's Section-3 thesis is that structured peer-to-peer systems are one
family: nodes embedded in a metric space, a neighbour table per node, and
greedy forwarding with some failure story.  This module states that contract
as a :class:`typing.Protocol` so the experiment harness, the sweep executor,
and the fastpath engine can treat the power-law overlay, Chord, CAN,
Plaxton, and the Kleinberg grid — or any user-defined topology —
interchangeably:

* **identity** — ``space`` (the metric) and ``labels()`` (the embedded
  nodes);
* **structure** — ``neighbors_of()`` (one node's routing table);
* **failures** — ``is_alive`` / ``fail_node`` / ``fail_fraction`` /
  ``repair``;
* **routing** — the scalar reference ``route()`` and ``compile_snapshot()``,
  which compiles the topology into a
  :class:`~repro.fastpath.snapshot.FastpathSnapshot` whose batched routes are
  hop-for-hop identical to ``route()``.

Implementations normally get the liveness bookkeeping, the scalar greedy
loop, and the snapshot compiler from :class:`~repro.overlay.mixin.OverlayMixin`
and only write the two protocol-specific pieces: a scalar ``next_hop`` rule
and the matching vectorized :class:`~repro.overlay.policy.GreedyPolicy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from repro.core.metric import MetricSpace
from repro.core.routing import RouteResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fastpath imports us)
    from repro.fastpath.snapshot import FastpathSnapshot

__all__ = ["Overlay", "PROTOCOLS"]

#: Registry names of the built-in overlay protocols, as accepted by
#: ``topology.protocol`` in a :class:`~repro.scenarios.spec.TopologySpec`.
PROTOCOLS = ("power-law", "chord", "kleinberg", "can", "plaxton")


@runtime_checkable
class Overlay(Protocol):
    """Structural interface of a routable peer-to-peer topology.

    ``isinstance(obj, Overlay)`` checks member presence at runtime (not
    signatures); the behavioural half of the contract — batched routes over
    ``compile_snapshot()`` match ``route()`` hop for hop — is asserted by
    ``tests/property/test_property_overlay.py``.
    """

    #: The metric space node labels live in.
    space: MetricSpace

    def labels(self, only_alive: bool = True) -> list[int]:
        """Member node labels in ascending order, optionally live-only."""
        ...

    def is_alive(self, label: int) -> bool:
        """Whether ``label`` is a live member (``False`` for non-members)."""
        ...

    def neighbors_of(self, label: int) -> Sequence[int]:
        """The labels in ``label``'s routing table (liveness ignored)."""
        ...

    def fail_node(self, label: int) -> None:
        """Mark the member at ``label`` as failed (no-op for non-members)."""
        ...

    def fail_fraction(self, fraction: float, seed: int = 0) -> list[int]:
        """Fail a uniformly random fraction of live members; return victims."""
        ...

    def repair(self) -> None:
        """Restore a fully routable topology after failures.

        Protocol-specific: the baseline overlays revive every member (and
        rebuild tables where needed), while :class:`~repro.core.network.P2PNetwork`
        runs its maintenance protocol — crashed members are excised and the
        survivors' links regenerated.  Callers may assume routing works
        again, not that the membership is unchanged.
        """
        ...

    def route(self, source: int, target: int) -> RouteResult:
        """Scalar greedy routing — the reference the batched engine matches."""
        ...

    def compile_snapshot(self) -> "FastpathSnapshot":
        """Compile the current topology + liveness into an array snapshot."""
        ...
