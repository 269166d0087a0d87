"""The round driver: one place a scenario perturbs, repairs, and routes.

The paper's dynamic evaluation (the Section-5 maintenance heuristic, the
Section-6 failure experiments) is one loop — perturb the overlay, repair it,
route a population of lookups, tabulate.  This module holds the two decisions
every round-based scenario shares, so ``churn``, ``maintenance-cost``,
``service`` and ``degradation`` keep only their spec builder, their network
build, their per-batch hook and their tabulation:

* :class:`EngineSession` — *how a router stays current with a mutating
  overlay on either engine*, and the only place outside :mod:`repro.fastpath`
  that knows there are two.  The object engine routes on the live overlay;
  the fastpath engine follows it through recorded
  :class:`~repro.fastpath.DeltaSnapshot` deltas and rebases its batch router
  before every batch, never recompiling.  There is one way a mutation
  reaches the mirror, whichever family the overlay belongs to and whoever
  makes it: the overlay's mutator notifies the session's
  :class:`~repro.fastpath.DeltaRecorder`, and :meth:`EngineSession.route`
  drains it.  Both engines are hop-for-hop identical at
  the same route seed, which is what keeps every scenario table
  byte-identical across engines.  The static paper experiments (``figure6``,
  ``figure7``, ``table1``, ``baselines`` and the depth and exponent
  ablations) open the same session, fail nodes through it and re-arm its
  router per measurement.
* :func:`run_rounds` — *the order of churn, repair and lookup inside a
  round*: the deterministic :func:`build_service_schedule` interleave of
  churn bursts, batched repair passes and lookup batches.  ``churn`` and
  ``maintenance-cost`` are its one-burst-per-round, repair-every-burst case.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.builder import build_ideal_network
from repro.core.failures import NodeFailureModel
from repro.core.maintenance import MaintenanceDaemon, MaintenanceReport
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.fastpath import (
    ENGINES,
    BatchGreedyRouter,
    DeltaRecorder,
    DeltaSnapshot,
    build_snapshot,
    sample_node_failures,
)
from repro.scenarios.spec import ScenarioSpec, SpecError
from repro.simulation.latency import LogNormalLatency
from repro.simulation.workload import ChurnWorkload, LookupWorkload
from repro.telemetry.core import current as telemetry_current
from repro.util.rng import derive_seed

__all__ = [
    "EngineSession",
    "IdealNetwork",
    "RoundParameters",
    "RoundRow",
    "build_service_schedule",
    "decode_round_spec",
    "query_latencies",
    "run_rounds",
]


# ---------------------------------------------------------------------------
# Engine session
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealNetwork:
    """Parameters of the paper's standard experimental network (Section 6).

    A session opened on these instead of a built system sets the network up
    itself: :func:`~repro.core.builder.build_ideal_network` on the object
    engine, the direct-to-CSR :func:`~repro.fastpath.build_snapshot` (no
    object graph at all) on the fastpath engine — the same network at the
    same ``seed``.  ``links_per_node=None`` means ``ceil(lg nodes)``.
    """

    nodes: int
    links_per_node: int | None
    seed: int


class EngineSession:
    """A router kept current with one mutating overlay, on either engine.

    ``system`` is a construction exposing the mutating
    :class:`~repro.core.graph.OverlayGraph` as ``.graph`` (the paper's
    power-law overlay), a table-backed
    :class:`~repro.overlay.protocol.Overlay` (Chord, CAN, Kleinberg,
    Plaxton), which routes with its own policy and ignores ``recovery`` and
    ``route_seed``, or the :class:`IdealNetwork` parameters of a network the
    session builds itself.  Use as a context manager: on the fastpath engine a
    :class:`~repro.fastpath.DeltaRecorder` observes the overlay from entry to
    exit, so mutate it — through its own methods, from anywhere — only inside
    the ``with`` body.

    The engine routes as asked: a graph whose metric space has no array
    mirror (anything but a ring) makes a fastpath session raise
    ``NotImplementedError`` on entry, before it observes anything.

    Attributes
    ----------
    engine:
        The engine that routes, ``"object"`` or ``"fastpath"``.
    graph:
        The overlay graph, ``None`` for table-backed overlays and for an
        :class:`IdealNetwork` on the fastpath engine.
    mirror:
        The :class:`~repro.fastpath.DeltaSnapshot` following the overlay on
        the fastpath engine, ``None`` on the object engine.
    """

    def __init__(
        self, system: Any, engine: str, recovery: RecoveryStrategy, route_seed: int
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.system = system
        self.graph = getattr(system, "graph", None)
        self.recovery = recovery
        self.route_seed = route_seed
        self.engine = engine
        self.mirror: DeltaSnapshot | None = None
        # Whoever answers labels() / revive_node(): the graph, the table-backed
        # overlay, or — for an IdealNetwork until the object engine builds
        # its graph on entry — nobody but the mirror's arrays.
        self._members: Any = None
        if not isinstance(system, IdealNetwork):
            self._members = system if self.graph is None else self.graph
        self._recorder: DeltaRecorder | None = None
        self._batch_router: BatchGreedyRouter | None = None
        self._route_one: Callable | None = None
        self._failed: Any = ()

    def __enter__(self) -> "EngineSession":
        if self.engine == "object":
            if self._members is None:
                self.graph = self._members = build_ideal_network(
                    self.system.nodes,
                    links_per_node=self.system.links_per_node,
                    seed=self.system.seed,
                ).graph
            self.rearm(self.recovery, self.route_seed)
            return self
        tel = telemetry_current()
        with tel.span("compile") if tel is not None else nullcontext():
            self.mirror = self._open_mirror()
            self.rearm(self.recovery, self.route_seed)
        if self._members is not None:
            # Attached last: nothing mutates the overlay between the compile
            # above and here, and nothing after it can fail and leak it.
            self._recorder = DeltaRecorder.attach(self._members)
        return self

    def _open_mirror(self) -> DeltaSnapshot:
        """The array mirror of :attr:`system`."""
        if self._members is None:
            return DeltaSnapshot.from_snapshot(
                build_snapshot(
                    self.system.nodes,
                    links_per_node=self.system.links_per_node,
                    seed=self.system.seed,
                )
            )
        if self.graph is None:
            return DeltaSnapshot.from_overlay(self.system)
        return DeltaSnapshot.from_graph(self.graph)

    def __exit__(self, *exc_info: object) -> None:
        if self._recorder is not None:
            self._recorder.detach()

    def rearm(
        self, recovery: RecoveryStrategy, route_seed: int, backtrack_depth: int = 5
    ) -> None:
        """Route from here on under ``recovery``, restarting the ``route_seed`` stream.

        A router construction over the topology as it stands — never a
        recompile — so one open session serves several strategies, backtracking
        depths or per-measurement seeds, each exactly like a fresh scalar
        router.  ``backtrack_depth`` is the history the BACKTRACK strategy
        keeps (the paper's 5); table-backed overlays route with their own
        policy and ignore all three.
        """
        self.recovery = recovery
        self.route_seed = route_seed
        if self.mirror is None:
            self._route_one = (
                self.system.route
                if self.graph is None
                else GreedyRouter(
                    self.graph, recovery=recovery, backtrack_depth=backtrack_depth, seed=route_seed
                ).route
            )
        elif self._members is self.system:  # table-backed: its own policy and budget
            self._batch_router = BatchGreedyRouter(
                self.mirror.snapshot(), hop_limit=self.system.hop_limit
            )
        else:
            self._batch_router = BatchGreedyRouter(
                self.mirror.snapshot(),
                recovery=recovery,
                backtrack_depth=backtrack_depth,
                seed=route_seed,
            )

    @property
    def pending_ops(self) -> int:
        """Recorded mutations the next :meth:`route` will apply."""
        return 0 if self._recorder is None else len(self._recorder)

    def live_labels(self) -> list[int]:
        """The live members lookups are drawn from, in the overlay's own order.

        That is node-table order — the order the scalar random-reroute pool
        uses, and sorted only while no join has landed out of label order.
        """
        if self._members is None:
            snapshot = self.mirror.snapshot()
            return snapshot.labels[snapshot.alive].tolist()
        return self._members.labels(only_alive=True)

    def fail_nodes(self, fraction: float, seed: int) -> None:
        """Fail exactly ``fraction`` of the live members, until :meth:`restore`.

        The same victims on either engine at the same ``seed``: a graph takes
        :class:`~repro.core.failures.NodeFailureModel` and a table-backed
        overlay its own ``fail_fraction`` (the recorder sees both), and a
        network held only as arrays — no object to observe — takes
        :func:`~repro.fastpath.sample_node_failures` as one bulk mask write.
        """
        if self.graph is not None:
            model = NodeFailureModel(fraction, seed=seed)
            model.apply(self.graph)
            self._failed = model.failed_labels
        elif self._members is None:
            snapshot = self.mirror.snapshot()
            self._failed = snapshot.labels[
                sample_node_failures(snapshot, fraction, seed=seed)
            ]
            self.mirror.crash(self._failed)
        else:
            self._failed = self.system.fail_fraction(fraction, seed=seed)

    def restore(self) -> None:
        """Revive the members the last :meth:`fail_nodes` failed."""
        if self._members is None:
            self.mirror.revive(self._failed)
        else:
            for label in self._failed:
                self._members.revive_node(label)
        self._failed = ()

    def route(self, pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        """Route ``pairs`` on the overlay as it is now.

        Returns per-query ``(success, hops)`` arrays.  The fastpath engine
        first brings its router up to date: recorded mutations are drained
        into the mirror (the one place a delta is applied), the batch router
        is rebased onto the refreshed snapshot, and the random-reroute detour
        pool is realigned.
        """
        if self._batch_router is None:
            success = np.zeros(len(pairs), dtype=bool)
            hops = np.zeros(len(pairs), dtype=np.int64)
            for index, (source, target) in enumerate(pairs):
                route = self._route_one(source, target)
                success[index] = route.success
                hops[index] = route.hops
            return success, hops
        if self._recorder is not None:
            self.mirror.apply(self._recorder.drain())
        self._batch_router.rebase(self.mirror.snapshot())
        if self.graph is not None and self.recovery is RecoveryStrategy.RANDOM_REROUTE:
            # The scalar detour pool is graph.labels(only_alive=True) in
            # node-table order, which joins take out of sorted-label order;
            # hand the batch router the same order.
            self._batch_router.reroute_pool = self.graph.labels(only_alive=True)
        result = self._batch_router.route_pairs(pairs)
        return result.success, result.hops


# ---------------------------------------------------------------------------
# Spec decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundParameters:
    """The validated knobs of one churn-driven run (see :func:`decode_round_spec`)."""

    nodes: int
    occupied: int
    links_per_node: int | None
    rounds: int
    bursts_per_round: int
    repair_every: int
    crash_fraction: float
    searches: int
    recovery: RecoveryStrategy
    engine: str
    latency_median: float
    latency_sigma: float


def decode_round_spec(
    spec: ScenarioSpec,
    rounds: int,
    bursts_per_round: int | None = None,
    repair_every: int | None = None,
) -> RoundParameters:
    """Decode and validate the spec fields every churn-driven scenario shares.

    The keyword arguments are the values used when ``spec.extras`` omits the
    key.  ``bursts_per_round`` / ``repair_every`` left at ``None`` mean the
    scenario has no burst axis: the cadence is pinned to one burst per round
    and a repair pass every burst, whatever the extras say.

    Raises
    ------
    SpecError
        Naming the dotted field, before any network is built.
    """
    # The heuristic build occupies at least four points of the ring.
    if spec.topology.nodes < 4:
        raise SpecError(f"topology.nodes must be >= 4, got {spec.topology.nodes!r}")
    occupancy = float(spec.extra("occupancy", 0.5))
    if not 0.0 < occupancy <= 1.0:
        raise SpecError(f"extras.occupancy must be in (0, 1], got {occupancy!r}")
    rounds = int(spec.extra("rounds", rounds))
    bursts_per_round = (
        1 if bursts_per_round is None
        else int(spec.extra("bursts_per_round", bursts_per_round))
    )
    repair_every = (
        1 if repair_every is None else int(spec.extra("repair_every", repair_every))
    )
    for key, value in (
        ("rounds", rounds),
        ("bursts_per_round", bursts_per_round),
        ("repair_every", repair_every),
    ):
        if value < 1:
            raise SpecError(f"extras.{key} must be >= 1, got {value!r}")
    crash_fraction = float(spec.extra("crash_fraction", 0.5))
    if not 0.0 <= crash_fraction <= 1.0:
        raise SpecError(
            f"extras.crash_fraction must be in [0, 1], got {crash_fraction!r}"
        )
    latency_sigma = float(spec.extra("latency_sigma", 0.4))
    if not (math.isfinite(latency_sigma) and latency_sigma >= 0.0):
        raise SpecError(
            f"extras.latency_sigma must be finite and >= 0, got {latency_sigma!r}"
        )
    # A median <= 0 turns latency modelling off (see query_latencies).
    latency_median = float(spec.extra("latency_median", 1.0))
    if not math.isfinite(latency_median):
        raise SpecError(
            f"extras.latency_median must be finite, got {latency_median!r}"
        )
    return RoundParameters(
        nodes=spec.topology.nodes,
        occupied=max(4, int(spec.topology.nodes * occupancy)),
        links_per_node=spec.topology.links_per_node,
        rounds=rounds,
        bursts_per_round=bursts_per_round,
        repair_every=repair_every,
        crash_fraction=crash_fraction,
        searches=spec.workload.searches,
        recovery=spec.routing.recovery_strategy(),
        engine=spec.engine,
        latency_median=latency_median,
        latency_sigma=latency_sigma,
    )


# ---------------------------------------------------------------------------
# Burst loop
# ---------------------------------------------------------------------------


def build_service_schedule(
    rounds: int,
    bursts_per_round: int,
    repair_every: int,
    events: list,
) -> list[tuple]:
    """The deterministic interleave: one op list driving the whole run.

    A *burst* is the scheduling quantum: each round is ``bursts_per_round``
    bursts, and each burst applies its slice of the churn schedule, then a
    batched repair pass when its global index hits the ``repair_every``
    cadence, then routes one lookup batch.  Returns the flat op list —
    ``("churn", round, burst, (event, ...))``, ``("repair", round, burst)``,
    ``("lookup", round, burst)`` — a pure function of its arguments, which is
    what the determinism unit test pins.

    ``events`` are :class:`~repro.simulation.workload.ChurnEvent` records
    with fractional times in ``[0, rounds)``; event ``time * bursts_per_round``
    picks the burst, clamped into range.
    """
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds!r}")
    if bursts_per_round < 1:
        raise SpecError(f"bursts_per_round must be >= 1, got {bursts_per_round!r}")
    if repair_every < 1:
        raise SpecError(f"repair_every must be >= 1, got {repair_every!r}")
    total_bursts = rounds * bursts_per_round
    buckets: dict[int, list] = {}
    for event in events:
        slot = min(total_bursts - 1, max(0, int(event.time * bursts_per_round)))
        buckets.setdefault(slot, []).append(event)
    schedule: list[tuple] = []
    for round_index in range(rounds):
        for burst_index in range(bursts_per_round):
            slot = round_index * bursts_per_round + burst_index
            burst_events = buckets.get(slot)
            if burst_events:
                schedule.append(("churn", round_index, burst_index, tuple(burst_events)))
            if (slot + 1) % repair_every == 0:
                schedule.append(("repair", round_index, burst_index))
            schedule.append(("lookup", round_index, burst_index))
    return schedule


@dataclass
class RoundRow:
    """Membership change and repair work of one round."""

    round_index: int
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    live_nodes: int = 0
    #: Departure-triggered plus periodic repair work of this round.
    repair: MaintenanceReport = field(default_factory=MaintenanceReport)

    @property
    def events(self) -> int:
        return self.joins + self.leaves + self.crashes


def run_rounds(
    build_network: Callable[..., Any],
    parameters: RoundParameters,
    churn_rate: float,
    seed: int,
    label: str,
    on_batch: Callable[[EngineSession, int, int, list], None],
) -> list[RoundRow]:
    """Drive one network through the interleaved schedule; return its rows.

    ``build_network`` is the scenario's own
    :func:`~repro.core.construction.build_heuristic_network`, called once with
    the decoded sizes.  Each burst applies its scheduled join/leave/crash
    events, runs a batched repair pass on the ``repair_every`` cadence, then
    draws ``parameters.searches`` uniform lookups between live nodes and
    reports them as ``on_batch(session, round_index, burst_index, pairs)`` —
    the hook routes them through ``session.route(pairs)`` and keeps whatever
    it measures.

    Every random stream is derived from ``seed`` under a ``"<label>-..."``
    name (``-build``, ``-route``, ``-events``, ``-lookups``), so a run is a
    pure function of its arguments and identical on both engines.
    """
    tel = telemetry_current()
    with tel.span("build") if tel is not None else nullcontext():
        construction = build_network(
            parameters.nodes,
            occupied=parameters.occupied,
            links_per_node=parameters.links_per_node,
            seed=derive_seed(seed, f"{label}-build"),
        )
    graph = construction.graph
    daemon = MaintenanceDaemon(construction)

    members = sorted(graph.labels())
    events: list = []
    if churn_rate > 0:
        workload = ChurnWorkload(
            space_size=parameters.nodes,
            join_rate=max(churn_rate * len(members) / 2.0, 1e-9),
            leave_rate=max(churn_rate * len(members) / 2.0, 1e-9),
            crash_fraction=parameters.crash_fraction,
            seed=derive_seed(seed, f"{label}-events"),
        )
        events = workload.schedule(
            duration=float(parameters.rounds), initial_members=members
        )
    schedule = build_service_schedule(
        parameters.rounds, parameters.bursts_per_round, parameters.repair_every, events
    )

    lookups = LookupWorkload(seed=derive_seed(seed, f"{label}-lookups"))
    rows = [RoundRow(round_index=index) for index in range(parameters.rounds)]
    with EngineSession(
        construction,
        parameters.engine,
        parameters.recovery,
        derive_seed(seed, f"{label}-route"),
    ) as session:
        for op in schedule:
            row = rows[op[1]]
            if op[0] == "churn":
                for event in op[3]:
                    if event.action == "join" and not graph.has_node(event.address):
                        construction.add_point(event.address)
                        row.joins += 1
                    elif event.action == "leave" and graph.has_node(event.address):
                        row.repair = row.repair.merge(
                            daemon.handle_departure(event.address)
                        )
                        row.leaves += 1
                    elif event.action == "crash" and graph.is_alive(event.address):
                        graph.fail_node(event.address)
                        row.crashes += 1
            elif op[0] == "repair":
                row.repair = row.repair.merge(daemon.repair_all_batched())
            else:  # lookup
                live = sorted(session.live_labels())
                row.live_nodes = len(live)
                if len(live) >= 2 and parameters.searches > 0:
                    on_batch(session, op[1], op[2], lookups.pairs(live, parameters.searches))
    return rows


def query_latencies(
    successful_hops: np.ndarray, parameters: RoundParameters, seed: int
) -> list[float]:
    """Per-query end-to-end latencies under the log-normal per-hop model.

    Draws are consumed in query order (hop by hop), so the list — and every
    mean or quantile over it — is deterministic in ``seed`` and identical
    across engines whenever the hop counts are.  Empty when nothing was
    delivered or ``latency_median <= 0`` (latency modelling off).
    """
    if successful_hops.size == 0 or parameters.latency_median <= 0:
        return []
    model = LogNormalLatency(
        median=parameters.latency_median, sigma=parameters.latency_sigma, seed=seed
    )
    hop_counts = np.asarray(successful_hops, dtype=np.int64)
    draws = model.sample(int(hop_counts.sum()))
    # Each query's hops are summed left to right in plain double arithmetic,
    # bit for bit what a per-hop scalar ``total += hop`` loop gives (and what
    # the builtin sum gives up to Python 3.11; 3.12 compensates).  Per-segment
    # numpy sums (np.add.reduceat, np.sum) add pairwise and can differ in the
    # last ulp, so the draws go into a zero-padded queries x max-hops grid —
    # row-major order is query order, hop order — and the grid is added one
    # column at a time; adding the 0.0 padding leaves a sum unchanged.
    width = int(hop_counts.max())
    grid = np.zeros((hop_counts.size, width))
    grid[np.arange(width) < hop_counts[:, None]] = draws
    totals = np.zeros(hop_counts.size)
    for column in grid.T:
        totals += column
    return totals.tolist()
