"""Output checks: the drivers' results against the scalar oracle.

Each check runs the *same driver code* the measurement runs, at a size the
object engine can redo lookup by lookup (ring 2^10, protocols 2^8), records
every delta and every routed batch, replays them through the scalar oracle —
``GreedyRouter`` on ``build_ideal_network`` for the ring, each protocol's own
``route()`` — and requires ``success``, ``hops`` and the final node of every
lookup to be equal.  Returns the names of the checks that passed; raises
``AssertionError`` on the first difference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

from repro.core.builder import build_ideal_network
from repro.core.failures import NodeFailureModel
from repro.core.routing import GreedyRouter
from repro.fastpath.delta import OP_FAIL, OP_LINK_FAIL, OP_LINK_REVIVE, OP_REVIVE

import workloads


class Replay:
    """What a driver did, in order, for the oracle to redo."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def delta(self, delta) -> None:
        self.events.append(("delta", delta))

    def routed(self, router, result) -> None:
        self.events.append(("route", router, result))


@contextlib.contextmanager
def _driven(name: str, seed: int, with_side: bool):
    """The workload after one episode at check size, and the log of what it did."""
    workload = workloads.make(name, seed, "check")
    replay = workload.observer = Replay()
    try:
        workload.setup()
        workload.cold()
        workload.sustain(0.0, workload.new_samples())
        if with_side:
            workload.side(0.0)
            workload.more_cold()
        yield workload, replay
    finally:
        workload.close()


def _same(result, routes, context: str) -> None:
    for index, route in enumerate(routes):
        got = (bool(result.success[index]), int(result.hops[index]), int(result.final[index]))
        want = (route.success, route.hops, int(route.path[-1]))
        if got != want:
            raise AssertionError(
                f"{context}: lookup {int(result.sources[index])}->{int(result.targets[index])} "
                f"(success, hops, final) = {got}, oracle {want}"
            )


def _pairs(result) -> list[tuple[int, int]]:
    return list(zip(result.sources.tolist(), result.targets.tolist()))


def _replay_on_graph(replay: Replay, graph, symmetric: bool, context: str) -> int:
    """Redo the log on the object graph: one scalar router per batch router,
    fed the same batches in the same order (one re-route stream each)."""
    apply_op = {
        OP_FAIL: lambda op: graph.fail_node(op[1]),
        OP_REVIVE: lambda op: graph.revive_node(op[1]),
        OP_LINK_FAIL: lambda op: graph.fail_long_link(op[1], op[2]),
        OP_LINK_REVIVE: lambda op: graph.revive_long_link(op[1], op[2]),
    }
    scalars: dict[int, GreedyRouter] = {}
    lookups = 0
    for event in replay.events:
        if event[0] == "delta":
            for op in event[1].ops:
                apply_op[op[0]](op)
            continue
        _kind, router, result = event
        scalar = scalars.get(id(router))
        if scalar is None:
            scalar = scalars[id(router)] = GreedyRouter(
                graph,
                recovery=router.recovery,
                backtrack_depth=router.backtrack_depth,
                symmetric_neighbors=symmetric,
                seed=router.seed,
            )
        _same(result, scalar.route_many(_pairs(result)), f"{context} {router.recovery.value}")
        lookups += len(result)
    return lookups


def check_ring(name: str, seed: int) -> list[str]:
    with _driven(name, seed, with_side=True) as (workload, replay):
        graph = build_ideal_network(workload.size["ring_n"], seed=workloads.TOPOLOGY_SEED).graph
        if workload.failed:
            NodeFailureModel(workloads.FAILURE_LEVEL, seed=seed).apply(graph)
            if sorted(graph.labels(only_alive=True)) != workload.live.tolist():
                raise AssertionError(f"{name}: failed set differs from the object failure model")
        lookups = _replay_on_graph(replay, graph, symmetric=True, context=name)
    strategies = sorted({e[1].recovery.value for e in replay.events if e[0] == "route"})
    return [f"oracle hop-for-hop: {lookups} lookups, recovery {'/'.join(strategies)}"]


def check_service_liveness(name: str, seed: int) -> list[str]:
    # setup() asserts arena == heap; sustain() ends with the mirror-vs-
    # bookkeeping check.  side() routes on the pristine arena while the
    # replayed graph is mid-schedule, so it is left to the measured run.
    with _driven(name, seed, with_side=False) as (workload, replay):
        graph = build_ideal_network(workload.n, seed=workloads.TOPOLOGY_SEED).graph
        lookups = _replay_on_graph(replay, graph, symmetric=False, context=name)
    kinds = sorted({op[0] for e in replay.events if e[0] == "delta" for op in e[1].ops})
    if kinds != sorted((OP_FAIL, OP_REVIVE, OP_LINK_FAIL, OP_LINK_REVIVE)):
        raise AssertionError(f"{name}: the check schedule did not cover every op kind ({kinds})")
    return [
        "arena snapshot field-identical to heap",
        "mirror alive/edge_alive equal the generator's bookkeeping",
        f"oracle hop-for-hop through crash/link-fail/revive deltas: {lookups} lookups",
    ]


def check_protocol_mix(name: str, seed: int) -> list[str]:
    with _driven(name, seed, with_side=True) as (workload, replay):
        # Cold samples route on fresh copies of the snapshots, which share
        # the originals' label arrays.
        protocol_of = {id(r.snapshot.labels): key for key, r in workload.routers.items()}
        lookups = 0
        for _kind, router, result in replay.events:
            protocol = protocol_of[id(router.snapshot.labels)]
            system = workload.systems[protocol]
            _same(result, [system.route(s, t) for s, t in _pairs(result)], f"{name} {protocol}")
            lookups += len(result)
    return [f"oracle hop-for-hop: {lookups} lookups over {'/'.join(sorted(protocol_of.values()))}"]


def check_service_structural(name: str, seed: int) -> list[str]:
    workload = workloads.make(name, seed, "check")
    workload.setup()
    tables = {}
    for engine in ("object", "fastpath"):
        spec = dataclasses.replace(workload.spec, engine=engine, seed=seed)
        result = workload.scenarios.run(spec)
        if result.engine_used != engine:
            raise AssertionError(f"{name}: engine {engine} ran as {result.engine_used}")
        tables[engine] = json.dumps(
            [table.to_json_dict() for table in result.tables], sort_keys=True
        )
    if tables["object"] != tables["fastpath"]:
        raise AssertionError(f"{name}: object and fastpath engines produced different tables")
    return [f"engine=object and engine=fastpath tables JSON-identical at nodes={spec.topology.nodes}"]


CHECKS = {
    "ring-static": check_ring,
    "ring-failed": check_ring,
    "service-liveness": check_service_liveness,
    "service-structural": check_service_structural,
    "protocol-mix": check_protocol_mix,
}


def run(name: str, seed: int) -> list[str]:
    return CHECKS[name](name, seed)
