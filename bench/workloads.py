"""The five workload drivers.

Each driver calls the layers' public functions the way the scenarios do —
closed loop, one client, batch-synchronous — and times those calls from
outside.  Load is drawn here, outside timed regions, from
``spawn_rng(seed, "bench", workload, stream)``; the program receives only the
generated arrays.

The overlays of the array-native workloads are fixtures, built from
``TOPOLOGY_SEED`` just as their sizes are fixed: the width of the dense routing
matrices follows the widest hub row, which moves by several percent from one
topology seed to the next and would drown a 5 % routing change.  ``--seed``
drives everything that is load: lookup pairs, the failed set, the delta
schedule.  ``service-structural`` draws its overlay, churn and lookups from
the one seed in its spec, so its whole scenario is a fixture (its bytes per
node follow the hub row too: 550 to 640 B over ten seeds at 2048 nodes) and
``--seed`` drives its output check.

A run is a few *episodes*.  An episode is ``setup()`` (everything before the
first timed call), ``cold()`` (the first timed call: derived state does not
exist yet), ``warm_up()`` and a slice of the sustained phase —
``sustain(seconds, samples)``, a repetition of one *unit* — then ``close()``.
Rebuilding inside one process gives several set-up samples, and spreads the
sustained phase over several placements of the same arrays in memory: on a
shared host one placement is as much as 10 % faster than the next.  After the
last episode come ``side(seconds)`` (phases that feed their own metrics) and
``more_cold()`` (further cold samples).
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import repro.fastpath as fastpath
from repro.core.routing import RecoveryStrategy
from repro.fastpath import BatchGreedyRouter, DeltaSnapshot, SnapshotArena, SnapshotDelta
from repro.fastpath.delta import (
    OP_FAIL,
    OP_LINK_FAIL,
    OP_LINK_REVIVE,
    OP_REVIVE,
    assert_snapshots_identical,
)

from load import (
    Deadline,
    Samples,
    derived_nbytes,
    draw_pairs,
    fresh_copy,
    median,
    median_ms,
    percentile,
    quiet,
    stream,
    timed_route,
)
from spans import Target, duration, durations, named, self_by_name, self_times

TOPOLOGY_SEED = 11
FAILURE_LEVEL = 0.3
BACKTRACK_DEPTH = 5

#: Workload sizes.  ``smoke`` keeps every code path and shrinks every count;
#: ``check`` is what the scalar oracle can redo lookup by lookup.
SIZES = {
    "full": {
        "ring_n": 1 << 17, "ring_batch": 10_000, "failed_batch": 2_000,
        "service_n": 1 << 18, "service_batch": 10_000, "node_ops": 512, "link_ops": 2_000,
        "worker_warm": 15,
        "structural": {"nodes": 1024, "rounds": 8, "searches": 1000},
        "structural_runs": 3, "structural_warm": 1,
        "chord_bits": 14, "kleinberg_side": 64, "kleinberg_links": 12,
        "can_side": 128, "plaxton_digits": 7, "protocol_batch": 10_000,
        "min_batches": 12, "warm_batches": 3, "more_cold": 12,
    },
    "check": {
        "ring_n": 1 << 10, "ring_batch": 100, "failed_batch": 100,
        "service_n": 1 << 10, "service_batch": 100, "node_ops": 16, "link_ops": 32,
        "worker_warm": 1,
        "structural": {"nodes": 512, "rounds": 2, "searches": 100},
        "structural_runs": 1, "structural_warm": 0,
        "chord_bits": 8, "kleinberg_side": 16, "kleinberg_links": 8,
        "can_side": 16, "plaxton_digits": 4, "protocol_batch": 100,
        "min_batches": 4, "warm_batches": 0, "more_cold": 1,
    },
    "smoke": {
        "ring_n": 1 << 10, "ring_batch": 500, "failed_batch": 500,
        "service_n": 1 << 10, "service_batch": 500, "node_ops": 16, "link_ops": 32,
        "worker_warm": 3,
        "structural": {"nodes": 512, "rounds": 2, "searches": 100},
        "structural_runs": 2, "structural_warm": 0,
        "chord_bits": 8, "kleinberg_side": 16, "kleinberg_links": 8,
        "can_side": 16, "plaxton_digits": 4, "protocol_batch": 500,
        "min_batches": 12, "warm_batches": 3, "more_cold": 1,
    },
}

# The entry points the traced run wraps, by layer.
_SNAPSHOT = "repro.fastpath.snapshot"
_ROUTER = "repro.fastpath.batch_router"
_DELTA = "repro.fastpath.delta"
ROUTER_TARGETS = (
    Target("snapshot.routing_matrices", _SNAPSHOT, "FastpathSnapshot", "routing_matrices"),
    Target("router.route_batch", _ROUTER, "BatchGreedyRouter", "route_batch"),
    Target("router.rebase", _ROUTER, "BatchGreedyRouter", "rebase"),
)
BUILD_TARGETS = (
    Target("builder.build_snapshot", "repro.fastpath", None, "build_snapshot"),
    Target("failures.apply_node_failures", "repro.fastpath", None, "apply_node_failures"),
)
DELTA_TARGETS = (
    Target("delta.apply", _DELTA, "DeltaSnapshot", "apply"),
    Target("delta.snapshot", _DELTA, "DeltaSnapshot", "snapshot"),
    Target("delta.from_snapshot", _DELTA, "DeltaSnapshot", "from_snapshot"),
    Target("delta.from_graph", _DELTA, "DeltaSnapshot", "from_graph"),
    Target("delta.drain", _DELTA, "DeltaRecorder", "drain"),
)
SHM_TARGETS = (
    Target("shm.create", "repro.fastpath.shm", "SnapshotArena", "create"),
    Target("shm.attach", "repro.fastpath.shm", "SnapshotArena", "attach"),
)
CORE_TARGETS = (
    Target("core.build", "repro.scenarios.service", None, "build_heuristic_network"),
    Target("core.mutate", "repro.core.construction", "HeuristicConstruction", "add_point"),
    Target("core.mutate", "repro.core.maintenance", "MaintenanceDaemon", "handle_departure"),
    Target("core.mutate", "repro.core.graph", "OverlayGraph", "fail_node"),
    Target("core.repair", "repro.core.maintenance", "MaintenanceDaemon", "repair_all_batched"),
    Target("simulation.pairs", "repro.simulation.workload", "LookupWorkload", "pairs"),
    Target("scenarios.run", "repro.scenarios", None, "run"),
)
PROTOCOL_CLASSES = {
    "chord": ("repro.baselines.chord", "ChordNetwork"),
    "kleinberg": ("repro.baselines.kleinberg_grid", "KleinbergGridNetwork"),
    "can": ("repro.baselines.can", "CanNetwork"),
    "plaxton": ("repro.baselines.plaxton", "PlaxtonNetwork"),
}
OVERLAY_TARGETS = tuple(
    Target(f"overlay.{name}.construct", module, cls, "__init__")
    for name, (module, cls) in PROTOCOL_CLASSES.items()
) + (Target("snapshot.compile", "repro.overlay.mixin", "OverlayMixin", "compile_snapshot"),)


def _router_layer(reference: Samples, traced: Samples, spans: list[dict]) -> dict[str, float]:
    """Router metrics every workload shares."""
    own = self_times(spans)
    batches = [own[s["id"]] for s in named(spans, "router.route_batch", "sustain")]
    return {
        "failed_share": 1.0 - reference.delivered / reference.lookups,
        "router.warm_batch_ms_p50": median_ms(batches),
        "router.hops_per_lookup": traced.hops / traced.lookups,
        "router.ns_per_hop": 1e9 * traced.seconds / traced.hops,
        "router.delivered_share": traced.delivered / traced.lookups,
        "router.backtracks_per_lookup": traced.backtracks / traced.lookups,
    }


def _snapshot_layer(snapshots: list, spans: list[dict]) -> dict[str, float]:
    nodes = sum(s.num_nodes for s in snapshots)
    # A cached routing_matrices() call returns in microseconds; the
    # derivations are the calls that took real time.
    derivations = [d for d in durations(spans, "snapshot.routing_matrices") if d > 1e-4]
    return {
        "snapshot.matrices_ms": median_ms(derivations),
        "snapshot.nbytes_per_node": sum(fastpath.snapshot_nbytes(s) for s in snapshots) / nodes,
        "snapshot.derived_nbytes_per_node": sum(derived_nbytes(s) for s in snapshots) / nodes,
        "snapshot.max_degree": float(max(int(s.degrees().max()) for s in snapshots)),
    }


class Workload:
    """Shared driver plumbing; see the module docstring for the life cycle."""

    targets: tuple[Target, ...] = ()
    #: Share of ``--seconds`` the sustained phase gets; ``side()`` gets the rest.
    sustain_share = 1.0
    #: One unit is what the sustained phase repeats: a batch, a round of
    #: refresh + batches, a four-protocol cycle, a scenario run.
    batches_per_unit = 1
    #: False when every unit builds its own overlay, so that rebuilding
    #: between slices of the sustained phase would add nothing.
    rebuilds = True

    def __init__(self, name: str, seed: int, size: str, tracer=None) -> None:
        self.name = name
        self.seed = seed
        self.size = SIZES[size]
        self.tracer = tracer
        self.cold_ms: list[float] = []
        #: Lookups routed outside the sustained phase's samples.
        self.other_lookups = 0
        self.other_violations = 0
        #: The output checks' replay log: told about every delta and batch.
        self.observer = None

    # -- plumbing ----------------------------------------------------------

    def new_samples(self) -> Samples:
        return Samples()

    def _request(self, value) -> None:
        if self.tracer is not None:
            self.tracer.request = value

    def _route(self, router, sources, targets, samples: Samples):
        return timed_route(router, sources, targets, samples, self.observer)

    def _discard(self, samples: Samples) -> None:
        """Routed, checked, but part of no sustained-phase metric."""
        self.other_lookups += samples.lookups
        self.other_violations += samples.violations

    @property
    def min_units(self) -> int:
        """Units every sustained slice issues, however short its time budget."""
        return -(-self.size["min_batches"] // self.batches_per_unit)

    @property
    def warm_units(self) -> int:
        """Units issued and discarded before a sustained slice starts."""
        return -(-self.size["warm_batches"] // self.batches_per_unit)

    # -- life cycle --------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def cold(self) -> None:
        pass

    def _unit(self, samples: Samples) -> None:
        raise NotImplementedError

    def sustain(self, seconds: float, samples: Samples, minimum: int | None = None) -> None:
        """Repeat the unit for ``seconds``, and at least ``minimum`` times."""
        deadline = Deadline(seconds, self.min_units if minimum is None else minimum)
        done = 0
        while deadline.more(done):
            self._unit(samples)
            done += 1

    def warm_up(self) -> None:
        """Let heap growth and lazy set-up finish before anything is timed."""
        discarded = self.new_samples()
        self.sustain(0.0, discarded, self.warm_units)
        self._discard(discarded)

    def side(self, seconds: float) -> None:
        pass

    def more_cold(self) -> None:
        pass

    def close(self) -> None:
        """Release what ``setup()`` made; safe before it and after itself."""

    # -- results -----------------------------------------------------------

    def snapshots(self) -> list:
        """The snapshots routed on, for the memory metrics."""
        raise NotImplementedError

    def end_to_end(self, samples: Samples) -> dict[str, float]:
        """What the sustained phase and the cold samples showed (the harness adds set-up, RSS)."""
        total = sum(fastpath.snapshot_nbytes(s) + derived_nbytes(s) for s in self.snapshots())
        return {
            "lookups_per_s": samples.rate(),
            "batch_ms_p10": quiet(samples.batch_ms),
            "batch_ms_p50": median(samples.batch_ms),
            "batch_ms_p90": percentile(samples.batch_ms, 90),
            "cold_batch_ms_p10": quiet(self.cold_ms),
            "cold_batch_ms_p50": median(self.cold_ms),
            "delivered_share": samples.delivered / samples.lookups,
            "bytes_per_node": total / sum(s.num_nodes for s in self.snapshots()),
        }

    def per_layer(self, reference, traced, spans) -> dict[str, float]:
        raise NotImplementedError

    def digest(self, samples: Samples) -> str:
        return samples.digest.hexdigest()


# ---------------------------------------------------------------------------
# ring-static / ring-failed
# ---------------------------------------------------------------------------


class Ring(Workload):
    """The paper's power-law ring: forward routing, or recovery at 30 % failures."""

    targets = BUILD_TARGETS + ROUTER_TARGETS

    def __init__(self, name, seed, size, tracer=None) -> None:
        super().__init__(name, seed, size, tracer)
        self.failed = name == "ring-failed"
        self.sustain_share = 0.7 if self.failed else 1.0
        self.batch = self.size["failed_batch" if self.failed else "ring_batch"]
        self.recovery = RecoveryStrategy.BACKTRACK if self.failed else RecoveryStrategy.TERMINATE
        self.pairs = stream(seed, name, "pairs")
        self.phases: dict[str, Samples] = {}

    def setup(self) -> None:
        snapshot = fastpath.build_snapshot(
            self.size["ring_n"], seed=TOPOLOGY_SEED, symmetric_neighbors=True
        )
        if self.failed:
            snapshot = fastpath.apply_node_failures(snapshot, FAILURE_LEVEL, seed=self.seed)
        self.snapshot = snapshot
        self.live = np.asarray(snapshot.labels)[snapshot.alive]
        self.router = self._router(snapshot, self.recovery)

    def close(self) -> None:
        self.snapshot = self.live = self.router = None

    def _router(self, snapshot, recovery: RecoveryStrategy) -> BatchGreedyRouter:
        return BatchGreedyRouter(
            snapshot, recovery=recovery, backtrack_depth=BACKTRACK_DEPTH, seed=self.seed
        )

    def snapshots(self) -> list:
        return [self.snapshot]

    def _cold_router(self, router) -> None:
        """First batch of a router whose derived state does not exist yet."""
        first = Samples()
        self._request("cold")
        self._route(router, *draw_pairs(self.pairs, self.live, self.batch), first)
        self.cold_ms.append(first.batch_ms[0])
        self._discard(first)

    def cold(self) -> None:
        self._cold_router(self.router)

    def more_cold(self) -> None:
        for _ in range(self.size["more_cold"]):
            self._cold_router(self._router(fresh_copy(self.snapshot), self.recovery))

    def _batch(self, router, samples: Samples, label: str, pairs) -> None:
        sources, targets = draw_pairs(pairs, self.live, self.batch)
        self._request(f"{label}:{len(samples.batch_s)}")
        self._route(router, sources, targets, samples)

    def _unit(self, samples: Samples) -> None:
        self._batch(self.router, samples, "batch", self.pairs)

    def side(self, seconds: float) -> None:
        """The two other recovery strategies on the same failed ring."""
        if not self.failed:
            return
        for key, recovery in (
            ("terminate", RecoveryStrategy.TERMINATE),
            ("reroute", RecoveryStrategy.RANDOM_REROUTE),
        ):
            router = self._router(self.snapshot, recovery)
            # Its own stream: the main phase is time-bounded, and what it
            # drew must not decide what this phase routes (the digest).
            pairs = stream(self.seed, self.name, "pairs", key)
            # Each router folds its own usable matrix on its first batch;
            # that is the cold metric's business, not this phase's.
            discarded = Samples()
            for _ in range(1 + self.warm_units):
                self._batch(router, discarded, f"{key}-warm", pairs)
            samples = self.phases[key] = Samples()
            deadline = Deadline(seconds / 2, self.min_units)
            while deadline.more(len(samples.batch_s)):
                self._batch(router, samples, key, pairs)
            self._discard(discarded)
            self._discard(samples)

    def digest(self, samples: Samples) -> str:
        joined = hashlib.sha256(samples.digest.digest())
        for key in sorted(self.phases):
            joined.update(self.phases[key].digest.digest())
        return joined.hexdigest()

    def per_layer(self, reference, traced, spans) -> dict[str, float]:
        build = median(durations(spans, "builder.build_snapshot"))
        strategy = "backtrack" if self.failed else "terminate"
        out = {
            "builder.build_s": build,
            "builder.nodes_per_s": self.size["ring_n"] / build,
            **_snapshot_layer(self.snapshots(), spans),
            **_router_layer(reference, traced, spans),
            f"router.{strategy}.lookups_per_s": traced.rate(),
        }
        if self.failed:
            out["failures.apply_ms"] = median_ms(durations(spans, "failures.apply_node_failures"))
            out["router.terminate.lookups_per_s"] = self.phases["terminate"].rate()
            out["router.reroute.lookups_per_s"] = self.phases["reroute"].rate()
            out["router.reroutes_per_lookup"] = (
                self.phases["reroute"].reroutes / self.phases["reroute"].lookups
            )
        return out


# ---------------------------------------------------------------------------
# service-liveness
# ---------------------------------------------------------------------------


@dataclass
class ServiceSamples(Samples):
    round_s: list[float] = field(default_factory=list)
    refresh_s: list[float] = field(default_factory=list)
    apply_s: list[float] = field(default_factory=list)
    snapshot_s: list[float] = field(default_factory=list)
    rebase_s: list[float] = field(default_factory=list)
    post_rebase_s: list[float] = field(default_factory=list)
    warm_s: list[float] = field(default_factory=list)
    #: Each round's place in the cadence (which kind of delta it applied).
    round_kind: list[int] = field(default_factory=list)
    ops: int = 0

    @property
    def unit_s(self) -> list[float]:
        return self.round_s

    def unit_level(self, estimator) -> float:
        """Mean over the kinds of round of ``estimator`` over that kind's rounds.

        The kinds cost different amounts (the delta's size, an edge mask to
        fold or none), so a percentile over all rounds sits on the boundary
        between two levels and flips between them from run to run.
        """
        by_kind: dict[int, list[float]] = {}
        for kind, seconds in zip(self.round_kind, self.round_s):
            by_kind.setdefault(kind, []).append(seconds)
        return sum(estimator(v) for v in by_kind.values()) / len(by_kind)


def worker_task(payload: tuple) -> dict:
    """Fan-out worker: map the arena (cached per process), route cold then warm."""
    spec, seed, index, batch, warm_minimum, seconds = payload
    started = time.perf_counter()
    arena = fastpath.cached_attach(spec)
    snapshot = arena.snapshot()
    attach_s = time.perf_counter() - started
    rng = stream(seed, "service-liveness", "worker", index)
    labels = np.asarray(snapshot.labels)  # the arena holds the pristine ring
    router = BatchGreedyRouter(snapshot, seed=seed + index)
    cold = Samples()
    timed_route(router, *draw_pairs(rng, labels, batch), cold)
    warm = Samples()
    deadline = Deadline(seconds, warm_minimum)
    while deadline.more(len(warm.batch_s)):
        timed_route(router, *draw_pairs(rng, labels, batch), warm)
    del router, snapshot
    fastpath.snapshot_cache_clear()  # closes this process's mapping of the arena
    return {
        "attach_ms": 1e3 * attach_s,
        "cold_ms": cold.batch_ms[0],
        "warm_s": warm.batch_s,
        "warm_rate": warm.rate(),
        "lookups": cold.lookups + warm.lookups,
        "violations": cold.violations + warm.violations,
    }


class ServiceLiveness(Workload):
    """Lookups from a shared-memory arena while liveness deltas land every round."""

    targets = BUILD_TARGETS + ROUTER_TARGETS + DELTA_TARGETS + SHM_TARGETS
    sustain_share = 0.65
    batches_per_unit = 3
    #: Crash, link-fail, crash, revive everything: the schedule's period.
    CADENCE = 4

    def __init__(self, name, seed, size, tracer=None) -> None:
        super().__init__(name, seed, size, tracer)
        self.n = self.size["service_n"]
        self.labels = np.arange(self.n, dtype=np.int64)
        self.pairs = stream(seed, name, "pairs")
        self.faults = stream(seed, name, "faults")
        self.arena = self.attached = None
        self.workers: list[dict] = []

    def new_samples(self) -> ServiceSamples:
        return ServiceSamples()

    def setup(self) -> None:
        heap = fastpath.build_snapshot(self.n, seed=TOPOLOGY_SEED, symmetric_neighbors=False)
        self.arena = SnapshotArena.create(heap)
        self.attached = SnapshotArena.attach(self.arena.spec)
        self.shared = self.attached.snapshot()
        assert_snapshots_identical(self.shared, heap, "arena vs heap")
        self.mirror = DeltaSnapshot.from_snapshot(self.shared)
        self.router = BatchGreedyRouter(self.mirror.snapshot(), seed=self.seed)
        # The generator's own record of what it killed; the mirror is checked
        # against it.
        self.alive = np.ones(self.n, dtype=bool)
        self.dead_links: set[tuple[int, int]] = set()
        self.round_index = 0

    def close(self) -> None:
        self.router = self.mirror = self.shared = None
        if self.attached is not None:
            self.attached.close()
            self.attached = None
        if self.arena is not None:
            segment = self.arena.name
            self.arena.close()
            self.arena.unlink()
            self.arena = None
            if os.path.exists(os.path.join("/dev/shm", segment.lstrip("/"))):
                raise AssertionError(f"shared-memory segment {segment} was left behind")

    def snapshots(self) -> list:
        return [self.shared]

    def _pristine_pairs(self):
        return draw_pairs(self.pairs, self.labels, self.size["service_batch"])

    def _cold_sample(self) -> None:
        """Fresh attach, new router, first batch: nothing derived exists yet."""
        sources, targets = self._pristine_pairs()
        sample = Samples()
        self._request("cold")
        started = time.perf_counter()
        arena = SnapshotArena.attach(self.arena.spec)
        router = BatchGreedyRouter(arena.snapshot(), seed=self.seed)
        result = router.route_batch(sources, targets)
        elapsed = time.perf_counter() - started
        sample.add(result, elapsed)
        if self.observer is not None:
            self.observer.routed(router, result)
        del router, result
        arena.close()
        self.cold_ms.append(1e3 * elapsed)
        self._discard(sample)

    def cold(self) -> None:
        self._cold_sample()
        # The serving router's own matrices: derived once, before steady state.
        discarded = Samples()
        self._route(self.router, *self._pristine_pairs(), discarded)
        self._discard(discarded)

    def more_cold(self) -> None:
        for _ in range(self.size["more_cold"]):
            self._cold_sample()

    def _delta(self) -> SnapshotDelta:
        """This round's delta: crash, link-fail, crash, revive everything."""
        kind = self.round_index % self.CADENCE
        rng = self.faults
        if kind in (0, 2):
            victims = rng.choice(np.flatnonzero(self.alive), size=self.size["node_ops"], replace=False)
            self.alive[victims] = False
            return SnapshotDelta(ops=[(OP_FAIL, int(v)) for v in victims])
        if kind == 1:
            indptr = self.shared.neighbor_indptr
            indices = self.shared.neighbor_indices
            ops = []
            for holder in rng.integers(0, self.n, size=self.size["link_ops"]).tolist():
                start, stop = int(indptr[holder]), int(indptr[holder + 1])
                target = int(indices[start + int(rng.integers(0, stop - start))])
                # Long links only: the ring's own successor/predecessor edges
                # are not part of the link-failure model.
                gap = abs(target - holder)
                if min(gap, self.n - gap) <= 1 or (holder, target) in self.dead_links:
                    continue
                self.dead_links.add((holder, target))
                ops.append((OP_LINK_FAIL, holder, target))
            return SnapshotDelta(ops=ops)
        ops = [(OP_REVIVE, int(v)) for v in np.flatnonzero(~self.alive)]
        ops += [(OP_LINK_REVIVE, h, t) for h, t in sorted(self.dead_links)]
        self.alive[:] = True
        self.dead_links.clear()
        return SnapshotDelta(ops=ops)

    @property
    def min_units(self) -> int:
        # Whole cadences: every slice sees each kind of delta equally often.
        return -(-super().min_units // self.CADENCE) * self.CADENCE

    @property
    def warm_units(self) -> int:
        # A crash round and a link-fail round: both lazy paths (usable fold,
        # the mirror's first edge mask) have run before anything is timed.
        return 2 if self.size["warm_batches"] else 0

    def _unit(self, samples: ServiceSamples) -> None:
        """One round: the delta lands, the router follows, three batches route."""
        delta = self._delta()
        if self.observer is not None:
            self.observer.delta(delta)
        self._request(f"round:{self.round_index}")
        t0 = time.perf_counter()
        self.mirror.apply(delta)
        t1 = time.perf_counter()
        snapshot = self.mirror.snapshot()
        t2 = time.perf_counter()
        self.router.rebase(snapshot)
        t3 = time.perf_counter()
        samples.apply_s.append(t1 - t0)
        samples.snapshot_s.append(t2 - t1)
        samples.rebase_s.append(t3 - t2)
        samples.refresh_s.append(t3 - t0)
        samples.ops += len(delta)
        live = self.labels[self.alive]
        routed = 0.0
        for index in range(self.batches_per_unit):
            sources, targets = draw_pairs(self.pairs, live, self.size["service_batch"])
            self._route(self.router, sources, targets, samples)
            routed += samples.batch_s[-1]
            (samples.post_rebase_s if index == 0 else samples.warm_s).append(samples.batch_s[-1])
        samples.round_s.append((t3 - t0) + routed)
        samples.round_kind.append(self.round_index % self.CADENCE)
        self.round_index += 1

    def sustain(self, seconds, samples: ServiceSamples, minimum: int | None = None) -> None:
        super().sustain(seconds, samples, minimum)
        final = self.mirror.snapshot()
        if not np.array_equal(final.alive, self.alive):
            raise AssertionError("mirror alive mask differs from the generator's bookkeeping")
        dead_edges = 0 if final.edge_alive is None else int(np.count_nonzero(~final.edge_alive))
        if dead_edges != len(self.dead_links):
            raise AssertionError(
                f"mirror has {dead_edges} dead edges, the generator failed {len(self.dead_links)}"
            )

    def side(self, seconds: float) -> None:
        """Fan-out: spawn workers map the same segment and route on it."""
        count = min(2, os.cpu_count() or 1)
        payloads = [
            (
                self.arena.spec, self.seed, index, self.size["service_batch"],
                self.size["worker_warm"], seconds,
            )
            for index in range(count)
        ]
        # Spawned workers start from a fresh import with an empty attach
        # cache: the cold-worker story, and safe whatever threads exist here.
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=count, mp_context=context) as pool:
            self.workers = list(pool.map(worker_task, payloads))
        for worker in self.workers:
            self.other_lookups += worker["lookups"]
            self.other_violations += worker["violations"]

    def per_layer(self, reference, traced, spans) -> dict[str, float]:
        build = median(durations(spans, "builder.build_snapshot"))
        warm = median_ms(traced.warm_s)
        post = median_ms(traced.post_rebase_s)
        return {
            "round_ms_p50": 1e3 * reference.unit_level(median),
            "refresh_ms_p50": median_ms(reference.refresh_s),
            "worker_lookups_per_s": sum(w["warm_rate"] for w in self.workers),
            "builder.build_s": build,
            "builder.nodes_per_s": self.n / build,
            **_snapshot_layer(self.snapshots(), spans),
            **_router_layer(reference, traced, spans),
            # Here "warm" is narrower than a span can tell: not after a rebase.
            "router.warm_batch_ms_p50": warm,
            "router.post_rebase_batch_ms_p50": post,
            "router.usable_fold_ms": post - warm,
            "router.rebase_ms_p50": median_ms(traced.rebase_s),
            "router.terminate.lookups_per_s": traced.lookups / traced.seconds,
            "delta.apply_ms_p50": median_ms(traced.apply_s),
            "delta.apply_us_per_op": 1e6 * sum(traced.apply_s) / max(traced.ops, 1),
            "delta.snapshot_ms_p50": median_ms(traced.snapshot_s),
            "delta.ops_per_round": traced.ops / len(traced.round_s),
            "shm.create_ms": median_ms(durations(spans, "shm.create")),
            "shm.attach_ms": median_ms(durations(spans, "shm.attach")),
            "shm.arena_nbytes": float(self.arena.nbytes),
            "worker.attach_ms": float(np.mean([w["attach_ms"] for w in self.workers])),
            "worker.cold_first_batch_ms": float(np.mean([w["cold_ms"] for w in self.workers])),
            "worker.warm_batch_ms_p50": median_ms([s for w in self.workers for s in w["warm_s"]]),
        }


# ---------------------------------------------------------------------------
# service-structural
# ---------------------------------------------------------------------------


@dataclass
class ScenarioSamples(Samples):
    """``batch_s`` holds the scenario's own batches, first of each run excluded."""

    run_s: list[float] = field(default_factory=list)
    run_lookups: list[int] = field(default_factory=list)
    links_regenerated: list[int] = field(default_factory=list)

    @property
    def unit_s(self) -> list[float]:
        return self.run_s

    def rate(self) -> float:
        # Every run routes the same lookups: the scenario is a fixture.
        return median(self.run_lookups) / self.unit_level(quiet)


@contextlib.contextmanager
def _tapped_route_batch(log: list):
    """While open, every ``route_batch`` call appends (seconds, result, snapshot).

    The scenario owns its router, so its batches can only be seen from the
    class: two clock reads per 2 000-lookup batch.  Opened and closed inside
    one unit, it nests inside whatever the tracer has installed.
    """
    inner = BatchGreedyRouter.route_batch

    def route_batch(router, *args, **kwargs):
        started = time.perf_counter()
        result = inner(router, *args, **kwargs)
        log.append((time.perf_counter() - started, result, router.snapshot))
        return result

    BatchGreedyRouter.route_batch = route_batch
    try:
        yield
    finally:
        BatchGreedyRouter.route_batch = inner


class ServiceStructural(Workload):
    """The registered ``service`` scenario, run the way users run it."""

    targets = ROUTER_TARGETS + DELTA_TARGETS + CORE_TARGETS
    rebuilds = False

    def __init__(self, name, seed, size, tracer=None) -> None:
        super().__init__(name, seed, size, tracer)
        self.tables: str | None = None
        self.last_snapshot = None

    def new_samples(self) -> ScenarioSamples:
        return ScenarioSamples()

    def setup(self) -> None:
        import repro.scenarios as scenarios
        from repro.scenarios.service import service_spec

        self.scenarios = scenarios
        self.spec = service_spec(
            occupancy=0.5, bursts_per_round=4, repair_every=2, churn_rate=0.02,
            recovery="backtrack", engine="fastpath", seed=TOPOLOGY_SEED,
            **self.size["structural"],
        )

    def snapshots(self) -> list:
        return [self.last_snapshot]

    @property
    def min_units(self) -> int:
        return self.size["structural_runs"]

    @property
    def warm_units(self) -> int:
        return self.size["structural_warm"]

    def _unit(self, samples: ScenarioSamples) -> None:
        """One ``scenarios.run`` of the same spec: the same work every repeat."""
        batches: list[tuple] = []
        self._request(f"run:{len(samples.run_s)}")
        with _tapped_route_batch(batches):
            started = time.perf_counter()
            result = self.scenarios.run(self.spec)
            elapsed = time.perf_counter() - started
        tables = result.to_json(include_timing=False)
        if self.tables is None:
            self.tables = tables
        elif tables != self.tables:
            raise AssertionError("the same spec produced different tables on a repeat")
        self.last_snapshot = batches[-1][2]
        samples.run_s.append(elapsed)
        samples.run_lookups.append(sum(len(batch) for _s, batch, _snapshot in batches))
        # Every run builds its own network, so its first batch is a cold one.
        first_s, first, _snapshot = batches[0]
        cold = Samples()
        cold.add(first, first_s)
        self.cold_ms.append(cold.batch_ms[0])
        self._discard(cold)
        for batch_s, batch, _snapshot in batches[1:]:
            samples.add(batch, batch_s)
        samples.links_regenerated.append(
            sum(row.repair.links_regenerated for _rate, rows in result.raw for row in rows)
        )

    def digest(self, samples: Samples) -> str:
        return hashlib.sha256(self.tables.encode()).hexdigest()

    def per_layer(self, reference, traced, spans) -> dict[str, float]:
        runs = named(spans, "scenarios.run", "sustain")
        run_ids = {s["id"] for s in runs}
        run_wall = sum(duration(s) for s in runs)
        own = self_by_name(spans, "sustain")
        layers = sum(v for k, v in own.items() if k != "scenarios.run")
        # An event is a mutation the scenario itself issued (not one nested
        # in the build or in another mutation); its time is everything under it.
        events = [s for s in named(spans, "core.mutate", "sustain") if s["parent"] in run_ids]
        return {
            **_snapshot_layer(self.snapshots(), spans),
            **_router_layer(reference, traced, spans),
            "router.backtrack.lookups_per_s": traced.lookups / traced.seconds,
            "router.rebase_ms_p50": median_ms(durations(spans, "router.rebase", "sustain")),
            "delta.apply_ms_p50": median_ms(durations(spans, "delta.apply", "sustain")),
            "delta.snapshot_ms_p50": median_ms(durations(spans, "delta.snapshot", "sustain")),
            "delta.from_graph_ms": 1e3 * sum(durations(spans, "delta.from_graph", "sustain")) / len(runs),
            "delta.drain_ms": 1e3 * sum(durations(spans, "delta.drain", "sustain")) / len(runs),
            "core.build_s": sum(durations(spans, "core.build", "sustain")) / len(runs),
            "core.mutate_ms_per_event": 1e3 * sum(duration(s) for s in events) / len(events),
            "core.repair_ms_per_pass": 1e3 * float(np.mean(durations(spans, "core.repair", "sustain"))),
            "core.links_regenerated": float(traced.links_regenerated[0]),
            "simulation.pairs_ms_p50": median_ms(durations(spans, "simulation.pairs", "sustain")),
            "scenarios.run_s": median(traced.run_s),
            "scenarios.unattributed_share": 1.0 - layers / run_wall,
        }


# ---------------------------------------------------------------------------
# protocol-mix
# ---------------------------------------------------------------------------


@dataclass
class MixSamples(Samples):
    cycle_s: list[float] = field(default_factory=list)
    protocols: dict[str, Samples] = field(default_factory=dict)

    @property
    def unit_s(self) -> list[float]:
        return self.cycle_s

    @property
    def batch_ms(self) -> list[float]:
        """One sample per four-protocol cycle, per batch: a median over single
        batches would sit on the boundary between two protocols' levels."""
        return [1e3 * s / len(self.protocols) for s in self.cycle_s]


class ProtocolMix(Workload):
    """Four baseline overlays through the one batch router (the policy path)."""

    targets = ROUTER_TARGETS + OVERLAY_TARGETS
    batches_per_unit = 4

    def __init__(self, name, seed, size, tracer=None) -> None:
        super().__init__(name, seed, size, tracer)
        self.pairs = stream(seed, name, "pairs")
        self.cycle_index = 0

    def new_samples(self) -> MixSamples:
        return MixSamples()

    def _constructors(self):
        from repro.baselines import CanNetwork, ChordNetwork, KleinbergGridNetwork, PlaxtonNetwork

        size = self.size
        return {
            "chord": lambda: ChordNetwork(bits=size["chord_bits"]),
            "kleinberg": lambda: KleinbergGridNetwork(
                side=size["kleinberg_side"], links_per_node=size["kleinberg_links"],
                seed=TOPOLOGY_SEED,
            ),
            "can": lambda: CanNetwork(side=size["can_side"], dimensions=2),
            "plaxton": lambda: PlaxtonNetwork(digits=size["plaxton_digits"], base=4),
        }

    def setup(self) -> None:
        self.systems = {}
        self.routers: dict[str, BatchGreedyRouter] = {}
        self.live: dict[str, np.ndarray] = {}
        for name, construct in self._constructors().items():
            self._request(name)
            system = self.systems[name] = construct()
            snapshot = system.compile_snapshot()
            self.routers[name] = BatchGreedyRouter(snapshot, hop_limit=system.hop_limit)
            self.live[name] = np.asarray(snapshot.labels, dtype=np.int64)

    def close(self) -> None:
        self.systems = self.routers = self.live = None

    def snapshots(self) -> list:
        return [router.snapshot for router in self.routers.values()]

    def _cycle(self, routers: dict, sinks) -> float:
        """One batch per protocol; ``sinks(name)`` are the samples that record it."""
        total = 0.0
        for name, router in routers.items():
            sources, targets = draw_pairs(self.pairs, self.live[name], self.size["protocol_batch"])
            self._request(f"{name}:{self.cycle_index}")
            started = time.perf_counter()
            result = router.route_batch(sources, targets)
            elapsed = time.perf_counter() - started
            for samples in sinks(name):
                samples.add(result, elapsed)
            if self.observer is not None:
                self.observer.routed(router, result)
            total += elapsed
        self.cycle_index += 1
        return total

    def _cold_cycle(self, routers: dict) -> None:
        first = Samples()
        total = self._cycle(routers, lambda name: (first,))
        self.cold_ms.append(1e3 * total / len(routers))
        self._discard(first)

    def cold(self) -> None:
        self._cold_cycle(self.routers)

    def more_cold(self) -> None:
        for _ in range(self.size["more_cold"]):
            self._cold_cycle({
                name: BatchGreedyRouter(fresh_copy(router.snapshot), hop_limit=router.hop_limit)
                for name, router in self.routers.items()
            })

    def _unit(self, samples: MixSamples) -> None:
        for name in self.routers:
            samples.protocols.setdefault(name, Samples())
        samples.cycle_s.append(
            self._cycle(self.routers, lambda name: (samples, samples.protocols[name]))
        )

    def per_layer(self, reference, traced, spans) -> dict[str, float]:
        compiles: dict[str, list[float]] = {name: [] for name in PROTOCOL_CLASSES}
        for span in named(spans, "snapshot.compile"):
            compiles[span["request"]].append(duration(span))
        out = {
            **_snapshot_layer(self.snapshots(), spans),
            **_router_layer(reference, traced, spans),
            "router.terminate.lookups_per_s": traced.rate(),
            "snapshot.compile_ms": sum(median_ms(v) for v in compiles.values()),
        }
        for name, per in traced.protocols.items():
            out[f"router.{name}.batch_ms_p50"] = median_ms(per.batch_s)
            out[f"router.{name}.ns_per_hop"] = 1e9 * per.seconds / per.hops
            out[f"overlay.{name}.construct_s"] = median(durations(spans, f"overlay.{name}.construct"))
            out[f"overlay.{name}.compile_ms"] = median_ms(compiles[name])
        return out


def make(name: str, seed: int, size: str, tracer=None) -> Workload:
    cls = {
        "ring-static": Ring,
        "ring-failed": Ring,
        "service-liveness": ServiceLiveness,
        "service-structural": ServiceStructural,
        "protocol-mix": ProtocolMix,
    }[name]
    return cls(name, seed, size, tracer)
