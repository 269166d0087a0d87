"""Library paths no scenario reaches stay deleted.

Each name below went because no scenario, CLI command, example or benchmark
ran it, and nothing typed against it.  Bringing one back should be a decision
that edits this list, not a merge accident; the fastpath downgrade in
particular must not return, since the engine that routes is always the
engine asked for.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

from repro.baselines import CanNetwork, ChordNetwork, KleinbergGridNetwork
from repro.core.builder import DeterministicGraphBuilder, RandomGraphBuilder, build_ideal_network
from repro.core.byzantine import ByzantineAwareRouter
from repro.core.construction import (
    HeuristicConstruction,
    InverseDistanceReplacement,
    LinkReplacementPolicy,
    NeverReplace,
    OldestLinkReplacement,
)
from repro.core.distributions import DeterministicBaseBOffsets
from repro.core.failures import ByzantineModel, NodeFailureModel
from repro.core.graph import OverlayGraph
from repro.core.maintenance import MaintenanceDaemon
from repro.core.metric import MetricSpace, RingMetric, TorusMetric
from repro.core.network import P2PNetwork
from repro.core.routing import RecoveryStrategy
from repro.devtools.findings import Finding
from repro.experiments.cli import main
from repro.fastpath import (
    BatchGreedyRouter,
    BatchRouteResult,
    FastpathSnapshot,
    apply_node_failures,
    build_snapshot,
    sample_node_failures,
)
from repro.overlay import MetricGreedyPolicy, Overlay, OverlayMixin
from repro.overlay.mixin import apply_fail_fraction
from repro.scenarios.rounds import EngineSession, IdealNetwork

PUBLIC_PACKAGES = (
    "repro", "repro.core", "repro.analysis", "repro.util", "repro.fastpath", "repro.telemetry"
)

DELETED_NAMES = [
    ("repro.fastpath", "select_engine"),
    ("repro.scenarios.rounds", "FastpathFallbackWarning"),
    ("repro.analysis.stats", "mean_confidence_interval"),
    ("repro.analysis.stats", "binomial_confidence_interval"),
    ("repro.analysis.stats", "_normal_quantile"),
    ("repro.util.validation", "ensure_in_range"),
    ("repro.core.distributions", "LinkDistribution"),
    ("repro.core.distributions", "UniformLinkDistribution"),
    ("repro.core.distributions", "KleinbergGridDistribution"),
    ("repro.core.failures", "FailureModel"),
    ("repro.core.failures", "TargetedNodeFailureModel"),
    ("repro.core.maintenance", "prune_dead_links"),
    ("repro.simulation.workload", "iterate_in_time_order"),
    # Every experiment runs on the ring; the line had no builder of its own.
    ("repro.core.metric", "LineMetric"),
    ("repro.scenarios.spec", "BYZANTINE_BEHAVIORS"),
    # The structural delta mirror reads rows from the graph it mirrors; it
    # keeps no slab copy of the adjacency and never holds a half-applied batch.
    ("repro.fastpath.delta", "_Slab"),
    ("repro.fastpath.delta", "HalfAppliedDeltaError"),
    ("repro.fastpath.batch_router", "_CODE_TO_REASON"),
    # table1 calls the per-theorem helpers directly; the fits direction 7
    # needs live in repro.analysis.fitting; H_n is harmonic_number.
    ("repro.core.bounds", "Table1Bounds"),
    ("repro.core.bounds", "fit_scale_factor"),
    ("repro.core.bounds", "harmonic"),
    # session() restores the previous context; nothing else turns telemetry off.
    ("repro.telemetry.core", "disable"),
    # One regenerator, repro.devtools.readme, rewrites both README blocks.
    ("repro.telemetry.names", "update_glossary_block"),
    ("repro.telemetry.names", "main"),
    ("repro.fastpath.dtypes", "update_contract_block"),
    ("repro.fastpath.dtypes", "main"),
]


@pytest.mark.parametrize(
    "module,name", DELETED_NAMES, ids=[f"{module}.{name}" for module, name in DELETED_NAMES]
)
def test_deleted_name_is_gone_with_its_re_exports(module, name):
    assert not hasattr(importlib.import_module(module), name)
    for package in PUBLIC_PACKAGES:
        assert not hasattr(importlib.import_module(package), name), package


DELETED_ATTRIBUTES = [
    (OverlayGraph, "successor_on_ring"),
    (OverlayGraph, "average_out_degree"),
    (OverlayGraph, "in_degree_counts"),
    (MaintenanceDaemon, "last_report"),
    (DeterministicBaseBOffsets, "sample_neighbors"),
    (DeterministicBaseBOffsets, "link_probability"),
    (MetricSpace, "all_points"),
    (TorusMetric, "all_points"),
    (OverlayGraph, "total_long_links"),
    # One decision pass per newcomer (choose_replacements) replaced the
    # per-holder call; no policy keeps both.
    (LinkReplacementPolicy, "choose_replacement"),
    (InverseDistanceReplacement, "choose_replacement"),
    (OldestLinkReplacement, "choose_replacement"),
    (NeverReplace, "choose_replacement"),
    # The table overlays hand the compiler whole CSR tables (routing_table);
    # the scalar Chord build survives only as the tests' frozen reference.
    (ChordNetwork, "build_routing_tables"),
    (ChordNetwork, "neighbor_entries"),
    (OverlayMixin, "neighbor_entries"),
    # Accessors only tests called; their tests read the public surface (the
    # CSR arrays, incoming_sources, to_dict payloads, the batch arrays).
    (BatchRouteResult, "to_route_results"),
    (OverlayGraph, "incoming_entries"),
    (Finding, "from_dict"),
    (FastpathSnapshot, "neighbors_of_index"),
    (FastpathSnapshot, "alive_count"),
    # The per-node repair walk survives only as the frozen reference in
    # tests/unit/test_maintenance.py; every caller runs repair_all_batched.
    (MaintenanceDaemon, "repair_all"),
    # Callers compare failure_codes with FAILURE_CODES; nothing decoded one
    # code at a time.
    (BatchRouteResult, "failure_reason"),
    # The masked sampler never draws an absent sink, so the builder's
    # closest-occupied-point fallback and the lookups behind it never ran.
    (OverlayGraph, "closest_live_vertex"),
    (MetricSpace, "closest"),
]


@pytest.mark.parametrize(
    "owner,name",
    DELETED_ATTRIBUTES,
    ids=[f"{owner.__name__}.{name}" for owner, name in DELETED_ATTRIBUTES],
)
def test_deleted_attribute_is_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("engine", ["object", "fastpath"])
def test_a_session_reports_no_engine_but_the_one_asked_for(engine):
    network = IdealNetwork(64, None, seed=1)
    with EngineSession(network, engine, RecoveryStrategy.TERMINATE, 0) as session:
        assert session.engine == engine
        assert not hasattr(session, "engine_used")
        success, _hops = session.route([(0, 32), (5, 60)])
    assert success.all()


_SNAPSHOT = build_snapshot(16, seed=0)

DELETED_KEYWORDS = [
    (RandomGraphBuilder, (RingMetric(16),), "distribution"),
    (RandomGraphBuilder, (RingMetric(16),), "allow_duplicate_links"),
    (NodeFailureModel, (0.1,), "mode"),
    (NodeFailureModel, (0.1,), "protect"),
    (ByzantineModel, (0.1,), "protect"),
    (MaintenanceDaemon, (None,), "regenerate"),
    (sample_node_failures, (_SNAPSHOT, 0.1), "protect"),
    (apply_node_failures, (_SNAPSHOT, 0.1), "mode"),
    (BatchGreedyRouter(_SNAPSHOT).route_pairs([]).mean_hops, (), "successful_only"),
    # Knobs that only tests set, or that no caller set to a second value.
    (HeuristicConstruction, (RingMetric(16), 2), "exponent"),
    (build_ideal_network, (16,), "presence_probability"),
    (DeterministicGraphBuilder, (RingMetric(16),), "presence_probability"),
    (DeterministicGraphBuilder, (RingMetric(16),), "seed"),
    (DeterministicBaseBOffsets, (16,), "bidirectional"),
    (DeterministicBaseBOffsets(16).neighbors, (0,), "present"),
    (apply_fail_fraction, (CanNetwork(side=4), 0.1, 0, "stream"), "protect"),
    (KleinbergGridNetwork, (4,), "exponent"),
    (ByzantineAwareRouter, (OverlayGraph(RingMetric(16)), ByzantineModel(0.1)), "hop_limit"),
    (build_snapshot, (16,), "exponent"),
    (MetricGreedyPolicy, (16,), "kind"),
    (OverlayGraph(RingMetric(16)).long_link_lengths, (), "only_alive"),
]


@pytest.mark.parametrize(
    "factory,args,keyword",
    DELETED_KEYWORDS,
    ids=[f"{factory.__name__}-{keyword}" for factory, _args, keyword in DELETED_KEYWORDS],
)
def test_deleted_keyword_is_refused(factory, args, keyword):
    with pytest.raises(TypeError, match=keyword):
        factory(*args, **{keyword: None})


@pytest.mark.parametrize("owner", [Overlay, OverlayMixin, P2PNetwork], ids=lambda owner: owner.__name__)
def test_fail_fraction_takes_no_protect_set(owner):
    assert list(inspect.signature(owner.fail_fraction).parameters) == ["self", "fraction", "seed"]


@pytest.mark.parametrize("module", ["repro.devtools.analyze", "repro.devtools.rules.dtype_flow"])
def test_dtype_interpreter_is_gone(module):
    # The snapshot dtype contract is checked at runtime by
    # tests/property/test_property_dtypes.py, not inferred from source.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("rule_id", ["RPA101", "RPA102", "RPA103", "RPA104"])
def test_retired_dtype_ids_are_refused(rule_id, capsys):
    assert main(["check", "--select", rule_id]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_dht_layer_is_gone():
    # No scenario, benchmark workload or paper experiment ran the key-value
    # store; the library stops at the routing layer the paper evaluates.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.dht")
    for package in PUBLIC_PACKAGES:
        assert not hasattr(importlib.import_module(package), "DistributedHashTable"), package
