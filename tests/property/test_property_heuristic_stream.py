"""Stream-exact oracle for the Section-5 heuristic.

``ScalarHeuristicConstruction`` and the three ``Scalar*`` policies below are a
frozen copy of the heuristic as it was written before its array rewrite: one
``space.distance`` call, one Python set walk and one ``Generator.choice`` per
label, sink and holder.  The property drives it and
:class:`repro.core.construction.HeuristicConstruction` through the same
interleaving of arrivals, departures, node failures and revivals made directly
on the graph, and link regenerations, and asserts after every step that the
two graphs, the observers' op sequences and the generators' states are
identical.  Do not edit the reference to make a failure go away: a difference
means the rewrite consumes a draw or orders a tie differently.
"""

from __future__ import annotations

import abc
import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import construction
from repro.core.construction import (
    HeuristicConstruction,
    InverseDistanceReplacement,
    NeverReplace,
    OldestLinkReplacement,
)
from repro.core.graph import OverlayGraph
from repro.core.metric import RingMetric
from repro.fastpath.delta import DeltaRecorder
from repro.util.rng import RandomSource

# --------------------------------------------------------------------------- #
# The frozen scalar reference
# --------------------------------------------------------------------------- #


class ScalarPolicy(abc.ABC):
    @abc.abstractmethod
    def choose_replacement(self, graph, holder, newcomer, rng):
        """The target of ``holder``'s link to redirect to ``newcomer``, or ``None``."""


class ScalarInverseDistanceReplacement(ScalarPolicy):
    def choose_replacement(self, graph, holder, newcomer, rng):
        node = graph.node(holder)
        live_links = [link for link in node.long_links if link.alive]
        if not live_links:
            return None
        space = graph.space
        distances = np.array(
            [max(1, space.distance(holder, link.target)) for link in live_links],
            dtype=float,
        )
        newcomer_distance = max(1, space.distance(holder, newcomer))
        weights = 1.0 / distances
        newcomer_weight = 1.0 / newcomer_distance

        accept_probability = newcomer_weight / (weights.sum() + newcomer_weight)
        if rng.random() >= accept_probability:
            return None

        victim_probabilities = weights / weights.sum()
        victim_index = int(rng.choice(len(live_links), p=victim_probabilities))
        return live_links[victim_index].target


class ScalarOldestLinkReplacement(ScalarPolicy):
    def choose_replacement(self, graph, holder, newcomer, rng):
        node = graph.node(holder)
        live_links = [link for link in node.long_links if link.alive]
        if not live_links:
            return None
        space = graph.space
        distances = np.array(
            [max(1, space.distance(holder, link.target)) for link in live_links],
            dtype=float,
        )
        newcomer_distance = max(1, space.distance(holder, newcomer))
        weights = 1.0 / distances
        newcomer_weight = 1.0 / newcomer_distance

        accept_probability = newcomer_weight / (weights.sum() + newcomer_weight)
        if rng.random() >= accept_probability:
            return None

        oldest = min(live_links, key=lambda link: link.created_at)
        return oldest.target


class ScalarNeverReplace(ScalarPolicy):
    def choose_replacement(self, graph, holder, newcomer, rng):
        return None


class ScalarHeuristicConstruction:
    def __init__(self, space, links_per_node, replacement_policy, seed):
        self.space = space
        self.links_per_node = links_per_node
        self.replacement_policy = replacement_policy
        self.graph = OverlayGraph(space)
        self._random = RandomSource(seed=seed)
        self._sorted_labels: list[int] = []

    def add_point(self, label):
        if self.graph.has_node(label):
            raise ValueError(f"point {label} is already occupied")
        self.graph.add_node(label)
        self._insert_into_ring(label)
        self._generate_outgoing_links(label)
        self._solicit_incoming_links(label)

    def remove_point(self, label):
        if not self.graph.has_node(label):
            return []
        holders = set(self.graph.incoming_sources(label, only_alive_links=False))
        holders.discard(label)
        affected = [node_label for node_label in self.graph.labels() if node_label in holders]
        departing = self.graph.node(label)
        left, right = departing.left, departing.right
        self.graph.remove_node(label)
        self._sorted_labels.remove(label)
        if not self._sorted_labels:
            return affected
        if len(self._sorted_labels) == 1:
            only = self._sorted_labels[0]
            self.graph.set_immediate_neighbors(only, None, None)
            return affected
        if left is not None and self.graph.has_node(left):
            left_node = self.graph.node(left)
            self.graph.set_immediate_neighbors(left, left_node.left, right)
        if right is not None and self.graph.has_node(right):
            right_node = self.graph.node(right)
            self.graph.set_immediate_neighbors(right, left, right_node.right)
        return affected

    def regenerate_link(self, holder):
        if not self.graph.has_node(holder):
            return None
        target = self._sample_existing_target(holder)
        if target is None or target == holder:
            return None
        existing = set(self.graph.node(holder).long_link_targets(only_alive=False))
        if target in existing:
            return None
        self.graph.add_long_link(holder, target)
        return target

    def _insert_into_ring(self, label):
        labels = self._sorted_labels
        index = bisect.bisect_left(labels, label)
        labels.insert(index, label)
        count = len(labels)
        if count == 1:
            self.graph.set_immediate_neighbors(label, None, None)
            return
        left = labels[index - 1]
        right = labels[(index + 1) % count]
        self.graph.set_immediate_neighbors(label, left, right)
        left_node = self.graph.node(left)
        self.graph.set_immediate_neighbors(left, left_node.left, label)
        right_node = self.graph.node(right)
        self.graph.set_immediate_neighbors(right, label, right_node.right)

    def _ring_distances(self, labels, source):
        diff = np.abs(labels - source)
        return np.minimum(diff, self.space.n - diff).astype(float)

    def _ideal_sink_weights(self, source):
        distance = self._ring_distances(np.arange(self.space.n), source)
        with np.errstate(divide="ignore"):
            return np.where(distance > 0, distance**-1.0, 0.0)

    def _generate_outgoing_links(self, label):
        if len(self._sorted_labels) < 2:
            return
        rng = self._random.stream("outgoing")
        weights = self._ideal_sink_weights(label)
        total = weights.sum()
        if total <= 0:
            return
        probabilities = weights / total
        ideal_sinks = rng.choice(self.space.size(), size=self.links_per_node, p=probabilities)
        attached = set()
        for ideal_sink in ideal_sinks:
            actual = self._closest_occupied(int(ideal_sink), exclude=label)
            if actual is None or actual == label or actual in attached:
                continue
            attached.add(actual)
            self.graph.add_long_link(label, actual)

    def _solicit_incoming_links(self, label):
        if len(self._sorted_labels) < 2:
            return
        rng = self._random.stream("incoming")
        incoming_estimate = int(rng.poisson(self.links_per_node))
        if incoming_estimate <= 0:
            return
        others = np.array(self._sorted_labels, dtype=np.int64)
        others = others[others != label]
        weights = np.maximum(self._ring_distances(others, label), 1.0) ** -1.0
        probabilities = weights / weights.sum()
        draw_count = min(incoming_estimate, len(others))
        chosen = rng.choice(len(others), size=draw_count, replace=False, p=probabilities)
        for index in chosen:
            holder = int(others[int(index)])
            victim = self.replacement_policy.choose_replacement(self.graph, holder, label, rng)
            if victim is None:
                continue
            existing_targets = set(self.graph.node(holder).long_link_targets())
            if label in existing_targets:
                continue
            self.graph.redirect_long_link(holder, victim, label)

    def _closest_occupied(self, point, exclude=None):
        labels = self._sorted_labels
        if not labels or (len(labels) == 1 and labels[0] == exclude):
            return None
        index = bisect.bisect_left(labels, point)
        candidate_indices = {
            (index - 1) % len(labels),
            index % len(labels),
            (index + 1) % len(labels),
        }
        candidate_indices.update({0, len(labels) - 1})
        best = None
        best_distance = None
        for candidate_index in candidate_indices:
            candidate = labels[candidate_index]
            if candidate == exclude:
                continue
            distance = self.space.distance(candidate, point)
            if best_distance is None or distance < best_distance:
                best = candidate
                best_distance = distance
        return best

    def _sample_existing_target(self, source):
        is_alive = self.graph.is_alive
        others = np.fromiter(
            (label for label in self._sorted_labels if label != source and is_alive(label)),
            dtype=np.int64,
        )
        if others.size == 0:
            return None
        rng = self._random.stream("regenerate")
        weights = np.maximum(self._ring_distances(others, source), 1.0) ** -1.0
        probabilities = weights / weights.sum()
        index = int(rng.choice(others.size, p=probabilities))
        return int(others[index])


# --------------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------------- #

POLICIES = {
    "inverse-distance": (InverseDistanceReplacement, ScalarInverseDistanceReplacement),
    "oldest-link": (OldestLinkReplacement, ScalarOldestLinkReplacement),
    "never": (NeverReplace, ScalarNeverReplace),
}
STREAMS = ("outgoing", "incoming", "regenerate")
ACTIONS = ("add", "add", "add", "remove", "fail", "revive", "regenerate")


@st.composite
def rings(draw):
    """A ring size and the labels that may join it."""
    shape = draw(st.sampled_from(["two", "three", "dense", "even-gaps", "sparse"]))
    if shape == "two":
        n = draw(st.integers(2, 9))
        return n, draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if shape == "three":
        n = draw(st.integers(3, 12))
        return n, draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
    if shape == "dense":
        n = draw(st.integers(4, 40))
        return n, list(range(n))
    if shape == "even-gaps":
        # Every gap even: a sink midway between two members ties them.
        step = draw(st.sampled_from([2, 4, 6]))
        n = step * draw(st.integers(2, 24))
        return n, list(range(draw(st.integers(0, step - 1)), n, step))
    n = draw(st.integers(8, 160))
    return n, draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=40, unique=True))


def _state(side) -> tuple:
    graph = side.graph
    records = [
        (
            node.label,
            node.left,
            node.right,
            node.alive,
            [(link.target, link.created_at, link.alive) for link in node.long_links],
        )
        for node in graph.nodes()
    ]
    streams = [side._random.stream(name).bit_generator.state for name in STREAMS]
    # repr keeps the types: a NumPy integer where the reference stores an int
    # is a difference.
    return repr(records), repr(graph.observer._ops), streams


def _step(side, action: str, pick: int, pool: list[int]):
    graph = side.graph
    if action == "add":
        absent = [label for label in pool if not graph.has_node(label)]
        if absent:
            side.add_point(absent[pick % len(absent)])
        return None
    present = sorted(graph.labels())
    if not present:
        return None
    label = present[pick % len(present)]
    if action == "remove":
        affected = side.remove_point(label)
        return affected, [side.regenerate_link(holder) for holder in affected]
    if action == "fail":
        graph.fail_node(label)
    elif action == "revive":
        graph.revive_node(label)
    else:
        return side.regenerate_link(label)
    return None


class TestHeuristicStreamOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        ring=rings(),
        policy=st.sampled_from(sorted(POLICIES)),
        links_per_node=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        steps=st.lists(
            st.tuples(st.sampled_from(ACTIONS), st.integers(0, 10**6)),
            min_size=1,
            max_size=50,
        ),
    )
    def test_every_step_matches_the_scalar_heuristic(
        self, ring, policy, links_per_node, seed, steps
    ):
        n, pool = ring
        policy_cls, scalar_policy_cls = POLICIES[policy]
        array = HeuristicConstruction(
            space=RingMetric(n),
            links_per_node=links_per_node,
            replacement_policy=policy_cls(),
            seed=seed,
        )
        scalar = ScalarHeuristicConstruction(
            RingMetric(n), links_per_node, scalar_policy_cls(), seed
        )
        for side in (array, scalar):
            DeltaRecorder.attach(side.graph)
        for action, pick in steps:
            assert _step(array, action, pick, pool) == _step(scalar, action, pick, pool)
            assert _state(array) == _state(scalar), (action, pick)


class TestLiveViewFollowsTheGraph:
    """Regeneration after liveness changes made on the graph, not the construction."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_regeneration_after_direct_graph_mutations(self, policy):
        policy_cls, scalar_policy_cls = POLICIES[policy]
        array = HeuristicConstruction(
            space=RingMetric(128), links_per_node=3, replacement_policy=policy_cls(), seed=4
        )
        scalar = ScalarHeuristicConstruction(RingMetric(128), 3, scalar_policy_cls(), 4)
        members = list(range(0, 128, 3))
        for side in (array, scalar):
            DeltaRecorder.attach(side.graph)
            for label in members:
                side.add_point(label)
        rng = np.random.default_rng(0)
        for _ in range(30):
            victims = [int(v) for v in rng.choice(members, size=4, replace=False)]
            holders = [int(h) for h in rng.choice(members, size=6, replace=False)]
            for side in (array, scalar):
                for victim in victims:
                    side.graph.fail_node(victim)
            for holder in holders:
                assert array.regenerate_link(holder) == scalar.regenerate_link(holder)
            for side in (array, scalar):
                for victim in victims[:2]:
                    side.graph.revive_node(victim)
            for holder in holders:
                assert array.regenerate_link(holder) == scalar.regenerate_link(holder)
            assert _state(array) == _state(scalar)
        # A vertex removed from the graph directly is no longer a target.
        for side in (array, scalar):
            side.graph.remove_node(members[5])
        for holder in members[:12]:
            if holder != members[5]:
                assert array.regenerate_link(holder) == scalar.regenerate_link(holder)
        assert _state(array) == _state(scalar)


class TestClosestOccupiedTies:
    """The basin-of-attraction rule point by point, against the scalar set walk.

    Member counts cross the sizes at which CPython's set of candidate slots
    grows its table, so the walk's first-best tie order differs from both
    sorted order and candidate order somewhere in each ring.
    """

    @pytest.mark.parametrize("members", [2, 3, 5, 9, 33, 40, 130])
    @pytest.mark.parametrize("gap", [1, 2, 4, 5])
    def test_every_point_and_exclusion(self, members, gap):
        n = members * gap + gap // 2
        labels = list(range(0, members * gap, gap))
        array = HeuristicConstruction(space=RingMetric(n), links_per_node=1, seed=0)
        scalar = ScalarHeuristicConstruction(RingMetric(n), 1, ScalarNeverReplace(), 0)
        for side in (array, scalar):
            for label in labels:
                side.graph.add_node(label)
                side._insert_into_ring(label)
        points = np.arange(n)
        for exclude in labels if members < 40 else labels[::7] + labels[-3:]:
            expected = [scalar._closest_occupied(point, exclude=exclude) for point in range(n)]
            assert array._closest_occupied(points, exclude) == expected


class TestRedirectOdds:
    """Each holder's weights, sum and accept probability, bit for bit.

    A last-bit difference in a sum almost never flips a draw, so the oracle
    above cannot see one; this compares the floats themselves with the
    scalar policy's arithmetic.
    """

    @pytest.mark.parametrize("links_per_node", [1, 7, 12, 20])
    def test_floats_match_the_scalar_arithmetic(self, links_per_node):
        built = construction.build_heuristic_network(
            512, occupied=300, links_per_node=links_per_node, seed=links_per_node
        )
        graph = built.graph
        space = graph.space
        labels = sorted(graph.labels())
        graph.fail_long_link(labels[0], graph.node(labels[0]).long_links[0].target)
        rng = np.random.default_rng(links_per_node)
        for _ in range(40):
            newcomer = int(rng.integers(0, 512))
            holders = [int(h) for h in rng.choice(labels, size=15, replace=False)]
            holders = [h for h in holders if h != newcomer]
            links, rows, totals, accept = construction._redirect_odds(graph, holders, newcomer)
            for row, holder in enumerate(holders):
                live = [link for link in graph.node(holder).long_links if link.alive]
                assert links[row] == live
                distances = np.array(
                    [max(1, space.distance(holder, link.target)) for link in live], dtype=float
                )
                weights = 1.0 / distances
                newcomer_weight = 1.0 / max(1, space.distance(holder, newcomer))
                assert np.array_equal(rows[row], weights)
                assert totals[row] == weights.sum()
                assert accept[row] == newcomer_weight / (weights.sum() + newcomer_weight)


class TestStreamExactChoice:
    """Each ``Generator.choice`` replacement against ``rng.choice`` itself.

    If a NumPy release changes how ``choice`` consumes its stream, these fail
    first; the oracle above and the scenario golden digests then say what the
    tables must be.
    """

    @staticmethod
    def _weights(rng, size, zeros):
        weights = 1.0 / rng.integers(1, 500, size=size).astype(float)
        weights[rng.choice(size, size=min(zeros, size - 1), replace=False)] = 0.0
        return weights / weights.sum()

    @pytest.mark.parametrize("size", [1, 2, 3, 9, 64, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_choice_with_replacement(self, size, seed):
        shapes = np.random.default_rng(seed)
        for zeros in (0, 1, size // 2):
            p = self._weights(shapes, size, zeros)
            for draws in (None, 1, 7, 40):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = construction._choice(ours, p, draws)
                expected = theirs.choice(size, size=draws, p=p)
                assert np.array_equal(got, expected)
                assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("size", [1, 2, 3, 9, 64, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 29])
    def test_choice_without_replacement(self, size, seed):
        shapes = np.random.default_rng(seed)
        for zeros in (0, 1, size // 2):
            p = self._weights(shapes, size, zeros)
            nonzero = int(np.count_nonzero(p))
            for draws in sorted({1, min(3, nonzero), nonzero}):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                before = p.copy()
                got = construction._choice_distinct(ours, p, draws)
                expected = theirs.choice(size, size=draws, replace=False, p=p)
                assert got == expected.tolist()
                assert ours.bit_generator.state == theirs.bit_generator.state
                assert np.array_equal(p, before)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 97, 1024, 1 << 14])
    def test_ring_tables_hold_the_scalar_floats(self, n):
        tables = construction._ring_tables(n)
        labels = np.arange(n)
        for source in sorted({0, 1, n // 2, n - 1}):
            diff = np.abs(labels - source)
            distance = np.minimum(diff, n - diff)
            as_float = distance.astype(float)
            with np.errstate(divide="ignore"):
                sink = np.where(as_float > 0, as_float**-1.0, 0.0)
            assert np.array_equal(tables.distance[labels - source], distance)
            assert np.array_equal(np.roll(tables.sink, source), sink)
            assert np.array_equal(tables.inverse[labels - source], np.maximum(as_float, 1.0) ** -1.0)
            assert np.array_equal(tables.inverse[labels - source], 1.0 / np.maximum(distance, 1))
