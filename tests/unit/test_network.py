"""Unit tests for the P2PNetwork facade: membership, maintenance and routing.

Resource location over it — ``DistributedHashTable``, a ``P2PNetwork`` with
storage — is tested in ``test_dht.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.network import P2PNetwork


@pytest.fixture
def network() -> P2PNetwork:
    net = P2PNetwork(space_size=512, seed=1)
    net.join_many(list(range(0, 512, 8)))
    return net


class TestMembership:
    def test_join_many(self, network):
        assert len(network.members()) == 64

    def test_join_duplicate_rejected(self, network):
        with pytest.raises(ValueError):
            network.join(0)

    def test_join_out_of_space_rejected(self, network):
        with pytest.raises(ValueError):
            network.join(1000)

    def test_numpy_integer_joins_store_python_ints(self):
        net = P2PNetwork(space_size=64)
        net.join(np.int64(33))
        net.join_many([np.int32(5), np.int64(60)])
        assert net.members() == [33, 5, 60]
        assert all(type(label) is int for label in net.members())

    @pytest.mark.parametrize("address", [True, np.int64(64), 3.0])
    def test_non_points_rejected(self, address):
        with pytest.raises(ValueError, match="outside the identifier space"):
            P2PNetwork(space_size=64).join(address)

    def test_leave_removes_member(self, network):
        network.leave(8)
        assert 8 not in network.members()

    def test_leave_unknown_rejected(self, network):
        with pytest.raises(ValueError):
            network.leave(3)

    def test_crash_marks_dead(self, network):
        network.crash(16)
        assert 16 not in network.members()
        assert network.graph.has_node(16)


class TestFailuresAndRepair:
    def test_repair_removes_crashed_nodes(self, network):
        network.crash(16)
        network.repair()
        assert not network.graph.has_node(16)
        # The network remains routable after repair.
        assert network.route(0, 256).success
