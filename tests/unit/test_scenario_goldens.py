"""Golden table digests for the round-based scenarios.

Each cell pins the sha256 of the scenario's JSON tables at a small fixed
spec.  There is **one** digest per (scenario, recovery) cell and both engines
must hit it, so the test checks two contracts at once: refactors of the round
loop leave every table byte-identical, and the object and fastpath engines
agree on every registered round-based scenario.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import run
from repro.scenarios.churn import churn_spec, maintenance_cost_spec
from repro.scenarios.degradation import degradation_spec
from repro.scenarios.service import service_spec

SPECS = {
    "churn": lambda **kw: churn_spec(
        nodes=512, rounds=3, churn_rate=0.08, searches=40, seed=5, **kw
    ),
    "maintenance-cost": lambda **kw: maintenance_cost_spec(
        nodes=256, rounds=2, churn_rates=(0.05, 0.15), searches=30, seed=5, **kw
    ),
    "service": lambda **kw: service_spec(
        nodes=512, rounds=2, bursts_per_round=3, repair_every=2,
        churn_rate=0.08, searches=25, seed=5, **kw
    ),
    "degradation": lambda **kw: degradation_spec(
        nodes=256, intensities=(0.2,), searches=40, seed=5, **kw
    ),
    "degradation-chord": lambda **kw: degradation_spec(
        nodes=256, protocol="chord", intensities=(0.2,), searches=40, seed=5, **kw
    ),
}

# Recorded at the commit before the round loop was unified; maintenance-cost
# routes only after a full repair pass, so recovery never fires there and its
# three cells share one digest.
GOLDEN = {
    ("churn", "terminate"): "df4da765d1ddba9341390371a08ee6cea6b10118f3f06afb654e60b46b8344ed",
    ("churn", "random-reroute"): "5f0f6c33a4ca7bf905012042fd5bf4796e600b5473a1c67622cc675e16b1e2f0",
    ("churn", "backtrack"): "86a419d2e9a91b2c6c2c15a4ce429c924aaeea3c9fb07dc540ec169766c20014",
    ("maintenance-cost", "terminate"): "6ddc8bb9b0494e479774c06191d6a5287a193fe790cf2e6c100469d0f7b47aed",
    ("maintenance-cost", "random-reroute"): "6ddc8bb9b0494e479774c06191d6a5287a193fe790cf2e6c100469d0f7b47aed",
    ("maintenance-cost", "backtrack"): "6ddc8bb9b0494e479774c06191d6a5287a193fe790cf2e6c100469d0f7b47aed",
    ("service", "terminate"): "6288e09d8004412d352d4affa703b4bac484cc5177956cc6081e8bff021d9649",
    ("service", "random-reroute"): "69b54e0b0a5e4eb4cb1ad554c7cdb2d35e8a16a57f1a2cd4430c19eaf4de2aa3",
    ("service", "backtrack"): "d7aa277391920e2d29c47efaebf59a2e614b9e1adeb5bafcca2d9797183aa654",
    ("degradation", "terminate"): "d3341a5168f103b6ee031931d8d9f3a030dbbc6351685e657675a1854ebc6d92",
    ("degradation", "random-reroute"): "b005033c94447613dc39617cf94d0adb55195cca64cd7b2a395a4ab3681d54e6",
    ("degradation", "backtrack"): "c59b7e5e5acc9011bbe05b7c5623303b77b8dfd5b6eb668356b52b9823d78a47",
    ("degradation-chord", "terminate"): "87d63be823bd1814720ecfacde60814a57120aa048f6ae7bdc7dde207af9e57f",
    ("degradation-chord", "random-reroute"): "5d9f6359181685811faf4d6014cbf2308b8841a7c802050ca0b627ca53f5ce99",
    ("degradation-chord", "backtrack"): "d01761cf000cbcb5853ecf222aadd5a025dad1d268c746e64be8ff070c37bcb0",
}


@pytest.mark.parametrize("engine", ["object", "fastpath"])
@pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
def test_tables_match_golden_digest(cell, engine):
    scenario, recovery = cell
    result = run(SPECS[scenario](recovery=recovery, engine=engine))
    assert result.engine_used == engine
    payload = json.dumps(
        [table.to_json_dict() for table in result.tables], sort_keys=True
    )
    assert hashlib.sha256(payload.encode()).hexdigest() == GOLDEN[cell]
