"""Golden table digests for every registered scenario.

Each cell pins the sha256 of the scenario's JSON tables at a small fixed
spec.  The round-based scenarios have **one** digest per (scenario, recovery)
cell and both engines must hit it, so the test checks two contracts at once:
refactors of the round loop leave every table byte-identical, and the object
and fastpath engines agree on every registered round-based scenario.  The
paper-experiment scenarios have one digest per cell; those that route on
either engine must hit it on both.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.scenarios import get_scenario, run
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


def _tables_digest(result) -> str:
    payload = json.dumps(
        [table.to_json_dict() for table in result.tables], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("engine", ["object", "fastpath"])
@pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
def test_tables_match_golden_digest(cell, engine):
    scenario, recovery = cell
    result = run(SPECS[scenario](recovery=recovery, engine=engine))
    assert result.engine_used == engine
    assert _tables_digest(result) == GOLDEN[cell]


# The paper experiments (Figures 5-7, Table 1, ablations, baselines), as
# overrides on each registered default spec.
PAPER_OVERRIDES = {
    "figure5": {"topology.nodes": 128, "topology.links_per_node": 4, "workload.networks": 2},
    "figure6": {"topology.nodes": 256, "workload.searches": 40, "failures.levels": (0.0, 0.4)},
    "figure7": {
        "topology.nodes": 128, "workload.searches": 30, "workload.iterations": 1,
        "failures.levels": (0.0, 0.5),
    },
    "table1": {
        "extras.sizes": (64, 128), "extras.link_counts": (1, 4), "extras.bases": (2, 4),
        "extras.probabilities": (1.0, 0.5), "workload.searches": 25,
    },
    "ablation-replacement": {
        "topology.nodes": 128, "topology.links_per_node": 4, "workload.networks": 1,
    },
    "ablation-backtrack": {
        "topology.nodes": 256, "extras.depths": (1, 5), "failures.levels": (0.4,),
        "workload.searches": 40,
    },
    "ablation-exponent": {
        "topology.nodes": 256, "extras.exponents": (1.0, 2.0), "workload.searches": 40,
    },
    "byzantine": {
        "topology.nodes": 256, "failures.levels": (0.0, 0.2), "extras.redundancy": 2,
        "workload.searches": 30,
    },
    "baselines": {"topology.nodes": 64, "workload.searches": 30, "failures.levels": (0.2,)},
    "baselines-chord": {
        "topology.nodes": 64, "topology.protocol": "chord", "workload.searches": 30,
        "failures.levels": (0.2,),
    },
}

# Recorded at the commit before the experiments became the registered
# scenarios (seed 5).
PAPER_GOLDEN = {
    "figure5": "d85e0796c5ebfd69d20d42f88c4d944d7c358864624ea302ab8c7e22ffbe02f6",
    "figure6": "76904651e76211d2b216df02a2f2bbd436f0e15a57b59c0132e4191538604109",
    "figure7": "9e769490ed90888b6f05a2dbbc09e1ad30a978dff111584d11d0cad103c088d0",
    "table1": "3f5005d31e03ef62090df55933e20d12fdf201fd2e36de3e4c7fe590e72040ce",
    "ablation-replacement": "ebebc8025ca52b772ce80052b8b3cfeb6d07f7216529e29a96f72e536ee79ff0",
    "ablation-backtrack": "b157223937f9afb13422a4689a2d7e8a7e6358b812418bd0a0ad18d6aa96501e",
    "ablation-exponent": "5513f796658c67d4b9e6257d5f4ef7d4a7be2fbd2f4b42a4487af82dd7f07ae2",
    "byzantine": "6e7d1dd79672d1df56ccf13d9f9ec13c08c84f706f146d2975d830ce8001c335",
    "baselines": "0f39935ca5ab5efb839064c6ea2a9b5d764dc4463e1b3dfc6edce685c9662552",
    "baselines-chord": "770eeb9bccaa976eddacece3a9f73beadd31cba60d9c5806fea9aa68490cf970",
}

# The rest measure construction, or route on byzantine's object-only routers.
BOTH_ENGINES = {
    "figure6", "figure7", "table1", "ablation-backtrack", "ablation-exponent",
    "baselines", "baselines-chord",
}


@pytest.mark.parametrize(
    "cell,engine",
    [
        (cell, engine)
        for cell in sorted(PAPER_GOLDEN)
        for engine in (("object", "fastpath") if cell in BOTH_ENGINES else ("object",))
    ],
)
def test_paper_tables_match_golden_digest(cell, engine):
    scenario = cell.removesuffix("-chord")
    spec = get_scenario(scenario).make_spec(
        overrides={**PAPER_OVERRIDES[cell], "engine": engine}, seed=5
    )
    result = run(spec)
    assert result.engine_used == engine
    assert _tables_digest(result) == PAPER_GOLDEN[cell]
