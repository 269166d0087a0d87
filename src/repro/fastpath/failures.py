"""Vectorized failure injection for fastpath snapshots.

The object layer's :class:`~repro.core.failures.NodeFailureModel` flips
per-node flags one at a time; here the same sampling runs as bulk NumPy
operations against a snapshot's liveness mask, so a failure sweep never walks
Python objects.

The sampling semantics — and the random stream — deliberately match
:class:`~repro.core.failures.NodeFailureModel`: the same ``seed`` failing the
same candidate list picks the same victims.  For graphs whose nodes were
inserted in sorted label order (every builder in :mod:`repro.core.builder`
does this) the candidate order is identical, so the two failure paths are
interchangeable in experiments.

Only **node** failures are sampled here.  Link failures need no recompile:
a :class:`~repro.core.failures.LinkFailureModel` fails links through the
graph's ``fail_long_link`` (a fault schedule through the same call, or a
table overlay's ``fail_link``), and both record ``OP_LINK_FAIL`` deltas that a
:class:`~repro.fastpath.delta.DeltaSnapshot` mirror applies — the
structural tier re-reads the holder's and the target's rows from the graph,
the liveness tier scatters it onto the snapshot's ``edge_alive`` mask.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.snapshot import FastpathSnapshot
from repro.util.rng import draw_fraction, spawn_rng
from repro.util.validation import ensure_probability

__all__ = ["sample_node_failures", "apply_node_failures"]


def sample_node_failures(
    snapshot: FastpathSnapshot, failure_level: float, seed: int = 0
) -> np.ndarray:
    """Sample a boolean *failed* mask over the snapshot's vertices.

    Parameters
    ----------
    snapshot:
        The compiled overlay; only currently-alive vertices are candidates.
    failure_level:
        Fraction of the candidates that fail, in [0, 1] (an exact count, the
        Section-6 experimental setup).
    seed:
        Seed; drawn from the same derived stream as
        :class:`~repro.core.failures.NodeFailureModel`.

    Returns
    -------
    numpy.ndarray
        ``bool[num_nodes]`` mask, ``True`` where the vertex fails.
    """
    ensure_probability(failure_level, "failure_level")
    rng = spawn_rng(seed, "node-failures")
    candidate_indices = np.flatnonzero(snapshot.alive)
    failed = np.zeros(snapshot.num_nodes, dtype=bool)
    failed[candidate_indices[draw_fraction(rng, candidate_indices.size, failure_level)]] = True
    return failed


def apply_node_failures(
    snapshot: FastpathSnapshot, failure_level: float, seed: int = 0
) -> FastpathSnapshot:
    """Return a derived snapshot with a fraction of its live vertices failed.

    The input snapshot is untouched (snapshots are immutable); "repair" is
    simply keeping the original around.
    """
    failed = sample_node_failures(snapshot, failure_level, seed=seed)
    return snapshot.with_alive(snapshot.alive & ~failed)
