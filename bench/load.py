"""Load generation, sample bookkeeping and result digests for the drivers.

Everything here runs in the benchmark process, outside timed regions: the
program under test only ever receives the generated arrays.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import spawn_rng

#: Batches (per phase) folded into the result digest.  Runs are time-bounded,
#: so only a fixed prefix can be compared across runs; every run issues at
#: least this many batches.
DIGEST_BATCHES = 12


def stream(seed: int, workload: str, *labels) -> np.random.Generator:
    """The generator for one named load stream of one workload."""
    return spawn_rng(seed, "bench", workload, *labels)


def draw_pairs(
    rng: np.random.Generator, live_labels: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform (source, target) pairs of distinct live labels."""
    sources = live_labels[rng.integers(0, live_labels.size, size=count)]
    targets = live_labels[rng.integers(0, live_labels.size, size=count)]
    clash = sources == targets
    while np.any(clash):
        targets[clash] = live_labels[rng.integers(0, live_labels.size, size=int(clash.sum()))]
        clash = sources == targets
    return sources.astype(np.int64), targets.astype(np.int64)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a non-empty list."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


#: The percentile the gated timings read.  Interference from the host only
#: ever adds time, in bursts of seconds during which everything runs a third
#: slower: over ten noisy runs the median batch time had a spread of 0.25
#: where the fastest decile had 0.08.
QUIET_PERCENTILE = 10


def quiet(values: list[float]) -> float:
    """The fastest-decile value: the program's speed when the host is quiet."""
    return percentile(values, QUIET_PERCENTILE)


def median_ms(seconds: list[float]) -> float:
    """Median of ``seconds`` in milliseconds; 0 when nothing was sampled."""
    return 1e3 * median(seconds) if seconds else 0.0


@dataclass
class Samples:
    """What one phase of routing produced, accumulated outside timed regions."""

    batch_s: list[float] = field(default_factory=list)
    lookups: int = 0
    delivered: int = 0
    hops: int = 0
    reroutes: int = 0
    backtracks: int = 0
    #: Lookups whose outcome breaks an invariant every correct result holds
    #: (delivered means stopped at the target, and the reverse).
    violations: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    digested: int = 0

    def add(self, result, seconds: float) -> None:
        self.batch_s.append(seconds)
        self.lookups += len(result)
        self.delivered += int(result.success.sum())
        self.hops += int(result.hops.sum())
        self.reroutes += int(result.reroutes.sum())
        self.backtracks += int(result.backtracks.sum())
        at_target = np.asarray(result.final, dtype=np.int64) == result.targets
        self.violations += int(np.count_nonzero(at_target != result.success))
        if self.digested < DIGEST_BATCHES:
            self.digested += 1
            self.digest.update(np.ascontiguousarray(result.success, dtype=np.uint8).tobytes())
            self.digest.update(np.ascontiguousarray(result.hops, dtype=np.int64).tobytes())
            self.digest.update(np.ascontiguousarray(result.final, dtype=np.int64).tobytes())

    @property
    def seconds(self) -> float:
        return float(sum(self.batch_s))

    @property
    def batch_ms(self) -> list[float]:
        return [1e3 * s for s in self.batch_s]

    @property
    def unit_s(self) -> list[float]:
        """Program seconds of each unit the phase repeated (here: each batch)."""
        return self.batch_s

    def unit_level(self, estimator) -> float:
        """``estimator`` (a list of seconds -> seconds) over the phase's units."""
        return estimator(self.unit_s)

    def rate(self) -> float:
        """Lookups per second at the quiet unit (see :func:`quiet`)."""
        return self.lookups / len(self.unit_s) / self.unit_level(quiet)


def timed_route(router, sources: np.ndarray, targets: np.ndarray, samples: Samples, observer=None):
    """One timed ``route_batch``; bookkeeping happens after the clock stops.

    ``observer`` (the output checks' replay log) sees every routed batch.
    """
    started = time.perf_counter()
    result = router.route_batch(sources, targets)
    elapsed = time.perf_counter() - started
    samples.add(result, elapsed)
    if observer is not None:
        observer.routed(router, result)
    return result


class Deadline:
    """``while deadline.more(done):`` — at least ``minimum`` units, then until time is up."""

    def __init__(self, seconds: float, minimum: int) -> None:
        self._end = time.perf_counter() + seconds
        self._minimum = minimum

    def more(self, done: int) -> bool:
        return done < self._minimum or time.perf_counter() < self._end


def fresh_copy(snapshot):
    """The same arrays as a new snapshot object: nothing derived is cached on it."""
    public = {
        f.name: getattr(snapshot, f.name)
        for f in dataclasses.fields(snapshot)
        if not f.name.startswith("_")
    }
    return type(snapshot)(**public)


def derived_nbytes(snapshot) -> int:
    """Bytes of the dense state a router derives from ``snapshot``.

    The three ``routing_matrices()``, the ``class_matrix()`` when the protocol
    has one, and one bool usable matrix of the same shape — the layer the
    ROADMAP's "remove the dense routing layer" direction is about.
    """
    matrices = snapshot.routing_matrices()
    total = sum(int(m.nbytes) for m in matrices)
    classes = snapshot.class_matrix()
    if classes is not None:
        total += int(classes.nbytes)
    return total + int(matrices[1].size)  # bool usable matrix: one byte per slot
