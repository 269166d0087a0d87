"""RPR001 — randomness and wall clocks must not leak into deterministic code.

Every guarantee the reproduction makes (engine parity, sweep byte-identity,
telemetry on/off identity) is a statement about *reproducible* executions,
so all randomness must flow through :mod:`repro.util.rng` seed derivation
and results must never depend on a wall clock:

* calls into the stdlib ``random`` module or the legacy global
  ``numpy.random.*`` API are flagged everywhere (the seeded
  ``np.random.Generator`` objects handed out by ``util.rng`` are fine —
  the rule flags the *global* entry points, not generator methods;
  ``np.random.default_rng(seed)`` with an explicit seed argument is
  deterministic and allowed, the zero-argument form is not);
* clock reads (``time.time`` / ``perf_counter`` / ``monotonic`` /
  ``process_time`` and their ``_ns`` variants, ``datetime.now`` /
  ``utcnow``) are flagged outside the telemetry layer and the explicitly
  timing-opt-in modules listed in ``TIMING_OPT_IN``.

Clock reads that are only reachable with telemetry enabled (inside a
``tel is not None`` guard) are still flagged — suppress them with a
justified ``# repro: allow[RPR001]`` so the opt-in is visible in the diff.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.findings import Finding
from repro.devtools.rules import ImportMap, LintModule, Rule, iter_calls

__all__ = ["DeterminismRule"]

#: Fully-qualified call prefixes that produce unseeded randomness.
_RANDOM_PREFIXES = ("random.", "numpy.random.")
#: Fully-qualified clock-reading callables.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Modules that measure wall-clock time as an explicit, documented feature
#: (RunResult.seconds, the sweep timings side table).
#: Timing there is opt-in output, never an input to any computed result.
TIMING_OPT_IN = (
    "src/repro/scenarios/run.py",
    "src/repro/scenarios/sweep.py",
)


class DeterminismRule(Rule):
    id = "RPR001"
    name = "determinism"
    description = (
        "no unseeded random.*/np.random.* calls, no wall-clock reads outside "
        "telemetry/timing-opt-in modules; randomness flows through "
        "util.rng seed derivation"
    )

    def applies_to(self, module: LintModule) -> bool:
        # util/rng.py is the one sanctioned np.random entry point.
        return module.path != "src/repro/util/rng.py"

    def _clocks_exempt(self, module: LintModule) -> bool:
        return module.in_dir("src/repro/telemetry") or module.path in TIMING_OPT_IN

    def check_module(self, module: LintModule) -> Iterable[Finding]:
        imports = ImportMap(module.tree)
        clocks_exempt = self._clocks_exempt(module)
        for call in iter_calls(module.tree):
            resolved = imports.resolve_call(call)
            if resolved is None:
                continue
            if resolved.startswith(_RANDOM_PREFIXES) or resolved == "random":
                if resolved == "numpy.random.default_rng" and (call.args or call.keywords):
                    # An explicitly seeded generator is deterministic.
                    continue
                yield module.finding(
                    self.id,
                    call,
                    f"unseeded randomness: `{resolved}` — draw through "
                    "repro.util.rng (derive_seed/spawn_rng/RandomSource) instead",
                )
            elif resolved in _CLOCK_CALLS and not clocks_exempt:
                yield module.finding(
                    self.id,
                    call,
                    f"wall-clock read: `{resolved}` outside telemetry/timing-opt-in "
                    "modules — results must not depend on the clock",
                )
