"""Experiment harness regenerating every table and figure of the paper.

Each module is one experiment of the evaluation, and *is* its registered
scenario: the measurement function is decorated with
:func:`~repro.scenarios.register_scenario`, reads its
:class:`~repro.scenarios.ScenarioSpec`, and states its defaults once, as the
registered default spec.

* :mod:`repro.experiments.figure5` — link-length distribution of the
  construction heuristic vs the ideal inverse power law (Figure 5a/5b).
* :mod:`repro.experiments.figure6` — failed searches and delivery time under
  node failures, for the three recovery strategies (Figure 6a/6b).
* :mod:`repro.experiments.figure7` — heuristically constructed vs ideal
  network under node failures (Figure 7).
* :mod:`repro.experiments.table1` — delivery-time scaling for every row of
  Table 1, compared against the theoretical bound shapes.
* :mod:`repro.experiments.ablations` — link-replacement strategy, backtrack
  depth, power-law exponent, and Byzantine-routing ablations.
* :mod:`repro.experiments.baseline_comparison` — hop counts and failure
  resilience of Chord / Kleinberg / CAN / Plaxton vs this paper's overlay.

Every experiment that routes does so through one
:class:`~repro.scenarios.rounds.EngineSession`, so it runs on either engine
with identical tables; none builds a greedy router or a snapshot itself, or
fails nodes outside the session.  The one exception is ``byzantine``, whose
adversarial routers are object-only (its docstring says why).

Run one with ``run(get_scenario("figure6").make_spec(overrides=...))`` from
:mod:`repro.scenarios` (or ``repro run figure6 --set ...``); ``.raw`` on the
result is the experiment's native result object (``Figure6Result`` etc.).
The experiment modules are imported by the scenario registry on first lookup,
not here: they import :mod:`repro.scenarios.run`, which imports
:mod:`repro.experiments.runner` and therefore this package.
"""

from repro.experiments.runner import ExperimentTable, format_table

__all__ = ["ExperimentTable", "format_table"]
