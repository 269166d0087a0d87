"""NumPy dtype/shape dataflow analysis behind the RPA1xx ids of ``repro check``.

An abstract interpreter (:mod:`~repro.devtools.analyze.interp`) walks each
module's AST with per-binding dtype lattice values
(:mod:`~repro.devtools.analyze.values`) and intraprocedural call summaries,
and fires the RPA1xx checks (:mod:`~repro.devtools.analyze.checks`) where a
violation is definite.  :class:`repro.devtools.rules.dtype_flow.DtypeFlowRule`
drives it; findings flow through the same engine, reporters and ``# repro:
allow[...]`` suppressions as every other rule.
"""
