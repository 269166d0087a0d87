"""No ``src/`` function or class exists only for the tests.

An AST pass collects every name the program itself uses — in ``src/``, in
``bench/`` and in ``examples/`` — and lists each ``src/`` definition (a
module-level function or class, or a method of a class) whose name none of
them uses.  Such a definition is named by the tests alone, or by nothing:
a scalar reference belongs in its test module as a frozen copy, and an
accessor only tests call goes, its tests reading the public surface instead.

What counts as a use: a bare name, an attribute, and a name imported by a
module that is not a package ``__init__``.  A re-export is not a use: an
import inside an ``__init__.py`` and an entry of any ``__all__`` only declare
a public surface, so a public name nothing in the program calls is flagged
like any other.  The match is by name alone, so a method that shares its name
with anything the program uses passes; the scan is a floor, not a proof of
reachability.
Scenario functions registered with ``@register_scenario`` are reached through
the registry and are exempt by their decorator.  Every other exception is
listed in :data:`ALLOWED` with its reason.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Trees whose code is the program; the tests are not.
PROGRAM_TREES = ("src", "bench", "examples")

#: Definitions the scan flags that stay on purpose, qualified name -> reason.
ALLOWED = {
    "CanNetwork.point_to_label": (
        "inverse of label_to_point; the frozen scalar CAN table in "
        "tests/unit/test_baselines.py builds its neighbour labels through it"
    ),
    "KleinbergGridNetwork.point_to_label": (
        "inverse of label_to_point; the frozen scalar grid table in "
        "tests/unit/test_baselines.py builds its lattice labels through it"
    ),
    "ChordNetwork.successor_of": (
        "the ring lookup the paper's Chord baseline is defined by; the frozen "
        "scalar finger-table build in tests/unit/test_baselines.py reads it"
    ),
    # The paper's analysis as numerical tools: ROADMAP direction 7 overlays
    # them on the measured Table-1 curves.
    "fit_power_law": "fits hops ~ c * n^a, the growth-rate check of ROADMAP direction 7",
    "fit_log_squared_model": "fits hops ~ a * log^2 n + b, Theorems 12-13's shape",
    "goodness_of_fit_r2": "the R^2 that judges the two fits above",
    "karp_upfal_wigderson_bound": "Lemma 1, the drift bound every upper bound rests on",
    "theorem2_lower_bound": "Theorem 2, the drift bound every lower bound rests on",
    "lower_bound_one_sided": "Theorem 10, one-sided links: Table 1's lower bound for l in [1, lg n]",
    "lower_bound_two_sided": "Theorem 10, two-sided links",
    "lower_bound_large_degree": "Theorem 3: Table 1's lower bound for l above lg n",
    "expected_snapshot_dtypes": (
        "evaluates SNAPSHOT_CONTRACT for one snapshot; the dtype property in "
        "tests/property/test_property_dtypes.py checks every governed array against it"
    ),
    "snapshot_cache_stats": "the shared-memory arena's counters; ROADMAP direction 8 decides the arena",
    "random_schedule": (
        "the seeded fault-schedule generator behind the delta-parity property "
        "and ROADMAP direction 11's state machine"
    ),
    "Overlay": "the protocol type every overlay implements; TestOverlayProtocol checks them against it",
    "unregister_scenario": "the test hook that keeps the scenario registry isolated between tests",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_used(tree: ast.Module, *, package_init: bool = False) -> set[str]:
    """Names ``tree`` uses; a package ``__init__``'s imports are re-exports, not uses."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and not package_init:
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _is_registered_scenario(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "register_scenario":
            return True
    return False


def _definitions(tree: ast.Module):
    """Yield ``(qualified name, name, node)`` for module-level and class-level defs."""
    pending = [(tree.body, "")]
    while pending:
        body, prefix = pending.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + node.name, node.name, node
                if isinstance(node, ast.ClassDef):
                    pending.append((node.body, f"{prefix}{node.name}."))


@cache
def _unused_by_program() -> dict[str, str]:
    """``src/`` definitions no program tree names: qualified name -> ``path:line``."""
    used: set[str] = set()
    for tree_name in PROGRAM_TREES:
        for path in sorted((REPO / tree_name).rglob("*.py")):
            used |= _names_used(_parse(path), package_init=path.name == "__init__.py")
    flagged: dict[str, str] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        for qualname, name, node in _definitions(_parse(path)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in used or _is_registered_scenario(node):
                continue
            flagged[qualname] = f"{path.relative_to(REPO)}:{node.lineno}"
    return flagged


def test_no_src_definition_is_named_only_by_tests():
    unexpected = {
        qualname: where
        for qualname, where in _unused_by_program().items()
        if qualname not in ALLOWED
    }
    assert not unexpected, (
        "src/ definitions no code in src/, bench/ or examples/ names — move a "
        "reference into its test module, delete a test-only accessor, or add "
        f"an ALLOWED entry with a reason: {unexpected}"
    )


def test_every_allowlist_entry_is_still_needed():
    stale = sorted(set(ALLOWED) - set(_unused_by_program()))
    assert not stale, f"ALLOWED entries the scan no longer flags: {stale}"


def test_the_scan_sees_a_test_only_method():
    tree = ast.parse(
        "class Kept:\n"
        "    def used(self): ...\n"
        "    def test_only(self): ...\n"
        "Kept().used()\n"
    )
    used = _names_used(tree)
    unused = [qualname for qualname, name, _ in _definitions(tree) if name not in used]
    assert unused == ["Kept.test_only"]


def test_the_scan_does_not_count_a_re_export_as_a_use():
    definitions = ast.parse("def only_re_exported(): ...\ndef imported_and_called(): ...\n")
    package_init = ast.parse('from m import only_re_exported\n__all__ = ["only_re_exported"]\n')
    caller = ast.parse("from m import imported_and_called\nimported_and_called()\n")
    used = _names_used(package_init, package_init=True) | _names_used(caller)
    unused = [qualname for qualname, name, _ in _definitions(definitions) if name not in used]
    assert unused == ["only_re_exported"]
