"""Every docstring example in the ``repro`` package runs and passes."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import repro


def test_every_docstring_example_passes():
    names = ["repro"] + [
        name for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, f"{name}: {result.failed} failing example(s)"
        attempted += result.attempted
    assert attempted >= 29
