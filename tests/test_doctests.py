"""The examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import invbargraph


def test_every_module_docstring_example():
    """doctest over every module; `invseq`'s example pins the repr of `StatRecord`."""
    results = {info.name: doctest.testmod(importlib.import_module(f"invbargraph.{info.name}"))
               for info in pkgutil.iter_modules(invbargraph.__path__)
               if info.name != "__main__"}  # importing it would run the CLI
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert results["invseq"].attempted >= 1
