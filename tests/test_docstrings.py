"""The examples in the package's docstrings must run against the current API."""

import doctest
import importlib
import pkgutil

import legipower


def test_docstring_examples_pass():
    results = {info.name: doctest.testmod(importlib.import_module(f"legipower.{info.name}"))
               for info in pkgutil.iter_modules(legipower.__path__)}
    results["legipower"] = doctest.testmod(legipower)
    assert not any(r.failed for r in results.values()), results
    assert sum(r.attempted for r in results.values()) >= 1
