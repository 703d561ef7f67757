"""The examples in the docstrings of every `knotdom` module, run as
doctests."""
import doctest
import importlib
import pkgutil

import pytest

import knotdom

MODULES = sorted(info.name for info in pkgutil.iter_modules(knotdom.__path__, "knotdom."))


def test_every_module_is_collected():
    assert {"knotdom.alexander", "knotdom.laurent", "knotdom.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", ["knotdom"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
