"""The docstring examples of every nesthilb module run and hold."""

import doctest
import importlib
import pkgutil

import nesthilb


def test_docstring_examples():
    modules = [nesthilb] + [
        importlib.import_module("nesthilb." + info.name)
        for info in pkgutil.iter_modules(nesthilb.__path__)]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0
