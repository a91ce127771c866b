"""The benchmark's tracer patches named nesthilb functions from outside
the package; every name it lists must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_tracing = _load_tracing()
TARGETS = [(module, attr) for module, attr, _ in
           _tracing.SPANS + _tracing.COUNTERS]


@pytest.mark.parametrize("module,attr", TARGETS)
def test_target_resolves(module, attr):
    mod = importlib.import_module("nesthilb." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the entry in the class __dict__
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr, None))


def test_hot_paths_listed():
    for target in (("hilbloc", "RatFunc.__init__"),
                   ("hilbloc", "chern_value"),
                   ("hilbloc", "point_value_laurent")):
        assert target in TARGETS
