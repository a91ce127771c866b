"""Symbolic intersection theory and equivariant localization for nested
Hilbert schemes of points and curves on surfaces.

Modules:

- expr: formula expression trees, their JSON form, p/q rationals
- ringcore: exact graded ring model, Chern/Segre series, determinantal
  expressions, K-class arithmetic
- bundles: projective and Grassmann bundle models with pushforwards
- surface: surface numerics and toric fixed-point data
- porteous: formal evaluation of expression trees, and the formula
  emitters
- hilbloc: torus fixed points, characters, Atiyah-Bott integration
- chartfactors: the integrals of hilbloc's Euler products of tangent
  classes as products of per-chart series; hilbloc imports it at the
  first such integral
- vw: rank-2 monopole contributions and universality fits
- checks: the suites of the ``verify`` command
- cli: batch front-end

``import nesthilb`` loads only expr, whose p/q helpers it re-exports.
It registers ringcore, bundles, surface, porteous, hilbloc, vw and
checks as lazy modules: each is in ``sys.modules`` from the start but
runs (and, without bytecode, compiles) only when one of its attributes
is first read.  The ring names re-exported here (``nesthilb.Ring``, ...)
are read from ringcore on first use.  A job thus pays only for the
modules its command uses.  The modules refer to each other through the
module object, read at call time (``hilbloc.equivariant_integrate(...)``),
or import names only from a module they need anyway.
"""

import importlib.util
import sys


def _register_lazy(name):
    fullname = "%s.%s" % (__name__, name)
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    globals()[name] = module


# registered before anything else is imported: a module imported
# eagerly first would be replaced here by a second copy
for _name in ("ringcore", "surface", "bundles", "porteous", "hilbloc", "vw",
              "checks"):
    _register_lazy(_name)
del _name

from .expr import rational_str, parse_rational

_RING_NAMES = ("Ring", "GradedClass", "KClass", "series_invert", "delta_det",
               "k_twist", "k_dual")

__all__ = list(_RING_NAMES) + ["rational_str", "parse_rational"]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: the ring names load ringcore (registered above) when
    # first read
    if name in _RING_NAMES:
        return getattr(ringcore, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
