"""Spans and exact counts around the public functions of each nesthilb
module, installed from outside the package.

A span wraps a function in every nesthilb namespace that bound it (for
example ``equivariant_integrate`` is bound in ``hilbloc``, ``cli`` and
``vw``), so calls through any import are seen.  Each span records its
name, start, end and parent; the spans of one job process share the
job's identifier.  They stay in memory and are written out when the job
ends.  Pool workers forked by the job stop tracing at the fork: their
work is not traced.
"""

import functools
import os
import sys
import time
from collections import Counter

# (module, attribute, span name).  ``Class.method`` patches the class.
SPANS = (
    ("cli", "JobSpec.__init__", "cli.jobspec"),
    ("cli", "run", "cli.run"),
    ("surface", "load_surface", "surface.load"),
    ("ringcore", "GradedClass.__mul__", "ringcore.mul"),
    ("ringcore", "GradedClass.__rmul__", "ringcore.mul"),
    ("ringcore", "series_invert", "ringcore.series_invert"),
    ("ringcore", "delta_det", "ringcore.delta_det"),
    ("bundles", "grassmann_split_pushforward", "bundles.split_pushforward"),
    ("bundles", "projective_bundle", "bundles.projective_bundle"),
    ("bundles", "proj_pushforward", "bundles.proj_pushforward"),
    ("porteous", "eval_formal", "porteous.eval_formal"),
    ("porteous", "degeneracy_pushforward_X", "porteous.degeneracy"),
    ("porteous", "degeneracy_pushforward_GrB", "porteous.degeneracy"),
    ("porteous", "expr_to_json", "porteous.expr_json"),
    ("porteous", "expr_from_json", "porteous.expr_json"),
    ("hilbloc", "equivariant_integrate", "hilbloc.integrate"),
    ("hilbloc", "enumerate_fixed_points", "hilbloc.enumerate"),
    ("hilbloc", "full_tangent_character", "hilbloc.tangent_char"),
    ("hilbloc", "rhom_global_character", "hilbloc.rhom_char"),
    ("hilbloc", "chi_line_character", "hilbloc.chi"),
    ("hilbloc", "chern_value", "hilbloc.chern_value"),
    ("hilbloc", "point_value_laurent", "hilbloc.laurent"),
    ("vw", "monopole_contribution", "vw.monopole_contribution"),
    ("vw", "point_contribution", "vw.point_contribution"),
    ("vw", "universality_fit", "vw.fit"),
)

# (module, attribute, counter name): calls counted without a span,
# because they are too many or too short to time one by one
COUNTERS = (
    ("surface", "ToricSurface.chart_vertex", "surface.chart_vertex_calls"),
    ("hilbloc", "assemble", "hilbloc.assemble_calls"),
    ("hilbloc", "RatFunc.__init__", "hilbloc.ratfunc_new"),
    # one draw per attempt; a draw beyond the first of an integral
    # follows a weight collision
    ("hilbloc", "_draw_spec", "hilbloc.spec_draws"),
)


class Tracer:
    """In-memory spans and counters of one job process."""

    def __init__(self, job):
        self.job = job
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.active = True
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self):
        self.active = False

    def add_span(self, name, start, end):
        self.spans.append([name, start, end, -1])

    def span(self, name, fn, after=None):
        """``fn`` inside a span.  ``after(result)``, also inside the span,
        may count and returns the result to hand on."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(out)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            return out
        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every target in SPANS and COUNTERS."""
        counts = self.counts

        def terms_out(cls):
            counts["ringcore.mul_terms_out"] += len(cls.poly)
            return cls

        def listed(points):
            # the integral lists the point stream at once, so listing it
            # here changes no order and lets the points be counted
            points = list(points)
            counts["hilbloc.fixed_points"] += len(points)
            return iter(points)

        hooks = {"ringcore.mul": terms_out, "hilbloc.enumerate": listed}
        for module, attr, name in SPANS:
            _patch(module, attr, functools.partial(self.span, name,
                                                   after=hooks.get(name)))
        for module, attr, name in COUNTERS:
            _patch(module, attr, functools.partial(self.counter, name))

    def dump(self):
        return {"job": self.job, "spans": self.spans,
                "counts": dict(self.counts)}


def _patch(module, attr, make):
    """Replace ``nesthilb.<module>.<attr>`` by ``make(original)`` in
    every nesthilb namespace that binds the original."""
    mod = sys.modules["nesthilb." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    original = getattr(mod, attr)
    wrapped = make(original)
    for name, other in list(sys.modules.items()):
        if name == "nesthilb" or name.startswith("nesthilb."):
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)


def summarize(spans):
    """Per span name: calls, time outside any enclosing span of the same
    name (so recursion is not counted twice), and self time (duration
    less the time covered by direct child spans)."""
    calls, total, self_time = Counter(), Counter(), Counter()
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += end - start
    return calls, total, self_time
