"""Chart factors: the fixed-point sum of an Euler product with no
circle weight, as products of cached per-chart values.

``hilbloc.equivariant_integrate`` sends here the integrals whose
integrand is a product (mul, scale, one) of euler nodes over K-classes
(leaf, ksum, kdiff, dual) of chart-local leaves with no tp or o1 shift,
in a problem without section lines; this module is imported by the
first such integral only.  Every specialized weight is then k s, with
no t part, so a node's value at a fixed point is a rational times a
power of s.  Its K-class is a sum of pieces: one per chart, which
depends on that chart's partitions only, and the chi(L) terms, which
depend on no point (the vertex factorization of Carlsson-Okounkov).  A
product of weights is multiplicative in the exponent map, so the
node's value is the product of the values of its pieces.

The pieces are read through ``hilbloc.PointEvaluator``, which alone
resolves the leaves: a node's chi(L) part is its exponent map at the
empty point, every chart empty, and chart c's part for partitions
(mu, nu) is its map at the one-chart point, those partitions on chart
c and none elsewhere, over the empty point's map.  Under a direction,
the factor of a chart and its partitions holds the zero-weight
multiplicity of each Euler node on the chart, and the product of the
nodes' nonzero weights over those of the one-chart point's tangent map
as one reduced integer fraction with its s-degree.  It is built once,
with one evaluator of its one-chart point, and kept in the context; a
point multiplies the factors of its charts.

The points are checked in the order and with the errors of the
per-point path (``hilbloc._point_contribution``): node by node in
evaluation order, the first whose zero weight has positive multiplicity
makes the point zero and one with negative multiplicity raises; a
scale by 0 makes it zero after the nodes before it; then the point is
visited and its tangent weights are checked.  A factor specializes a
node's pieces when the first point reaches that node with its
partitions, and its tangent pieces when such a point passes every
node, so a direction collides where the per-point path's does.
"""

from fractions import Fraction
from math import gcd

from .hilbloc import NO_SHIFT, NestedFixedPoint, PointEvaluator, \
    _exps_sum, _merge_weights


class _Factor:
    """Factor of one chart and its partitions ``parts`` = (mu, nu)
    under one direction, read through ``ev``, the evaluator of its
    one-chart point.  ``zs`` holds the zero-weight multiplicity of each
    node done so far; ``num`` / ``den`` and ``deg`` are the product of
    those nodes' nonzero weights and, once ``ready``, over the tangent
    map's, reduced.  ``bad`` marks a tangent map with a zero or
    negative weight; a ``clean`` factor is ready, not bad, and has no
    zero weight in any node."""

    __slots__ = ("parts", "ev", "zs", "num", "den", "deg", "ready", "bad",
                 "clean")

    def __init__(self, parts, ev):
        self.parts = parts
        self.ev = ev
        self.zs = []
        self.num = self.den = 1
        self.deg = 0
        self.ready = self.bad = self.clean = False

    def add(self, value):
        num, den, deg, z = value
        self.num *= num
        self.den *= den
        self.deg += deg
        self.zs.append(z)

    def finish(self):
        den, m = self.den, self.ev.tangent()
        if (0, 0) in m or min(m.values(), default=0) < 0:
            self.bad = True
        else:
            for (k, _), e in m.items():
                den *= k ** e
                self.deg -= e
        g = gcd(self.num, den) if den > 0 else -gcd(self.num, den)
        self.num, self.den, self.ready = self.num // g, den // g, True
        self.clean = not self.bad and not any(self.zs)


def _value(m):
    """(num, den, deg, zero multiplicity) of the product of the weights
    k s of an exponent map.  The weight (0, 0) is counted apart."""
    num = den = 1
    deg = z = 0
    for (k, _), e in m.items():
        if not k:
            z += e
        elif e > 0:
            num *= k ** e
            deg += e
        else:
            den *= k ** -e
            deg += e
    return num, den, deg, z


def _plan(expr):
    """(scale, nodes, zero) of an integrand: the product of its scales,
    the K-classes of its euler nodes in evaluation order up to the first
    scale by 0, and whether there is such a scale."""
    nodes, scale = [], Fraction(1)

    def walk(e):
        """False once a scale by 0 is reached."""
        nonlocal scale
        if e.kind == "euler":
            nodes.append(e.children[0])
            return True
        if e.kind == "scale":
            if not walk(e.children[0]) or not e.params[0]:
                return False
            scale *= Fraction(e.params[0])
            return True
        return all(walk(c) for c in e.children)
    zero = not walk(expr)
    return scale, nodes, zero


def attempt(ctx, expr, points):
    """The function of a direction that ``hilbloc._first_direction``
    tries for the integral of ``expr`` over ``points``: the integral's
    s-expansion {(s_power, 0): coefficient} at s-powers <= 0, with
    ``ctx.visited`` counted.  A leaf that cannot be resolved raises its
    error at the point and node where the per-point path meets it."""
    scale, nodes, zero = _plan(expr)
    kind = ("factors", expr.key())
    empty = ((),) * len(ctx.surface.charts)

    def one_chart(c, lam):
        return empty[:c] + (lam,) + empty[c + 1:]

    def run(spec):
        tables = ctx.table(spec, kind, NO_SHIFT)
        at_empty = PointEvaluator(ctx, NestedFixedPoint(empty, empty), spec)
        chis, totals = [], {}
        const, fast = None, False
        ctx.visited = 0

        def visit(p):
            """The point's factors, or None where its value is zero."""
            factors = []
            for c, (table, parts) in enumerate(zip(tables, zip(p.mu, p.nu))):
                f = table.get(parts)
                if f is None:
                    point = NestedFixedPoint(*(one_chart(c, lam)
                                               for lam in parts))
                    f = table[parts] = _Factor(
                        parts, PointEvaluator(ctx, point, spec))
                factors.append(f)
            z = 0
            for i, node in enumerate(nodes):
                if i == len(chis):
                    chis.append(at_empty.weights(node))
                z = chis[i].get((0, 0), 0)
                for f in factors:
                    if len(f.zs) == i:
                        f.add(_value(_exps_sum(f.ev.weights(node), chis[i],
                                               -1)))
                    z += f.zs[i]
                if z:
                    break
            if z < 0:
                raise ValueError("non-isolated or non-generic weights")
            if z or zero:
                return None
            ctx.visited += 1
            for f in factors:
                if not f.ready:
                    f.finish()
            for f in factors:
                if f.bad:
                    raise ValueError("non-isolated or non-generic weights")
            return factors

        def add(num, den, deg):
            # a positive power of s integrates to nothing
            if deg <= 0:
                totals[deg, 0] = totals.get((deg, 0), 0) \
                    + (num if den == 1 else Fraction(num, den))

        for p in points:
            if fast:
                # every factor done with no zero weight and chi(L) with
                # none: the point is visited and nonzero
                num, den, deg = const
                for table, parts in zip(tables, zip(p.mu, p.nu)):
                    f = table.get(parts)
                    if f is None or not f.clean:
                        break
                    num, den, deg = num * f.num, den * f.den, deg + f.deg
                else:
                    ctx.visited += 1
                    add(num, den, deg)
                    continue
            factors = visit(p)
            if factors is None:
                continue
            if const is None:
                num, den, deg, _ = _value(_merge_weights(chis))
                const = (num * scale.numerator, den * scale.denominator,
                         deg)
                fast = not any((0, 0) in chi for chi in chis)
            num, den, deg = const
            for f in factors:
                num, den, deg = num * f.num, den * f.den, deg + f.deg
            add(num, den, deg)
        return totals
    return run
