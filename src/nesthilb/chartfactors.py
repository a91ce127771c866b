"""Chart factors: the fixed-point sum of an Euler product with no
circle weight, as products of cached per-chart values.

``hilbloc.equivariant_integrate`` sends here the integrals whose
integrand is a product (mul, scale, one) of euler nodes over K-classes
(leaf, ksum, kdiff, dual) of chart-local leaves with no tp or o1 shift,
in a problem without section lines, with the integrand's plan
(``hilbloc._euler_plan``); this module is imported by the first such
integral only.  Every specialized weight is then k s, with no t part,
so a node's value at a fixed point is a rational times a power of s.  Its K-class is a sum of pieces: one per chart, which
depends on that chart's partitions only, and the chi(L) terms, which
depend on no point (the vertex factorization of Carlsson-Okounkov).  A
product of weights is multiplicative in the exponent map, so the
node's value is the product of the values of its pieces.

The per-point path (``hilbloc._point_contribution``) decides every
point it meets first: its value, whether it is zero or visited, its
errors and the pieces its direction specializes.  Chart factors are
learned from the points it visited.  After such a point, each of its
charts with no factor yet gets one, read through
``hilbloc.PointEvaluator``: a node's chi(L) part is its exponent map at
the empty point (mus, nus, pb) with every chart empty and no pb, and
chart c's part for partitions (mu, nu) is its map at the one-chart
point, those partitions on chart c and none elsewhere, over the empty
point's map.  The factor is the product of the nodes' chart parts over
the one-chart point's tangent map, one reduced integer fraction with
its s-degree, kept in the context.  Both maps read only pieces the visited point specialized, so
a direction collides where the per-point path's does.  A chart part
with the zero weight, checked node by node since the weights of two
nodes can cancel, leaves the chart without a factor.

When no node's chi(L) part holds the zero weight, a point whose charts
all hold a factor is nonzero at every node and has a clean tangent map:
it is visited, and its value is the chi(L) constant times the scales
times its charts' factors.  Every other point takes the per-point path.
"""

from fractions import Fraction
from math import gcd

from . import hilbloc
from .hilbloc import NO_SHIFT, PointEvaluator, _exps_sum, _merge_weights


def _value(m):
    """(num, den, deg) of the product of the weights k s of an exponent
    map without the weight (0, 0), reduced with den > 0."""
    num = den = 1
    deg = 0
    for (k, _), e in m.items():
        if e > 0:
            num *= k ** e
        else:
            den *= k ** -e
        deg += e
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g, deg


def _factor(ctx, spec, nodes, chis, point):
    """The factor of a one-chart point of a visited point, or None where
    a node's part holds the zero weight.  Tangent pieces have positive
    multiplicities only, so the visited point's checked tangent map
    leaves no zero or negative weight in the one-chart point's."""
    ev = PointEvaluator(ctx, point, spec)
    parts = [_exps_sum(ev.weights(node), chi, -1)
             for node, chi in zip(nodes, chis)]
    if any((0, 0) in m for m in parts):
        return None
    return _value(_exps_sum(_merge_weights(parts), ev.tangent(), -1))


def attempt(ctx, expr, plan, points):
    """The function of a direction that ``hilbloc._first_direction``
    tries for the integral of ``expr``, whose plan is ``plan``, over
    ``points``, each a fixed point (mus, nus, pb): the integral's
    s-expansion {(s_power, t_power): coefficient} at s-powers <= 0,
    with ``ctx.visited`` counted up from the zero each attempt starts
    at.  Values, visited points and errors are the per-point path's."""
    scale, nodes = plan
    kind = ("factors", expr.key())
    empty = ((),) * len(ctx.surface.charts)

    def run(spec):
        tables = ctx.table(spec, kind, NO_SHIFT)
        totals, chis, const = {}, None, None
        for p in points:
            charts = list(zip(tables, zip(p[0], p[1])))
            if const is not None:
                num, den, deg = const
                for table, parts in charts:
                    f = table.get(parts)
                    if f is None:
                        break
                    num, den, deg = num * f[0], den * f[1], deg + f[2]
                else:
                    ctx.visited += 1
                    # a positive power of s integrates to nothing
                    if deg <= 0:
                        totals[deg, 0] = totals.get((deg, 0), 0) \
                            + (num if den == 1 else Fraction(num, den))
                    continue
            visited = ctx.visited
            contrib = hilbloc._point_contribution(ctx, expr, p, spec)
            for key, coef in contrib.items():
                totals[key] = totals.get(key, 0) + coef
            if ctx.visited == visited:
                continue
            if chis is None:
                at_empty = PointEvaluator(ctx, (empty, empty, None), spec)
                chis = [at_empty.weights(node) for node in nodes]
                if not any((0, 0) in chi for chi in chis):
                    num, den, deg = _value(_merge_weights(chis))
                    const = (num * scale.numerator,
                             den * scale.denominator, deg)
            if const is None:
                continue
            for c, (table, parts) in enumerate(charts):
                if parts not in table:
                    point = tuple(empty[:c] + (lam,) + empty[c + 1:]
                                  for lam in parts) + (None,)
                    table[parts] = _factor(ctx, spec, nodes, chis, point)
        return totals
    return run
