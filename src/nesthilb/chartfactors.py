"""Chart factors: the fixed-point sum of an Euler product of tangent
classes as a product of per-chart series.

``hilbloc.equivariant_integrate`` sends here the integrals whose
integrand is a product (mul, scale, one) of euler nodes over ksum,
kdiff and dual of bare tangent leaves (no tp or o1 shift), with a
nonzero scale, in a problem without section lines, with the
integrand's plan (``hilbloc._euler_plan``); this module is imported by
the first such integral only.  Every specialized weight is then k s,
with no t part, so a node's value at a fixed point is a rational times
a power of s.

A tangent class is a sum of pieces, one per chart, each depending on
that chart's partitions only, and it has no chi(L) part (the vertex
factorization of Carlsson-Okounkov).  A product of weights is
multiplicative in the exponent map, so a point's value is the scale
times the product over its charts of the chart's factor for its
partitions (mu, nu): the nodes' maps at the one-chart point, those
partitions on that chart and none elsewhere, over its tangent map, one
rational with its s-degree, kept in the context.  The sum over the
points of S^[n1] x S^[n2] is then the (n1, n2) coefficient of the
product of the charts' series, each the sum of its factors at
|mu| <= n1, |nu| <= n2 graded by (|mu|, |nu|) and s-degree.

A tangent piece never holds the trivial character, so every point is
nonzero at every node and is visited, and no error but a collision, a
redraw, arises before the sum.  The series specialize the tangent
pieces of every chart and partition of size at most max(n1, n2), the
pieces the per-point path specializes, so a direction collides where
its does.  Values, directions, draws, visited points and errors are the
per-point path's.
"""

from fractions import Fraction

from .hilbloc import NO_SHIFT, PointEvaluator, _exps_sum, _merge_weights, \
    partitions


def _value(m):
    """(coefficient, s-degree) of the product of the weights k s of an
    exponent map without the weight (0, 0); the coefficient is an int
    when no weight is in the denominator."""
    num = den = 1
    deg = 0
    for (k, _), e in m.items():
        if e > 0:
            num *= k ** e
        else:
            den *= k ** -e
        deg += e
    return (num if den == 1 else Fraction(num, den)), deg


def _times(a, b, n1, n2):
    """The product of two series {(|mu|, |nu|, s-degree): coefficient},
    truncated above (n1, n2)."""
    out = {}
    for (i, j, d), x in a.items():
        for (k, l, e), y in b.items():
            if i + k <= n1 and j + l <= n2:
                key = (i + k, j + l, d + e)
                out[key] = out.get(key, 0) + x * y
    return out


def attempt(ctx, expr, plan, n1, n2):
    """The function of a direction that ``hilbloc._first_direction``
    tries for the integral of ``expr``, whose plan is ``plan``, over
    S^[n1] x S^[n2]: the integral's s-expansion {(s_power, t_power):
    coefficient} at s-powers <= 0, with every one of the ``ctx.points``
    listed points counted in ``ctx.visited``."""
    scale, nodes = plan
    kind = ("factors", expr.key())
    k = len(ctx.surface.charts)
    pairs = [(mu, nu) for a in range(n1 + 1) for mu in partitions(a)
             for b in range(n2 + 1) for nu in partitions(b)]

    def factor(spec, c, mu, nu):
        point = tuple(((),) * c + (lam,) + ((),) * (k - c - 1)
                      for lam in (mu, nu)) + (None,)
        ev = PointEvaluator(ctx, point, spec)
        nums = _merge_weights([ev.weights(node) for node in nodes])
        return _value(_exps_sum(nums, ev.tangent(), -1))

    def run(spec):
        total = {(0, 0, 0): 1}
        for c, table in enumerate(ctx.table(spec, kind, NO_SHIFT)):
            series = {}
            for mu, nu in pairs:
                f = table.get((mu, nu))
                if f is None:
                    f = table[mu, nu] = factor(spec, c, mu, nu)
                key = (sum(mu), sum(nu), f[1])
                series[key] = series.get(key, 0) + f[0]
            total = _times(total, series, n1, n2)
        ctx.visited = ctx.points
        # a positive power of s integrates to nothing
        return {(d, 0): x * scale for (a, b, d), x in total.items()
                if (a, b) == (n1, n2) and d <= 0}
    return run
