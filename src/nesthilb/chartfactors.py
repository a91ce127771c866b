"""Chart factors: the fixed-point sum of an Euler product with no
circle weight, as products of cached per-chart values.

``hilbloc.equivariant_integrate`` sends here the integrals whose
integrand is a product (mul, scale, one) of euler nodes over K-classes
(leaf, ksum, kdiff, dual) of chart-local leaves (tangent, taut, rhom,
rhom0, pushO) with no tp or o1 shift, in a problem without section
lines; this module is imported by the first such integral only.  Every
specialized weight is then k s, with no t part, so a node's value at a
fixed point is a rational times a power of s.  Its K-class is a sum of
pieces: one per chart, which depends on that chart's partitions only,
and the chi(L) terms, which depend on no point (the vertex
factorization of Carlsson-Okounkov).  A product of weights is
multiplicative in the exponent map, so the node's value is the product
of the values of its pieces.

Under a direction, the factor of a chart and its partitions holds the
zero-weight multiplicity of each Euler node on the chart, and the
product of the nodes' nonzero weights over those of the chart's
tangent piece as one reduced integer fraction with its s-degree.  It
is built once from the context's per-chart maps and kept in the
context; a point multiplies the factors of its charts.

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

from .hilbloc import NO_SHIFT


class _Factor:
    """Factor of one chart and its partitions ``parts`` = (mu, nu)
    under one direction.  ``zs`` holds the zero-weight multiplicity of
    each node done so far; ``num`` / ``den`` and ``deg`` are the product
    of those nodes' nonzero weights and, once ``ready``, over the
    tangent piece's, reduced.  ``bad`` marks a tangent piece with a zero
    or negative weight; a ``clean`` factor is ready, not bad, and has no
    zero weight in any node."""

    __slots__ = ("parts", "zs", "num", "den", "deg", "ready", "bad",
                 "clean")

    def __init__(self, parts):
        self.parts = parts
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

    def finish(self, tangent_maps):
        den = self.den
        for m in tangent_maps:
            if (0, 0) in m or min(m.values(), default=0) < 0:
                self.bad = True
                continue
            for (k, _), e in m.items():
                den *= k ** e
                self.deg -= e
        g = gcd(self.num, den) if den > 0 else -gcd(self.num, den)
        self.num, self.den, self.ready = self.num // g, den // g, True
        self.clean = not self.bad and not any(self.zs)


def _value(m, sign, dual):
    """(num, den, deg, zero multiplicity) of the product of the weights
    k s of an exponent map, of its dual when ``dual``, inverted when
    ``sign`` is -1.  The weight (0, 0) is counted apart."""
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
    if dual and deg % 2:
        num = -num
    return (num, den, deg, z) if sign > 0 else (den, num, -deg, -z)


def _times(values):
    num = den = 1
    deg = z = 0
    for n, d, e, y in values:
        num, den, deg, z = num * n, den * d, deg + e, z + y
    return num, den, deg, z


def _side(index):
    """Position of a nesting index in a chart's (mu, nu)."""
    if index not in (1, 2):
        raise ValueError("nesting index out of range for localization")
    return index - 1


def _leaf(ctx, e, sign, dual):
    """A leaf as (kind of its chart pieces, sign, dual, sides, chart
    vertices, chi(L) class or None)."""
    name = e.params[0]
    if name == "tangent":
        return ("tangent", sign, dual, (0, 1), None, None)
    if name == "taut":
        return ("taut", sign, dual, (_side(e.attr("level")),),
                ctx.vertices(e.attr("a")), None)
    cls = ctx.twist_class(e)
    chi = None if name == "rhom0" else cls
    if name == "pushO":
        return (None, sign, dual, (), None, chi)
    return ("rhom", sign, dual, (_side(e.attr("i")), _side(e.attr("j"))),
            ctx.vertices(cls), chi)


def _flatten(ctx, e, sign, dual, out):
    """The leaves of a K-class in evaluation order, each with the sign
    of the kdiffs and the parity of the duals above it."""
    if e.kind == "leaf":
        out.append(_leaf(ctx, e, sign, dual))
    elif e.kind == "dual":
        _flatten(ctx, e.children[0], sign, not dual, out)
    else:
        for i, c in enumerate(e.children):
            # the second child of a kdiff is subtracted
            _flatten(ctx, c, -sign if e.kind == "kdiff" and i else sign,
                     dual, out)


def _plan(ctx, expr):
    """(scale, nodes, zero) of an integrand: the product of its scales,
    its euler nodes in evaluation order up to the first scale by 0, each
    as the list of its leaves, and whether there is such a scale."""
    nodes, scale = [], Fraction(1)

    def walk(e):
        """False once a scale by 0 is reached."""
        nonlocal scale
        if e.kind == "euler":
            nodes.append([])
            _flatten(ctx, e.children[0], 1, False, nodes[-1])
            return True
        if e.kind == "scale":
            if not walk(e.children[0]) or not e.params[0]:
                return False
            scale *= Fraction(e.params[0])
            return True
        return all(walk(c) for c in e.children)
    zero = not walk(expr)
    return scale, nodes, zero


def _keys(kind, sides, verts, c, parts):
    """Keys of a leaf's pieces on chart c with partitions ``parts``."""
    if kind == "tangent":
        return [lam for lam in parts if lam]
    if kind == "taut":
        lam = parts[sides[0]]
        return [(lam, verts[c])] if lam else []
    if kind == "rhom":
        a, b = parts[sides[0]], parts[sides[1]]
        return [(a, b, verts[c])] if a or b else []
    return []


def _node_at(ctx, spec, node, c, parts):
    """Value of a node's pieces on chart c with partitions ``parts``."""
    return _times(
        _value(ctx.chart_map(spec, kind, NO_SHIFT, c, key), sign, dual)
        for kind, sign, dual, sides, verts, _ in node
        for key in _keys(kind, sides, verts, c, parts))


def _node_chi(ctx, spec, node):
    """Value of a node's chi(L) terms."""
    return _times(_value(ctx.chi_weights(spec, NO_SHIFT, chi), sign, dual)
                  for _, sign, dual, _, _, chi in node if chi is not None)


def attempt(ctx, expr, points):
    """The function of a direction that ``hilbloc._first_direction``
    tries for the integral of ``expr`` over ``points``: the integral's
    s-expansion {(s_power, 0): coefficient} at s-powers <= 0, with
    ``ctx.visited`` counted.  None when a leaf of ``expr`` cannot be
    resolved: the per-point path then raises its error where it
    arises."""
    try:
        scale, nodes, zero = _plan(ctx, expr)
    except Exception:
        # whatever resolving a leaf raises, the per-point path raises
        # too, at the point and node where it meets the leaf
        return None
    kind = ("factors", expr.key())

    def run(spec):
        tables = ctx.table(spec, kind, NO_SHIFT)
        chis, totals = [], {}
        const, fast = None, False
        ctx.visited = 0

        def visit(p):
            """The point's factors, or None where its value is zero."""
            factors = []
            for table, parts in zip(tables, zip(p.mu, p.nu)):
                f = table.get(parts)
                if f is None:
                    f = table[parts] = _Factor(parts)
                factors.append(f)
            z = 0
            for i, node in enumerate(nodes):
                if i == len(chis):
                    chis.append(_node_chi(ctx, spec, node))
                z = chis[i][3]
                for c, f in enumerate(factors):
                    if len(f.zs) == i:
                        f.add(_node_at(ctx, spec, node, c, f.parts))
                    z += f.zs[i]
                if z:
                    break
            if z < 0:
                raise ValueError("non-isolated or non-generic weights")
            if z or zero:
                return None
            ctx.visited += 1
            for c, f in enumerate(factors):
                if not f.ready:
                    f.finish([ctx.chart_map(spec, "tangent", NO_SHIFT, c,
                                            lam) for lam in f.parts if lam])
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
                num, den, deg, _ = _times(chis)
                const = (num * scale.numerator, den * scale.denominator,
                         deg)
                fast = not any(chi[3] for chi in chis)
            num, den, deg = const
            for f in factors:
                num, den, deg = num * f.num, den * f.den, deg + f.deg
            add(num, den, deg)
        return totals
    return run
