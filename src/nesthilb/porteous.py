"""The formal side of the pushforward formulas: the evaluation of
`FormulaExpr` trees (see `expr`) over graded rings and K-classes
(`eval_formal`, `FormalEnv`), and the formula emitters that build the
trees.

The tree and its JSON form live in `expr`, which the equivariant
evaluator of `hilbloc` reads without loading this module or the ring
model.
"""

from .ringcore import KClass, delta_det, k_twist, k_dual
from .expr import FormulaExpr, rhom, pushO, o1_line
# bound here too: the benchmark's tracer (perfbench/tracing.py) spans
# the JSON grammar under these porteous names
from .expr import expr_to_json, expr_from_json  # noqa: F401
# a lazy module (see the package docstring): a formal job never loads
# surface
from . import surface as surfaces


# ---------------------------------------------------------------------------
# formal evaluation

_KKINDS = ("leaf", "ksum", "kdiff", "dual", "twist")


def eval_formal(expr, env):
    """Evaluate over graded rings.  ``env`` is a callable taking a leaf
    and returning its KClass; K-level nodes produce KClass, class-level
    nodes produce GradedClass.  ``env.ring`` is the ambient ring.  A
    `FormalEnv` keeps the values of inner nodes by `FormulaExpr.key()`
    until its next `bind`, so a subtree shared between nodes or
    evaluations is evaluated once; other environments share values
    within one call.
    """
    return _EvalFormal(env).k_or_class(expr)


class _EvalFormal:
    def __init__(self, env):
        self.env = env
        self.ring = env.ring
        self.memo = env.memo if isinstance(env, FormalEnv) else {}

    def k_or_class(self, e):
        if e.kind in _KKINDS:
            return self.kval(e)
        return self.cval(e)

    def _memoized(self, e, evaluate):
        # a leaf's value is the environment's; inner K-level and
        # class-level nodes have distinct kinds, so their keys differ
        if e.kind == "leaf":
            return evaluate(e)
        key = e.key()
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = evaluate(e)
        return value

    def kval(self, e):
        return self._memoized(e, self._kval)

    def cval(self, e):
        return self._memoized(e, self._cval)

    def _kval(self, e):
        if e.kind == "leaf":
            val = self.env(e)
            if not isinstance(val, KClass):
                raise ValueError("leaf %r did not evaluate to a K-class"
                                 % (e.params[0],))
            return val
        if e.kind == "ksum":
            out = KClass.trivial(self.ring, 0)
            for c in e.children:
                out = out + self.kval(c)
            return out
        if e.kind == "kdiff":
            a, b = e.children
            return self.kval(a) - self.kval(b)
        if e.kind == "dual":
            return k_dual(self.kval(e.children[0]))
        if e.kind == "twist":
            body, line = e.children
            h = self.kval(line).c(1)
            return k_twist(self.kval(body), h, e.params[0])
        raise ValueError("not a K-level node: %r" % e.kind)

    def _cval(self, e):
        if e.kind == "one":
            return self.ring.one()
        if e.kind == "chern":
            return self.kval(e.children[0]).c(e.params[0])
        if e.kind == "euler":
            E = self.kval(e.children[0])
            if E.rank < 0:
                raise ValueError("euler class of negative-rank argument")
            return E.c(E.rank)
        if e.kind == "delta":
            a, b = e.params
            return delta_det(a, b, self.kval(e.children[0]).chern)
        if e.kind == "add":
            out = self.ring.zero()
            for c in e.children:
                out = out + self.cval(c)
            return out
        if e.kind == "mul":
            out = self.ring.one()
            for c in e.children:
                out = out * self.cval(c)
            return out
        if e.kind == "scale":
            return self.cval(e.children[0]) * e.params[0]
        raise ValueError("cannot evaluate node %r" % e.kind)


class FormalEnv:
    """Leaf environment: explicit bindings keyed by leaf, with the
    ambient ring.  ``memo`` holds the values of inner nodes evaluated
    under the current bindings, keyed by `FormulaExpr.key()`."""

    def __init__(self, ring, bindings=None):
        self.ring = ring
        self.bindings = dict(bindings or {})
        self.memo = {}

    def bind(self, leaf, value):
        self.bindings[leaf.key()] = value
        self.memo.clear()
        return self

    def __call__(self, leaf):
        try:
            return self.bindings[leaf.key()]
        except KeyError:
            raise ValueError("unbound leaf %s" % leaf.key())


# ---------------------------------------------------------------------------
# formula emitters


def degeneracy_pushforward_X(e0, e1, r, E, dimX):
    """Thom-Porteous class of the locus where a map of bundles of ranks
    e0 -> e1 has kernel of rank at least r, as a class on the ambient
    space: delta_det(r, e1 - e0 + r, c).  ``E`` is the total Chern
    series of the virtual difference E1 - E0.  Returns the class and
    the expected dimension dimX - r(e1 - e0 + r).
    """
    if r < 1 or r > e0:
        raise ValueError("kernel rank out of range")
    b = e1 - e0 + r
    if b < 0:
        raise ValueError("negative expected codimension")
    cls = delta_det(r, b, E)
    return cls, dimX - r * b


def degeneracy_pushforward_GrB(E0, E1, B, r, esurj2=False, roots=None):
    """Class of the virtual degeneracy locus pushed to Gr(r, B).

    E0, E1 are K-level expressions with integer "rank" attributes, B a
    leaf for the carrier bundle.  Returns the determinantal form
    delta(r, b + e1 - e0) of c(Q_B - E); with the global-surjection
    flag also returns the Euler form c_{r(b+e1-e0)}(U^* (B - E)),
    written over the supplied splitting roots of U when r > 1.
    """
    e0, e1 = E0.attr("rank"), E1.attr("rank")
    b = B.attr("rank")
    N = b + e1 - e0
    if N < 0:
        raise ValueError("negative expected codimension")
    U = FormulaExpr.leaf("U", rank=r)
    C = FormulaExpr.kdiff(FormulaExpr.ksum(B, E1), E0)
    delta_form = FormulaExpr.delta(r, N, FormulaExpr.kdiff(C, U))
    if not esurj2:
        return delta_form
    if r == 1:
        lines = [U]
    else:
        if roots is None or len(roots) != r:
            raise ValueError("need r splitting roots for the Euler form")
        lines = list(roots)
    factors = [FormulaExpr.chern(N, FormulaExpr.twist(C, x, -1))
               for x in lines]
    return delta_form, FormulaExpr.mul(*factors)


def nested_reduced_formula(n1, n2, surface, beta, A, h2_vanishing=False):
    """Pushforward of the reduced cycle of the nested Hilbert scheme to
    the projective bundle P(B), B = pi_*(L_beta(A)):

        c_{n1+n2+d}( B(1) - Rhom_pi(I1, I2 L_beta(1)) ),

    with d the twist dimension A.(2 beta + A - K)/2.  Valid only under
    the caller-certified vanishing H^2(L) = 0 for all L in Pic_beta.
    Returns (expr, info) with the degree and reduced virtual dimension.
    """
    if not h2_vanishing:
        raise ValueError("reduced formula needs the H2-vanishing flag")
    d = surfaces.twist_dim_d(surface, beta, A)
    chi = surfaces.riemann_roch_chi(surface, beta)
    B1 = FormulaExpr.twist(pushO(bc=1, ac=1), o1_line(), 1)
    R1 = rhom(1, 2, bc=1, o1=1)
    expr = FormulaExpr.chern(n1 + n2 + d, FormulaExpr.kdiff(B1, R1))
    info = {"d": d,
            "reduced_vd": chi + n1 + n2 + surface.q - 1,
            "degree": n1 + n2 + d}
    return expr, info
