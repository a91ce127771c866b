"""The formal side of the pushforward formulas: normalization of
`FormulaExpr` trees (see `expr`), their evaluation over graded rings
and K-classes (`eval_formal`, `FormalEnv`), and the formula emitters
that build the trees.

The tree and its JSON form live in `expr`, which the equivariant
evaluator of `hilbloc` reads without loading this module or the ring
model.
"""

from fractions import Fraction

from .ringcore import KClass, delta_det, k_twist, k_dual
from .expr import FormulaExpr, ZERO_CLASS, rhom, pushO, o1_line, co_class
# bound here too: the benchmark's tracer (perfbench/tracing.py) spans
# the JSON grammar under these porteous names
from .expr import expr_to_json, expr_from_json  # noqa: F401
# lazy modules (see the package docstring): a formal job never loads
# surface, and only a push node loads bundles
from . import bundles
from . import surface as surfaces


# ---------------------------------------------------------------------------
# virtual rank


def virtual_rank(expr, rank_env):
    """Virtual rank of a K-valued node.  ``rank_env`` maps a leaf to an
    integer rank."""
    if expr.kind == "leaf":
        return rank_env(expr)
    if expr.kind == "ksum":
        return sum(virtual_rank(c, rank_env) for c in expr.children)
    if expr.kind == "kdiff":
        a, b = expr.children
        return virtual_rank(a, rank_env) - virtual_rank(b, rank_env)
    if expr.kind in ("dual", "twist"):
        return virtual_rank(expr.children[0], rank_env)
    raise ValueError("node %r has no virtual rank" % expr.kind)


# ---------------------------------------------------------------------------
# normalization

_KKINDS = ("leaf", "ksum", "kdiff", "dual", "twist")


def _serre_orient(e):
    """Rewrite rhom leaves with (i,j) = (2,1) through relative Serre
    duality: Rhom(I_2, I_1 xi) = dual Rhom(I_1, I_2 (K - xi))."""
    if e.kind == "leaf" and e.params[0] == "rhom" \
            and (e.attr("i"), e.attr("j")) == (2, 1):
        flipped = rhom(1, 2, bc=-e.attr("bc"), ac=-e.attr("ac"),
                       kc=1 - e.attr("kc"), o1=-e.attr("o1"),
                       tp=-e.attr("tp"), lvl=e.attr("lvl"))
        return FormulaExpr.dual(flipped)
    if e.children:
        return FormulaExpr(e.kind, e.params, e.attrs,
                           tuple(_serre_orient(c) for c in e.children))
    return e


def _push_dual(e, flip=False):
    """Push dual markers down to the leaves."""
    if e.kind == "dual":
        return _push_dual(e.children[0], not flip)
    if e.kind in ("ksum", "kdiff", "twist"):
        kids = [_push_dual(c, flip) for c in e.children]
        if e.kind == "twist":
            # dual(X tensor l^m) = dual(X) tensor l^(-m); the line child
            # itself keeps its orientation
            kids[1] = _push_dual(e.children[1], False)
            m = -e.params[0] if flip else e.params[0]
            return FormulaExpr("twist", (m,), e.attrs, tuple(kids))
        return FormulaExpr(e.kind, e.params, e.attrs, tuple(kids))
    if e.kind == "leaf":
        return FormulaExpr.dual(e) if flip else e
    if e.children:
        return FormulaExpr(e.kind, e.params, e.attrs,
                           tuple(_push_dual(c, flip) for c in e.children))
    return e


def _all_dual(e):
    if e.kind == "dual":
        return True
    if e.kind == "leaf":
        return False
    if e.kind == "ksum":
        return all(_all_dual(c) for c in e.children)
    if e.kind == "kdiff":
        return all(_all_dual(c) for c in e.children)
    if e.kind == "twist":
        return _all_dual(e.children[0])
    return False


def _strip_dual(e):
    if e.kind == "dual":
        return e.children[0]
    if e.kind in ("ksum", "kdiff"):
        return FormulaExpr(e.kind, e.params, e.attrs,
                           tuple(_strip_dual(c) for c in e.children))
    if e.kind == "twist":
        return FormulaExpr("twist", (-e.params[0],), e.attrs,
                           (_strip_dual(e.children[0]), e.children[1]))
    return e


def normalize(expr, surface=None, beta=None, sw_table=None, rank_env=None):
    """Canonical form of an expression tree.

    Orients rhom leaves to (1,2) via Serre duality, converts Chern
    classes of fully dualized arguments by c_k(V*) = (-1)^k c_k(V),
    expands chern-of-twist when the degree equals the argument's
    virtual rank (rank-level Manivel identity), resolves Seiberg-Witten
    leaves against a table (class -> (invariant, pairings), by default
    the surface's own) when surface and beta are supplied, flattens
    and sorts commutative operations, and collects scales.
    """
    resolve = surface is not None and beta is not None
    if resolve and sw_table is None:
        sw_table = surface.sw_table

    def _norm(e):
        e = FormulaExpr(e.kind, e.params, e.attrs,
                        tuple(_norm(c) for c in e.children))

        if e.kind == "leaf" and e.params[0] == "sw" and resolve:
            val = _resolve_sw(e, surface, beta, sw_table)
            return _norm(FormulaExpr.scale(val, FormulaExpr("mul")))

        if e.kind == "chern":
            (k,), (arg,) = e.params, e.children
            if _all_dual(arg):
                inner = _norm(FormulaExpr.chern(k, _strip_dual(arg)))
                if k % 2:
                    return _norm(FormulaExpr.scale(-1, inner))
                return inner
            if arg.kind == "twist" and rank_env is not None:
                body, line = arg.children
                m = arg.params[0]
                if virtual_rank(body, rank_env) == k:
                    h = FormulaExpr.chern(1, line)
                    terms = []
                    for j in range(k + 1):
                        factors = [FormulaExpr.chern(k - j, body)] + [h] * j
                        t = FormulaExpr.mul(*factors)
                        if m != 1 and j:
                            t = FormulaExpr.scale(Fraction(m) ** j, t)
                        terms.append(t)
                    return _norm(FormulaExpr.add(*terms))
            if k == 0:
                return FormulaExpr("mul")
            return e

        if e.kind == "ksum":
            flat = []
            for c in e.children:
                flat.extend(c.children if c.kind == "ksum" else [c])
            return FormulaExpr("ksum",
                               children=sorted(flat, key=lambda x: x.key()))

        if e.kind == "add":
            flat = []
            for c in e.children:
                flat.extend(c.children if c.kind == "add" else [c])
            if len(flat) == 1:
                return flat[0]
            return FormulaExpr("add",
                               children=sorted(flat, key=lambda x: x.key()))

        if e.kind in ("mul", "scale"):
            coeff = Fraction(1)
            factors = []
            stack = [e]
            while stack:
                cur = stack.pop()
                if cur.kind == "scale":
                    coeff *= cur.params[0]
                    stack.append(cur.children[0])
                elif cur.kind in ("mul", "one"):
                    stack.extend(cur.children)
                else:
                    factors.append(cur)
            if any(f == ZERO_CLASS for f in factors):
                return ZERO_CLASS
            factors.sort(key=lambda x: x.key())
            if len(factors) == 1:
                body = factors[0]
            else:
                body = FormulaExpr("mul", children=factors)
            if coeff == 1:
                return body
            if coeff == 0:
                return ZERO_CLASS
            return FormulaExpr.scale(coeff, body)

        if e.kind == "one":
            return FormulaExpr("mul")

        return e

    return _norm(_push_dual(_serre_orient(expr)))


def _resolve_sw(e, surface, beta, table):
    cls = surface.scale(e.attr("bc"), surface.cls(beta))
    cls = surface.add(cls, surface.scale(e.attr("kc"), surface.K))
    value, pairings = table.get(tuple(cls), (0, ()))
    j = e.attr("j")
    if j == 0:
        return Fraction(value)
    if j - 1 < len(pairings):
        return Fraction(pairings[j - 1])
    return Fraction(0)


# ---------------------------------------------------------------------------
# formal evaluation


def eval_formal(expr, env):
    """Evaluate over graded rings.  ``env`` is a callable taking a leaf
    and returning its KClass (or GradedClass for cycle symbols); K-level
    nodes produce KClass, class-level nodes produce GradedClass.
    ``env.ring`` is the ambient ring, ``env.space(level)`` the bundle
    level for push nodes.  A `FormalEnv` keeps the values of inner nodes
    by `FormulaExpr.key()` until its next `bind`, so a subtree shared
    between nodes or evaluations is evaluated once; other environments
    share values within one call.
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
        if e.kind == "cap":
            cycle, body = e.children
            cyc = self.env(cycle)
            if isinstance(cyc, KClass):
                raise ValueError("cap cycle must evaluate to a class")
            return self.cval(body) * cyc
        if e.kind == "push":
            space = self.env.space(e.params[0])
            return bundles.proj_pushforward(space,
                                            self.cval(e.children[0]))
        if e.kind == "leaf":
            val = self.env(e)
            if isinstance(val, KClass):
                raise ValueError("K-class leaf in class position")
            return val
        raise ValueError("cannot evaluate node %r" % e.kind)


class FormalEnv:
    """Leaf environment: explicit bindings keyed by leaf, with the
    ambient ring and optional bundle levels for push nodes.  ``memo``
    holds the values of inner nodes evaluated under the current
    bindings, keyed by `FormulaExpr.key()`."""

    def __init__(self, ring, bindings=None, spaces=None):
        self.ring = ring
        self.bindings = dict(bindings or {})
        self.spaces = dict(spaces or {})
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

    def space(self, level):
        return self.spaces[level]


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


def comparison_factor(G, r, g, u_line=None):
    """Multiplier converting one virtual degeneracy cycle into another
    differing by a rank-g bundle G: c_{rg}(U^* G).  With ``u_line``
    (rank one U, r = 1) the twist is explicit; otherwise U is taken
    trivialized, leaving c_{rg}(G).
    """
    if g < 0:
        raise ValueError("rank must be nonnegative")
    if g == 0:
        return FormulaExpr.one()
    if u_line is not None:
        if r != 1:
            raise ValueError("explicit twist only for rank-one U")
        return FormulaExpr.chern(g, FormulaExpr.twist(G, u_line, 1))
    return FormulaExpr.chern(r * g, G)


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


def nested_vir_comparison(n1, n2, beta=None):
    """Pushforward of the virtual cycle through the inclusion into
    S^[n1] x S^[n2] x S_beta: the Carlsson-Okounkov factor

        c_{n1+n2}( Rpi_* L_beta(1) - Rhom_pi(I1, I2 L_beta(1)) )

    capped against the product of the ambient cycle with the virtual
    cycle of the curve system.
    """
    body = FormulaExpr.chern(n1 + n2, co_class(bc=1, o1=1))
    return FormulaExpr.cap(FormulaExpr.leaf("svir"), body)


def ell_step_formula(n, beta, surface=None, A=None):
    """Multi-step pushforward: the product over consecutive pairs of
    the reduced one-step factors, each on its own projective bundle
    level, plus the matching product of Carlsson-Okounkov factors.

    ``n`` has length ell >= 2 and ``beta`` length ell - 1; each factor
    i carries degree n_i + n_{i+1} + d_i with d_i the twist dimension
    of (beta_i, A).
    """
    ell = len(n)
    if ell < 2 or len(beta) != ell - 1:
        raise ValueError("need ell >= 2 sizes and ell - 1 curve classes")
    reduced_factors = []
    co_factors = []
    for i in range(ell - 1):
        if surface is not None and A is not None:
            d_i = surfaces.twist_dim_d(surface, beta[i], A)
        else:
            d_i = 0
        B1 = FormulaExpr.twist(pushO(bc=1, ac=1, lvl=i), o1_line(lvl=i), 1)
        R1 = rhom(i + 1, i + 2, bc=1, o1=1, lvl=i)
        reduced_factors.append(FormulaExpr.chern(
            n[i] + n[i + 1] + d_i, FormulaExpr.kdiff(B1, R1)))
        CO = FormulaExpr.kdiff(pushO(bc=1, o1=1, lvl=i), R1)
        co_factors.append(FormulaExpr.chern(n[i] + n[i + 1], CO))
    return FormulaExpr.mul(*reduced_factors), FormulaExpr.mul(*co_factors)


def _dual_twist_attrs(e):
    out = dict(e.attrs)
    bc, kc = out.get("bc", 0), out.get("kc", 0)
    out["bc"], out["kc"] = -bc, kc + bc
    out["o1"] = out.get("o1", 0)
    out["tp"] = out.get("tp", 0)
    return out


def _swap_nesting(i):
    return {1: 2, 2: 1}.get(i, i)


def duality_rewrite(expr, n1, n2, beta, surface):
    """The beta <-> K - beta, n1 <-> n2 rewrite of a pushforward
    formula, together with the predicted comparison sign exponent
    s = n1 + n2 - chi(O) - vd_beta.

    Twist descriptors transform symbolically (bc, kc) -> (-bc, kc+bc);
    nesting indices swap; Seiberg-Witten leaves move to the dual class.
    A-twists are outside the duality statement and are rejected.
    """
    def walk(e):
        if e.kind == "leaf":
            name = e.params[0]
            if name in ("rhom", "rhom0", "pushO", "sw"):
                if e.attr("ac"):
                    raise ValueError("unrecognized shape: A-twisted leaf")
                attrs = _dual_twist_attrs(e)
                if name in ("rhom", "rhom0"):
                    attrs["i"] = _swap_nesting(e.attr("i"))
                    attrs["j"] = _swap_nesting(e.attr("j"))
                    attrs["lvl"] = e.attr("lvl")
                if name == "sw":
                    attrs = {"j": e.attr("j"), "bc": -e.attr("bc"),
                             "kc": e.attr("kc") + e.attr("bc")}
                return FormulaExpr("leaf", (name,), attrs.items(), ())
            return e
        return FormulaExpr(e.kind, e.params, e.attrs,
                           tuple(walk(c) for c in e.children))

    s = n1 + n2 - surface.chiO - surfaces.vd_beta(surface, beta)
    return walk(expr), s
