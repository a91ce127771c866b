"""Builders and small combinatorics that only the tests use: the zero
class and the effectivity of a class, the JSON form of a surface, the
arm and leg of a cell, the Seiberg-Witten coupled pushforward trees of each geometric case and their invariant and Picard
point leaves, the section-bundle route to the virtual class, the
flag-tower route of a Grassmann pushforward, the push of a class down a
bundle tower, the comparison factors between virtual
cycles, the model of a point, partitions inside a partition, staircase
generators, per-chart line weights, the non-equivariant limit of an
integral and the counters it leaves on its localization context; the
formal references of criteria 06 and 09: virtual ranks, the normal form
of trees, the beta <-> K - beta duality rewrite and the l-step nested
emitter; and references for the packed ring paths read through the
{exponent tuple: Fraction} view ``GradedClass.poly``: printing, lifting,
the projective-bundle relation and pushforward, and the cofactor
determinant."""

from fractions import Fraction

from nesthilb.bundles import SpaceModel, free_model, projective_bundle, \
    proj_pushforward, grassmann_split_pushforward
from nesthilb.expr import FormulaExpr, rhom, pushO, o1_line, co_class, \
    rational_str
from nesthilb.hilbloc import RatFunc, conjugate
from nesthilb.ringcore import Ring, GradedClass, KClass
from nesthilb.porteous import nested_reduced_formula
from nesthilb.surface import ToricSurface, twist_dim_d, vd_beta


# the empty sum
ZERO_CLASS = FormulaExpr.add()


def is_effective(surface, beta):
    """Whether the class should be treated as effective: exactly, on a
    toric surface, when its section polytope has a lattice point; on a
    profile by a crude test (nonnegative coefficients and pairing with
    K, which admits the zero class and positive parts of K)."""
    if isinstance(surface, ToricSurface):
        return len(surface.polytope_points(beta)) > 0
    beta = surface.cls(beta)
    if all(x == 0 for x in beta):
        return True
    return all(x >= 0 for x in beta) and surface.dot(beta, surface.K) >= 0


def surface_to_json(surface):
    """The JSON form of a surface that ``surface_from_json`` reads."""
    toric = isinstance(surface, ToricSurface)
    doc = {
        "name": surface.name,
        "rays": [list(r) for r in surface.rays] if toric else None,
        "profile": {"chiO": surface.chiO, "K2": surface.K2, "e": surface.e,
                    "q": surface.q, "pg": surface.pg},
        "sw_table": [
            {"beta": [rational_str(x) for x in beta],
             "sw": rational_str(sw)}
            for beta, sw in sorted(surface.sw_table.items())
        ],
    }
    if toric:
        doc["basis"] = list(surface.basis)
    return doc


def arm(mu, cell):
    """Cells of mu to the right of the cell (a, b) in its row."""
    a, b = cell
    return mu[b] - a - 1


def leg(mu, cell):
    """Cells of mu above the cell (a, b) in its column."""
    a, b = cell
    return conjugate(mu)[a] - b - 1


CASES = ("pg>0", "pg=0-effective", "pg=0-noneffective")


def sw_factor(j=0, bc=1, kc=0):
    """Seiberg-Witten invariant (or j-th higher pairing) of the class
    bc*beta + kc*K, resolved against a table at normalization time."""
    return FormulaExpr.leaf("sw", j=j, bc=bc, kc=kc)


def pic_point():
    """The point class [L] of Pic_beta(S)."""
    return FormulaExpr.leaf("picpoint")


def sw_coupled_pushforward(case, i, n1, n2, beta, surface, swTable=None,
                           check=True):
    """Pushforward of h^i capped with the nested virtual class, as a
    formula tree in the branch selected by ``case``.

    pg>0: the invariant times the Chern class of minus the nesting
    complex over the point class of the Picard torus; the zero class
    for positive i.  pg=0-effective: the general irregular form, a
    j-sum of Chern classes coupled to higher pairings.
    pg=0-noneffective: a single shifted-degree Chern class, valid when
    the dual curve class carries no curves.

    ``check`` tests the case against the surface profile and the
    effectivity heuristic; disable it when the caller has better
    geometric information.  With a table ``swTable`` supplied, a map
    from class to (invariant, tuple of higher pairings), the invariant
    leaves are resolved and the tree is returned in normal form.
    """
    n = n1 + n2
    if case == "pg>0":
        if check and surface.pg == 0:
            raise ValueError("inconsistent flags: profile has p_g = 0")
        if i > 0:
            expr = ZERO_CLASS
        else:
            expr = FormulaExpr.mul(
                sw_factor(0, bc=1),
                FormulaExpr.chern(n, FormulaExpr.neg(rhom(1, 2, bc=1))),
                pic_point())
    elif case == "pg=0-effective":
        if check and surface.pg != 0:
            raise ValueError("inconsistent flags: profile has p_g > 0")
        expr = FormulaExpr.add(*[
            FormulaExpr.mul(
                FormulaExpr.chern(n - j, FormulaExpr.kdiff(
                    pushO(bc=1), rhom(1, 2, bc=1))),
                sw_factor(i + j, bc=1))
            for j in range(n + 1)])
    elif case == "pg=0-noneffective":
        if check and surface.pg != 0:
            raise ValueError("inconsistent flags: profile has p_g > 0")
        dual_cls = surface.sub(surface.K, surface.cls(beta))
        if check and is_effective(surface, dual_cls):
            raise ValueError("inconsistent flags: dual class is"
                             " effective")
        d = n + surface.q - vd_beta(surface, beta)
        expr = FormulaExpr.chern(d + i, FormulaExpr.neg(rhom(1, 2, bc=1)))
    else:
        raise ValueError("unknown case %r" % (case,))
    if swTable is not None:
        return normalize(expr, surface, beta, sw_table=swTable)
    return expr


def virtual_class_route(n1, n2, surface, beta, A=None,
                        h2_vanishing=False):
    """Pushforward class of the plain virtual cycle through the
    section-bundle route.  The reduced cycle needs the caller-certified
    vanishing flag; the virtual class then differs from it by the Euler
    class of a trivial obstruction piece of rank p_g, so any positive
    geometric genus forces the zero class.
    """
    if A is None:
        A = surface.zero_class()
    reduced, _ = nested_reduced_formula(n1, n2, surface, beta, A,
                                        h2_vanishing=h2_vanishing)
    if surface.pg > 0:
        # top Chern class of a trivial rank-p_g bundle
        return ZERO_CLASS
    return reduced


def sub_partitions(nu, size):
    """Partitions mu of the given size contained in nu row by row."""
    def rows(i, remaining, prev):
        if remaining == 0:
            yield ()
            return
        if i >= len(nu):
            return
        cap = min(nu[i], prev, remaining)
        for r in range(cap, 0, -1):
            for rest in rows(i + 1, remaining - r, r):
                yield (r,) + rest
    if size < 0 or size > sum(nu):
        return
    if size == 0:
        yield ()
        return
    yield from rows(0, size, size)


def staircase_generators(mu):
    """Exponents (a, b) of the minimal monomial generators of the
    monomial ideal with staircase mu."""
    gens = []
    rows = len(mu)
    for b in range(rows + 1):
        width = mu[b] if b < rows else 0
        above = mu[b - 1] if b > 0 else None
        if above is None or width < above:
            gens.append((width, b))
    return gens


def toric_line_weights(surface, beta):
    """Per-chart trivializing weights of the line bundle: one lattice
    vector u_sigma for each fixed point, in chart order."""
    if not isinstance(surface, ToricSurface):
        raise ValueError("line weights need a toric surface")
    return list(surface.chart_vertices(beta))


def nonequivariant_limit(x):
    """Value of an integral after switching off the auxiliary weight."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, RatFunc):
        return x.series(0)[0]
    raise TypeError("expected a localized integral value")


def integral_info(ctx):
    """The counters the last integral left on its LocalizationContext:
    direction, draws, ambient fixed points and visited points."""
    return {"spec": ctx.spec, "attempts": ctx.attempts,
            "points": ctx.points, "visited": ctx.visited}


def flag_tower_routes(e, F):
    """F(x, y) pushed off Gr(2, B), B of rank e, two ways: the split
    formula, and the flag bundle P(Q_1) -> P(B) -> point with the
    integrand F(-h1, -h2) h1 pushed one level at a time (the extra h1
    accounts for the fibre P^1 of the flag over the Grassmannian).
    Returns (split route, tower route) in the base ring."""
    names = ["b%d" % i for i in range(e)]
    split = grassmann_split_pushforward(Ring(names).gens(), 2, F)
    base = free_model(names, D=12)
    P1 = projective_bundle(base, KClass.from_roots(base.ring.gens()),
                           name="h1")
    P2 = projective_bundle(P1, P1.taut["Q"], name="h2")
    h1 = P2.ring.lift(P1.taut["h"])
    h2 = P2.taut["h"]
    tower = proj_pushforward(P1, proj_pushforward(P2, F(-h1, -h2) * h1))
    return base.ring.cast(split), tower


def point_base(D=None):
    """The model of a point: empty ring, dimension zero."""
    return SpaceModel(Ring([], D=D), 0)


def integrate(space, cls):
    """Push a class down through every bundle level to the root."""
    while space.base is not None:
        cls = proj_pushforward(space, cls)
        space = space.base
    return cls


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


def nested_vir_comparison(n1, n2, beta=None):
    """Pushforward of the virtual cycle through the inclusion into
    S^[n1] x S^[n2] x S_beta: the Carlsson-Okounkov factor

        c_{n1+n2}( Rpi_* L_beta(1) - Rhom_pi(I1, I2 L_beta(1)) )

    times the class of the product of the ambient cycle with the
    virtual cycle of the curve system.
    """
    body = FormulaExpr.chern(n1 + n2, co_class(bc=1, o1=1))
    return FormulaExpr.mul(FormulaExpr.leaf("svir"), body)


# -- the normal form, the duality rewrite and the l-step emitter -------


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
    if e.kind in ("ksum", "kdiff"):
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
    the surface's own invariants with no pairings) when surface and
    beta are supplied, flattens and sorts commutative operations, and
    collects scales.
    """
    resolve = surface is not None and beta is not None
    if resolve and sw_table is None:
        sw_table = {k: (v, ()) for k, v in surface.sw_table.items()}

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
            d_i = twist_dim_d(surface, beta[i], A)
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

    s = n1 + n2 - surface.chiO - vd_beta(surface, beta)
    return walk(expr), s


# -- references for the packed ring paths, through the Fraction view ----


def poly_repr(x):
    """The text of a class: its terms sorted by degree, then exponent
    tuple, each "c*x^2*y" with c dropped when it is 1 and written "-"
    when it is -1."""
    if not x.poly:
        return "0"
    ring = x.ring
    terms = []
    for m in sorted(x.poly, key=lambda m: (ring.mdeg(m), m)):
        c = x.poly[m]
        body = "*".join(name if e == 1 else "%s^%d" % (name, e)
                        for name, e in zip(ring.names, m) if e)
        coef = str(c.numerator) if c.denominator == 1 else \
            "%d/%d" % (c.numerator, c.denominator)
        if not body:
            terms.append(coef)
        elif c == 1:
            terms.append(body)
        elif c == -1:
            terms.append("-" + body)
        else:
            terms.append(coef + "*" + body)
    return " + ".join(terms).replace("+ -", "- ")


def poly_lift(ring, x):
    """x in ``ring``, each generator moved to the position of its name
    and the dict reduced by the ring's constructor."""
    pos = [ring.index[n] for n in x.ring.names]
    poly = {}
    for m, c in x.poly.items():
        mono = [0] * len(ring.names)
        for p, e in zip(pos, m):
            mono[p] = e
        poly[tuple(mono)] = c
    return GradedClass(ring, poly)


def poly_bundle_relation(B, b):
    """The relation h^b = -sum_{i >= 1} c_i(B) h^(b-i) of P(B), as
    {exponent tuple with h last: Fraction}."""
    rel = {}
    for i in range(1, b + 1):
        for mono, coeff in B.c(i).poly.items():
            key = mono + (b - i,)
            rel[key] = rel.get(key, Fraction(0)) - coeff
    return {m: c for m, c in rel.items() if c}


def poly_proj_pushforward(space, cls):
    """The coefficient of h^(b-1), h the level's generator, as a class
    on the base."""
    b, j = space.fiber_rank, space.h_index
    out = {}
    for mono, coeff in cls.poly.items():
        assert mono[j] < b, "class not in normal form"
        if mono[j] == b - 1:
            key = mono[:j] + mono[j + 1:]
            out[key] = out.get(key, Fraction(0)) + coeff
    return GradedClass(space.base.ring, out)


def cofactor_det(rows):
    """Reference determinant: cofactor expansion along the first column
    (a! terms)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = rows[0][0].ring.zero()
    for i in range(n):
        entry = rows[i][0]
        if entry.is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = entry * cofactor_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc
