"""Builders and small combinatorics that only the tests use: the
Seiberg-Witten coupled pushforward trees of each geometric case, the
section-bundle route to the virtual class, the flag-tower route of a
Grassmann pushforward, the comparison factors
between virtual cycles, the model of a point, partitions inside a
partition, staircase generators, per-chart line weights, the
non-equivariant limit of an integral and the counters it leaves on its
localization context, and references for the packed
ring paths read through the {exponent tuple: Fraction} view
``GradedClass.poly``: printing, lifting, the projective-bundle relation
and pushforward, and the cofactor determinant."""

from fractions import Fraction

from nesthilb.bundles import SpaceModel, free_model, projective_bundle, \
    proj_pushforward, grassmann_split_pushforward
from nesthilb.expr import FormulaExpr, ZERO_CLASS, rhom, pushO, \
    sw_factor, pic_point, co_class
from nesthilb.hilbloc import RatFunc
from nesthilb.ringcore import Ring, GradedClass, KClass
from nesthilb.porteous import normalize, nested_reduced_formula
from nesthilb.surface import ToricSurface, vd_beta


CASES = ("pg>0", "pg=0-effective", "pg=0-noneffective")


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
    geometric information.  With an SWTable ``swTable`` supplied the
    invariant leaves are resolved and the tree is returned in normal
    form.
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
        if check and surface.is_effective(dual_cls):
            raise ValueError("inconsistent flags: dual class is"
                             " effective")
        d = n + surface.q - vd_beta(surface, beta)
        expr = FormulaExpr.chern(d + i, FormulaExpr.neg(rhom(1, 2, bc=1)))
    else:
        raise ValueError("unknown case %r" % (case,))
    if swTable is not None:
        return normalize(expr, surface, beta, sw_table=swTable.entries)
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

    capped against the product of the ambient cycle with the virtual
    cycle of the curve system.
    """
    body = FormulaExpr.chern(n1 + n2, co_class(bc=1, o1=1))
    return FormulaExpr.cap(FormulaExpr.leaf("svir"), body)


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
