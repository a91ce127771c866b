"""Builders and small combinatorics that only the tests use: the
Seiberg-Witten coupled pushforward trees of each geometric case, the
section-bundle route to the virtual class, partitions inside a
partition, staircase generators, per-chart line weights and the
non-equivariant limit of an integral."""

from fractions import Fraction

from nesthilb.expr import FormulaExpr, ZERO_CLASS, rhom, pushO, \
    sw_factor, pic_point
from nesthilb.hilbloc import RatFunc
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
