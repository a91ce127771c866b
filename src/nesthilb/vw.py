"""Seiberg-Witten coupled layer: the rank-two monopole integrand over
pairs of Hilbert schemes, curve-class contributions weighted by
Seiberg-Witten invariants, and exact universal-polynomial fits across
surfaces.

A monopole contribution at total length n is the invariant of the
curve class times a torsion-counting power of two times the sum over
splittings n = n1 + n2 of an integral over S^[n1] x S^[n2].  The
integrand couples the class of the nested locus, the top Chern class
of the Carlsson-Okounkov bundle, to a ratio of Euler classes of
circle-weighted pair complexes; everything is built as one formula
tree and handed to the equivariant evaluator.

The integrand has degree 2(n1 + n2) + vd(beta) and S^[n1] x S^[n2] has
dimension 2(n1 + n2), so every splitting integral is c t^vd(beta) in
the circle weight t, for a rational c.  A monopole contribution
integrates only classes with vd(beta) = 0: it is an exact rational.  A
contribution is the pair (value, terms) of its total and its splitting
integrals {(n1, n2): integral}.
"""

from fractions import Fraction

from .expr import FormulaExpr, rhom, pushO, rational_str
from .surface import ToricSurface, vd_beta
from .hilbloc import LocalizationContext, RatFunc, \
    equivariant_integrate, format_value


class UniversalityError(ValueError):
    """The runs of a fit cannot separate the monomials, or their point
    contributions are not one affine function of the monomials."""


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    return RatFunc.const(x)


def _class_str(key):
    """A curve class as its p/q coordinates, e.g. (0) or (1, -1/2)."""
    return "(%s)" % ", ".join(rational_str(x) for x in key)


class SWTable:
    """Seiberg-Witten data of one surface: per curve class, the
    invariant, kept in ``entries`` as class -> Fraction.  ``entries``
    defaults to the surface's own table and takes the same form.

    The invariant is the degree of the zero-dimensional virtual curve
    locus and vanishes by definition whenever that locus has nonzero
    virtual dimension; an entry breaking this is rejected.
    """

    def __init__(self, surface, entries=None):
        self.surface = surface
        self.entries = {}
        source = surface.sw_table if entries is None else entries
        for beta, value in source.items():
            key = tuple(surface.cls(beta))
            value = Fraction(value)
            if value and vd_beta(surface, key) != 0:
                raise ValueError(
                    "invariant must vanish at nonzero virtual dimension"
                    " (class %s)" % _class_str(key))
            self.entries[key] = value

    def __contains__(self, beta):
        return tuple(self.surface.cls(beta)) in self.entries

    def invariant(self, beta):
        key = tuple(self.surface.cls(beta))
        if key not in self.entries:
            raise ValueError("missing SW entry for class %s"
                             % _class_str(key))
        return self.entries[key]


def monopole_integrand(n1, n2):
    """Integrand of one splitting of the rank-two monopole
    contribution: the class c_n(E_L) of the nested locus, n = n1 + n2,
    times the Euler classes of the two positively-moving pair complexes
    over those of the three negatively-moving ones.

    E_L = chi(L) - Rhom(I_1, I_2 L) is the Carlsson-Okounkov class, an
    honest rank-n bundle on S^[n1] x S^[n2].  The paper's degeneracy
    class is c_n(-Rhom(I_1, I_2 L)), and the two integrals are equal:
    c(-Rhom) = c(E_L) c(-chi(L)), and chi(L) carries no circle weight,
    so c_i(-chi(L)) is s^i times a constant.  Each correction term is
    therefore s^i (i >= 1) times the integral of a genuine class, the
    Euler factors being invertible series in s/t, and none reaches s^0,
    the only coefficient the integral keeps.  The rewrite pays at the
    fixed points: c_n(E_L) is zero wherever E_L holds the zero weight
    (at beta = 0, wherever nu is not inside mu in some chart), and the
    evaluator stops there.

    Twists are symbolic: the curve class binds at evaluation time.
    Every Euler argument carries a nonzero circle weight, which is what
    makes the ratio well defined in localized cohomology.
    """
    n = n1 + n2
    return FormulaExpr.mul(
        FormulaExpr.chern(n, FormulaExpr.kdiff(pushO(bc=1),
                                               rhom(1, 2, bc=1))),
        FormulaExpr.euler(rhom(2, 1, bc=-1, kc=1, tp=1)),
        FormulaExpr.euler(rhom(1, 2, bc=1, kc=-1, tp=-1)),
        FormulaExpr.euler(FormulaExpr.neg(
            rhom(1, 1, kc=1, tp=1, trace_free=True))),
        FormulaExpr.euler(FormulaExpr.neg(rhom(2, 2, kc=1, tp=1))),
        FormulaExpr.euler(FormulaExpr.neg(
            rhom(2, 1, bc=-1, kc=2, tp=2))))


def point_contribution(surface, beta, n, seed=0, context=None):
    """Sum over splittings n = n1 + n2 of the monopole integrand
    integral, without the Seiberg-Witten weight or the torsion
    prefactor.  These are the numbers the universality statement is
    about: they depend on the surface only through c1^2, c2, beta^2
    and c1.beta.

    Returns the pair (value, terms), the terms as the integrals give
    them.  The value is c t^vd(beta) for a rational c (see the module
    docstring): a Fraction when every splitting term is one, and a
    RatFunc only when a term depends on t.

    The integrals come from localization, so the surface must be
    toric.  The splittings share one LocalizationContext of the surface
    and class: ``context`` when the caller passes the job's, else a new
    one.
    """
    key = tuple(surface.cls(beta))
    if not isinstance(surface, ToricSurface):
        raise ValueError("point contributions need a toric surface")
    if context is None:
        context = LocalizationContext(surface, beta=key)
    terms = {(n1, n - n1): equivariant_integrate(
                 monopole_integrand(n1, n - n1), context, n1, n - n1,
                 seed=seed)
             for n1 in range(n + 1)}
    total = sum((x for x in terms.values() if not isinstance(x, RatFunc)),
                Fraction(0))
    weighted = [x for x in terms.values() if isinstance(x, RatFunc)]
    if weighted:
        total = sum(weighted, RatFunc.const(total))
    return total, terms


def class_weight(surface, sw, beta, window=None):
    """The weight SW * 4^q of a curve class's monopole contribution, 0
    for a class outside the stable range of the slope data ``window`` =
    (deg beta, deg K) or with nonzero virtual dimension, whose invariant
    vanishes by definition.  A ValueError when the class needs a table
    entry it lacks, or a toric surface for a nonzero weight."""
    if window is not None and not window[0] < window[1] \
            or vd_beta(surface, beta) != 0:
        return Fraction(0)
    weight = sw.invariant(beta) * Fraction(4) ** surface.q
    if weight and not isinstance(surface, ToricSurface):
        raise ValueError("point contributions need a toric surface")
    return weight


def monopole_contribution(surface, sw, beta, n, seed=0, window=None,
                          context=None):
    """Weighted contribution of one curve class at total length n:

        SW * 4^q * (sum of splitting integrals).

    Returns the pair (value, terms) of the weighted total, an exact
    rational, and the unweighted terms of ``point_contribution``, or
    (Fraction(0), {}) for a class that ``class_weight`` weighs 0.  Only
    classes with vd(beta) = 0 are integrated, and their integrals carry
    no circle weight.  A total that depends on the weight is refused
    with a ValueError.

    ``sw`` is the surface's SWTable, ``window`` caller-supplied slope
    data (deg beta, deg K).  ``context`` is passed on to
    ``point_contribution``, which needs a toric surface.
    """
    weight = class_weight(surface, sw, beta, window)
    if weight == 0:
        return Fraction(0), {}
    value, terms = point_contribution(surface, beta, n, seed=seed,
                                      context=context)
    value *= weight
    if isinstance(value, RatFunc):
        # vd(beta) = 0 makes every term constant, so a total that
        # depends on the weight is a fault, refused here
        value = value.as_fraction()
    return value, terms


MONOMIALS = ("1", "c1sq", "c2", "betasq", "c1beta")


def monomial_value(name, surface, beta):
    """One of the four intersection numbers (or the constant 1)."""
    if name == "1":
        return Fraction(1)
    if name == "c1sq":
        return Fraction(surface.K2)
    if name == "c2":
        return Fraction(surface.e)
    if name == "betasq":
        return surface.dot(beta, beta)
    if name == "c1beta":
        return -surface.dot(beta, surface.K)
    raise ValueError("unknown monomial %r" % (name,))


def _solve_affine(rows, values):
    """Exact elimination over the rationals for an overdetermined
    linear system; returns the coefficient list.  A rank below the
    column count and a nonzero residual row are UniversalityErrors."""
    m = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(v)]
           for row, v in zip(rows, values)]
    pivots = []
    rank = 0
    for col in range(m):
        pivot = next((i for i in range(rank, len(aug))
                      if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        head = aug[rank][col]
        aug[rank] = [x / head for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b
                          for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    if rank < m:
        raise UniversalityError("insufficient surface spread")
    for i in range(rank, len(aug)):
        if aug[i][m] != 0:
            raise UniversalityError("universality violated")
    coefs = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        coefs[col] = aug[r][m]
    return coefs


def universality_fit(n, runs, monomials=None, seed=0):
    """Fit point contributions at fixed total length n by an exact
    affine polynomial in the intersection numbers.

    Each run is (surface, beta), optionally with a precomputed value as
    third component: a rational number, or a Laurent polynomial in the
    circle weight.  The design is rational, so the fit solves once per
    power of the weight present in the values, over the rationals; a
    coefficient is a RatFunc only when it depends on the weight.  The
    solve is exact: a rank-deficient design means the runs cannot
    separate the monomials, and any nonzero residual means the
    integrals are not a function of the four numbers; both are errors,
    never a best fit.
    """
    names = list(monomials) if monomials is not None else list(MONOMIALS)
    rows = [[monomial_value(name, run[0], run[1]) for name in names]
            for run in runs]
    chis = {run[0].chiO for run in runs}
    if {"1", "c1sq", "c2"} <= set(names) and len(chis) == 1:
        # Noether's formula makes the columns 1, c1sq and c2 dependent
        raise UniversalityError(
            "insufficient surface spread: c1^2 + c2 = 12 chi(O) = %d on"
            " every run, so the monomials 1, c1sq and c2 cannot be"
            " separated" % (12 * chis.pop()))
    # the design's rank needs the rows only, so a rank-deficient design
    # is refused before any integral is computed
    _solve_affine(rows, [Fraction(0)] * len(rows))
    values, labels = [], []
    for run in runs:
        surface, beta = run[0], run[1]
        if len(run) > 2:
            value = run[2]
        else:
            value = point_contribution(surface, beta, n, seed=seed)[0]
        values.append(_as_ratfunc(value))
        labels.append((surface.name, tuple(surface.cls(beta))))
    seen = {}
    for row, value, label in zip(rows, values, labels):
        sig = tuple(row)
        if sig in seen:
            other_value, other_label = seen[sig]
            if other_value != value:
                raise UniversalityError(
                    "universality violated: %r and %r share invariants"
                    " but differ" % (other_label, label))
        seen[sig] = (value, label)
    solved = {k: _solve_affine(rows, [v.terms.get(k, 0) for v in values])
              for k in {k for v in values for k in v.terms}}
    coefs = [RatFunc({k: col[i] for k, col in solved.items()})
             for i in range(len(names))]
    coefs = [c.as_fraction() if c.is_constant() else c for c in coefs]
    return {"n": n,
            "monomials": names,
            "coefficients": dict(zip(names, coefs)),
            "residual": 0,
            "degree_bound": 1,
            "runs": len(runs)}


def fit_report(fit, order=4):
    """JSON-ready form of a fit: coefficients keyed by monomial, each
    a loss-free string (expansion coefficients up to ``order`` when it
    depends on the circle weight)."""
    return {"n": fit["n"],
            "monomials": list(fit["monomials"]),
            "coefficients": {name: format_value(value, order)
                             for name, value in
                             fit["coefficients"].items()},
            "residual": format_value(fit["residual"]),
            "degree_bound": fit["degree_bound"],
            "runs": fit["runs"]}
