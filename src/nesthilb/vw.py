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
integrates only classes with vd(beta) = 0: it is an exact rational.
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
    """Seiberg-Witten data of one surface: per curve class, the integer
    invariant and the higher pairing numbers consumed by the
    irregular-surface pushforward formula, kept in ``entries`` as
    class -> (invariant, pairings).  ``entries`` defaults to the
    surface's own table and takes the same form.

    The invariant is the degree of the zero-dimensional virtual curve
    locus and vanishes by definition whenever that locus has nonzero
    virtual dimension.  Entries breaking this are rejected unless the
    table is opened in higher mode, which only lifts that check: every
    entry is read the same way in either mode.
    """

    def __init__(self, surface, entries=None, higher_mode=False):
        self.surface = surface
        self.entries = {}
        source = surface.sw_table if entries is None else entries
        for beta, (value, pairings) in source.items():
            key = tuple(surface.cls(beta))
            value = Fraction(value)
            if value and not higher_mode \
                    and vd_beta(surface, key) != 0:
                raise ValueError(
                    "invariant must vanish at nonzero virtual dimension"
                    " (class %s)" % _class_str(key))
            self.entries[key] = (value, tuple(Fraction(x) for x in pairings))

    def __contains__(self, beta):
        return tuple(self.surface.cls(beta)) in self.entries

    def invariant(self, beta):
        key = tuple(self.surface.cls(beta))
        if key not in self.entries:
            raise ValueError("missing SW entry for class %s"
                             % _class_str(key))
        return self.entries[key][0]

    def pairing(self, beta, j):
        """The j-th pushforward pairing; j = 0 is the invariant."""
        if j == 0:
            return self.invariant(beta)
        _, pairings = self.entries.get(tuple(self.surface.cls(beta)),
                                       (0, ()))
        return pairings[j - 1] if j - 1 < len(pairings) else Fraction(0)


class MonopoleResult:
    """One curve class contribution with its per-splitting terms: an
    exact rational number (a monopole contribution) or a Laurent
    polynomial in the circle weight (a point contribution)."""

    __slots__ = ("beta", "n", "value", "terms", "meta")

    def __init__(self, beta, n, value, terms=None, meta=None):
        self.beta = tuple(beta)
        self.n = n
        self.value = value
        self.terms = dict(terms or {})
        self.meta = dict(meta or {})

    def rows(self, order=0):
        """CSV-ready dictionaries, one per splitting plus a total row
        with blank splitting columns; a value that depends on the
        circle weight prints its coefficients up to ``order``."""
        out = [self._row(n1, n2, self.terms[(n1, n2)], order)
               for (n1, n2) in sorted(self.terms)]
        out.append(self._row("", "", self.value, order))
        return out

    def _row(self, n1, n2, value, order):
        return {"beta": " ".join(rational_str(x) for x in self.beta),
                "n": self.n, "n1": n1, "n2": n2,
                "value": format_value(value, order), "t_order": order}

    def __repr__(self):
        return "MonopoleResult(beta=%r, n=%r, value=%r)" % (
            self.beta, self.n, self.value)


ROW_FIELDS = ("beta", "n", "n1", "n2", "value", "t_order")


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


def point_contribution(surface, beta, n, seed=0, point_table=None,
                       context=None):
    """Sum over splittings n = n1 + n2 of the monopole integrand
    integral, without the Seiberg-Witten weight or the torsion
    prefactor.  These are the numbers the universality statement is
    about: they depend on the surface only through c1^2, c2, beta^2
    and c1.beta.

    The value is a RatFunc, c t^vd(beta) for a rational c (see the
    module docstring); the terms are as the integrals or the table give
    them.

    The splittings share one LocalizationContext of the surface and
    class: ``context`` when the caller passes the job's, else a new
    one.  Non-toric profiles must supply the integrals through
    ``point_table`` keyed by (class, n1, n2).
    """
    key = tuple(surface.cls(beta))
    terms = {}
    total = RatFunc(())
    for n1 in range(n + 1):
        n2 = n - n1
        if point_table is not None \
                and (key, n1, n2) in point_table:
            term = point_table[(key, n1, n2)]
        elif isinstance(surface, ToricSurface):
            if context is None:
                context = LocalizationContext(surface, beta=key)
            term = equivariant_integrate(
                monopole_integrand(n1, n2), context, n1, n2, beta=key,
                refined=True, seed=seed)
        else:
            raise ValueError("point contributions need a toric surface"
                             " or a supplied table")
        terms[(n1, n2)] = term
        total = total + _as_ratfunc(term)
    meta = {"surface": surface.name, "seed": seed, "kind": "point"}
    return MonopoleResult(key, n, total, terms, meta)


def monopole_contribution(surface, sw, beta, n, seed=0, window=None,
                          point_table=None, context=None):
    """Weighted contribution of one curve class at total length n:

        SW * 4^q * (sum of splitting integrals).

    The value is an exact rational: only classes with vd(beta) = 0 are
    integrated, and their integrals carry no circle weight.  A total
    that depends on the weight is refused with a ValueError.

    ``sw`` is the surface's SWTable.  ``window`` is caller-supplied
    slope data (deg beta, deg K); a class outside the stable range is
    excluded and contributes the zero result.  A class whose curve
    locus has nonzero virtual dimension contributes zero by the
    definition of the invariant, with no table entry needed.
    ``context`` is passed on to ``point_contribution``.
    """
    key = tuple(surface.cls(beta))
    meta = {"surface": surface.name, "seed": seed, "kind": "monopole"}
    if window is not None:
        deg_b, deg_k = window
        if not deg_b < deg_k:
            meta["excluded"] = "outside slope window"
            return MonopoleResult(key, n, Fraction(0), {}, meta)
    if vd_beta(surface, key) != 0:
        return MonopoleResult(key, n, Fraction(0), {}, meta)
    weight = sw.invariant(key) * Fraction(4) ** surface.q
    if weight == 0:
        return MonopoleResult(key, n, Fraction(0), {}, meta)
    point = point_contribution(surface, key, n, seed=seed,
                               point_table=point_table, context=context)
    value = (point.value * weight).as_fraction()
    return MonopoleResult(key, n, value, point.terms, meta)


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
    """Exact elimination for an overdetermined linear system; returns
    the coefficient list.  Values may be rational numbers or Laurent
    polynomials in the circle weight; the arithmetic follows the
    values.  The design rows are rational, so every pivot is a
    constant."""
    refined = any(isinstance(v, RatFunc) for v in values)
    lift = _as_ratfunc if refined else Fraction

    def is_zero(x):
        return x.is_zero() if refined else x == 0
    m = len(rows[0])
    aug = [[lift(x) for x in row] + [lift(v)]
           for row, v in zip(rows, values)]
    pivots = []
    rank = 0
    for col in range(m):
        pivot = next((i for i in range(rank, len(aug))
                      if not is_zero(aug[i][col])), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        head = aug[rank][col]
        aug[rank] = [x / head for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and not is_zero(aug[i][col]):
                factor = aug[i][col]
                aug[i] = [a - factor * b
                          for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    if rank < m:
        raise UniversalityError("insufficient surface spread")
    for i in range(rank, len(aug)):
        if not is_zero(aug[i][m]):
            raise UniversalityError("universality violated")
    coefs = [lift(0)] * m
    for r, col in enumerate(pivots):
        coefs[col] = aug[r][m]
    return coefs


def universality_fit(n, runs, monomials=None, seed=0):
    """Fit point contributions at fixed total length n by an exact
    affine polynomial in the intersection numbers.

    Each run is (surface, beta), optionally with a precomputed value as
    third component.  The solve is exact: a rank-deficient design
    means the runs cannot separate the monomials, and any nonzero
    residual means the integrals are not a function of the four
    numbers; both are errors, never a best fit.
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
            value = point_contribution(surface, beta, n, seed=seed).value
        values.append(value)
        labels.append((surface.name, tuple(surface.cls(beta))))
    seen = {}
    for row, value, label in zip(rows, values, labels):
        sig = tuple(row)
        if sig in seen:
            other_value, other_label = seen[sig]
            if _as_ratfunc(other_value) != _as_ratfunc(value):
                raise UniversalityError(
                    "universality violated: %r and %r share invariants"
                    " but differ" % (other_label, label))
        seen[sig] = (value, label)
    coefs = _solve_affine(rows, values)
    for row, value in zip(rows, values):
        fitted = _as_ratfunc(0)
        for c, x in zip(coefs, row):
            fitted = fitted + _as_ratfunc(c) * x
        if fitted != _as_ratfunc(value):
            raise UniversalityError("universality violated")
    return {"n": n,
            "monomials": names,
            "coefficients": dict(zip(names, coefs)),
            "residual": 0,
            "degree_bound": 1,
            "runs": len(runs)}


def fit_report(fit, order=4):
    """JSON-ready form of a fit: coefficients keyed by monomial, each
    a loss-free string (expansion coefficients when refined)."""
    return {"n": fit["n"],
            "monomials": list(fit["monomials"]),
            "coefficients": {name: format_value(value, order)
                             for name, value in
                             fit["coefficients"].items()},
            "residual": format_value(fit["residual"]),
            "degree_bound": fit["degree_bound"],
            "runs": fit["runs"]}
