"""Torus localization for punctual Hilbert schemes of toric surfaces.

Fixed points of the torus action on S^[n1] x S^[n2] are tuples of
nested partition pairs, one pair per fixed point of the surface.  Each
leaf of a formula tree evaluates at a fixed point to a finite Laurent
character in the surface torus (t1, t2) and an auxiliary circle t; the
integral is then the classical weighted sum over fixed points.

Characters carry three integer exponents (p, q, c): the lattice
character t^(p,q) times the auxiliary weight c.  Integration
specializes (p, q, c) to (p*a + q*b) s + c*t for a seeded generic
coprime pair (a, b) and reads off the s^0 coefficient of the fixed
point sum; surviving negative powers of s mean the input was not the
lift of a global class.

Since every specialized weight is linear in s and t, a class value at
a point is a short list of terms, each a homogeneous integer polynomial
in s and t times a product of weight powers over one integer
denominator: sums join the lists, products convolve the integer
coefficients.  Each term expands in s with coefficients that are
Laurent polynomials in t, summed into one dict {(s_power, t_power):
coefficient}; the s^0 part of the sum over points becomes a RatFunc,
the Laurent polynomial in t.

Per point, the work is assembly from chart pieces.  A fixed point is a
tuple of per-chart partitions, and its characters are sums of pieces
that depend on one chart only: the tangent character of (chart, lam),
the Rhom correction of (chart, mu, nu, twist vertex), the tautological
term of (chart, lam, vertex), and chi(L).  A point's weights are one
exponent map {(k, c): e}, the product of (k s + c t)^e: positive e in
the numerator, negative e in the denominator.  Specialization is linear,
so the LocalizationContext of a job (all its integrals over one surface
and class: an n range, the splittings n1 + n2 = n of a monopole
contribution) builds each distinct piece once, specializes it once per
direction (after its shift by the twist vertex and the leaf's
monomial, so the collision check sees every final weight) and keeps
the maps in one table per chart, keyed by partition(s) and vertex.  A
point's map is one lookup per chart and one merge; no character sum
is built per point.  The tangent map of a point is built once and
shared by its tangent leaves and the localization denominator.  An
Euler product with no circle weight mostly skips the merge: the
per-point path decides every point it meets first, and chart factors,
each one integer fraction, are learned from the points it visited; a
point whose charts all hold one multiplies them (see ``chartfactors``).
Products add exponents, so a weight shared by numerator and
denominator cancels as it arises, which is exact because each weight
is a nonzero linear form k s + c t; the zero-weight and collision
checks run before that.

A product stops at its first factor whose value at the point is zero,
and such a point is dropped before its tangent character is built.
The monopole integrand's first factor, c_n of the Carlsson-Okounkov
bundle, is zero wherever that bundle holds the zero weight, which the
merged map shows without a Chern class being expanded; at beta = 0
only the fixed points of the nested Hilbert scheme survive it.  The
points are still listed over the whole ambient product and dropped one
by one.  A surviving point expands over integers: the
series of its soft denominator weights is one integer recurrence, and
a Fraction is made per output coefficient only where a term's
denominator is not 1.
"""

import math
import random
from fractions import Fraction

from .expr import FormulaExpr, rational_str
from .surface import ToricSurface, riemann_roch_chi
# lazy (see the package docstring): only a delta node loads the ring model
from . import ringcore


# ---------------------------------------------------------------------------
# partitions


def partitions(n, max_part=None):
    """Partitions of n as weakly decreasing tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def cells(mu):
    """Cells (a, b): column a within row b."""
    return [(a, b) for b in range(len(mu)) for a in range(mu[b])]


def conjugate(mu):
    cols = [0] * (mu[0] if mu else 0)
    for height, row in enumerate(mu, 1):
        cols[:row] = [height] * row
    return tuple(cols)


def arm(mu, cell):
    a, b = cell
    return mu[b] - a - 1


def leg(mu, cell):
    a, b = cell
    return conjugate(mu)[a] - b - 1


def contains(nu, mu):
    return len(mu) <= len(nu) and all(m <= n for m, n in zip(mu, nu))


# ---------------------------------------------------------------------------
# Laurent characters


NO_SHIFT = (0, 0, 0)


class EquivChar:
    """Finite Laurent polynomial in t1, t2 and the auxiliary weight,
    stored as integer coefficients on exponent triples (p, q, c)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in terms.items() if v} if terms else {}

    @staticmethod
    def monomial(p, q, c=0, coef=1):
        e = EquivChar()
        if coef:
            e.terms[(p, q, c)] = coef
        return e

    @staticmethod
    def one():
        return EquivChar.monomial(0, 0, 0)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return EquivChar({k: v for k, v in out.items() if v})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return EquivChar({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return EquivChar({k: v * other for k, v in self.terms.items()})
        out = {}
        for (p1, q1, c1), v1 in self.terms.items():
            for (p2, q2, c2), v2 in other.terms.items():
                k = (p1 + p2, q1 + q2, c1 + c2)
                out[k] = out.get(k, 0) + v1 * v2
        return EquivChar({k: v for k, v in out.items() if v})

    def conj(self):
        return EquivChar({(-p, -q, -c): v
                          for (p, q, c), v in self.terms.items()})

    def shift(self, p, q, c=0):
        return EquivChar({(p1 + p, q1 + q, c1 + c): v
                          for (p1, q1, c1), v in self.terms.items()})

    def rank(self):
        return sum(self.terms.values())

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, EquivChar) and self.terms == other.terms

    def __repr__(self):
        return "EquivChar(%r)" % (self.terms,)


def box_character(mu, w1=(1, 0), w2=(0, 1)):
    """Sum of t^(a w1 + b w2) over cells (a, b) of the partition."""
    out = {}
    for a, b in cells(mu):
        key = (a * w1[0] + b * w2[0], a * w1[1] + b * w2[1], 0)
        out[key] = out.get(key, 0) + 1
    return EquivChar(out)


def structure_numerator(mu, w1=(1, 0), w2=(0, 1)):
    """Resolution numerator of the length-|mu| quotient: d * Q_mu with
    d = (1 - t^w1)(1 - t^w2)."""
    d = _denominator_char(w1, w2)
    return d * box_character(mu, w1, w2)


def ideal_numerator(mu, w1=(1, 0), w2=(0, 1)):
    """Resolution numerator of the ideal sheaf: 1 - d * Q_mu."""
    return EquivChar.one() - structure_numerator(mu, w1, w2)


def _denominator_char(w1, w2):
    one = EquivChar.one()
    f1 = one - EquivChar.monomial(*w1)
    f2 = one - EquivChar.monomial(*w2)
    return f1 * f2


def ext_character(mu, nu, w):
    """Carlsson-Okounkov character E(mu, nu) of one chart, in arm/leg
    form, with w = (w1, w2) the chart's tangent weights: a box of mu
    gives t^((a_mu + 1) w1 - l_nu w2) and a box of nu gives
    t^(-a_nu w1 + (l_mu + 1) w2).  Arm a and leg l are measured in the
    partition named, where they can be negative.  E(mu, nu) has rank
    |mu| + |nu| and only positive multiplicities."""
    (x1, y1), (x2, y2) = w
    out = {}

    # a box of nu has weight w1 + w2 minus that of a box of mu with the
    # roles of mu and nu swapped, so for mu = nu one walk gives both
    def walk(lam, other, ours, theirs):
        cols = conjugate(other) + (0,) * max(lam, default=0)
        for b, row in enumerate(lam):
            for a in range(row):
                p, q = row - a, b + 1 - cols[a]
                x, y = p * x1 + q * x2, p * y1 + q * y2
                if ours:
                    out[x, y, 0] = out.get((x, y, 0), 0) + 1
                if theirs:
                    key = (x1 + x2 - x, y1 + y2 - y, 0)
                    out[key] = out.get(key, 0) + 1
    if mu == nu:
        walk(mu, mu, True, True)
    else:
        walk(mu, nu, True, False)
        walk(nu, mu, False, True)
    return EquivChar(out)


def tangent_character(mu, w):
    """Tangent character of the punctual Hilbert scheme at a monomial
    ideal, in terms of the chart's tangent weight vectors w = (w1, w2):
    E(mu, mu), the sum over cells of t^((arm+1) w1 - leg w2) +
    t^(-arm w1 + (leg+1) w2).
    """
    return ext_character(mu, mu, w)


class LocalChar:
    """A chart-local rational character: numerator over a product of
    binomial factors (1 - t^v), one per denominator direction."""

    __slots__ = ("num", "dens")

    def __init__(self, num, dens):
        self.num = num
        self.dens = tuple(tuple(v) for v in dens)

    def __repr__(self):
        return "LocalChar(%r, dens=%r)" % (self.num, self.dens)


def rhom_character(mu, nu, chart=None, vertex=(0, 0)):
    """Chart-local character of Rhom(I_mu, I_nu tensor L) as a rational
    form: conj(P_mu) P_nu t^u over the chart denominator.  With no
    chart the abstract coordinate axes are used."""
    if chart is None:
        m1, m2 = (1, 0), (0, 1)
    else:
        m1, m2 = chart.m1, chart.m2
    num = ideal_numerator(mu, m1, m2).conj() * ideal_numerator(nu, m1, m2)
    num = num.shift(int(vertex[0]), int(vertex[1]))
    return LocalChar(num, (m1, m2))


# ---------------------------------------------------------------------------
# assembly of global characters


def _canonical_direction(v, num):
    """Orient a denominator direction so its leading coordinate is
    positive, compensating in the numerator:
    1/(1 - t^-w) = -t^w / (1 - t^w)."""
    p, q = int(v[0]), int(v[1])
    if (p, q) == (0, 0):
        raise ValueError("assembly failure")
    if p < 0 or (p == 0 and q < 0):
        w = (-p, -q)
        return w, -num.shift(w[0], w[1])
    return (p, q), num


def _divide_binomial(num, v):
    """Exact division of a Laurent character by (1 - t^v).

    Terms are grouped by the line through the exponent parallel to v
    (and by auxiliary weight); within a group the quotient is the
    cumulative sum along v.  A group with nonzero total sum has no
    polynomial quotient.
    """
    p, q = v
    norm = p * p + q * q
    groups = {}
    for (a, b, c), coef in num.terms.items():
        key = (a * q - b * p, c)
        groups.setdefault(key, []).append((a * p + b * q, a, b, coef))
    out = {}
    for (line, c), items in groups.items():
        items.sort()
        r0 = items[0][0]
        a0, b0 = items[0][1], items[0][2]
        positions = {(r - r0) // norm: coef for r, _, _, coef in items}
        total = sum(positions.values())
        if total != 0:
            raise ValueError("assembly failure")
        smax = max(positions)
        acc = 0
        for s in range(0, smax):
            acc += positions.get(s, 0)
            if acc:
                expo = (a0 + s * p, b0 + s * q, c)
                out[expo] = out.get(expo, 0) + acc
    return EquivChar(out)


def assemble(local_terms):
    """Sum of chart-local rational characters into a global finite
    character.  Raises "assembly failure" when the sum is not a Laurent
    polynomial."""
    prepared = []
    for term in local_terms:
        num, dens = (term.num, term.dens) if isinstance(term, LocalChar) \
            else term
        canon = []
        for v in dens:
            v, num = _canonical_direction(v, num)
            canon.append(v)
        counts = {}
        for v in canon:
            counts[v] = counts.get(v, 0) + 1
        prepared.append((num, counts))
    common = {}
    for _, counts in prepared:
        for v, m in counts.items():
            common[v] = max(common.get(v, 0), m)
    factors = {v: EquivChar({(0, 0, 0): 1, (v[0], v[1], 0): -1})
               for v in common}
    total = EquivChar()
    for num, counts in prepared:
        for v, m in common.items():
            for _ in range(m - counts.get(v, 0)):
                num = num * factors[v]
        total = total + num
    for v, m in common.items():
        for _ in range(m):
            total = _divide_binomial(total, v)
    return total


def chi_line_character(surface, beta):
    """Global Euler characteristic character of the line bundle with the
    given class, assembled from the chart vertices.  A job builds it
    once per class and keeps it in its LocalizationContext; nothing is
    kept between jobs."""
    if not isinstance(surface, ToricSurface):
        raise ValueError("equivariant characters need a toric surface")
    out = assemble([(EquivChar.monomial(*u), (chart.m1, chart.m2))
                    for chart, u in zip(surface.charts,
                                        surface.chart_vertices(beta))])
    if out.rank() != riemann_roch_chi(surface, beta):
        raise ValueError("assembly failure")
    return out


def _rhom_chart_piece(m1, m2, mu, nu, u):
    """Finite correction of one chart, with coordinate weights m1, m2
    and twist vertex u, to the character of Rhom(I_mu, I_nu tensor L):
    -E(mu, nu) over the chart's tangent weights -m1, -m2, times t^u."""
    w = ((-m1[0], -m1[1]), (-m2[0], -m2[1]))
    return -ext_character(mu, nu, w).shift(u[0], u[1])


def rhom_global_character(surface, parts_a, parts_b, beta, spec=None,
                          shift=NO_SHIFT):
    """Character of Rhom(I_A, I_B tensor L) at a fixed point, where
    parts_a and parts_b list one partition per chart.

    The rational chart sums collapse to the twist characteristic plus a
    finite correction per chart, so no assembly is needed beyond the
    line bundle itself.  ``surface`` may also be the
    LocalizationContext of a job, whose cached chart pieces are then
    used.  With a direction ``spec`` the value is the exponent map of
    the specialized weights of the character shifted by ``shift``,
    merged from the context's per-chart maps.
    """
    ctx = _context(surface)
    if spec is None:
        return ctx.rhom(parts_a, parts_b, beta)
    return ctx.rhom_weights(spec, shift, parts_a, parts_b, beta)


def rhom_assembled(surface, parts_a, parts_b, beta):
    """Assembly route for the same character, as an independent check."""
    return assemble([rhom_character(mu, nu, chart, u)
                     for chart, u, mu, nu in zip(
                         surface.charts, surface.chart_vertices(beta),
                         parts_a, parts_b)])


# ---------------------------------------------------------------------------
# fixed points


class NestedFixedPoint:
    """A torus-fixed point of S^[n1] x S^[n2] (times a weight line of a
    section bundle when pb is set): per-chart partitions mu for the
    first factor and nu for the second, each a tuple of partition
    tuples, with mu_sigma inside nu_sigma demanded only by the incidence
    subscheme, not by the ambient product.  Slotted, not a tuple: the
    integrals build one per ambient point."""

    __slots__ = ("mu", "nu", "pb")

    def __init__(self, mu, nu, pb=None):
        self.mu = mu
        self.nu = nu
        self.pb = pb

    def __eq__(self, other):
        return isinstance(other, NestedFixedPoint) \
            and (self.mu, self.nu, self.pb) == (other.mu, other.nu, other.pb)

    def __hash__(self):
        return hash((self.mu, self.nu, self.pb))

    def __repr__(self):
        return "NestedFixedPoint(mu=%r, nu=%r, pb=%r)" % (
            self.mu, self.nu, self.pb)


def _chart_tuples(num_charts, total, levels=None):
    """All ways to place partitions of given total size on the charts,
    as a list built chart by chart from the last, each size's
    partitions listed once.  ``levels`` holds what is listed so far:
    the partitions of each size, then the tuples of each size on the
    last j charts for j = 0 ... num_charts.  It is extended in place,
    so a caller that keeps it lists each size once."""
    if levels is None:
        levels = []
    if not levels:
        levels += [[] for _ in range(num_charts + 2)]
    by_size, tails = levels[0], levels[1:]
    for r in range(len(by_size), total + 1):
        by_size.append(list(partitions(r)))
        tails[0].append([] if r else [()])
        for prev, longer in zip(tails, tails[1:]):
            longer.append([(lam,) + rest for here in range(r + 1)
                           for lam in by_size[here]
                           for rest in prev[r - here]])
    return tails[-1][total]


def enumerate_fixed_points(surface, n1, n2, with_pb=None, nested=True):
    """Fixed points of the nested incidence scheme inside
    S^[n1] x S^[n2]: chartwise nested pairs mu <= nu, optionally crossed
    with the projective bundle of sections of the class ``with_pb``.

    With ``nested=False`` the stream covers the whole ambient product,
    which is what localization sums run over.  ``surface`` may also be
    the LocalizationContext of a job, which keeps the chart tuples of
    every size once listed.
    """
    levels = None
    if isinstance(surface, LocalizationContext):
        surface, levels = surface.surface, surface.chart_levels
    if not isinstance(surface, ToricSurface):
        raise ValueError("fixed points need a toric surface")
    k = len(surface.charts)
    pb_range = [None]
    if with_pb is not None:
        npts = len(surface.polytope_points(with_pb))
        if npts != riemann_roch_chi(surface, with_pb):
            raise ValueError("sections do not span the pushforward fibre")
        pb_range = list(range(npts))
    mus_list = _chart_tuples(k, n1, levels)
    for nus in _chart_tuples(k, n2, levels):
        for mus in mus_list:
            if nested and not all(contains(nu, mu)
                                  for mu, nu in zip(mus, nus)):
                continue
            for pb in pb_range:
                yield NestedFixedPoint(mus, nus, pb)


def full_tangent_character(surface, point, with_pb=None, spec=None):
    """Tangent character of the ambient product at a fixed point: both
    Hilbert scheme factors plus, with a section bundle, the bundle of
    lines.  ``surface`` may also be the LocalizationContext of a job;
    its cached chart pieces and section offsets are then used, and a
    ``with_pb`` other than its own is an error.  With a direction
    ``spec`` the value is the exponent map of the specialized weights
    instead, merged from the context's per-chart maps."""
    ctx = _context(surface, with_pb=with_pb)
    if spec is None:
        return ctx.tangent(point)
    return ctx.tangent_weights(spec, NO_SHIFT, point)


# ---------------------------------------------------------------------------
# Laurent polynomials in the auxiliary weight


class RatFunc:
    """Refined integral value: a Laurent polynomial in the auxiliary
    weight t, stored as {t_power: Fraction} without zero coefficients.

    Every specialized weight is a linear form k s + c t, so the s^0
    coefficient of a fixed point sum is a Laurent polynomial in t and
    no other denominator occurs.  ``RatFunc(coefs)`` takes a
    {t_power: coefficient} dict, or an ascending tuple of the
    coefficients of t^0, t^1, ...; a negative power needs the dict.
    """

    __slots__ = ("terms",)

    def __init__(self, coefs):
        items = coefs.items() if isinstance(coefs, dict) else enumerate(coefs)
        self.terms = {i: Fraction(x) for i, x in items if x}

    @staticmethod
    def const(x):
        return RatFunc((x,))

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return set(self.terms) <= {0}

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError("result depends on the auxiliary weight")
        return self.terms.get(0, Fraction(0))

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return RatFunc(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatFunc({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc({k: v * other for k, v in self.terms.items()})
        out = {}
        for i, x in self.terms.items():
            for j, y in other.terms.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return RatFunc(out)

    def __truediv__(self, other):
        """Division by a nonzero number or monomial."""
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not other.terms:
            raise ZeroDivisionError("division by zero")
        if len(other.terms) != 1:
            raise ValueError("divisor is not a monomial in t")
        (d, c), = other.terms.items()
        return RatFunc({k - d: v / c for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def series(self, order):
        """Taylor coefficients at the origin up to the given order."""
        if any(k < 0 for k in self.terms):
            raise ValueError("integral not equivariantly constant")
        return [self.terms.get(k, Fraction(0)) for k in range(order + 1)]

    def __repr__(self):
        return "RatFunc(%r)" % (self.terms,)


def format_value(value, order=0):
    """Loss-free text for a rational number; for a weight-dependent
    Laurent polynomial, space-separated expansion coefficients."""
    if isinstance(value, RatFunc):
        if value.is_constant():
            return rational_str(value.as_fraction())
        return " ".join(rational_str(c) for c in value.series(order))
    return rational_str(Fraction(value))


# ---------------------------------------------------------------------------
# specialization and per-point values


class _Collision(Exception):
    """The random direction annihilated a nonzero lattice weight."""


def specialize_weights(char, spec, shift=NO_SHIFT):
    """Exponent map {(k, c): multiplicity} of the specialized weights of
    a character times the monomial ``shift`` = (p, q, c), under
    (p, q) -> p*a + q*b, without zero entries.  The collision check
    runs on each shifted lattice weight."""
    a, b = spec
    dp, dq, dc = shift
    out = {}
    for (p, q, c), mult in char.terms.items():
        p, q, c = p + dp, q + dq, c + dc
        k = p * a + q * b
        if k == 0 and c == 0 and (p, q) != (0, 0):
            raise _Collision
        out[k, c] = out.get((k, c), 0) + mult
    return {w: m for w, m in out.items() if m}


def _merge_weights(maps):
    """Exponent map of the sum of the characters whose maps are given.
    No map is changed in place; a single map is returned as it is."""
    out = maps[0] if maps else {}
    for m in maps[1:]:
        out = _exps_sum(out, m)
    return out


def _exps_sum(a, b, sign=1):
    """Exponent map of the product of a and b (of a over b with sign
    -1), without zero entries."""
    out = dict(a)
    for w, e in b.items():
        e = out.get(w, 0) + sign * e
        if e:
            out[w] = e
        else:
            del out[w]
    return out


def _times_weight(coefs, w):
    """The coefficients of a homogeneous polynomial times k s + c t,
    each list indexed by the power of s."""
    k, c = w
    return [k * a + c * b for a, b in zip([0] + coefs, coefs + [0])]


def chern_value(weights, top):
    """Chern classes c_0 ... c_top of a virtual sum of weight lines, c_j
    as the integer coefficients of s^i t^(j-i), i = 0 ... j.  A line
    k s + c t of multiplicity m > 0 multiplies the total class by
    1 + k s + c t, m times; one of multiplicity m < 0 divides it by
    that, -m times.  No binomial coefficient is needed."""
    total = [[1]] + [[0] * (j + 1) for j in range(1, top + 1)]
    for (k, c), m in weights.items():
        if (k, c) == (0, 0):
            continue
        if m > 0:
            # c_j += w c_(j-1), from the top, with c_(j-1) not yet updated
            steps, w = range(top, 0, -1), (k, c)
        else:
            # c_j -= w c_(j-1), from the bottom, with c_(j-1) already new
            steps, w = range(1, top + 1), (-k, -c)
        for _ in range(abs(m)):
            for j in steps:
                total[j] = [x + y for x, y in
                            zip(total[j], _times_weight(total[j - 1], w))]
    return total


class PointValue:
    """Class value at a fixed point: a sum of terms (d, coefs, exps,
    den).  A term is the homogeneous integer polynomial
    sum_i coefs[i] s^i t^(d-i) times the product of (k s + c t)^e over
    the exponent map ``exps`` = {(k, c): e}, over the nonzero integer
    ``den``.  A positive e is a numerator power, a negative e a
    denominator power; no entry is 0, and the weight (0, 0) never
    occurs.  No term has only zero coefficients, so the value zero is
    the empty list."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def unit():
        return PointValue([(0, [1], {}, 1)])

    @staticmethod
    def zero():
        return PointValue([])

    def times(self, other):
        out = []
        for d1, c1, e1, n1 in self.terms:
            for d2, c2, e2, n2 in other.terms:
                coefs = [0] * (d1 + d2 + 1)
                for i, x in enumerate(c1):
                    if x:
                        for j, y in enumerate(c2):
                            coefs[i + j] += x * y
                out.append((d1 + d2, coefs, _exps_sum(e1, e2), n1 * n2))
        return PointValue(out)

    def scaled(self, c):
        c = Fraction(c)
        if not c:
            return PointValue([])
        return PointValue([(d, [x * c.numerator for x in coefs], exps,
                            den * c.denominator)
                           for d, coefs, exps, den in self.terms])

    def plus(self, other):
        return PointValue(self.terms + other.terms)


def _term_laurent(d, coefs, exps, den):
    """Coefficients of one term at s-degrees <= 0 as integer numerators
    {(s_power, t_power): numerator} over one integer denominator."""
    hard, soft = {}, 0
    for (k, c), e in exps.items():
        if e < 0:
            if c:
                soft -= e
            else:
                hard[k] = -e
    cutoff = sum(hard.values())
    poly = coefs[:cutoff + 1]
    for w, e in exps.items():
        for _ in range(e):
            poly = _times_weight(poly, w)[:cutoff + 1]
            d += 1
    q = [1] + [0] * cutoff
    for (k, c), e in exps.items():
        if c and e < 0:
            for _ in range(-e):
                for j in range(cutoff, 0, -1):
                    q[j] = c * q[j] + k * q[j - 1]
                q[0] *= c
    cpow = [1]
    for _ in range(cutoff + 1):
        cpow.append(cpow[-1] * q[0])
    series = [1]
    for j in range(1, cutoff + 1):
        series.append(-sum(q[i] * series[j - i] * cpow[i - 1]
                           for i in range(1, j + 1)))
    # u^n carries A_n C^(cutoff - n) over the common C^(cutoff + 1)
    series = [a * cpow[cutoff - n] for n, a in enumerate(series)]
    out = {}
    for i, v in enumerate(poly):
        if v:
            for n in range(cutoff - i + 1):
                if series[n]:
                    key = (i + n - cutoff, d - i - soft - n)
                    out[key] = out.get(key, 0) + v * series[n]
    den *= cpow[cutoff + 1]
    for k, m in hard.items():
        den *= k ** m
    return out, den


def point_value_laurent(pv):
    """Coefficients of a point value at s-degrees <= 0, exact, as
    {(s_power, t_power): coefficient}, summed over its terms.

    In a term, positive powers multiply the polynomial.  A weight k s
    with c = 0 divides by s (and k).  The soft weights k s + c t with
    c != 0, m of them with multiplicity, give t^-m / Q(u), u = s/t,
    where Q(u) = prod (c + k u) is an integer polynomial truncated at
    the s-cutoff.  With C = Q(0), 1/Q = sum_j A_j u^j / C^(j+1) by the
    integer recurrence A_j = -sum_(i >= 1) q_i A_(j-i) C^(i-1).  A
    term's coefficients are summed as integers over one denominator; a
    Fraction is made per output key only when that denominator is not
    1.
    """
    out = {}
    for d, coefs, exps, den in pv.terms:
        if exps:
            nums, den = _term_laurent(d, coefs, exps, den)
        else:
            nums = {(0, d): coefs[0]}
        for key, v in nums.items():
            out[key] = out.get(key, 0) + (v if den == 1 else Fraction(v, den))
    return {key: v for key, v in out.items() if v}


# ---------------------------------------------------------------------------
# evaluation of formula trees at a fixed point


def _section_line_offsets(sections, pb):
    """Tangent character of the bundle of section lines at the line of
    section ``pb``: the offsets u - u_pb of the other sections."""
    (p0, q0) = sections[pb]
    return EquivChar({(p - p0, q - q0, 0): 1
                      for i, (p, q) in enumerate(sections) if i != pb})


def _context(surface, beta=None, A=None, with_pb=None):
    """``surface`` itself when it is a LocalizationContext, which must
    agree with each of beta, A and with_pb that is given; else a new
    context for them."""
    if isinstance(surface, LocalizationContext):
        if beta is not None or A is not None or with_pb is not None:
            surface.check(beta, A, with_pb)
        return surface
    return LocalizationContext(surface, beta=beta, A=A, with_pb=with_pb)


class LocalizationContext:
    """Shared data of the localization problems of one job: a surface,
    curve class ``beta``, polarization ``A`` and section bundle
    ``with_pb``.  A caller that runs several integrals over them (an n
    range, the splittings of a monopole contribution) makes one context
    and passes it to each; it lives no longer than that job.

    A fixed-point character sums chart pieces, each a character of one
    chart and its partitions times the monomial of a twist vertex (the
    tangent piece of (chart, lam), the Rhom correction of (chart, mu,
    nu), the tautological piece of (chart, lam)), and chi(L) and the
    section lines.  ``piece`` builds each distinct character once.
    Under the current direction, the maps of the pieces times vertex
    and shift are kept per kind and shift in one table per chart, keyed
    by partition(s) and vertex, so a point's map is one lookup per chart
    and one merge; the tables are emptied when the direction changes.
    The chart factors of the Euler products that take the chart-factor
    path are kept in the same way, one table per chart and tree, keyed
    by the chart's partitions: each is learned from a point the
    per-point path visited, which decides every point it meets first,
    and read from the maps of its one-chart point (the chart's
    partitions, no others) and of the empty point (see
    ``chartfactors``).  A class's vertices, a leaf's shift and
    twist class, and the chart tuples of each size (``chart_levels``,
    see ``enumerate_fixed_points``) are resolved once.  ``visited``
    counts the points of the current integral whose class value was
    nonzero.
    """

    def __init__(self, surface, beta=None, A=None, with_pb=None):
        if not isinstance(surface, ToricSurface):
            raise ValueError("localization needs a toric surface")
        self.surface = surface
        self.beta = beta
        self.A = A
        self.with_pb = with_pb
        self.sections = None
        if with_pb is not None:
            self.sections = tuple(
                (int(u[0]), int(u[1]))
                for u in surface.polytope_points(with_pb))
        self._tangent_ws = tuple(chart.tangent_weights()
                                 for chart in surface.charts)
        self._pieces = {}
        self._vertices = {}
        self._leaves = {}
        self._spec = None
        self._maps = {}
        self.chart_levels = []
        self.visited = 0

    def check(self, beta=None, A=None, with_pb=None):
        """Raise ValueError unless every class given is the context's."""
        S = self.surface
        for name, given, own in (("beta", beta, self.beta),
                                 ("A", A, self.A),
                                 ("with_pb", with_pb, self.with_pb)):
            if given is not None and (own is None
                                      or S.cls(given) != S.cls(own)):
                raise ValueError("%s %r conflicts with the localization"
                                 " context's %r" % (name, given, own))

    def piece(self, build, *args):
        """``build(*args)``, built once per context."""
        key = (build,) + args
        value = self._pieces.get(key)
        if value is None:
            value = self._pieces[key] = build(*args)
        return value

    def vertices(self, beta):
        """Integer chart vertices of the class, one per chart."""
        beta = tuple(beta)
        verts = self._vertices.get(beta)
        if verts is None:
            verts = self._vertices[beta] = self.surface.chart_vertices(beta)
        return verts

    def chi(self, beta):
        """chi(L) character of the class."""
        return self.piece(chi_line_character, self.surface, tuple(beta))

    def table(self, spec, kind, shift, per_chart=True):
        """Maps of one kind of piece times ``shift`` under the direction
        ``spec``, in one dict per chart or in one dict."""
        if spec != self._spec:
            self._spec, self._maps = spec, {}
        table = self._maps.get((kind, shift))
        if table is None:
            table = self._maps[kind, shift] = \
                [{} for _ in self._tangent_ws] if per_chart else {}
        return table

    def chart_map(self, spec, kind, shift, c, key, table):
        """Map of chart c's piece of one kind times ``shift``, stored in
        the chart's ``table``: the tangent piece of key = lam, the Rhom
        correction of key = (mu, nu, u), the tautological piece of key =
        (lam, u).  The per-point loops look the key up in the table
        themselves and call this on a miss."""
        chart, u = self.surface.charts[c], (0, 0)
        if kind == "tangent":
            char = self.piece(tangent_character, key, self._tangent_ws[c])
        elif kind == "rhom":
            mu, nu, u = key
            char = self.piece(_rhom_chart_piece, chart.m1, chart.m2, mu, nu,
                              (0, 0))
        else:
            lam, u = key
            char = self.piece(box_character, lam, chart.m1, chart.m2)
        m = table[key] = specialize_weights(
            char, spec, (u[0] + shift[0], u[1] + shift[1], shift[2]))
        return m

    def tangent(self, point):
        """Tangent character at a fixed point, from cached pieces."""
        chars = [self.piece(tangent_character, lam, w)
                 for w, mu, nu in zip(self._tangent_ws, point.mu, point.nu)
                 for lam in (mu, nu) if lam]
        if self.sections is not None and point.pb is not None:
            chars.append(self.piece(_section_line_offsets, self.sections,
                                    point.pb))
        return sum(chars, EquivChar())

    def tangent_weights(self, spec, shift, point):
        """Exponent map of the tangent character times ``shift``."""
        k, maps = len(self._tangent_ws), []
        # each chart's table serves its partition in mu and in nu
        for i, (table, lam) in enumerate(zip(
                self.table(spec, "tangent", shift) * 2, point.mu + point.nu)):
            if lam:
                m = table.get(lam)
                maps.append(m if m is not None else self.chart_map(
                    spec, "tangent", shift, i % k, lam, table))
        if self.sections is not None and point.pb is not None:
            table = self.table(spec, "sections", shift, False)
            m = table.get(point.pb)
            if m is None:
                m = table[point.pb] = specialize_weights(
                    self.piece(_section_line_offsets, self.sections,
                               point.pb), spec, shift)
            maps.append(m)
        return _merge_weights(maps)

    def rhom(self, parts_a, parts_b, beta):
        """Rhom character at a fixed point: chart corrections, each
        cached without its vertex u, plus chi(L)."""
        return sum([self.piece(_rhom_chart_piece, chart.m1, chart.m2, mu,
                               nu, (0, 0)).shift(*u)
                    for chart, u, mu, nu in zip(self.surface.charts,
                                                self.vertices(beta),
                                                parts_a, parts_b)
                    if mu or nu], self.chi(beta))

    def rhom_weights(self, spec, shift, parts_a, parts_b, beta, chi=True):
        """Exponent map of the Rhom character times ``shift``; without
        chi(L) when ``chi`` is false (the trace-free part)."""
        maps = []
        for c, (table, u, mu, nu) in enumerate(zip(
                self.table(spec, "rhom", shift), self.vertices(beta),
                parts_a, parts_b)):
            if mu or nu:
                m = table.get((mu, nu, u))
                maps.append(m if m is not None else self.chart_map(
                    spec, "rhom", shift, c, (mu, nu, u), table))
        if chi:
            maps.append(self.chi_weights(spec, shift, beta))
        return _merge_weights(maps)

    def chi_weights(self, spec, shift, beta):
        """Exponent map of chi(L) times ``shift``."""
        beta = tuple(beta)
        table = self.table(spec, "chi", shift, False)
        m = table.get(beta)
        if m is None:
            m = table[beta] = specialize_weights(self.chi(beta), spec, shift)
        return m

    def taut(self, lams, beta):
        """Tautological bundle of the class at one nesting level."""
        return sum([self.piece(box_character, lam, chart.m1,
                               chart.m2).shift(*u)
                    for chart, u, lam in zip(self.surface.charts,
                                             self.vertices(beta), lams)
                    if lam], EquivChar())

    def taut_weights(self, spec, shift, lams, beta):
        """Exponent map of the tautological bundle times ``shift``."""
        maps = []
        for c, (table, u, lam) in enumerate(zip(
                self.table(spec, "taut", shift), self.vertices(beta), lams)):
            if lam:
                m = table.get((lam, u))
                maps.append(m if m is not None else self.chart_map(
                    spec, "taut", shift, c, (lam, u), table))
        return _merge_weights(maps)

    def leaf(self, e):
        """(name, o1, (0, 0, tp)) of a leaf, keyed by its ``key()``."""
        key = e.key()
        out = self._leaves.get(key)
        if out is None:
            name = e.params[0]
            if name not in _LEAVES:
                raise ValueError("leaf %r has no equivariant value" % name)
            out = self._leaves[key] = (name, e.attr("o1"),
                                       (0, 0, e.attr("tp")))
        return out

    def twist_class(self, leaf):
        """The leaf's class bc beta + ac A + kc K as integers."""
        key = ("twist", leaf.key())
        cls = self._leaves.get(key)
        if cls is None:
            cls = self._leaves[key] = self._twist_class(
                leaf.attr("bc"), leaf.attr("ac"), leaf.attr("kc"))
        return cls

    def _twist_class(self, bc, ac, kc):
        S = self.surface
        cls = S.zero_class()
        if bc:
            if self.beta is None:
                raise ValueError("twist references an unbound curve class")
            cls = S.add(cls, S.scale(bc, S.cls(self.beta)))
        if ac:
            if self.A is None:
                raise ValueError("twist references an unbound polarization")
            cls = S.add(cls, S.scale(ac, S.cls(self.A)))
        if kc:
            cls = S.add(cls, S.scale(kc, S.K))
        # chart vertices need integer coordinates
        if any(x.denominator != 1 for x in cls):
            raise ValueError("divisor coefficients must be integers")
        return tuple(map(int, cls))


_CHART_LOCAL = ("rhom", "rhom0", "pushO", "taut", "tangent")
_LEAVES = _CHART_LOCAL + ("O1",)


def _homogeneous(d, coefs):
    """The point value sum_i coefs[i] s^i t^(d-i), zero when every
    coefficient is."""
    return PointValue([(d, coefs, {}, 1)] if any(coefs) else [])


class PointEvaluator:
    """Values of a formula tree at one fixed point under the direction
    ``spec``.  chern, euler and delta nodes read a K-class as its
    exponent map, ``weights``, merged from the context's per-piece maps.
    Only a twist needs its line's lattice weight, so it alone builds the
    character of its subtree (``kval``) and specializes that."""

    def __init__(self, ctx, point, spec):
        self.ctx = ctx
        self.point = point
        self.spec = spec
        self._tangent = None

    def tangent(self):
        """Exponent map of the point's tangent character, built once and
        shared by its tangent leaves and the localization denominator."""
        if self._tangent is None:
            self._tangent = full_tangent_character(self.ctx, self.point,
                                                   spec=self.spec)
        return self._tangent

    def parts(self, index):
        if index == 1:
            return self.point.mu
        if index == 2:
            return self.point.nu
        raise ValueError("nesting index out of range for localization")

    def pb_vertex(self):
        if self.ctx.sections is None or self.point.pb is None:
            raise ValueError("no projective bundle level in this problem")
        return self.ctx.sections[self.point.pb]

    def leaf_shift(self, e):
        """The leaf's name and the monomial (p, q, c) it is multiplied
        by: O(-o1) of the section line and the auxiliary weight tp."""
        name, o1, shift = self.ctx.leaf(e)
        if o1:
            u = self.pb_vertex()
            shift = (-o1 * u[0], -o1 * u[1], shift[2])
        return name, shift

    def leaf_char(self, e):
        name, shift = self.leaf_shift(e)
        if name in ("rhom", "rhom0"):
            cls = self.ctx.twist_class(e)
            ch = rhom_global_character(
                self.ctx, self.parts(e.attr("i")), self.parts(e.attr("j")),
                cls)
            if name == "rhom0":
                ch = ch - self.ctx.chi(cls)
        elif name == "pushO":
            ch = self.ctx.chi(self.ctx.twist_class(e))
        elif name == "taut":
            ch = self.ctx.taut(self.parts(e.attr("level")), e.attr("a"))
        elif name == "tangent":
            ch = self.ctx.tangent(self.point)
        else:
            u = self.pb_vertex()
            ch = EquivChar.monomial(-u[0], -u[1])
        return ch.shift(*shift) if shift != NO_SHIFT else ch

    def leaf_weights(self, e):
        name, shift = self.leaf_shift(e)
        ctx, spec = self.ctx, self.spec
        if name in ("rhom", "rhom0"):
            parts_a = self.parts(e.attr("i"))
            parts_b = self.parts(e.attr("j"))
            cls = ctx.twist_class(e)
            if name == "rhom":
                return rhom_global_character(ctx, parts_a, parts_b, cls,
                                             spec=spec, shift=shift)
            return ctx.rhom_weights(spec, shift, parts_a, parts_b, cls,
                                    chi=False)
        if name == "pushO":
            return ctx.chi_weights(spec, shift, ctx.twist_class(e))
        if name == "taut":
            return ctx.taut_weights(spec, shift,
                                    self.parts(e.attr("level")), e.attr("a"))
        if name == "tangent":
            if shift == NO_SHIFT:
                return self.tangent()
            return ctx.tangent_weights(spec, shift, self.point)
        u = self.pb_vertex()
        return specialize_weights(EquivChar.monomial(-u[0], -u[1]), spec,
                                  shift)

    def kval(self, e):
        if e.kind == "leaf":
            return self.leaf_char(e)
        if e.kind == "ksum":
            out = EquivChar()
            for c in e.children:
                out = out + self.kval(c)
            return out
        if e.kind == "kdiff":
            a, b = e.children
            return self.kval(a) - self.kval(b)
        if e.kind == "dual":
            return self.kval(e.children[0]).conj()
        if e.kind == "twist":
            body, line = e.children
            ch = self.kval(body)
            lch = self.kval(line)
            if len(lch.terms) != 1 or set(lch.terms.values()) != {1}:
                raise ValueError("twist by a non-line character")
            (p, q, c), = lch.terms.keys()
            m = e.params[0]
            return ch.shift(m * p, m * q, m * c)
        raise ValueError("not a K-level node: %r" % e.kind)

    def weights(self, e):
        """Exponent map {(k, c): m} of the specialized weights of the
        K-class e at the point."""
        if e.kind == "leaf":
            return self.leaf_weights(e)
        if e.kind == "ksum":
            return _merge_weights([self.weights(c) for c in e.children])
        if e.kind == "kdiff":
            a, b = e.children
            return _exps_sum(self.weights(a), self.weights(b), -1)
        if e.kind == "dual":
            return {(-k, -c): m
                    for (k, c), m in self.weights(e.children[0]).items()}
        if e.kind == "twist":
            return specialize_weights(self.kval(e), self.spec)
        raise ValueError("not a K-level node: %r" % e.kind)

    def cval(self, e):
        if e.kind == "one":
            return PointValue.unit()
        if e.kind == "chern":
            n = e.params[0]
            ws = self.weights(e.children[0])
            if n < 0 or n > 0 and min(ws.values(), default=0) >= 0 \
                    and sum(ws.values()) - ws.get((0, 0), 0) < n:
                # c_n with n < 0, or of an honest bundle with fewer
                # than n nonzero weights
                return PointValue.zero()
            return _homogeneous(n, chern_value(ws, n)[n])
        if e.kind == "euler":
            exps = self.weights(e.children[0])
            if (0, 0) in exps:
                if exps[0, 0] > 0:
                    return PointValue.zero()
                raise ValueError("non-isolated or non-generic weights")
            return PointValue([(0, [1], exps, 1)])
        if e.kind == "delta":
            a, b = e.params
            ring = ringcore.Ring(["s", "t"])
            chern = chern_value(self.weights(e.children[0]),
                                max(a + b - 1, 0))
            total = ring.from_dict({(i, j - i): x
                                    for j, cj in enumerate(chern)
                                    for i, x in enumerate(cj)})
            det = ringcore.delta_det(a, b, total).poly
            return _homogeneous(a * b, [int(det.get((i, a * b - i), 0))
                                        for i in range(a * b + 1)])
        if e.kind == "add":
            out = PointValue.zero()
            for c in e.children:
                out = out.plus(self.cval(c))
            return out
        if e.kind == "mul":
            out = PointValue.unit()
            for c in e.children:
                value = self.cval(c)
                if not value.terms:
                    return value
                out = out.times(value)
            return out
        if e.kind == "scale":
            return self.cval(e.children[0]).scaled(e.params[0])
        raise ValueError("node %r has no equivariant value" % e.kind)


# ---------------------------------------------------------------------------
# the integral


def _euler_product(e):
    """Whether e is a product (mul, scale, one) of euler nodes over
    chart-local K-classes: the trees whose integrals take the
    chart-factor path when there are no section lines."""
    if e.kind == "euler":
        return _chart_local(e.children[0])
    return e.kind in ("mul", "scale", "one") \
        and all(map(_euler_product, e.children))


def _chart_local(e):
    """Whether the K-class e is a ksum, kdiff or dual of chart-local
    leaves with no circle weight (tp) and no section line (o1)."""
    if e.kind == "leaf":
        return e.params[0] in _CHART_LOCAL and not e.attr("tp") \
            and not e.attr("o1")
    return e.kind in ("ksum", "kdiff", "dual") \
        and all(map(_chart_local, e.children))


def _point_contribution(ctx, expr, point, spec):
    """The point's s-expansion; {} for a point whose class value is
    zero, before its tangent character is built.  Points past that
    check are counted in ``ctx.visited``."""
    ev = PointEvaluator(ctx, point, spec)
    val = ev.cval(expr)
    if not val.terms:
        return {}
    ctx.visited += 1
    tangent = ev.tangent()
    if (0, 0) in tangent or min(tangent.values(), default=0) < 0:
        raise ValueError("non-isolated or non-generic weights")
    # euler(tangent) shares the tangent's map: the quotient is empty
    return point_value_laurent(PointValue(
        [(d, coefs, {} if exps is tangent else _exps_sum(exps, tangent, -1),
          den) for d, coefs, exps, den in val.terms]))


def _draw_spec(rng):
    while True:
        a = rng.randrange(2, 1000)
        b = rng.randrange(1, 1000)
        if a != b and math.gcd(a, b) == 1:
            return (a, b)


def _first_direction(seed, attempt):
    """``attempt(spec)`` under seeded directions drawn in turn until one
    annihilates no lattice weight: (result, spec, attempts)."""
    rng = random.Random(seed)
    for attempts in range(1, 52):
        spec = _draw_spec(rng)
        try:
            return attempt(spec), spec, attempts
        except _Collision:
            pass
    raise ValueError("non-isolated or non-generic weights")


def equivariant_integrate(expr, surface, n1=0, n2=0, beta=None, A=None,
                          with_pb=None, refined=False, seed=0,
                          return_info=False):
    """Integrate a formula over S^[n1] x S^[n2] (times the bundle of
    section lines of ``with_pb`` when given) by summing fixed point
    contributions.

    Exact: the result is a Fraction, or with ``refined`` a RatFunc,
    the Laurent polynomial in the auxiliary weight.  A seeded random
    direction breaks the torus to one dimension; collisions redraw
    deterministically.  The points are summed in this process, one
    after another; parallel work means running jobs side by side.

    ``surface`` may also be the LocalizationContext of the job, which
    the integral then shares with the job's other integrals; ``beta``,
    ``A`` and ``with_pb`` default to the context's, and one that
    differs from it is a ValueError.

    A product (mul, scale, one) of euler nodes over ksum, kdiff and
    dual of chart-local leaves (tangent, taut, rhom, rhom0, pushO) with
    no tp or o1 shift, without section lines, takes the chart-factor
    path of ``chartfactors``.  The per-point path decides every point
    it meets first, and chart factors (the node values at the point
    with one chart's partitions and no others over those at the empty
    point) are learned from the points it visited; a point whose charts
    all hold a factor multiplies them.  So values, visited points and
    errors are the per-point path's.  Every other tree (chern, delta,
    twist, add, circle weights, section lines) is evaluated point by
    point.

    With ``return_info`` the value comes with a dict: the direction
    ``spec``, the ``seed``, the number of ambient fixed ``points``, the
    number ``visited`` past the zero check and the draw ``attempts``.
    """
    if isinstance(expr, (int, Fraction)):
        expr = FormulaExpr.scale(expr, FormulaExpr.one())
    ctx = _context(surface, beta, A, with_pb)
    points = list(enumerate_fixed_points(ctx, n1, n2, with_pb=ctx.with_pb,
                                         nested=False))
    if ctx.with_pb is None and _euler_product(expr):
        from . import chartfactors
        attempt = chartfactors.attempt(ctx, expr, points)
    else:
        def attempt(spec):
            totals = {}
            ctx.visited = 0
            for p in points:
                contrib = _point_contribution(ctx, expr, p, spec)
                for key, coef in contrib.items():
                    totals[key] = totals.get(key, 0) + coef
            return totals
    totals, spec, attempts = _first_direction(seed, attempt)
    if any(coef and deg < 0 for (deg, _), coef in totals.items()):
        raise ValueError("integral not equivariantly constant")
    value = RatFunc({tp: coef for (deg, tp), coef in totals.items()
                     if deg == 0})
    if not refined:
        value = value.as_fraction()
    info = {"spec": spec, "seed": seed, "points": len(points),
            "visited": ctx.visited, "attempts": attempts}
    if return_info:
        return value, info
    return value


def tangent_index_counts(surface, n, seed=0):
    """{i: number of fixed points of S^[n] with i positive tangent
    weights} under a seeded direction, read from the per-chart maps an
    integral uses.  By Bialynicki-Birula these are the Betti numbers
    b_2i of S^[n]; a wrong tangent weight moves a point between cells.
    ``surface`` may also be a LocalizationContext."""
    ctx = _context(surface)
    points = list(enumerate_fixed_points(ctx, 0, n))

    def attempt(spec):
        counts = {}
        for pt in points:
            exps = full_tangent_character(ctx, pt, spec=spec)
            i = sum(m for (k, _), m in exps.items() if k > 0)
            counts[i] = counts.get(i, 0) + 1
        return counts
    return _first_direction(seed, attempt)[0]
