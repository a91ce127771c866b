"""Torus localization for punctual Hilbert schemes of toric surfaces.

Fixed points of the torus action on S^[n1] x S^[n2] are tuples of
nested partition pairs, one pair per fixed point of the surface.  Each
leaf of a formula tree evaluates at a fixed point to a finite Laurent
character in the surface torus (t1, t2) and an auxiliary circle t; the
integral is then the classical weighted sum over fixed points.

A character is its exponent map {(p, q, c): m}: the multiplicity m of
the lattice character t^(p,q) times the auxiliary weight c, with no
zero entry, so two characters are equal exactly when their maps are.
Sums and differences are ``_exps_sum``, a shift is
``specialize_weights`` with no direction, the rank is the sum of the
multiplicities, ``dual`` negates the exponents, and only the assembly
route multiplies (``_char_product``).  Integration specializes
(p, q, c) to (p*a + q*b) s + c*t for a seeded generic coprime pair
(a, b) and reads off the s^0 coefficient of the fixed point sum;
surviving negative powers of s mean the input was not the lift of a
global class.

Since every specialized weight is linear in s and t, a class value at
a point is a short list of terms (d, coefs, exps, den): the homogeneous
integer polynomial sum_i coefs[i] s^i t^(d-i) times the product of
(k s + c t)^e over the exponent map ``exps`` = {(k, c): e} (e < 0 in
the denominator, no e = 0, no weight (0, 0)), over the nonzero integer
``den``.  No term has only zero coefficients: zero is [] and one is
[(0, [1], {}, 1)].  Sums join the lists, products convolve the integer
coefficients.  Each term expands in s with coefficients that are
Laurent polynomials in t, summed into one dict {(s_power, t_power):
coefficient}; the s^0 part of the sum over points is a Fraction, or a
RatFunc, the Laurent polynomial in t, when it depends on t.

Per point, the work is assembly from chart pieces.  A fixed point is a
triple (mus, nus, pb) of per-chart partitions and a section line, and
its characters are sums of pieces that depend on one chart only: the
tangent character of (chart, lam), the Rhom correction of (chart, mu,
nu, twist vertex), the tautological term of (chart, lam, vertex), and
chi(L).  A point's weights are one exponent map {(k, c): e}, the
product of (k s + c t)^e: positive e in the numerator, negative e in
the denominator.  Specialization is linear, so the LocalizationContext
of a job (all its integrals over one surface and class: an n range, the
splittings n1 + n2 = n of a monopole contribution) keeps one memo,
which builds each distinct piece once, and one map table, which holds
its specializations (after its shift by the twist vertex and the leaf's
monomial, so the collision check sees every final weight), one table
per direction, kind and shift, keyed per chart by partition(s) and
vertex.  Maps are kept for the whole job, also across redraws.  A
point's map is one lookup per chart and one merge; no character sum is
built per point.  A twist by a line is a shift too: the line's
monomial, read with no direction, is passed down its body to the
leaves, which add it to their own.  With no direction the same lookups
give the shifted characters, merged the same way, so a point's
character is read from the maps as well.  The tangent map of a point is
built once and shared by its tangent leaves and the localization
denominator.  An Euler product of tangent classes skips the points: its
sum is the product of per-chart series of chart factors, each one
integer fraction (see ``chartfactors``).  Products add exponents, so a
weight shared by numerator and denominator cancels as it arises, which
is exact because each weight is a nonzero linear form k s + c t; the
zero-weight and collision checks run before that.

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

from .expr import FormulaExpr, rational_str, node_where
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


def contains(nu, mu):
    return len(mu) <= len(nu) and all(m <= n for m, n in zip(mu, nu))


# ---------------------------------------------------------------------------
# Laurent characters


NO_SHIFT = (0, 0, 0)


def _char_product(a, b):
    """Product of two characters."""
    out = {}
    for (p1, q1, c1), v1 in a.items():
        for (p2, q2, c2), v2 in b.items():
            k = (p1 + p2, q1 + q2, c1 + c2)
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def dual(char):
    """The dual: every exponent, or specialized weight, negated."""
    return {tuple(-x for x in w): m for w, m in char.items()}


def _binomial(v):
    """The character 1 - t^v."""
    return {NO_SHIFT: 1, (v[0], v[1], 0): -1}


def box_character(mu, w1=(1, 0), w2=(0, 1)):
    """Sum of t^(a w1 + b w2) over cells (a, b) of the partition."""
    out = {}
    for a, b in cells(mu):
        key = (a * w1[0] + b * w2[0], a * w1[1] + b * w2[1], 0)
        out[key] = out.get(key, 0) + 1
    return out


def structure_numerator(mu, w1=(1, 0), w2=(0, 1)):
    """Resolution numerator of the length-|mu| quotient: d * Q_mu with
    d = (1 - t^w1)(1 - t^w2)."""
    return _char_product(_denominator_char(w1, w2),
                         box_character(mu, w1, w2))


def ideal_numerator(mu, w1=(1, 0), w2=(0, 1)):
    """Resolution numerator of the ideal sheaf: 1 - d * Q_mu."""
    return _exps_sum({NO_SHIFT: 1}, structure_numerator(mu, w1, w2), -1)


def _denominator_char(w1, w2):
    return _char_product(_binomial(w1), _binomial(w2))


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
    return out


def tangent_character(mu, w):
    """Tangent character of the punctual Hilbert scheme at a monomial
    ideal, in terms of the chart's tangent weight vectors w = (w1, w2):
    E(mu, mu), the sum over cells of t^((arm+1) w1 - leg w2) +
    t^(-arm w1 + (leg+1) w2).
    """
    return ext_character(mu, mu, w)


def rhom_character(mu, nu, chart=None, vertex=(0, 0)):
    """Chart-local character of Rhom(I_mu, I_nu tensor L) as a rational
    form (num, dens): conj(P_mu) P_nu t^u over the product of the
    binomials (1 - t^v), v in dens, of the chart's coordinate weights.
    With no chart the abstract coordinate axes are used."""
    if chart is None:
        m1, m2 = (1, 0), (0, 1)
    else:
        m1, m2 = chart.m1, chart.m2
    num = _char_product(dual(ideal_numerator(mu, m1, m2)),
                        ideal_numerator(nu, m1, m2))
    return specialize_weights(
        num, None, (int(vertex[0]), int(vertex[1]), 0)), (m1, m2)


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
        return (-p, -q), {(a - p, b - q, c): -m
                          for (a, b, c), m in num.items()}
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
    for (a, b, c), coef in num.items():
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
                # one exponent per group and step: none is met twice
                out[a0 + s * p, b0 + s * q, c] = acc
    return out


def assemble(local_terms):
    """Sum of chart-local rational characters, each a pair (num, dens)
    of a numerator over the binomials (1 - t^v), v in dens, into a
    global finite character.  Raises "assembly failure" when the sum is
    not a Laurent polynomial."""
    prepared = []
    for num, dens in local_terms:
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
    total = {}
    for num, counts in prepared:
        for v, m in common.items():
            for _ in range(m - counts.get(v, 0)):
                num = _char_product(num, _binomial(v))
        total = _exps_sum(total, num)
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
    out = assemble([({(u[0], u[1], 0): 1}, (chart.m1, chart.m2))
                    for chart, u in zip(surface.charts,
                                        surface.chart_vertices(beta))])
    if sum(out.values()) != riemann_roch_chi(surface, beta):
        raise ValueError("assembly failure")
    return out


def _rhom_chart_piece(m1, m2, mu, nu):
    """Finite correction of one chart, with coordinate weights m1, m2,
    to the character of Rhom(I_mu, I_nu tensor L) before its twist
    vertex: -E(mu, nu) over the chart's tangent weights -m1, -m2."""
    w = ((-m1[0], -m1[1]), (-m2[0], -m2[1]))
    return {k: -m for k, m in ext_character(mu, nu, w).items()}


def rhom_global_character(ctx, parts_a, parts_b, beta, spec=None,
                          shift=NO_SHIFT):
    """Character of Rhom(I_A, I_B tensor L) at a fixed point, where
    parts_a and parts_b list one partition per chart and L has the class
    ``beta``, from the cached chart pieces of the job's
    LocalizationContext ``ctx``.

    The rational chart sums collapse to the twist characteristic plus a
    finite correction per chart, so no assembly is needed beyond the
    line bundle itself.  The context's per-chart maps of the character
    shifted by ``shift`` are merged: with a direction ``spec`` the value
    is the exponent map of the specialized weights, with none the
    character, which is its exponent map {(p, q, c): m}.
    """
    return ctx.rhom_weights(spec, shift, parts_a, parts_b, beta)


# ---------------------------------------------------------------------------
# fixed points


def _chart_tuples(num_charts, total, levels):
    """All ways to place partitions of given total size on the charts,
    as a list built chart by chart from the last, each size's
    partitions listed once.  ``levels`` holds what is listed so far:
    the partitions of each size, then the tuples of each size on the
    last j charts for j = 0 ... num_charts.  It is extended in place,
    so a caller that keeps it lists each size once."""
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


def enumerate_fixed_points(ctx, n1, n2, nested=True):
    """Fixed points of the nested incidence scheme inside
    S^[n1] x S^[n2] over the surface of the job's LocalizationContext
    ``ctx``, each a triple (mus, nus, pb) of per-chart partitions,
    chartwise nested mu <= nu, and the index pb of a section line of
    the context's class ``with_pb`` (None when it has none).  The
    context keeps the chart tuples of every size once listed.

    With ``nested=False`` the stream covers the whole ambient product,
    which is what localization sums run over.
    """
    k = len(ctx.surface.charts)
    pb_range = [None]
    if ctx.sections is not None:
        if len(ctx.sections) != riemann_roch_chi(ctx.surface, ctx.with_pb):
            raise ValueError("sections do not span the pushforward fibre")
        pb_range = range(len(ctx.sections))
    mus_list = _chart_tuples(k, n1, ctx.chart_levels)
    for nus in _chart_tuples(k, n2, ctx.chart_levels):
        for mus in mus_list:
            if nested and not all(contains(nu, mu)
                                  for mu, nu in zip(mus, nus)):
                continue
            for pb in pb_range:
                yield mus, nus, pb


def full_tangent_character(ctx, point, spec=None):
    """Tangent character of the ambient product at a fixed point: both
    Hilbert scheme factors plus, when the job's LocalizationContext
    ``ctx`` has a section bundle, the bundle of lines, from the
    context's per-chart maps of the pieces and section offsets, merged:
    with a direction ``spec`` the exponent map of the specialized
    weights, with none the character, which is its exponent map
    {(p, q, c): m}."""
    return ctx.tangent_weights(spec, NO_SHIFT, point)


# ---------------------------------------------------------------------------
# Laurent polynomials in the auxiliary weight


class RatFunc:
    """Integral value that depends on the auxiliary weight t: a Laurent
    polynomial in t, stored as {t_power: Fraction} without zero
    coefficients.

    Every specialized weight is a linear form k s + c t, so the s^0
    coefficient of a fixed point sum is a Laurent polynomial in t and
    no other denominator occurs.  ``RatFunc(coefs)`` takes a
    {t_power: coefficient} dict, or an ascending tuple of the
    coefficients of t^0, t^1, ...; a negative power needs the dict.
    Values are only summed, scaled by rationals, compared and printed.
    """

    __slots__ = ("terms",)

    def __init__(self, coefs):
        items = coefs.items() if isinstance(coefs, dict) else enumerate(coefs)
        self.terms = {i: Fraction(x) for i, x in items if x}

    @staticmethod
    def const(x):
        return RatFunc((x,))

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

    def __mul__(self, other):
        """Scaling by a rational number."""
        return RatFunc({k: v * other for k, v in self.terms.items()})

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
    """Loss-free text for an integral value.  A rational number prints
    as itself.  A weight-dependent Laurent polynomial prints its Taylor
    coefficients up to ``order`` > 0, space-separated; at ``order`` 0
    it has no loss-free text, and is refused with a ValueError."""
    if not isinstance(value, RatFunc):
        return rational_str(Fraction(value))
    if order == 0 or value.is_constant():
        return rational_str(value.as_fraction())
    return " ".join(rational_str(c) for c in value.series(order))


# ---------------------------------------------------------------------------
# specialization and per-point values


class _Collision(Exception):
    """The random direction annihilated a nonzero lattice weight."""


def specialize_weights(char, spec, shift=NO_SHIFT):
    """Exponent map {(k, c): multiplicity} of the specialized weights of
    a character times the monomial ``shift`` = (p, q, c), under
    (p, q) -> p*a + q*b, without zero entries.  The collision check
    runs on each shifted lattice weight.  With no direction (``spec``
    None) the map is the shifted character's terms {(p, q, c): m}."""
    dp, dq, dc = shift
    if spec is None:
        return {(p + dp, q + dq, c + dc): m
                for (p, q, c), m in char.items()}
    a, b = spec
    out = {}
    for (p, q, c), mult in char.items():
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
    -1), without zero entries: of two characters, their sum (their
    difference)."""
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


def _times(a, b):
    """The product of two point values."""
    out = []
    for d1, c1, e1, n1 in a:
        for d2, c2, e2, n2 in b:
            coefs = [0] * (d1 + d2 + 1)
            for i, x in enumerate(c1):
                if x:
                    for j, y in enumerate(c2):
                        coefs[i + j] += x * y
            out.append((d1 + d2, coefs, _exps_sum(e1, e2), n1 * n2))
    return out


def _scaled(value, c):
    """A point value times the rational number c."""
    c = Fraction(c)
    if not c:
        return []
    return [(d, [x * c.numerator for x in coefs], exps, den * c.denominator)
            for d, coefs, exps, den in value]


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


def point_value_laurent(value):
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
    for d, coefs, exps, den in value:
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
    return {(p - p0, q - q0, 0): 1
            for i, (p, q) in enumerate(sections) if i != pb}


class LocalizationContext:
    """Shared data of the localization problems of one job: a surface,
    curve class ``beta``, polarization ``A`` and section bundle
    ``with_pb``.  It is the one way into localization: the entry points
    (``equivariant_integrate``, ``enumerate_fixed_points``,
    ``full_tangent_character``, ``rhom_global_character``,
    ``tangent_index_counts``) take it, and a job that runs several
    integrals (an n range, the splittings of a monopole contribution)
    makes one context and passes it to each; it lives no longer than
    that job.

    A fixed-point character sums chart pieces, each a character of one
    chart and its partitions times the monomial of a twist vertex (the
    tangent piece of (chart, lam), the Rhom correction of (chart, mu,
    nu), the tautological piece of (chart, lam)), and chi(L) and the
    section lines.  The context keeps one memo and one map table.  The
    memo, ``piece``, builds once each distinct character, a class's
    chart vertices, a leaf's record (``leaf``, see ``_resolve_leaf``), and
    the ring of a delta node.  The table, ``table``, holds the maps of
    the pieces times vertex and shift, one table per direction, kind and
    shift (per chart, keyed by partition(s) and vertex), so a point's
    map is one lookup per chart and one merge.  No direction (``spec``
    None) gives the shifted characters, each its exponent map, which a
    twist's line and the wrappers ``full_tangent_character`` and
    ``rhom_global_character`` read.  Maps are kept for the whole job,
    also across redraws.  The same table keeps the chart factors of the
    Euler products of tangent classes, one table per direction and
    tree, keyed per chart by its partitions (mu, nu) (see
    ``chartfactors``).
    The chart tuples of each size (``chart_levels``, see
    ``enumerate_fixed_points``) are listed once.

    Each integral, once it has summed its points under a direction,
    leaves its counters here: the direction ``spec``, the number of
    directions drawn (``attempts``, one more per weight collision), the
    number of ambient fixed ``points`` listed and the number
    ``visited`` whose class value was nonzero.
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
        self._maps = {}
        self.chart_levels = []
        self.spec = None
        self.attempts = self.points = self.visited = 0

    def piece(self, build, *args, key=None):
        """``build(*args)``, built once per context under the key
        (build,) + args, or (build, key) when ``key`` determines the
        arguments: a leaf's ``key()`` hashes faster than the leaf and
        keeps the context it is resolved in out of the memo."""
        key = (build,) + args if key is None else (build, key)
        value = self._pieces.get(key)
        if value is None:
            value = self._pieces[key] = build(*args)
        return value

    def leaf(self, e):
        """The record of the leaf e (see ``_resolve_leaf``)."""
        return self.piece(_resolve_leaf, e, self, key=e.key())

    def resolve(self, e, path=None, depth=1):
        """Resolve every leaf of the tree e; the first that fails raises.
        Given the root's ``path``, its ValueError names the leaf first,
        as ``expr.expr_from_json`` names a node."""
        if e.kind == "leaf":
            try:
                self.leaf(e)
            except ValueError as err:
                if path is None:
                    raise
                raise ValueError("%s: %s" % (node_where(path, depth), err))
        for i, child in enumerate(e.children):
            self.resolve(child, path and "%s.children[%d]" % (path, i),
                         depth + 1)

    def st_class(self, chern, D):
        """The class sum_j sum_i chern[j][i] s^i t^(j - i), integer
        coefficients as ``chern_value`` lists them, in the ring Q[s, t]
        truncated above degree D: a delta node of degree D expands its
        determinant there, exactly, since no minor has a larger
        degree."""
        return ringcore.GradedClass(
            self.piece(ringcore.Ring, ("s", "t"), None, D),
            {(i, j - i): x for j, cj in enumerate(chern)
             for i, x in enumerate(cj)})

    def table(self, spec, kind, shift, per_chart=True):
        """Maps of one kind of piece times ``shift`` under the direction
        ``spec``, or of its characters with no direction, in one dict per
        chart or in one dict."""
        table = self._maps.get((spec, kind, shift))
        if table is None:
            table = self._maps[spec, kind, shift] = \
                [{} for _ in self._tangent_ws] if per_chart else {}
        return table

    def chart_maps(self, spec, kind, shift, keys):
        """Maps of chart pieces of one kind times ``shift``, one per
        (c, key) pair, each specialized on its first use: chart c's
        tangent piece of key = lam, its Rhom correction of key = (mu, nu,
        u) or its tautological piece of key = (lam, u), u the vertex."""
        tables, maps = self.table(spec, kind, shift), []
        for c, key in keys:
            m = tables[c].get(key)
            if m is None:
                chart, u = self.surface.charts[c], (0, 0)
                if kind == "tangent":
                    char = self.piece(tangent_character, key,
                                      self._tangent_ws[c])
                elif kind == "rhom":
                    mu, nu, u = key
                    char = self.piece(_rhom_chart_piece, chart.m1, chart.m2,
                                      mu, nu)
                else:
                    lam, u = key
                    char = self.piece(box_character, lam, chart.m1, chart.m2)
                m = tables[c][key] = specialize_weights(
                    char, spec, (u[0] + shift[0], u[1] + shift[1], shift[2]))
            maps.append(m)
        return maps

    def global_map(self, spec, shift, build, *args):
        """Map of the piece ``build(*args)`` of no chart (chi(L), the
        section lines) times ``shift``, in the table of kind ``build``."""
        table = self.table(spec, build, shift, False)
        m = table.get(args)
        if m is None:
            m = table[args] = specialize_weights(self.piece(build, *args),
                                                 spec, shift)
        return m

    def tangent_weights(self, spec, shift, point):
        """Exponent map of the tangent character times ``shift``."""
        mus, nus, pb = point
        k = len(self._tangent_ws)
        # each chart's table serves its partition in mu and in nu
        maps = self.chart_maps(spec, "tangent", shift, [
            (i % k, lam) for i, lam in enumerate(mus + nus) if lam])
        if self.sections is not None and pb is not None:
            maps.append(self.global_map(spec, shift, _section_line_offsets,
                                        self.sections, pb))
        return _merge_weights(maps)

    def rhom_weights(self, spec, shift, parts_a, parts_b, beta, chi=True):
        """Exponent map of the Rhom character times ``shift``; without
        chi(L) when ``chi`` is false (the trace-free part)."""
        beta = tuple(beta)
        u = self.piece(self.surface.chart_vertices, beta)
        maps = self.chart_maps(spec, "rhom", shift, [
            (c, (parts_a[c], parts_b[c], u[c])) for c in range(len(u))
            if parts_a[c] or parts_b[c]])
        if chi:
            maps.append(self.global_map(spec, shift, chi_line_character,
                                        self.surface, beta))
        return _merge_weights(maps)

    def taut_weights(self, spec, shift, lams, beta):
        """Exponent map of the tautological bundle times ``shift``."""
        u = self.piece(self.surface.chart_vertices, tuple(beta))
        return _merge_weights(self.chart_maps(spec, "taut", shift, [
            (c, (lams[c], u[c])) for c in range(len(u)) if lams[c]]))


# the attributes each leaf kind accepts; lvl names a section level, and
# the localization has one, level 0
_TWIST = ("bc", "ac", "kc", "o1", "tp", "lvl")
_ATTRS = {"tangent": ("o1", "tp"), "O1": ("o1", "tp", "lvl"),
          "pushO": _TWIST, "rhom": ("i", "j") + _TWIST,
          "rhom0": ("i", "j") + _TWIST, "taut": ("a", "level", "o1", "tp")}
_LEVELS = {"rhom": ("i", "j"), "rhom0": ("i", "j"), "taut": ("level",)}


def _resolve_leaf(e, ctx):
    """The leaf e as the record (name, levels, cls, o1, tp), the one
    place a leaf's attributes are read: the nesting levels it reads,
    each 1 or 2 (i and j of rhom and rhom0, level of taut); the integer
    class of its line (bc beta + ac A + kc K of rhom, rhom0 and pushO,
    the vector a of taut, None for tangent and O1); the integers o1 and
    tp of its monomial.  An absent attribute is 0 (a the zero class).
    A leaf that does not resolve in ``ctx`` raises ValueError, as do an
    attribute outside its kind's set (``_ATTRS``), a section level lvl
    other than 0, and an O1 leaf or o1 shift without section lines."""
    name, attrs, S = e.params[0], dict(e.attrs), ctx.surface
    if name not in _ATTRS:
        raise ValueError("leaf %r has no equivariant value" % name)
    for key in attrs:
        if key not in _ATTRS[name]:
            raise ValueError("leaf %r: unknown attr %r" % (name, key))

    def number(key, value, integer=False):
        try:
            x = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError):
            x = None
        if x is None or integer and x.denominator != 1:
            raise ValueError("leaf %r: attr %r must be %s" % (
                name, key, "an integer" if integer else "a rational"))
        return int(x) if integer else x

    cls = None
    if name == "taut":
        a = attrs.get("a", S.zero_class())
        if not isinstance(a, (list, tuple)) or len(a) != S.rank:
            raise ValueError("leaf 'taut': attr 'a' must be a class vector"
                             " of length %d" % S.rank)
        cls = [number("a", x) for x in a]
    elif name in ("rhom", "rhom0", "pushO"):
        cls = S.zero_class()
        for key, D, what in (("bc", ctx.beta, "curve class"),
                             ("ac", ctx.A, "polarization"), ("kc", S.K, "")):
            c = number(key, attrs.get(key, 0))
            if c and D is None:
                raise ValueError("twist references an unbound " + what)
            if c:
                cls = S.add(cls, S.scale(c, D))
    if cls is not None:
        # chart vertices need integer coordinates
        if any(x.denominator != 1 for x in cls):
            raise ValueError("divisor coefficients must be integers")
        cls = tuple(map(int, cls))
    if number("lvl", attrs.get("lvl", 0), True):
        raise ValueError("leaf %r: attr 'lvl' must be 0" % name)
    o1, tp, *levels = (number(key, attrs.get(key, 0), True)
                       for key in ("o1", "tp") + _LEVELS.get(name, ()))
    if (o1 or name == "O1") and ctx.sections is None:
        raise ValueError("no projective bundle level in this problem")
    if any(i not in (1, 2) for i in levels):
        raise ValueError("nesting index out of range for localization")
    return name, tuple(levels), cls, o1, tp


def _homogeneous(d, coefs):
    """The point value sum_i coefs[i] s^i t^(d-i), zero when every
    coefficient is."""
    return [(d, coefs, {}, 1)] if any(coefs) else []


class PointEvaluator:
    """Values of a formula tree at one fixed point (mus, nus, pb) under
    the direction ``spec``, each a term list (see the module
    docstring).  chern, euler and delta nodes read a K-class as its
    exponent map, ``weights``, merged from the context's per-piece maps.
    A twist reads its line with no direction (``spec`` None, whose maps
    are characters), where it must be one monomial, and passes that
    monomial times its power down its body as a shift; a leaf adds the
    shift it inherits to its own.  The body's pieces are so specialized
    one by one: a lattice weight that cancels inside the body can still
    force a redraw, as in a kdiff."""

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

    def leaf_weights(self, e, shift):
        """Exponent map of the leaf e, read from its record (see
        ``_resolve_leaf``), times the inherited ``shift``, O(-o1) of the
        section line and the auxiliary weight t^tp."""
        ctx, spec = self.ctx, self.spec
        name, levels, cls, o1, tp = ctx.leaf(e)
        u = ctx.sections[self.point[2]] if o1 or name == "O1" else (0, 0)
        shift = (shift[0] - o1 * u[0], shift[1] - o1 * u[1], shift[2] + tp)
        # the partitions of each level the leaf reads
        parts = [self.point[i - 1] for i in levels]
        if name in ("rhom", "rhom0"):
            parts_a, parts_b = parts
            if name == "rhom":
                return rhom_global_character(ctx, parts_a, parts_b, cls,
                                             spec=spec, shift=shift)
            return ctx.rhom_weights(spec, shift, parts_a, parts_b, cls,
                                    chi=False)
        if name == "pushO":
            return ctx.global_map(spec, shift, chi_line_character,
                                  ctx.surface, cls)
        if name == "taut":
            return ctx.taut_weights(spec, shift, parts[0], cls)
        if name == "tangent":
            if shift == NO_SHIFT:
                return self.tangent()
            return ctx.tangent_weights(spec, shift, self.point)
        return specialize_weights({(-u[0], -u[1], 0): 1}, spec, shift)

    def weights(self, e, shift=NO_SHIFT):
        """Exponent map {(k, c): m} of the specialized weights of the
        K-class e times the monomial ``shift`` at the point; with no
        direction, the terms {(p, q, c): m} of its character.  A twist
        by a line of character t^l passes m l on as a shift, and a dual
        reads its child at the opposite shift."""
        if e.kind == "leaf":
            return self.leaf_weights(e, shift)
        if e.kind == "ksum":
            return _merge_weights([self.weights(c, shift)
                                   for c in e.children])
        if e.kind == "kdiff":
            a, b = e.children
            return _exps_sum(self.weights(a, shift), self.weights(b, shift),
                             -1)
        if e.kind == "dual":
            return dual(self.weights(e.children[0], tuple(-x for x in shift)))
        if e.kind == "twist":
            body, line = e.children
            terms = PointEvaluator(self.ctx, self.point, None).weights(line)
            if len(terms) != 1 or set(terms.values()) != {1}:
                raise ValueError("twist by a non-line character")
            (line,) = terms
            m = e.params[0]
            return self.weights(body, tuple(x + m * y
                                            for x, y in zip(shift, line)))
        raise ValueError("not a K-level node: %r" % e.kind)

    def cval(self, e):
        if e.kind == "one":
            return [(0, [1], {}, 1)]
        if e.kind == "chern":
            n = e.params[0]
            ws = self.weights(e.children[0])
            if n < 0 or n > 0 and min(ws.values(), default=0) >= 0 \
                    and sum(ws.values()) - ws.get((0, 0), 0) < n:
                # c_n with n < 0, or of an honest bundle with fewer
                # than n nonzero weights
                return []
            return _homogeneous(n, chern_value(ws, n)[n])
        if e.kind == "euler":
            exps = self.weights(e.children[0])
            if (0, 0) in exps:
                if exps[0, 0] > 0:
                    return []
                raise ValueError("non-isolated or non-generic weights")
            return [(0, [1], exps, 1)]
        if e.kind == "delta":
            a, b = e.params
            chern = chern_value(self.weights(e.children[0]),
                                max(a + b - 1, 0))
            total = self.ctx.st_class(chern, a * b)
            det = {m: c for _, m, c in ringcore.delta_det(a, b, total).terms()}
            return _homogeneous(a * b, [det.get((i, a * b - i), 0)
                                        for i in range(a * b + 1)])
        if e.kind == "add":
            return [term for c in e.children for term in self.cval(c)]
        if e.kind == "mul":
            out = [(0, [1], {}, 1)]
            for c in e.children:
                value = self.cval(c)
                if not value:
                    return value
                out = _times(out, value)
            return out
        if e.kind == "scale":
            return _scaled(self.cval(e.children[0]), e.params[0])
        raise ValueError("node %r has no equivariant value" % e.kind)


# ---------------------------------------------------------------------------
# the integral


def _euler_plan(e, ctx):
    """(scale, nodes) of a product (mul, scale, one) of euler nodes over
    tangent classes (see ``_tangent_class``) with a nonzero scale, the
    trees whose integrals take the chart-factor path when there are no
    section lines: the product of its scales and the K-classes of its
    euler nodes in evaluation order.  None for any other tree."""
    if e.kind == "euler":
        return (Fraction(1), [e.children[0]]) \
            if _tangent_class(e.children[0], ctx) else None
    if e.kind not in ("mul", "scale", "one"):
        return None
    scale, nodes = Fraction(e.params[0] if e.kind == "scale" else 1), []
    if not scale:
        return None
    for child in e.children:
        plan = _euler_plan(child, ctx)
        if plan is None:
            return None
        scale, nodes = scale * plan[0], nodes + plan[1]
    return scale, nodes


def _tangent_class(e, ctx):
    """Whether the K-class e is a ksum, kdiff or dual of tangent leaves
    with no circle weight (tp) and no section line (o1)."""
    if e.kind == "leaf":
        name, _, _, o1, tp = ctx.leaf(e)
        return name == "tangent" and not o1 and not tp
    return e.kind in ("ksum", "kdiff", "dual") \
        and all(_tangent_class(c, ctx) for c in e.children)


def _point_contribution(ctx, expr, point, spec):
    """The point's s-expansion; {} for a point whose class value is
    zero, before its tangent character is built.  Points past that
    check are counted in ``ctx.visited``."""
    ev = PointEvaluator(ctx, point, spec)
    val = ev.cval(expr)
    if not val:
        return {}
    ctx.visited += 1
    tangent = ev.tangent()
    if (0, 0) in tangent or min(tangent.values(), default=0) < 0:
        raise ValueError("non-isolated or non-generic weights")
    # euler(tangent) shares the tangent's map: the quotient is empty
    return point_value_laurent(
        [(d, coefs, {} if exps is tangent else _exps_sum(exps, tangent, -1),
          den) for d, coefs, exps, den in val])


def _draw_spec(rng):
    while True:
        a = rng.randrange(2, 1000)
        b = rng.randrange(1, 1000)
        if a != b and math.gcd(a, b) == 1:
            return (a, b)


def _first_direction(seed, attempt):
    """``attempt(spec)`` under seeded directions drawn in turn until one
    annihilates no lattice weight: its result."""
    rng = random.Random(seed)
    for _ in range(51):
        spec = _draw_spec(rng)
        try:
            return attempt(spec)
        except _Collision:
            pass
    raise ValueError("non-isolated or non-generic weights")


def equivariant_integrate(expr, ctx, n1=0, n2=0, seed=0):
    """Integrate a formula over S^[n1] x S^[n2] of the surface of the
    job's LocalizationContext ``ctx`` (times the bundle of section lines
    of its ``with_pb`` when it has one) by summing fixed point
    contributions.  A leaf that does not resolve (``ctx.resolve``)
    raises before any point is listed; past that, the integral leaves
    its direction, draws, points and visited points on the context
    (``ctx.spec``, ``ctx.attempts``, ``ctx.points``, ``ctx.visited``),
    also when it raises.

    Exact: the result is a Fraction when the integral is a number, and
    a RatFunc, the Laurent polynomial in the auxiliary weight, only
    when it depends on that weight.  A seeded random direction breaks
    the torus to one dimension; collisions redraw deterministically.
    The points are summed in this process, one after another; parallel
    work means running jobs side by side.

    A product (mul, scale, one) of euler nodes over ksum, kdiff and
    dual of tangent leaves with no tp or o1 shift, with a nonzero
    scale, without section lines, takes the chart-factor path of
    ``chartfactors`` with its plan, read once by ``_euler_plan``: the
    (n1, n2) coefficient of a product of per-chart series, with every
    listed point visited.  Its values, visited points and errors are
    the per-point path's.  Every other tree (chern, delta, twist, add,
    other leaves, circle weights, section lines, a zero scale) is
    evaluated point by point; the points are listed for both paths.
    """
    if isinstance(expr, (int, Fraction)):
        expr = FormulaExpr.scale(expr, FormulaExpr.one())
    ctx.resolve(expr)
    points = list(enumerate_fixed_points(ctx, n1, n2, nested=False))
    plan = None if ctx.with_pb is not None else _euler_plan(expr, ctx)
    if plan is not None:
        from . import chartfactors
        run = chartfactors.attempt(ctx, expr, plan, n1, n2)
    else:
        def run(spec):
            totals = {}
            for p in points:
                contrib = _point_contribution(ctx, expr, p, spec)
                for key, coef in contrib.items():
                    totals[key] = totals.get(key, 0) + coef
            return totals

    def attempt(spec):
        # set before the attempt runs, so an integral that raises
        # leaves its own counters
        ctx.spec, ctx.visited = spec, 0
        ctx.attempts += 1
        return run(spec)
    ctx.points, ctx.attempts = len(points), 0
    totals = _first_direction(seed, attempt)
    if any(coef and deg < 0 for (deg, _), coef in totals.items()):
        raise ValueError("integral not equivariantly constant")
    value = RatFunc({tp: coef for (deg, tp), coef in totals.items()
                     if deg == 0})
    if value.is_constant():
        return value.as_fraction()
    return value


def tangent_index_counts(ctx, n, seed=0):
    """{i: number of fixed points of S^[n] with i positive tangent
    weights} over the surface of the job's LocalizationContext ``ctx``
    under a seeded direction, read from the per-chart maps an integral
    uses.  By Bialynicki-Birula these are the Betti numbers b_2i of
    S^[n]; a wrong tangent weight moves a point between cells."""
    points = list(enumerate_fixed_points(ctx, 0, n))

    def attempt(spec):
        counts = {}
        for pt in points:
            exps = full_tangent_character(ctx, pt, spec=spec)
            i = sum(m for (k, _), m in exps.items() if k > 0)
            counts[i] = counts.get(i, 0) + 1
        return counts
    return _first_direction(seed, attempt)
