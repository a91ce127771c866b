"""Per-point contributions assembled from cached chart pieces, with
shared weights cancelled, against the uncached reference: every chart
term rebuilt at every point, the tangent character built twice and
the weight lists expanded as they are.  The reference computes with
polynomials in s and t as sparse dicts {(s_power, t_power):
coefficient}, independently of the integer terms of hilbloc's point
values."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb import hilbloc as H
from nesthilb.hilbloc import EquivChar, cells, arm, leg, partitions
from nesthilb.expr import FormulaExpr as FE, rhom, pushO, o1_line, taut, \
    co_class
from nesthilb.ringcore import binom_general
from nesthilb.surface import p2, p1xp1, f1, f2, surface_from_json
from nesthilb.vw import monopole_integrand


# ---------------------------------------------------------------------------
# polynomials in s and t: sparse dicts {(s_power, t_power): coefficient},
# t_power possibly negative


def pol_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def pol_mul(a, b):
    out = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def pol_scale(a, c):
    return {k: v * c for k, v in a.items()} if c else {}


POL_ONE = {(0, 0): 1}


# ---------------------------------------------------------------------------
# adapter between point values and dicts


def as_point_value(poly, exps):
    """The point value of a dict times an exponent map: one term per
    monomial, a negative power of t carried by the weight t = (0, 1)."""
    terms = []
    for (i, j), v in poly.items():
        v = Fraction(v)
        if j >= 0:
            terms.append((i + j, [0] * i + [v.numerator] + [0] * j, exps,
                          v.denominator))
        else:
            terms.append((i, [0] * i + [v.numerator],
                          H._exps_sum(exps, {(0, 1): j}), v.denominator))
    return H.PointValue(terms)


def as_dicts(pv):
    """The terms of a point value as (dict, exponent map) pairs."""
    return [({(i, d - i): Fraction(c, den) for i, c in enumerate(coefs) if c},
             exps) for d, coefs, exps, den in pv.terms]


# ---------------------------------------------------------------------------
# uncached reference


def ref_box_character(mu, w1, w2):
    out = EquivChar()
    for a, b in cells(mu):
        out = out + EquivChar.monomial(a * w1[0] + b * w2[0],
                                       a * w1[1] + b * w2[1])
    return out


def ref_tangent_character(mu, w):
    w1, w2 = w
    out = EquivChar()
    for cell in cells(mu):
        a, l = arm(mu, cell), leg(mu, cell)
        out = out + EquivChar.monomial((a + 1) * w1[0] - l * w2[0],
                                       (a + 1) * w1[1] - l * w2[1])
        out = out + EquivChar.monomial(-a * w1[0] + (l + 1) * w2[0],
                                       -a * w1[1] + (l + 1) * w2[1])
    return out


class UncachedContext(H.LocalizationContext):
    """Every character rebuilt from scratch at every point: no chart
    piece, vertex or twist class is kept."""

    def tangent(self, point):
        S = self.surface
        out = EquivChar()
        for chart, mu, nu in zip(S.charts, point.mu, point.nu):
            w = chart.tangent_weights()
            if mu:
                out = out + ref_tangent_character(mu, w)
            if nu:
                out = out + ref_tangent_character(nu, w)
        if self.with_pb is not None and point.pb is not None:
            pts = S.polytope_points(self.with_pb)
            u0 = pts[point.pb]
            for u in pts:
                if u != u0:
                    out = out + EquivChar.monomial(u[0] - u0[0],
                                                   u[1] - u0[1])
        return out

    def rhom(self, parts_a, parts_b, beta):
        S = self.surface
        out = H.chi_line_character(S, beta)
        for chart, mu, nu in zip(S.charts, parts_a, parts_b):
            if not mu and not nu:
                continue
            m1, m2 = chart.m1, chart.m2
            u = S.chart_vertex(chart, beta)
            piece = EquivChar()
            if nu:
                piece = piece - ref_box_character(nu, m1, m2)
            if mu:
                qbar = ref_box_character(mu, m1, m2).conj()
                piece = piece - qbar.shift(-m1[0] - m2[0], -m1[1] - m2[1])
                if nu:
                    dbar = H._denominator_char(
                        (-m1[0], -m1[1]), (-m2[0], -m2[1]))
                    piece = piece + dbar * qbar * ref_box_character(
                        nu, m1, m2)
            out = out + piece.shift(int(u[0]), int(u[1]))
        return out

    def taut(self, lams, beta):
        S = self.surface
        ch = EquivChar()
        for chart, lam in zip(S.charts, lams):
            if lam:
                u = S.chart_vertex(chart, S.cls(beta))
                ch = ch + ref_box_character(lam, chart.m1, chart.m2).shift(
                    int(u[0]), int(u[1]))
        return ch

    def twist_class(self, leaf):
        return self._twist_class(leaf.attr("bc"), leaf.attr("ac"),
                                 leaf.attr("kc"))


def ref_weight_poly(w):
    """The linear polynomial k s + c t of a specialized weight."""
    k, c = w
    return {key: v for key, v in (((1, 0), k), ((0, 1), c)) if v}


def ref_point_value_laurent(poly, num_ws, den_ws):
    """The s-degree <= 0 expansion of poly * prod(num_ws) / prod(den_ws)
    from weight lists, one linear factor at a time and nothing
    cancelled."""
    hard = [k for k, c in den_ws if c == 0]
    cutoff = len(hard)
    poly = {key: v for key, v in poly.items() if key[0] <= cutoff}
    for w in num_ws:
        poly = {key: v for key, v in pol_mul(poly,
                                             ref_weight_poly(w)).items()
                if key[0] <= cutoff}
    if not poly:
        return {}
    if 0 in hard:
        raise ValueError("non-isolated or non-generic weights")
    scalar = Fraction(1)
    for k in hard:
        scalar /= k
    series = [scalar] + [Fraction(0)] * cutoff
    soft = 0
    for (k, c) in den_ws:
        if c == 0:
            continue
        soft += 1
        r = Fraction(-k, c)
        series[0] /= c
        for j in range(1, cutoff + 1):
            series[j] = series[j] / c + r * series[j - 1]
    out = {}
    for (i, j), v in poly.items():
        for n in range(cutoff - i + 1):
            if series[n]:
                key = (i + n - cutoff, j - soft - n)
                out[key] = out.get(key, 0) + v * series[n]
    return {k: v for k, v in out.items() if v}


def weight_lists(exps):
    """Numerator and denominator weight lists of an exponent map, each
    weight repeated as often as its exponent says."""
    return ([w for w, e in exps.items() for _ in range(e)],
            [w for w, e in exps.items() for _ in range(-e)])


def ref_value_laurent(val, tangent_ws):
    """The s-degree <= 0 expansion of a point value over the tangent
    weight list, summed term by term."""
    out = {}
    for poly, exps in as_dicts(val):
        num, den = weight_lists(exps)
        for key, v in ref_point_value_laurent(poly, num,
                                              den + tangent_ws).items():
            out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def ref_point_contribution(ctx, expr, point, spec):
    val = H.PointEvaluator(ctx, point, spec).cval(expr)
    den = []
    for w, mult in H.specialize_weights(ctx.tangent(point), spec).items():
        if w == (0, 0) or mult < 0:
            raise ValueError("non-isolated or non-generic weights")
        den.extend([w] * mult)
    return ref_value_laurent(val, den)


def ref_pol_det(rows):
    """Cofactor expansion along the first column: a! terms."""
    n = len(rows)
    if n == 0:
        return dict(POL_ONE)
    if n == 1:
        return rows[0][0]
    acc = {}
    for i in range(n):
        if not rows[i][0]:
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = pol_mul(rows[i][0], ref_pol_det(minor))
        if i % 2:
            term = pol_scale(term, -1)
        acc = pol_add(acc, term)
    return acc


# ---------------------------------------------------------------------------
# problems: surface, class (curve class and section bundle), integrand


def fake_p1xp1():
    """A user surface named like the builtin P1xP1 on the rays of F1."""
    return surface_from_json({"name": "P1xP1",
                              "rays": [list(r) for r in f1().rays],
                              "basis": [0, 1]})


SURFACES = [(p2, (1,)), (p1xp1, (1, 1)), (f1, (1, 1)), (f2, (2, 1)),
            (fake_p1xp1, (1, 1))]

EULER = FE.euler(FE.leaf("tangent"))


def pushforward_integrand(n, rank):
    """A leaf of criterion 06's section-bundle route, with a tangent
    leaf, a tautological class and O(1) twists."""
    B1 = FE.twist(pushO(bc=1), o1_line(), 1)
    R1 = rhom(1, 2, bc=1, o1=1)
    a = (1,) + (0,) * (rank - 1)
    return FE.mul(FE.chern(1, taut(a, 2)), FE.chern(1, o1_line()),
                  FE.chern(n, FE.kdiff(B1, R1)),
                  FE.chern(1, FE.leaf("tangent")))


def problem(kind, make, beta, n1, n2):
    """(surface, integrand, integral keywords) of one localization
    problem."""
    S = make()
    if kind == "euler":
        return S, EULER, {}
    if kind == "monopole":
        return S, monopole_integrand(n1, n2), {"beta": beta}
    return S, pushforward_integrand(n1 + n2, S.rank), \
        {"beta": beta, "with_pb": beta}


def contributions(ctx, expr, points, spec, contribution):
    """Per-point values, or the exception type a point raised."""
    out = []
    for pt in points:
        try:
            out.append(contribution(ctx, expr, pt, spec))
        except (H._Collision, ValueError) as err:
            out.append(type(err))
    return out


class TestChartPieces:
    def test_one_pass_characters(self):
        for w in (((1, 0), (0, 1)), ((-1, 0), (1, -1)), ((2, 1), (0, -1))):
            for n in range(7):
                for mu in partitions(n):
                    assert H.tangent_character(mu, w) \
                        == ref_tangent_character(mu, w)
                    assert H.box_character(mu, *w) \
                        == ref_box_character(mu, *w)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(range(len(SURFACES))),
           st.sampled_from(["euler", "monopole", "pushforward"]),
           st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]),
           st.integers(0, 10 ** 6))
    def test_cached_contribution_matches_uncached(self, which, kind,
                                                  sizes, seed):
        make, beta = SURFACES[which]
        n1, n2 = sizes
        S, expr, kw = problem(kind, make, beta, n1, n2)
        points = list(H.enumerate_fixed_points(
            S, n1, n2, with_pb=kw.get("with_pb"), nested=False))
        spec = H._draw_spec(random.Random(seed))
        # one context for all points, so later points hit cached pieces
        cached = contributions(H.LocalizationContext(S, **kw), expr,
                               points, spec, H._point_contribution)
        ref = contributions(UncachedContext(S, **kw), expr, points, spec,
                            ref_point_contribution)
        assert cached == ref

    def test_each_piece_built_once(self):
        S = p1xp1()
        ctx = H.LocalizationContext(S)
        for pt in H.enumerate_fixed_points(S, 0, 2):
            H._point_contribution(ctx, EULER, pt, (7, 3))
        # one tangent piece per chart and partition of size 1 or 2
        assert len(ctx._pieces) == len(S.charts) * 3


# ---------------------------------------------------------------------------
# merged per-piece maps against the whole character, specialized at once


class SumRouteEvaluator(H.PointEvaluator):
    """A K-class's character built whole and then specialized, as one
    map; the merged per-piece maps must give the same."""

    def weights(self, e):
        return H.specialize_weights(self.kval(e), self.spec)


@st.composite
def k_leaves(draw, rank, pb):
    """A K-theory leaf of any kind, with its o1 and tp shifts set or
    unset; o1 and O(1) only where there are section lines."""
    o1 = draw(st.sampled_from([0, 1, -1])) if pb else 0
    tp = draw(st.sampled_from([0, 1, -2]))
    i, j = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    bc, kc = draw(st.sampled_from([0, 1, -1])), draw(st.sampled_from([0, 1]))
    a = (draw(st.sampled_from([0, 1, 2])),) + (0,) * (rank - 1)
    name = draw(st.sampled_from(["tangent", "rhom", "rhom0", "pushO",
                                 "taut"] + (["O1"] if pb else [])))
    if name == "rhom":
        return rhom(i, j, bc=bc, kc=kc, o1=o1, tp=tp)
    if name == "rhom0":
        return rhom(i, i, bc=bc, kc=kc, o1=o1, tp=tp, trace_free=True)
    if name == "pushO":
        return pushO(bc=bc, kc=kc, o1=o1, tp=tp)
    shifts = {k: v for k, v in (("o1", o1), ("tp", tp)) if v}
    if name == "taut":
        return FE.leaf("taut", a=a, level=i, **shifts)
    return FE.leaf(name, **shifts)


def k_trees(rank, pb):
    lines = [pushO(tp=t) for t in (0, 1, -1)]
    if pb:
        lines += [o1_line(), pushO(o1=1)]
    return st.recursive(
        k_leaves(rank, pb),
        lambda sub: st.one_of(
            st.lists(sub, max_size=3).map(lambda xs: FE.ksum(*xs)),
            st.tuples(sub, sub).map(lambda ab: FE.kdiff(*ab)),
            sub.map(FE.dual),
            st.tuples(sub, st.sampled_from(lines),
                      st.sampled_from([1, -1, 2])).map(
                lambda t: FE.twist(*t))),
        max_leaves=4)


def k_nodes(e):
    """The K-theory nodes of a tree, the root first."""
    yield e
    if e.kind == "twist":
        yield from k_nodes(e.children[0])
        yield from k_nodes(e.children[1])
    elif e.kind != "leaf":
        for c in e.children:
            yield from k_nodes(c)


def weights_or_collision(weights, e):
    try:
        return weights(e)
    except H._Collision:
        return H._Collision


def ref_integral(expr, S, n1, n2, spec, **kw):
    """The refined integral by the whole-character route: every
    character rebuilt at every point, specialized as one sum, and the
    weight lists expanded as they are."""
    ctx = UncachedContext(S, **kw)
    totals = {}
    for pt in H.enumerate_fixed_points(S, n1, n2, with_pb=kw.get("with_pb"),
                                       nested=False):
        val = SumRouteEvaluator(ctx, pt, spec).cval(expr)
        tangent = H.specialize_weights(ctx.tangent(pt), spec)
        den = [w for w, m in tangent.items() for _ in range(m)]
        for key, v in ref_value_laurent(val, den).items():
            totals[key] = totals.get(key, 0) + v
    assert not any(v and s < 0 for (s, _), v in totals.items())
    return H.RatFunc({t: v for (s, t), v in totals.items() if s == 0})


class TestMergedWeights:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_merged_maps_match_whole_character(self, data):
        make, beta = data.draw(st.sampled_from(SURFACES))
        S = make()
        pb = data.draw(st.booleans())
        n1 = data.draw(st.integers(0, 2))
        n2 = data.draw(st.integers(0, 3 - n1))
        kw = {"beta": beta, "with_pb": beta if pb else None}
        points = list(H.enumerate_fixed_points(S, n1, n2,
                                               with_pb=kw["with_pb"],
                                               nested=False))
        pt = points[data.draw(st.integers(0, len(points) - 1))]
        spec = H._draw_spec(random.Random(data.draw(st.integers(0, 10 ** 6))))
        tree = data.draw(k_trees(S.rank, pb))
        ev = H.PointEvaluator(H.LocalizationContext(S, **kw), pt, spec)
        ref = SumRouteEvaluator(UncachedContext(S, **kw), pt, spec)
        for e in k_nodes(tree):
            assert weights_or_collision(ev.weights, e) \
                == weights_or_collision(ref.weights, e)

    def test_cancelling_term_forces_a_redraw(self):
        # chi(L) cancels between the two terms of E_L, but each piece is
        # specialized on its own: a direction annihilating a lattice
        # weight of chi(L) is a collision for the merged route only
        S = p2()
        assert (-1, 1, 0) in H.chi_line_character(S, (1,)).terms
        bad = (1, 1)
        e = FE.kdiff(pushO(bc=1), rhom(1, 2, bc=1))
        ctx = H.LocalizationContext(S, beta=(1,))
        whole = []
        for pt in H.enumerate_fixed_points(S, 0, 1, nested=False):
            with pytest.raises(H._Collision):
                H.PointEvaluator(ctx, pt, bad).weights(e)
            whole.append(weights_or_collision(
                SumRouteEvaluator(ctx, pt, bad).weights, e))
        assert any(w is not H._Collision for w in whole)

    @pytest.mark.parametrize("which", range(len(SURFACES)))
    def test_integrals_match_whole_character_route(self, which):
        make, beta = SURFACES[which]
        S = make()
        for n in range(4):
            for n1 in range(n + 1):
                n2 = n - n1
                for expr, kw in (
                        (EULER, {}),
                        (FE.chern(n, co_class(bc=1)), {"beta": beta}),
                        (monopole_integrand(n1, n2), {"beta": beta})):
                    value, info = H.equivariant_integrate(
                        expr, S, n1, n2, refined=True, return_info=True,
                        **kw)
                    assert value == ref_integral(expr, S, n1, n2,
                                                 info["spec"], **kw)


def annihilating_spec(S, points):
    """A drawable direction (a, b) killing some tangent weight."""
    for pt in points:
        for (p, q, _) in UncachedContext(S).tangent(pt).terms:
            if p * q < 0:
                a, b = abs(q), abs(p)
                if a >= 2 and a != b and math.gcd(a, b) == 1:
                    return pt, (a, b)
    raise AssertionError("no annihilating direction")


class TestCollisions:
    def test_collision_with_and_without_cached_piece(self):
        S = p2()
        points = list(H.enumerate_fixed_points(S, 0, 3))
        pt, bad = annihilating_spec(S, points)
        with pytest.raises(H._Collision):
            H._point_contribution(H.LocalizationContext(S), EULER, pt, bad)
        ctx = H.LocalizationContext(S)
        assert H._point_contribution(ctx, EULER, pt, (7, 3)) \
            == {(0, 0): 1}
        with pytest.raises(H._Collision):
            H._point_contribution(ctx, EULER, pt, bad)

    @pytest.mark.parametrize("kind", ["euler", "monopole"])
    def test_redraw_after_collision(self, kind):
        S, expr, kw = problem(kind, p2, (1,), 0, 3)
        points = list(H.enumerate_fixed_points(S, 0, 3, nested=False))
        _, bad = annihilating_spec(S, points)
        for first in (bad, (7, 3)):
            draws = iter([first, (11, 4)])
            with mock.patch.object(H, "_draw_spec",
                                   lambda rng: next(draws)):
                value, info = H.equivariant_integrate(
                    expr, S, 0, 3, refined=True, return_info=True, **kw)
            want = (11, 4) if first == bad else (7, 3)
            assert (info["spec"], info["attempts"]) \
                == (want, 2 if first == bad else 1)
            # the value does not depend on the direction drawn
            ref = {}
            ctx = UncachedContext(S, **kw)
            for p in points:
                for key, v in ref_point_contribution(ctx, expr, p,
                                                     want).items():
                    ref[key] = ref.get(key, 0) + v
            assert value == H.RatFunc({t: v for (s, t), v in ref.items()
                                       if s == 0})


class TestCancellation:
    def test_weight_times_inverse_leaves_no_entry(self):
        a = as_point_value(POL_ONE, {(2, 1): 1, (1, 0): -2})
        b = as_point_value({(0, 1): 3}, {(2, 1): -1, (1, 0): 1})
        assert as_dicts(a.times(b)) == [({(0, 1): 3}, {(1, 0): -1})]

    def test_negative_s_powers_survive(self):
        # e(T) e(-T)^2 leaves 1/e(T)^2 at each point after cancelling
        inverse = FE.euler(FE.kdiff(FE.ksum(), FE.leaf("tangent")))
        expr = FE.mul(EULER, inverse, inverse)
        S = p2()
        ctx, ref_ctx = H.LocalizationContext(S), UncachedContext(S)
        for pt in H.enumerate_fixed_points(S, 0, 1):
            value = H._point_contribution(ctx, expr, pt, (7, 3))
            assert value == ref_point_contribution(ref_ctx, expr, pt,
                                                   (7, 3))
            assert min(s for s, _ in value) == -4
        with pytest.raises(ValueError,
                           match="integral not equivariantly constant"):
            H.equivariant_integrate(expr, S, 0, 1)


polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-1, 2)),
    st.integers(-3, 3).filter(bool).map(Fraction), max_size=3)


class RefPointValue:
    """A point value as polynomial and weight lists, with the sum taken
    over the product of both denominators."""

    def __init__(self, poly, num_ws=(), den_ws=()):
        self.poly = poly
        self.num_ws = list(num_ws)
        self.den_ws = list(den_ws)

    def times(self, other):
        return RefPointValue(pol_mul(self.poly, other.poly),
                             self.num_ws + other.num_ws,
                             self.den_ws + other.den_ws)

    def scaled(self, c):
        return RefPointValue(pol_scale(self.poly, c), self.num_ws,
                             self.den_ws)

    def plus(self, other):
        pa, pb = self.poly, other.poly
        for w in self.num_ws + other.den_ws:
            pa = pol_mul(pa, ref_weight_poly(w))
        for w in other.num_ws + self.den_ws:
            pb = pol_mul(pb, ref_weight_poly(w))
        return RefPointValue(pol_add(pa, pb), [],
                             self.den_ws + other.den_ws)


# a small pool, so that weights repeat across leaves; c = 0 included
weights = st.sampled_from([(1, 0), (-2, 0), (3, 0), (0, 1), (0, -2),
                           (1, 1), (2, -1), (-3, 2)])


@st.composite
def point_leaves(draw):
    exps = draw(st.dictionaries(weights, st.integers(-2, 2).filter(bool),
                                max_size=3))
    return draw(polys), exps


def point_trees():
    return st.recursive(
        point_leaves(),
        lambda sub: st.one_of(
            st.tuples(st.sampled_from(["times", "plus"]), sub, sub),
            st.tuples(st.just("scaled"),
                      st.integers(-3, 3).map(Fraction), sub)),
        max_leaves=5)


def build(tree, make):
    """The value of a tree of times, plus and scaled over leaves
    (poly, exps), with make(poly, exps) building a leaf."""
    if tree[0] == "scaled":
        return build(tree[2], make).scaled(tree[1])
    if tree[0] in ("times", "plus"):
        a, b = build(tree[1], make), build(tree[2], make)
        return getattr(a, tree[0])(b)
    return make(*tree)


class TestExponentMap:
    @settings(max_examples=150, deadline=None)
    @given(point_trees())
    def test_laurent_matches_weight_lists(self, tree):
        value = build(tree, as_point_value)
        ref = build(tree, lambda poly, exps:
                    RefPointValue(poly, *weight_lists(exps)))
        assert all(all(exps.values()) for _, exps in as_dicts(value))
        assert H.point_value_laurent(value) \
            == ref_point_value_laurent(ref.poly, ref.num_ws, ref.den_ws)


def ref_chern_classes(weights, top):
    """c_0 ... c_top of a weight map as dicts: the product of the
    binomial series (1 + k s + c t)^m, truncated above degree top."""
    total = [dict(POL_ONE)] + [{} for _ in range(top)]
    for w, m in weights.items():
        if w == (0, 0):
            continue
        power, fac = dict(POL_ONE), [dict(POL_ONE)]
        for j in range(1, top + 1):
            power = pol_mul(power, ref_weight_poly(w))
            fac.append(pol_scale(power, binom_general(m, j)))
        new = []
        for n in range(top + 1):
            acc = {}
            for i in range(n + 1):
                acc = pol_add(acc, pol_mul(total[i], fac[n - i]))
            new.append(acc)
        total = new
    return total


class FixedWeights(H.PointEvaluator):
    """Every K-class at the point has the same exponent map."""

    def __init__(self, ws):
        self.ws = ws

    def weights(self, e):
        return self.ws


class TestDeltaValue:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(weights, st.integers(-3, 3).filter(bool),
                           max_size=4),
           st.integers(1, 4), st.integers(-1, 3))
    def test_delta_matches_cofactor(self, ws, a, b):
        ev = FixedWeights(ws)
        x = FE.leaf("tangent")
        chern = ref_chern_classes(ws, max(a + b - 1, 0))
        for k, ck in enumerate(chern):
            assert as_dicts(ev.cval(FE.chern(k, x))) \
                == ([(ck, {})] if ck else [])
        rows = [[chern[b + j - i] if 0 <= b + j - i < len(chern) else {}
                 for j in range(a)] for i in range(a)]
        det = ref_pol_det(rows)
        assert as_dicts(ev.cval(FE.delta(a, b, x))) \
            == ([(det, {})] if det else [])

    def test_empty_delta_is_one(self):
        ev = FixedWeights({(1, 0): 2, (2, -1): -1})
        assert as_dicts(ev.cval(FE.delta(0, 3, FE.leaf("tangent")))) \
            == [(POL_ONE, {})]
