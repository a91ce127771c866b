"""The chart-factor path of ``equivariant_integrate`` against the
per-point path.  An Euler product of chart-local leaves with no circle
weight takes the chart-factor path; wrapped in a one-child ``add`` the
same integrand is not such a product and takes the per-point path, with
the same value.  Both must give the same value or raise the same error
with the same message, after visiting the same points, and report the
same direction, draw count and point count."""

import contextlib
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb import hilbloc as H
from nesthilb.expr import FormulaExpr as FE, rhom, pushO, taut, o1_line
from nesthilb.surface import p2, p1xp1, f1, f2, surface_from_json
from support import nonequivariant_limit


def five_rays():
    """A user toric surface: P1xP1 blown up at a fixed point."""
    return surface_from_json({"name": "five",
                              "rays": [[1, 0], [1, 1], [0, 1], [-1, 0],
                                       [0, -1]],
                              "basis": [0, 1, 2]})


SURFACES = [(p2, (1,)), (p1xp1, (1, 1)), (f1, (1, 1)), (f2, (2, 1)),
            (five_rays, (1, 1, 1))]

EULER = FE.euler(FE.leaf("tangent"))

# small directions first: they annihilate weights of small partitions,
# so the draws of both paths pass through collisions
SMALL_DIRECTIONS = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (7, 3),
                    (11, 4), (13, 5)]


@st.composite
def chart_leaves(draw, rank):
    """A chart-local leaf with no circle weight and no section line."""
    i, j = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    bc, kc = draw(st.sampled_from([0, 1, -1])), draw(st.sampled_from([0, 1]))
    name = draw(st.sampled_from(["tangent", "taut", "rhom", "rhom0",
                                 "pushO"]))
    if name == "rhom":
        return rhom(i, j, bc=bc, kc=kc)
    if name == "rhom0":
        return rhom(i, i, bc=bc, kc=kc, trace_free=True)
    if name == "pushO":
        return pushO(bc=bc, kc=kc)
    if name == "taut":
        a = (draw(st.sampled_from([0, 1, 2])),) + (0,) * (rank - 1)
        return taut(a, draw(st.sampled_from([1, 2])))
    return FE.leaf("tangent")


def k_trees(rank):
    return st.recursive(
        chart_leaves(rank),
        lambda sub: st.one_of(
            st.lists(sub, max_size=3).map(lambda xs: FE.ksum(*xs)),
            st.tuples(sub, sub).map(lambda ab: FE.kdiff(*ab)),
            sub.map(FE.dual)),
        max_leaves=4)


def euler_products(rank):
    """Products of euler nodes, scales (0 among them) and ones."""
    return st.recursive(
        st.one_of(k_trees(rank).map(FE.euler), st.just(FE.one()),
                  st.just(EULER)),
        lambda sub: st.one_of(
            st.lists(sub, min_size=1, max_size=3).map(lambda xs: FE.mul(*xs)),
            st.tuples(st.sampled_from([0, 1, -1, 2, Fraction(1, 2), 3]),
                      sub).map(lambda t: FE.scale(*t))),
        max_leaves=4)


def outcome(expr, S, n1, n2, beta, refined, seed, draws=None):
    """(value and info, or error type and message; points visited;
    per-point evaluations) of the integral in a fresh context.  With
    ``draws`` the directions are drawn from that list in turn."""
    ctx = H.LocalizationContext(S, beta=beta)
    calls = []
    point = H._point_contribution
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            H, "_point_contribution",
            lambda *a: calls.append(1) or point(*a)))
        if draws is not None:
            it = iter(draws)
            stack.enter_context(mock.patch.object(H, "_draw_spec",
                                                  lambda rng: next(it)))
        try:
            result = H.equivariant_integrate(expr, ctx, n1, n2,
                                             refined=refined, seed=seed,
                                             return_info=True)
        except ValueError as err:
            result = (type(err), str(err))
    return result, ctx.visited, len(calls)


def both_paths(expr, *args, **kw):
    """Outcomes of expr and of the one-child add of expr."""
    return outcome(expr, *args, **kw), outcome(FE.add(expr), *args, **kw)


class TestAgainstPerPointPath:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_random_euler_products(self, data):
        make, beta = data.draw(st.sampled_from(SURFACES))
        S = make()
        n1 = data.draw(st.integers(0, 2))
        n2 = data.draw(st.integers(0, 4 - n1))
        if len(S.charts) > 4:
            n2 = min(n2, 3 - n1)
        expr = data.draw(euler_products(S.rank))
        refined = data.draw(st.booleans())
        seed = data.draw(st.integers(0, 10 ** 6))
        draws = SMALL_DIRECTIONS + [(101, 37)] * 50 \
            if data.draw(st.booleans()) else None
        fast, slow = both_paths(expr, S, n1, n2, beta, refined, seed,
                                draws=draws)
        # the same result and info, or error and message, after the
        # same points were visited; no more points evaluated one by one
        assert fast[:2] == slow[:2]
        assert fast[2] <= slow[2]

    @pytest.mark.parametrize("which", range(len(SURFACES)))
    @pytest.mark.parametrize("expr,want", [
        # chi(O) holds the zero weight: every point is zero
        (FE.euler(pushO()), 0),
        # ... and with negative multiplicity it is an error
        (FE.euler(FE.neg(pushO())), "non-isolated or non-generic weights"),
        # the zero weight of chi(O) cancels within the node
        (FE.euler(FE.kdiff(rhom(1, 1), pushO())), None),
        # degree above the dimension past n = 0
        (FE.mul(EULER, EULER), None),
        # degree below it: 1/e(T) sums to 0 past n = 0
        (FE.euler(FE.ksum()), None),
        (FE.mul(EULER, FE.euler(FE.neg(FE.leaf("tangent")))), None),
        # a scale by 0 after a node, and before one that would raise
        (FE.mul(FE.scale(0, EULER), FE.euler(FE.neg(pushO()))), 0),
        (FE.scale(Fraction(-3, 2), FE.mul(EULER, FE.one())), None),
        # an out-of-range nesting index is left to the per-point path
        (FE.euler(rhom(3, 1)), "nesting index out of range"),
    ])
    def test_chosen_cases(self, which, expr, want):
        make, beta = SURFACES[which]
        S = make()
        for n1, n2 in ((0, 0), (0, 1), (0, 2), (1, 1), (0, 3)):
            for refined in (False, True):
                fast, slow = both_paths(expr, S, n1, n2, beta, refined, 5)
                assert fast[:2] == slow[:2], (n1, n2, refined)
                result = fast[0]
                if isinstance(want, str):
                    assert result[0] is ValueError and want in result[1]
                elif want is not None:
                    assert nonequivariant_limit(result[0]) == want

    def test_negative_s_powers(self):
        # e(T) e(-T)^2 leaves 1/e(T)^2 at each point, which does not sum
        # to a constant
        inverse = FE.euler(FE.neg(FE.leaf("tangent")))
        expr = FE.mul(EULER, inverse, inverse)
        fast, slow = both_paths(expr, p2(), 0, 1, (1,), False, 0)
        assert fast[:2] == slow[:2]
        assert fast[0] == (ValueError, "integral not equivariantly constant")
        assert fast[1] == 3 and fast[2] <= slow[2]

    def test_collision_redraws_alike(self):
        # (2, 1) and (3, 1) annihilate weights of partitions of size 3
        expr = FE.mul(FE.euler(FE.kdiff(pushO(bc=1), rhom(1, 2, bc=1))),
                      EULER)
        for make, beta in SURFACES:
            fast, slow = both_paths(expr, make(), 0, 3, beta, True, 0,
                                    draws=SMALL_DIRECTIONS + [(101, 37)])
            assert fast[:2] == slow[:2]
            assert fast[0][1]["attempts"] > 1


    def test_pieces_behind_a_zero_node_never_collide(self):
        # chi(O) makes every point zero at the first node, so neither
        # path specializes a tangent or Rhom piece, and a direction that
        # annihilates one of their weights is kept
        draws = SMALL_DIRECTIONS + [(101, 37)]
        expr = FE.mul(FE.euler(pushO()), EULER,
                      FE.euler(rhom(1, 2, bc=1)))
        for make, beta in SURFACES:
            S = make()
            fast, slow = both_paths(expr, S, 0, 3, beta, False, 0,
                                    draws=draws)
            assert fast[:2] == slow[:2]
            assert (fast[0][0], fast[0][1]["attempts"], fast[1]) == (0, 1, 0)
            euler, _ = both_paths(EULER, S, 0, 3, beta, False, 0,
                                  draws=draws)
            assert euler[0][1]["attempts"] > 1

    @pytest.mark.parametrize("tree,n1,n2", [
        # collides under the first small directions
        (lambda L: FE.mul(FE.euler(FE.kdiff(pushO(bc=1), rhom(1, 2, bc=1))),
                          EULER), 0, 3),
        # zero at the first node: nothing behind it is specialized
        (lambda L: FE.mul(FE.euler(pushO()), EULER,
                          FE.euler(rhom(1, 2, bc=1))), 0, 3),
        (lambda L: FE.mul(FE.euler(FE.dual(taut(L, 2))),
                          FE.euler(taut(L, 1)), FE.scale(3, EULER)), 1, 2),
        (lambda L: FE.euler(FE.kdiff(FE.dual(rhom(1, 1, trace_free=True)),
                                     rhom(2, 1, kc=1))), 1, 2),
        # a scale by 0 after a node that is zero at some points
        (lambda L: FE.mul(FE.euler(FE.kdiff(pushO(bc=-1), rhom(1, 2))),
                          FE.scale(0, FE.euler(taut(L, 2))), EULER), 1, 2),
    ], ids=["collides", "zero-node", "dual-taut", "dual-rhom0", "scale-0"])
    @pytest.mark.parametrize("which", [0, 1, 3])
    def test_same_pieces_specialized(self, which, tree, n1, n2):
        # the chart path specializes the pieces the per-point path does,
        # which is why both paths collide at the same draws
        make, beta = SURFACES[which]
        S = make()
        expr = tree(beta)
        seen = []
        for e in (expr, FE.add(expr)):
            ctx = H.LocalizationContext(S, beta=beta)
            draws = iter(SMALL_DIRECTIONS + [(101, 37)])
            with mock.patch.object(H, "_draw_spec",
                                   lambda rng: next(draws)):
                try:
                    H.equivariant_integrate(e, ctx, n1, n2, refined=True)
                except ValueError:
                    pass
            keys = {kind: [set(t) for t in ctx.table(ctx._spec, kind,
                                                     H.NO_SHIFT)]
                    for kind in ("tangent", "rhom", "taut")}
            keys["chi"] = set(ctx.table(ctx._spec, "chi", H.NO_SHIFT,
                                        False))
            seen.append((ctx._spec, keys))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("which", range(len(SURFACES)))
    def test_dual_of_odd_rank(self, which):
        # e(L^[n] dual) = (-1)^n e(L^[n]): the sign shows at odd n
        make, beta = SURFACES[which]
        S = make()
        L = taut(beta, 2)
        expr = FE.mul(FE.euler(FE.dual(L)), FE.euler(L))
        values = []
        for n in (1, 2, 3):
            fast, slow = both_paths(expr, S, 0, n, beta, False, 0)
            assert fast[:2] == slow[:2]
            values.append(fast[0][0])
        # -L.L at n = 1
        assert values[0] < 0


class TestRouting:
    @pytest.mark.parametrize("expr,kw", [
        (FE.euler(rhom(1, 2, tp=1)), {"beta": (1,)}),
        (FE.euler(pushO(bc=1, o1=1)), {"beta": (1,), "with_pb": (1,)}),
        (FE.euler(FE.twist(FE.leaf("tangent"), pushO(tp=1))), {}),
        (FE.chern(2, FE.leaf("tangent")), {}),
        (FE.add(EULER), {}),
        (FE.mul(EULER, FE.euler(o1_line())), {"with_pb": (1,)}),
        # an Euler product, but the problem has section lines
        (EULER, {"with_pb": (1,)}),
    ])
    def test_other_trees_take_the_per_point_path(self, expr, kw):
        calls = []
        point = H._point_contribution
        with mock.patch.object(H, "_point_contribution",
                               lambda *a: calls.append(1) or point(*a)):
            try:
                H.equivariant_integrate(expr, p2(), 0, 1, refined=True,
                                        **kw)
            except ValueError:
                pass
        assert calls

    def test_factors_kept_per_direction_and_tree(self):
        # an n range reuses the factors of its first direction; another
        # tree keeps its own
        S = p1xp1()
        ctx = H.LocalizationContext(S)
        for n in range(4):
            H.equivariant_integrate(EULER, ctx, 0, n)
        tables = ctx.table(ctx._spec, ("factors", EULER.key()), H.NO_SHIFT)
        # one factor per chart and partition of size at most 3
        assert [len(t) for t in tables] == [1 + 1 + 2 + 3] * len(S.charts)
        other = FE.mul(EULER, EULER)
        H.equivariant_integrate(other, ctx, 0, 2)
        assert len(ctx.table(ctx._spec, ("factors", other.key()),
                             H.NO_SHIFT)[0]) == 1 + 1 + 2

    @pytest.mark.parametrize("make,n_max", [(p2, 8), (p1xp1, 7), (f1, 6),
                                            (f2, 6)])
    def test_per_point_calls_bounded_by_chart_pairs(self, make, n_max):
        # each point taken one by one teaches a factor to at least one of
        # its charts, so an n range of euler(tangent) evaluates at most
        # one point per distinct (chart, partitions) pair
        ctx = H.LocalizationContext(make())
        calls, pairs = [], set()
        point = H._point_contribution
        with mock.patch.object(H, "_point_contribution",
                               lambda *a: calls.append(1) or point(*a)):
            for n in range(n_max + 1):
                H.equivariant_integrate(EULER, ctx, 0, n)
                pairs.update(
                    (c, parts)
                    for p in H.enumerate_fixed_points(ctx, 0, n,
                                                      nested=False)
                    for c, parts in enumerate(zip(p.mu, p.nu)))
        assert 0 < len(calls) <= len(pairs)

    def test_points_with_every_factor_skip_the_per_point_path(self):
        # once every chart of every point holds a factor, only the first
        # point, which builds the chi(L) constant, is taken one by one
        ctx = H.LocalizationContext(p2())
        want = H.equivariant_integrate(EULER, ctx, 0, 3)
        points = list(H.enumerate_fixed_points(ctx, 0, 3, nested=False))
        calls = []
        point = H._point_contribution
        with mock.patch.object(H, "_point_contribution",
                               lambda ctx, expr, p, spec:
                               calls.append(p) or point(ctx, expr, p, spec)):
            value, info = H.equivariant_integrate(EULER, ctx, 0, 3,
                                                  return_info=True)
        assert (value, calls) == (want, points[:1])
        assert info["visited"] == info["points"] == len(points)


class TestChartTuples:
    def old_chart_tuples(self, num_charts, total):
        """The listing before the job kept it: every size rebuilt."""
        by_size = [list(H.partitions(m)) for m in range(total + 1)]
        tails = [[()]] + [[]] * total
        for _ in range(num_charts):
            tails = [[(lam,) + rest for here in range(r + 1)
                      for lam in by_size[here] for rest in tails[r - here]]
                     for r in range(total + 1)]
        return tails[total]

    def test_kept_levels_give_the_same_lists(self):
        for k in range(5):
            levels = []
            # sizes asked for out of order, some twice
            for n in (2, 0, 5, 3, 5, 1, 6):
                assert H._chart_tuples(k, n, levels) \
                    == self.old_chart_tuples(k, n), (k, n)

    def test_listed_once_per_job(self):
        S = p2()
        ctx = H.LocalizationContext(S)
        first = H._chart_tuples(3, 2, ctx.chart_levels)
        pts = list(H.enumerate_fixed_points(ctx, 1, 4, nested=False))
        # the size-2 list was kept, not rebuilt, when size 4 was listed
        assert H._chart_tuples(3, 2, ctx.chart_levels) is first
        assert [(p.mu, p.nu) for p in pts] == [
            (p.mu, p.nu)
            for p in H.enumerate_fixed_points(S, 1, 4, nested=False)]

    def test_context_stream_matches_surface_stream(self):
        for make, beta in SURFACES:
            S = make()
            ctx = H.LocalizationContext(S)
            for n1, n2 in itertools.product(range(3), range(3)):
                for nested in (True, False):
                    # the five-ray surface's class is not spanned
                    for pb in (None, beta)[:2 if make is not five_rays
                                           else 1]:
                        got = list(H.enumerate_fixed_points(
                            ctx, n1, n2, with_pb=pb, nested=nested))
                        assert got == list(H.enumerate_fixed_points(
                            S, n1, n2, with_pb=pb, nested=nested))
