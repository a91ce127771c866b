from fractions import Fraction

import pytest

from nesthilb.ringcore import Ring, KClass, series_invert
from nesthilb.bundles import (free_model, projective_bundle,
                              proj_pushforward, grassmann_split_pushforward)
from support import flag_tower_routes, point_base, integrate


def projective_space(n):
    pt = point_base(D=0)
    return projective_bundle(pt, KClass.trivial(pt.ring, n + 1), name="h")


class TestProjectiveBundle:
    def test_pn_relation(self):
        P2 = projective_space(2)
        h = P2.taut["h"]
        assert not (h**2).is_zero()
        assert (h**3).is_zero()
        assert P2.dim == 2

    def test_rank_error(self):
        pt = point_base()
        with pytest.raises(ValueError):
            projective_bundle(pt, KClass.trivial(pt.ring, 0))

    def test_fundamental_pushforwards(self):
        P3 = projective_space(3)
        h = P3.taut["h"]
        assert integrate(P3, h**3).constant() == 1
        assert integrate(P3, h**2).constant() == 0
        assert integrate(P3, h**4).constant() == 0

    def test_segre_from_relation_matches_inversion(self):
        # push down powers of h and compare against 1/c(B) computed
        # independently by series inversion
        base = free_model(["c1", "c2", "c3"], degrees=[1, 2, 3], D=6)
        B = KClass(3, base.ring.one() + base.ring.gen("c1")
                   + base.ring.gen("c2") + base.ring.gen("c3"))
        P = projective_bundle(base, B)
        h = P.taut["h"]
        segre = series_invert(B.chern)
        for k in range(0, 5):
            assert proj_pushforward(P, h ** (B.rank - 1 + k)) == segre.component(k)

    def test_pushforward_below_fiber_degree_is_zero(self):
        base = free_model(["c1"], degrees=[1], D=5)
        B = KClass(3, base.ring.one() + base.ring.gen("c1"))
        P = projective_bundle(base, B)
        h = P.taut["h"]
        assert proj_pushforward(P, P.ring.one()).is_zero()
        assert proj_pushforward(P, h).is_zero()
        assert proj_pushforward(P, h**2).constant() == 1

    def test_projection_formula(self):
        base = free_model(["c1", "c2"], degrees=[1, 2], D=6)
        B = KClass(2, base.ring.one() + base.ring.gen("c1") + base.ring.gen("c2"))
        P = projective_bundle(base, B)
        h = P.taut["h"]
        a = base.ring.gen("c1") + 3 * base.ring.gen("c2")
        lifted = P.ring.lift(a)
        for k in range(0, 4):
            assert proj_pushforward(P, lifted * h**k) == a * proj_pushforward(P, h**k)

    def test_tower_product_of_lines(self):
        # P^1 x P^1 as a trivial bundle tower over a point
        pt = point_base(D=0)
        P1 = projective_bundle(pt, KClass.trivial(pt.ring, 2), name="f")
        X = projective_bundle(P1, KClass.trivial(P1.ring, 2), name="g")
        f = X.ring.lift(P1.taut["h"])
        g = X.taut["h"]
        assert integrate(X, f * g).constant() == 1
        assert integrate(X, f * f).constant() == 0
        assert integrate(X, g * g).constant() == 0

    def test_tautological_quotient_euler_class(self):
        # c_top(Q) on P(B) is the class of a point when B is trivial
        P2 = projective_space(2)
        Q = P2.taut["Q"]
        assert Q.rank == 2
        assert integrate(P2, Q.c(2)).constant() == 1


class TestSplitPushforward:
    def roots(self, e):
        R = Ring(["b%d" % i for i in range(e)])
        return R, [R.gen("b%d" % i) for i in range(e)]

    def test_rank_one_matches_segre(self):
        # sum_i (-b_i)^(e-1+k) / prod_{j!=i} (b_j - b_i) = s_k(B)
        for e in (2, 3, 4):
            R, bs = self.roots(e)
            Rt = R.truncated(6)
            B = KClass.from_roots([Rt.cast(b) for b in bs])
            segre = series_invert(B.chern)
            for k in range(0, 4):
                val = grassmann_split_pushforward(
                    bs, 1, lambda x: (-x) ** (e - 1 + k))
                assert Rt.cast(val) == segre.component(k)

    def test_rank_one_below_degree_vanishes(self):
        R, bs = self.roots(3)
        assert grassmann_split_pushforward(bs, 1, lambda x: x).is_zero()
        one = R.one()
        assert grassmann_split_pushforward(bs, 1, lambda x: one).is_zero()

    def test_full_rank_is_identity(self):
        R, bs = self.roots(3)
        prod = bs[0] * bs[1] * bs[2]
        out = grassmann_split_pushforward(bs, 3, lambda x, y, z: x * y * z)
        assert out == prod

    def test_rank_zero(self):
        R, bs = self.roots(2)
        one = R.one()
        assert grassmann_split_pushforward(bs, 0, lambda: one) == one

    def test_non_symmetric_rejected(self):
        R, bs = self.roots(3)
        with pytest.raises(ValueError, match="non-symmetric input"):
            grassmann_split_pushforward(bs, 2, lambda x, y: x)

    def test_truncated_ring_rejected(self):
        R = Ring(["a", "b"], D=4)
        with pytest.raises(ValueError, match="untruncated"):
            grassmann_split_pushforward([R.gen("a"), R.gen("b")], 1,
                                        lambda x: x)

    def test_rank_two_against_flag_tower(self):
        # push F(x1, x2) off Gr(2, B) two ways: the split formula, and
        # the flag bundle P(Q_1) -> P(B) -> point
        def F(x, y):
            return (x + y) ** 2 * x * y + x**3 * y**3

        split, tower = flag_tower_routes(4, F)
        assert split == tower

    def test_rank_two_symmetric_powers(self):
        # same comparison on power sums over a rank-3 bundle
        def F(x, y):
            return x**2 * y**2 * (x**2 + y**2)

        split, tower = flag_tower_routes(3, F)
        assert split == tower
