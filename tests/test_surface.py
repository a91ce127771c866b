import json
from fractions import Fraction

import pytest

from nesthilb.surface import (SurfaceData, ToricSurface, p2, p1xp1, f1, f2,
                              hirzebruch, k3_profile, general_type_profile,
                              elliptic_profile, builtin_surface,
                              riemann_roch_chi, vd_beta, twist_dim_d,
                              surface_to_json, surface_from_json,
                              load_surface)
from support import toric_line_weights


class TestBuiltinInvariants:
    def test_p2(self):
        S = p2()
        assert (S.chiO, S.K2, S.e) == (1, 9, 3)
        assert S.K == (-3,)
        assert S.dot((1,), (1,)) == 1
        assert all(cl == (1,) for cl in S.ray_classes)

    def test_p1xp1(self):
        S = p1xp1()
        assert (S.K2, S.e) == (8, 4)
        assert S.K == (-2, -2)
        assert S.dot((1, 0), (0, 1)) == 1
        assert S.dot((1, 0), (1, 0)) == 0
        assert S.dot((0, 1), (0, 1)) == 0

    def test_hirzebruch(self):
        for a in (1, 2, 3):
            S = hirzebruch(a)
            assert (S.K2, S.e) == (8, 4)
            f, e = (1, 0), (0, 1)
            assert S.dot(f, f) == 0
            assert S.dot(f, e) == 1
            assert S.dot(e, e) == -a
            assert S.K == (-(2 + a), -2)

    def test_f2_matches_p1xp1_numerics(self):
        # beta = (a,b) on P1xP1 corresponds to (a+b) f + a e on F2:
        # same square and same pairing with K
        Q, F = p1xp1(), f2()
        for a in range(0, 4):
            for b in range(0, 4):
                bq = (a, b)
                bf = (a + b, a)
                assert Q.dot(bq, bq) == F.dot(bf, bf)
                assert Q.dot(bq, Q.K) == F.dot(bf, F.K)

    def test_toric_surface_is_a_profile(self):
        S = p2()
        assert isinstance(S, SurfaceData)
        assert (S.q, S.pg, S.basis_names) == (0, 0, ("H",))

    def test_nonsmooth_fan_rejected(self):
        with pytest.raises(ValueError):
            ToricSurface("bad", [(1, 0), (-1, 2), (0, -1)], basis=[0])

    def test_profiles(self):
        K3 = k3_profile()
        assert (K3.chiO, K3.K2, K3.e, K3.q, K3.pg) == (2, 0, 24, 0, 1)
        G = general_type_profile(2)
        assert (G.chiO, G.pg, G.e) == (2, 1, 22)
        assert G.dot((1,), (1,)) == 2
        assert G.sw_table[(Fraction(1),)] == (1, ())
        E = elliptic_profile()
        assert (E.chiO, E.K2, E.e, E.q) == (0, 0, 0, 1)

    def test_invariant_checks(self):
        with pytest.raises(ValueError, match="Noether"):
            SurfaceData("x", 1, 8, 3, 0, 0, [[1]], [3])
        with pytest.raises(ValueError):
            SurfaceData("x", 2, 9, 15, 0, 0, [[1]], [3])  # chi != 1-q+pg
        with pytest.raises(ValueError, match="K.K"):
            SurfaceData("x", 1, 9, 3, 0, 0, [[1]], [2])


class TestRiemannRoch:
    def test_p2_line_bundles(self):
        S = p2()
        for d in range(-3, 6):
            assert riemann_roch_chi(S, (d,)) == (d + 1) * (d + 2) // 2

    def test_p1xp1_line_bundles(self):
        S = p1xp1()
        for a in range(-2, 4):
            for b in range(-2, 4):
                assert riemann_roch_chi(S, (a, b)) == (a + 1) * (b + 1)

    def test_chi_matches_section_count_when_nef(self):
        # on a toric surface the sections are the polytope points, and
        # for nef classes higher cohomology vanishes
        for S in (p2(), p1xp1(), f1()):
            for beta in [(0,) * S.rank, (1,) * S.rank, (2,) * S.rank]:
                if S.name.startswith("F"):
                    beta = (beta[0] + beta[1], beta[1])  # f-heavy, nef
                assert S.h0(beta) == riemann_roch_chi(S, beta)

    def test_vd(self):
        S = p2()
        for d in (1, 2, 3):
            assert vd_beta(S, (d,)) == d * (d + 3) // 2
        # beta^2 = 2, beta.K = -4, so vd = (2+4)/2
        assert vd_beta(p1xp1(), (1, 1)) == 3

    def test_twist_dim(self):
        S = p2()
        assert twist_dim_d(S, (1,), (0,)) == 0
        for d in (1, 2):
            for a in (1, 2):
                got = twist_dim_d(S, (d,), (a,))
                assert got == riemann_roch_chi(S, (d + a,)) \
                    - riemann_roch_chi(S, (d,))


class TestToricCharts:
    def test_dual_bases(self):
        for S in (p2(), p1xp1(), f1(), f2()):
            assert len(S.charts) == S.e
            for ch in S.charts:
                assert ch.m1[0] * ch.v[0] + ch.m1[1] * ch.v[1] == 1
                assert ch.m1[0] * ch.w[0] + ch.m1[1] * ch.w[1] == 0
                assert ch.m2[0] * ch.v[0] + ch.m2[1] * ch.v[1] == 0
                assert ch.m2[0] * ch.w[0] + ch.m2[1] * ch.w[1] == 1

    def test_line_weights_solve_chart_equations(self):
        S = p2()
        for d in (1, 2, 5):
            ws = toric_line_weights(S, (d,))
            coeffs = S.ray_coeffs((d,))
            for ch, u in zip(S.charts, ws):
                i = ch.index
                j = (i + 1) % len(S.rays)
                assert u[0] * ch.v[0] + u[1] * ch.v[1] == -coeffs[i]
                assert u[0] * ch.w[0] + u[1] * ch.w[1] == -coeffs[j]

    def test_vertices_lie_in_polytope(self):
        # for nef classes every chart vertex is a section weight
        cases = [(p2(), (2,)), (p1xp1(), (2, 2)), (f2(), (3, 1))]
        for S, beta in cases:
            pts = set(S.polytope_points(beta))
            for u in toric_line_weights(S, beta):
                assert u in pts

    def test_polytope_counts(self):
        S = p2()
        for d in range(0, 5):
            assert S.h0((d,)) == (d + 1) * (d + 2) // 2
        assert S.h0((-1,)) == 0
        Q = p1xp1()
        assert Q.h0((2, 3)) == 12
        assert Q.h0((0, 0)) == 1
        assert Q.h0((-1, 2)) == 0

    def test_effectivity(self):
        F = f1()
        # the exceptional class e is effective despite e.e < 0
        assert F.is_effective((0, 1))
        assert not F.is_effective((-1, 0))
        assert F.is_effective((1, 1))


class TestJson:
    def test_toric_round_trip(self):
        S = f1()
        S.sw_table[(Fraction(1), Fraction(0))] = (Fraction(2), ())
        doc = surface_to_json(S)
        T = surface_from_json(json.loads(json.dumps(doc)))
        assert isinstance(T, ToricSurface)
        assert T.rays == S.rays
        assert T.K == S.K
        assert T.sw_table == S.sw_table

    def test_profile_round_trip(self):
        G = general_type_profile(3, 2)
        doc = surface_to_json(G)
        H = surface_from_json(json.loads(json.dumps(doc)))
        assert (H.chiO, H.K2, H.e, H.q, H.pg) == (2, 3, 21, 0, 1)
        assert H.sw_table == G.sw_table

    def test_higher_pairings_round_trip(self):
        G = general_type_profile(2)
        G.sw_table[(Fraction(1),)] = (Fraction(1), (Fraction(3), Fraction(-5)))
        doc = surface_to_json(G)
        H = surface_from_json(doc)
        assert H.sw_table[(Fraction(1),)] == (1, (3, -5))

    def test_profile_fan_mismatch(self):
        doc = surface_to_json(p2())
        doc["profile"]["e"] = 4
        with pytest.raises(ValueError):
            surface_from_json(doc)

    def test_load_by_name(self):
        assert load_surface("P2").name == "P2"
        assert load_surface("general_type:2").K2 == 2
        assert builtin_surface("general_type:4,3").chiO == 3

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(surface_to_json(p1xp1())))
        S = load_surface(str(path))
        assert S.name == "P1xP1"
        assert S.K2 == 8
