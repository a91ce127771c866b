import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.expr import FormulaExpr as FE, co_class
from nesthilb.hilbloc import LocalizationContext, equivariant_integrate
from nesthilb.surface import (SurfaceData, ToricSurface, p2, p1xp1, f1, f2,
                              hirzebruch, k3_profile, general_type_profile,
                              elliptic_profile, builtin_surface,
                              riemann_roch_chi, vd_beta, twist_dim_d,
                              surface_from_json, load_surface)
from nesthilb.vw import point_contribution
from support import toric_line_weights, is_effective, surface_to_json


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

    @pytest.mark.parametrize("rays,basis,message", [
        # once truncated or read as integers, each of these was P2
        ([[1.5, 0], [0, 1], [-1, -1]], [0],
         "ray [1.5, 0] is not a pair of integers"),
        ([[True, 0], [0, 1], [-1, -1]], [0],
         "ray [True, 0] is not a pair of integers"),
        ([[1, 0, 0], [0, 1], [-1, -1]], [0],
         "ray [1, 0, 0] is not a pair of integers"),
        ([[1, 0], [0, 1], [-1, -1]], [True],
         "basis indices must be integers from 0 to 2"),
        ([[1, 0], [0, 1], [-1, -1]], [3],
         "basis indices must be integers from 0 to 2"),
        ([[1, 0], [0, 1], [-1, -1]], [-1],
         "basis indices must be integers from 0 to 2"),
    ])
    def test_fan_holds_integers(self, rays, basis, message):
        doc = {"name": "x", "rays": rays, "basis": basis}
        with pytest.raises(ValueError) as err:
            surface_from_json(json.loads(json.dumps(doc)))
        assert str(err.value) == message

    def test_profiles(self):
        K3 = k3_profile()
        assert (K3.chiO, K3.K2, K3.e, K3.q, K3.pg) == (2, 0, 24, 0, 1)
        G = general_type_profile(2)
        assert (G.chiO, G.pg, G.e) == (2, 1, 22)
        assert G.dot((1,), (1,)) == 2
        assert G.sw_table[(Fraction(1),)] == 1
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
                assert len(S.polytope_points(beta)) \
                    == riemann_roch_chi(S, beta)

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
            assert len(S.polytope_points((d,))) == (d + 1) * (d + 2) // 2
        assert len(S.polytope_points((-1,))) == 0
        Q = p1xp1()
        assert len(Q.polytope_points((2, 3))) == 12
        assert len(Q.polytope_points((0, 0))) == 1
        assert len(Q.polytope_points((-1, 2))) == 0

    def test_effectivity(self):
        F = f1()
        # the exceptional class e is effective despite e.e < 0
        assert is_effective(F, (0, 1))
        assert not is_effective(F, (-1, 0))
        assert is_effective(F, (1, 1))
        # on a general type profile (gram [[K2]], K = (1,), K2 > 0) the
        # crude test reads b[0] >= 0
        G = general_type_profile(3)
        assert [is_effective(G, (b,)) for b in (-2, -1, 0, 1, 4)] \
            == [False, False, True, True, True]


class TestJson:
    def test_toric_round_trip(self):
        # the exceptional curve e of F1 has virtual dimension 0
        S = f1()
        S.sw_table[(Fraction(0), Fraction(1))] = Fraction(2)
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

    def test_entry_with_higher_pairings_rejected(self):
        # an entry holds "beta" and "sw" only
        doc = surface_to_json(general_type_profile(2))
        doc["sw_table"][1]["higher"] = ["3", "-5"]
        with pytest.raises(ValueError, match="unknown key 'higher'"):
            surface_from_json(doc)

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


# ---------------------------------------------------------------------------
# lattice symmetry: a fan moved by GL(2, Z) and listed from another chart
# is the same surface


def _mul(g, h):
    return tuple(tuple(sum(g[i][k] * h[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


# generators of GL(2, Z): a rotation by a quarter turn, a shear and a
# reflection (determinant -1)
GL2_GENERATORS = [((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (0, -1))]


def moved(S, g, k):
    """The surface S with its rays moved by g, reversed when det g = -1
    to stay counterclockwise, and listed from chart k; the basis indices
    follow their rays, so a class keeps its coordinates."""
    n = len(S.rays)
    rays = [(g[0][0] * x + g[0][1] * y, g[1][0] * x + g[1][1] * y)
            for x, y in S.rays]
    basis = list(S.basis)
    if g[0][0] * g[1][1] - g[0][1] * g[1][0] == -1:
        rays, basis = rays[::-1], [n - 1 - i for i in basis]
    return ToricSurface(S.name, rays[k:] + rays[:k],
                        basis=[(i - k) % n for i in basis])


def lattice_invariants(S, beta):
    ctx = LocalizationContext(S, beta=beta)
    co = [equivariant_integrate(FE.chern(n, co_class(bc=1)), ctx, 0, n)
          for n in range(4)]
    return co, [point_contribution(S, beta, n) for n in range(3)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lattice_symmetry(data):
    """co:0 integrals and point contributions of a class do not depend on
    how its surface's fan is presented."""
    make = data.draw(st.sampled_from([p2, p1xp1, f1, f2]))
    S = make()
    beta = tuple(data.draw(st.lists(st.integers(-1, 2), min_size=S.rank,
                                    max_size=S.rank)))
    g = ((1, 0), (0, 1))
    for h in data.draw(st.lists(st.sampled_from(GL2_GENERATORS),
                                max_size=4)):
        g = _mul(g, h)
    T = moved(S, g, data.draw(st.integers(0, len(S.rays) - 1)))
    assert (T.gram, T.K) == (S.gram, S.K)
    assert lattice_invariants(T, beta) == lattice_invariants(S, beta)
