"""Seiberg-Witten coupled layer: tables, the monopole integrand,
contribution sums, pushforward branches, and universality fits."""

from fractions import Fraction

import pytest

from nesthilb.ringcore import Ring, KClass
from nesthilb.expr import FormulaExpr as FE, ZERO_CLASS, taut, rhom, \
    parse_rational
from nesthilb.surface import p2, p1xp1, f1, f2, riemann_roch_chi, \
    vd_beta, general_type_profile, elliptic_profile, k3_profile, \
    surface_from_json
from nesthilb.porteous import normalize, duality_rewrite, virtual_rank, \
    eval_formal, FormalEnv, nested_reduced_formula
from nesthilb.hilbloc import RatFunc, equivariant_integrate
from nesthilb.vw import (
    SWTable, MonopoleResult, monopole_integrand, monopole_contribution,
    point_contribution, universality_fit, fit_report, format_value,
    monomial_value, UniversalityError,
)
from support import sw_coupled_pushforward, virtual_class_route


def leaves(expr):
    if expr.kind == "leaf":
        yield expr
    for c in expr.children:
        yield from leaves(c)


class TestSWTable:
    def test_profile_table(self):
        G = general_type_profile(1)
        t = SWTable(G)
        assert t.invariant((0,)) == 1
        assert t.invariant((1,)) == 1
        assert (1,) in t and (5,) not in t

    def test_rejects_nonzero_at_nonzero_dimension(self):
        with pytest.raises(ValueError, match="vanish"):
            SWTable(p2(), entries={(1,): (1, ())})

    def test_higher_mode_override(self):
        t = SWTable(p2(), entries={(1,): (1, ())}, higher_mode=True)
        assert t.invariant((1,)) == 1

    def test_missing_entry(self):
        t = SWTable(p2(), entries={})
        with pytest.raises(ValueError, match="missing SW entry"):
            t.invariant((0,))

    def test_pairings(self):
        t = SWTable(p2(), entries={(1,): (0, (0, 1))})
        assert t.pairing((1,), 0) == 0
        assert t.pairing((1,), 1) == 0
        assert t.pairing((1,), 2) == 1
        assert t.pairing((1,), 3) == 0
        assert t.entries[(Fraction(1),)] == (0, (0, 1))


class TestMonopoleIntegrand:
    def test_factor_shape(self):
        expr = monopole_integrand(1, 1)
        kinds = sorted(c.kind for c in expr.children)
        assert kinds == ["chern"] + ["euler"] * 5

    def test_every_euler_argument_is_circle_moved(self):
        expr = monopole_integrand(1, 2)
        for factor in expr.children:
            if factor.kind != "euler":
                continue
            for leaf in leaves(factor):
                assert leaf.attr("tp") != 0

    def degree(self, surface, beta, n1, n2):
        pair = {1: n1, 2: n2}

        def rank_of(leaf):
            cls = surface.scale(leaf.attr("bc"), surface.cls(beta))
            cls = surface.add(cls,
                              surface.scale(leaf.attr("kc"), surface.K))
            chi = riemann_roch_chi(surface, cls)
            if leaf.params[0] == "rhom0":
                chi = 0
            return chi - pair[leaf.attr("i")] - pair[leaf.attr("j")]

        total = 0
        for factor in monopole_integrand(n1, n2).children:
            if factor.kind == "chern":
                total += factor.params[0]
            else:
                total += virtual_rank(factor.children[0], rank_of)
        return total

    def test_degree_is_twice_length_plus_dimension(self):
        for surface, beta in ((p2(), (2,)), (p1xp1(), (1, 1)),
                              (f2(), (2, 1))):
            vd = vd_beta(surface, beta)
            for n1, n2 in ((0, 0), (1, 0), (1, 2)):
                assert self.degree(surface, beta, n1, n2) \
                    == 2 * (n1 + n2) + vd

    def test_rank_zero_factors_collapse_to_one(self):
        # chi(O) = 0 makes every pair complex rank zero at length zero
        E = elliptic_profile()
        assert riemann_roch_chi(E, E.K) == 0
        expr = monopole_integrand(0, 0)
        ring = Ring(["x"], degrees=[1], D=3)
        env = FormalEnv(ring)
        for leaf in leaves(expr):
            env.bind(leaf, KClass.trivial(ring, 0))
        assert eval_formal(expr, env) == ring.one()


def degeneracy_integrand(n1, n2):
    """The monopole integrand with the paper's degeneracy class
    c_n(-Rhom(I_1, I_2 L)) as its first factor; the five Euler factors
    are those of ``monopole_integrand``."""
    return FE.mul(FE.chern(n1 + n2, FE.neg(rhom(1, 2, bc=1))),
                  *monopole_integrand(n1, n2).children[1:])


def json_f1():
    """A user surface on the rays of F1."""
    return surface_from_json({"name": "F1json",
                              "rays": [list(r) for r in f1().rays],
                              "basis": [0, 1]})


NESTED_CASES = [(p2, (0,)), (p2, (1,)), (p1xp1, (0, 0)), (p1xp1, (1, 1)),
                (f1, (0, 0)), (f1, (1, 0)), (f2, (0, 0)), (f2, (1, 1)),
                (json_f1, (0, 0)), (json_f1, (1, 0))]

# (surface, beta): (n_max, points visited, ambient points) over n <= n_max
VISITS = {("P2", (0,)): (3, 50, 132), ("P1xP1", (0, 0)): (2, 23, 53),
          ("P2", (1,)): (3, 86, 132), ("F1", (1, 0)): (3, 134, 245)}


class TestNestedLocus:
    @pytest.mark.parametrize("make,beta", NESTED_CASES)
    def test_rewritten_integrand_matches_degeneracy_class(self, make,
                                                          beta):
        # c_n(E_L) skips the points where E_L holds the zero weight;
        # c_n(-Rhom) is nonzero there, so its integral sums every point
        S = make()
        visited, points = [0] * 4, [0] * 4
        for n in range(4):
            for n1 in range(n + 1):
                n2 = n - n1
                value, info = equivariant_integrate(
                    monopole_integrand(n1, n2), S, n1, n2, beta=beta,
                    refined=True, return_info=True)
                assert value == equivariant_integrate(
                    degeneracy_integrand(n1, n2), S, n1, n2, beta=beta,
                    refined=True)
                if not any(beta) and n1 < n2:
                    assert info["visited"] == 0
                visited[n] += info["visited"]
                points[n] += info["points"]
        if (S.name, beta) in VISITS:
            n_max, want_visited, want_points = VISITS[S.name, beta]
            assert sum(visited[:n_max + 1]) == want_visited
            assert sum(points[:n_max + 1]) == want_points


class TestPointContribution:
    def test_matched_surfaces_agree(self):
        A, B = p1xp1(), f2()
        for (a, b), n in (((1, 1), 0), ((1, 1), 1), ((2, 1), 0)):
            va = point_contribution(A, (a, b), n, seed=1).value
            vb = point_contribution(B, (a + b, a), n, seed=2).value
            assert va == vb
            assert isinstance(va, RatFunc)

    def test_terms_cover_splittings(self):
        r = point_contribution(p2(), (0,), 2)
        assert sorted(r.terms) == [(0, 2), (1, 1), (2, 0)]

    def test_profile_needs_table(self):
        G = general_type_profile(1)
        with pytest.raises(ValueError, match="toric surface"):
            point_contribution(G, (1,), 0)

    def test_table_supplied_terms(self):
        G = general_type_profile(1)
        key = (Fraction(1),)
        table = {(key, 0, 1): Fraction(5), (key, 1, 0): Fraction(7)}
        r = point_contribution(G, (1,), 1, point_table=table)
        assert r.value == RatFunc.const(12)

    def test_points_only_values(self):
        S = p2()
        values = {0: Fraction(1, 1024), 1: Fraction(-9, 512),
                  2: Fraction(69, 512)}
        for n, expected in values.items():
            assert point_contribution(S, (0,), n).value \
                == RatFunc.const(expected)

    def test_seed_independent(self):
        S = p2()
        a = point_contribution(S, (0,), 1, seed=0).value
        b = point_contribution(S, (0,), 1, seed=9).value
        assert a == b


class TestMonopoleResult:
    def test_constant_value_becomes_fraction(self, monkeypatch):
        # the point contribution is a RatFunc; the weighted monopole
        # value built from it is an exact Fraction
        import nesthilb.vw as vw
        monkeypatch.setattr(
            vw, "point_contribution",
            lambda S, beta, n, **kw: MonopoleResult(beta, n,
                                                    RatFunc.const(3)))
        sw = SWTable(p2(), {(0,): (1, ())})
        r = monopole_contribution(p2(), sw, (0,), 1)
        assert r.value == 3 and isinstance(r.value, Fraction)


class TestMonopoleContribution:
    def test_nonzero_dimension_forces_zero(self):
        # no table entry needed: the invariant vanishes by definition
        r = monopole_contribution(p2(), SWTable(p2(), {}), (1,), 0)
        assert r.value == 0 and r.terms == {}

    def test_missing_entry_at_dimension_zero(self):
        with pytest.raises(ValueError, match="missing SW entry"):
            monopole_contribution(p2(), SWTable(p2(), {}), (0,), 0)

    def test_window_exclusion(self):
        sw = SWTable(p2(), {(0,): (1, ())})
        r = monopole_contribution(p2(), sw, (0,), 1, window=(0, -3))
        assert r.value == 0
        assert r.meta["excluded"] == "outside slope window"

    def test_weighted_values(self):
        sw = SWTable(p2(), {(0,): (1, ())})
        assert monopole_contribution(p2(), sw, (0,), 0).value \
            == Fraction(1, 1024)
        doubled = SWTable(p2(), {(0,): (2, ())}, higher_mode=True)
        assert monopole_contribution(p2(), doubled, (0,), 1).value \
            == Fraction(-9, 256)

    def test_profile_with_table_and_torsion_factor(self):
        G = general_type_profile(1)
        key = (Fraction(1),)
        table = {(key, 0, 1): Fraction(5), (key, 1, 0): Fraction(7)}
        r = monopole_contribution(G, SWTable(G), (1,), 1,
                                  point_table=table)
        assert r.value == 12
        assert r.meta["surface"] == G.name

    @pytest.mark.parametrize("make,beta", [
        (p2, (0,)), (p2, (1,)), (p1xp1, (1, 1)), (f1, (1, 0)),
        (f2, (2, 1))])
    def test_values_are_one_power_of_weight(self, make, beta):
        # the integrand has degree 2 n + vd(beta) on a space of
        # dimension 2 n, so each integral is c t^vd(beta)
        S = make()
        vd = vd_beta(S, S.cls(beta))
        for n in range(3):
            r = point_contribution(S, beta, n)
            for value in list(r.terms.values()) + [r.value]:
                assert set(value.terms) <= {vd}, (n, value)

    def test_weight_dependent_total_refused(self, monkeypatch):
        import nesthilb.vw as vw
        monkeypatch.setattr(
            vw, "point_contribution",
            lambda S, beta, n, **kw: MonopoleResult(beta, n,
                                                    RatFunc({1: 1})))
        sw = SWTable(p2(), {(0,): (1, ())})
        with pytest.raises(ValueError, match="auxiliary weight"):
            monopole_contribution(p2(), sw, (0,), 1)

    def test_result_rows(self):
        sw = SWTable(p2(), {(0,): (1, ())})
        r = monopole_contribution(p2(), sw, (0,), 1)
        rows = r.rows()
        assert [row["n1"] for row in rows] == [0, 1, ""]
        total = rows[-1]
        assert parse_rational(total["value"]) == Fraction(-9, 512)
        assert total["beta"] == "0"
        assert total["t_order"] == 0


class TestUniversalityFit:
    def synthetic_runs(self, poly):
        runs = []
        for surface, beta in ((general_type_profile(1), (1,)),
                              (general_type_profile(2), (1,)),
                              (general_type_profile(1, 3), (1,)),
                              (general_type_profile(1), (2,)),
                              (general_type_profile(2), (2,)),
                              (general_type_profile(1, 3), (3,)),
                              (k3_profile(), (0,))):
            tup = {name: monomial_value(name, surface, beta)
                   for name in ("1", "c1sq", "c2", "betasq", "c1beta")}
            runs.append((surface, beta, poly(tup)))
        return runs

    def test_affine_recovery(self):
        def poly(t):
            return 3 + 2 * t["c1sq"] - Fraction(1, 2) * t["betasq"] \
                + 5 * t["c2"] - t["c1beta"]
        fit = universality_fit(1, self.synthetic_runs(poly))
        assert fit["residual"] == 0
        assert fit["coefficients"]["1"] == 3
        assert fit["coefficients"]["c1sq"] == 2
        assert fit["coefficients"]["c2"] == 5
        assert fit["coefficients"]["betasq"] == Fraction(-1, 2)
        assert fit["coefficients"]["c1beta"] == -1

    def test_nonuniversal_values_refuse_fit(self):
        runs = self.synthetic_runs(lambda t: t["betasq"] * t["c1sq"])
        with pytest.raises(UniversalityError, match="universality violated"):
            universality_fit(1, runs)

    def test_duplicate_tuples_must_agree(self):
        G = general_type_profile(1)
        runs = [(G, (1,), Fraction(2)), (G, (1,), Fraction(3))]
        with pytest.raises(UniversalityError, match="universality violated"):
            universality_fit(0, runs, monomials=["1"])

    def test_toric_design_is_rank_deficient(self):
        # chi(O) = 1 ties c2 to c1sq on every toric surface
        runs = [(p2(), (1,), Fraction(0)), (p2(), (2,), Fraction(0)),
                (p1xp1(), (1, 1), Fraction(0)),
                (p1xp1(), (2, 2), Fraction(0)),
                (f2(), (2, 1), Fraction(0)),
                (f2(), (4, 2), Fraction(0))]
        with pytest.raises(UniversalityError, match="insufficient surface"):
            universality_fit(0, runs)

    def test_rank_deficient_design_refused_before_integrating(
            self, monkeypatch):
        # c1^2 = 9 on both runs: the columns 1 and c1sq are dependent
        import nesthilb.vw as vw
        calls = []
        monkeypatch.setattr(vw, "point_contribution",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(UniversalityError,
                           match="^insufficient surface spread$"):
            universality_fit(2, [(p2(), (1,)), (p2(), (2,))],
                             monomials=["1", "c1sq"])
        assert calls == []

    def test_matched_pair_constant_fit(self):
        fit = universality_fit(0, [(p1xp1(), (1, 1)), (f2(), (2, 1))],
                               monomials=["1"])
        assert fit["residual"] == 0
        coef = fit["coefficients"]["1"]
        assert isinstance(coef, RatFunc) and not coef.is_zero()

    def test_report_serializes(self):
        def poly(t):
            return Fraction(7, 3)
        fit = universality_fit(0, self.synthetic_runs(poly))
        report = fit_report(fit)
        assert report["coefficients"]["1"] == "7/3"
        assert report["residual"] == "0"
        assert report["degree_bound"] == 1


class TestSWCoupledPushforward:
    def test_positive_genus_branch(self):
        G = general_type_profile(1)
        expr = sw_coupled_pushforward("pg>0", 0, 1, 1, (1,), G)
        kinds = sorted(c.kind for c in expr.children)
        assert kinds == ["chern", "leaf", "leaf"]
        assert sw_coupled_pushforward("pg>0", 1, 1, 1, (1,), G) \
            == ZERO_CLASS
        assert sw_coupled_pushforward("pg>0", 2, 0, 1, (1,), G) \
            == ZERO_CLASS

    def test_irregular_sum_shape(self):
        expr = sw_coupled_pushforward("pg=0-effective", 1, 1, 1, (1,),
                                      p2())
        assert expr.kind == "add" and len(expr.children) == 3

    def test_noneffective_degree_shift(self):
        S = p2()
        expr = sw_coupled_pushforward("pg=0-noneffective", 2, 1, 1,
                                      (1,), S)
        assert expr.kind == "chern"
        # d + i with d = n + q - vd: here (2 + 0 - 2) + 2
        assert expr.params[0] == 2

    def test_flag_consistency(self):
        G = general_type_profile(1)
        with pytest.raises(ValueError, match="inconsistent flags"):
            sw_coupled_pushforward("pg>0", 0, 0, 1, (1,), p2())
        with pytest.raises(ValueError, match="inconsistent flags"):
            sw_coupled_pushforward("pg=0-effective", 0, 0, 1, (1,), G)
        with pytest.raises(ValueError, match="inconsistent flags"):
            sw_coupled_pushforward("pg=0-noneffective", 0, 0, 1, (1,), G)
        sw_coupled_pushforward("pg=0-effective", 0, 0, 1, (1,), G,
                               check=False)
        with pytest.raises(ValueError, match="unknown case"):
            sw_coupled_pushforward("pg<0", 0, 0, 1, (1,), p2())

    def test_dual_effectivity_guard(self):
        # K - beta = H is effective, so the branch is refused
        with pytest.raises(ValueError, match="dual class"):
            sw_coupled_pushforward("pg=0-noneffective", 0, 0, 1, (-4,),
                                   p2(), check=True)

    def test_table_resolution_normalizes(self):
        G = general_type_profile(1)
        expr = sw_coupled_pushforward("pg>0", 0, 0, 1, (1,), G,
                                      swTable=SWTable(G))
        resolved = normalize(
            sw_coupled_pushforward("pg>0", 0, 0, 1, (1,), G),
            G, (1,), sw_table=SWTable(G).entries)
        assert expr == resolved

    def test_branch_collapse_on_rational_surface(self):
        # the irregular j-sum with pairings concentrated at the virtual
        # dimension reduces to the shifted single Chern class
        S = p2()
        sw = SWTable(S, entries={(1,): (0, (0, 1))})
        cases = [
            (0, 1, 1, (taut((1,), 2), taut((1,), 2))),
            (1, 1, 1, (taut((1,), 1), taut((1,), 2), taut((1,), 2))),
        ]
        for (n1, n2, i, taus) in cases:
            gen = sw_coupled_pushforward("pg=0-effective", i, n1, n2,
                                         (1,), S, swTable=sw)
            non = sw_coupled_pushforward("pg=0-noneffective", i, n1, n2,
                                         (1,), S)
            tau = FE.mul(*[FE.chern(1, t) for t in taus])
            va = equivariant_integrate(FE.mul(tau, gen), S, n1, n2,
                                       beta=(1,))
            vb = equivariant_integrate(FE.mul(tau, non), S, n1, n2,
                                       beta=(1,))
            assert va == vb


class TestDualityOnBranch:
    def test_involution(self):
        G = general_type_profile(1)
        expr = sw_coupled_pushforward("pg>0", 0, 1, 2, (1,), G)
        once, s1 = duality_rewrite(expr, 1, 2, (1,), G)
        twice, s2 = duality_rewrite(once, 2, 1, (0,), G)
        assert twice == expr

    def test_sign_relation(self):
        G = general_type_profile(1)
        for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 1)):
            expr = sw_coupled_pushforward("pg>0", 0, n1, n2, (1,), G)
            dual, s = duality_rewrite(expr, n1, n2, (1,), G)
            assert s == n1 + n2 - 2
            sign = -1 if s % 2 else 1
            lhs = normalize(expr, G, (1,))
            rhs = normalize(FE.scale(sign, dual), G, (1,))
            assert lhs == rhs


class TestVirtualClassRoute:
    def test_positive_genus_kills_class(self):
        G = general_type_profile(1)
        assert virtual_class_route(1, 1, G, (1,), h2_vanishing=True) \
            == ZERO_CLASS

    def test_flag_required(self):
        G = general_type_profile(1)
        with pytest.raises(ValueError, match="H2-vanishing"):
            virtual_class_route(1, 1, G, (1,))

    def test_rational_surface_returns_reduced(self):
        S = p2()
        expr = virtual_class_route(1, 0, S, (1,), h2_vanishing=True)
        reduced, _ = nested_reduced_formula(1, 0, S, (1,),
                                            S.zero_class(),
                                            h2_vanishing=True)
        assert expr == reduced


class TestFormatting:
    def test_round_trip(self):
        assert parse_rational(format_value(Fraction(-3, 7))) \
            == Fraction(-3, 7)
        assert format_value(RatFunc.const(Fraction(5, 2))) == "5/2"

    def test_series_cell(self):
        v = RatFunc({0: Fraction(1), 1: Fraction(1)})
        assert format_value(v, 2) == "1 1 0"
