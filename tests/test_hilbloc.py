"""Localization layer: partitions, characters, assembly, fixed points,
and the weighted fixed-point integral."""

import importlib.util
import pickle
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from nesthilb.surface import p2, p1xp1, f1, f2, k3_profile, vd_beta, \
    surface_from_json, load_surface
from nesthilb.bundles import projective_bundle
from nesthilb.ringcore import KClass
from nesthilb.expr import FormulaExpr as FE, rhom, pushO, o1_line, taut, \
    co_class
from nesthilb import hilbloc as H
from nesthilb.hilbloc import (
    partitions, cells, conjugate, contains,
    box_character, ideal_numerator,
    structure_numerator, tangent_character, rhom_character,
    rhom_global_character, assemble, chi_line_character,
    enumerate_fixed_points, full_tangent_character, equivariant_integrate,
    RatFunc, LocalizationContext,
)
from nesthilb.checks import rhom_by_assembly
from support import sub_partitions, staircase_generators, \
    nonequivariant_limit, point_base, integrate, arm, leg


def gottsche_coefficient(e, n):
    """Coefficient of q^n in prod_m (1 - q^m)^(-e)."""
    coefs = [0] * (n + 1)
    coefs[0] = 1
    for m in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(n // m + 1):
            c = comb(e + j - 1, j)
            for i in range(n + 1 - m * j):
                new[i + m * j] += coefs[i] * c
        coefs = new
    return coefs[n]


def taylor_ideal_numerator(mu):
    """Independent resolution numerator of the monomial ideal: the
    alternating sum of lcm characters over subsets of the staircase
    generators."""
    gens = staircase_generators(mu)
    lcms = []
    for mask in range(1, 1 << len(gens)):
        picked = [g for i, g in enumerate(gens) if mask & (1 << i)]
        a = max(g[0] for g in picked)
        b = max(g[1] for g in picked)
        sign = -1 if bin(mask).count("1") % 2 == 0 else 1
        lcms.append({(a, b, 0): sign})
    return H._merge_weights(lcms)


def arm_leg_character(mu, nu, w):
    """Carlsson-Okounkov E(mu, nu) in arm/leg form, with w the chart's
    tangent weights: a box of mu gives (a_mu + 1) w1 - l_nu w2, a box of
    nu gives -a_nu w1 + (l_mu + 1) w2.  Arm a and leg l are measured in
    the partition named, where they can be negative."""
    (x1, y1), (x2, y2) = w

    def row(lam, i):
        return lam[i] if i < len(lam) else 0

    def arm_in(lam, a, b):
        return row(lam, b) - a - 1

    def leg_in(lam, a, b):
        return row(conjugate(lam), a) - b - 1

    boxes = [(arm_in(mu, a, b) + 1, -leg_in(nu, a, b)) for a, b in cells(mu)]
    boxes += [(-arm_in(nu, a, b), leg_in(mu, a, b) + 1) for a, b in cells(nu)]
    return H._merge_weights([{(p * x1 + q * x2, p * y1 + q * y2, 0): 1}
                             for p, q in boxes])


class TestPartitions:
    def test_counts(self):
        assert [len(list(partitions(n))) for n in range(7)] \
            == [1, 1, 2, 3, 5, 7, 11]

    def test_conjugate_involution(self):
        for n in range(6):
            for mu in partitions(n):
                assert conjugate(conjugate(mu)) == mu
                assert sum(conjugate(mu)) == n

    def test_arm_leg(self):
        mu = (4, 2, 1)
        assert arm(mu, (0, 0)) == 3
        assert leg(mu, (0, 0)) == 2
        assert arm(mu, (1, 1)) == 0
        assert leg(mu, (1, 1)) == 0

    def test_sub_partitions(self):
        assert list(sub_partitions((2, 1), 1)) == [(1,)]
        assert sorted(sub_partitions((2, 2), 2)) == [(1, 1), (2,)]
        assert list(sub_partitions((3,), 0)) == [()]
        assert list(sub_partitions((1,), 5)) == []
        for mu in sub_partitions((3, 2, 2), 4):
            assert contains((3, 2, 2), mu) and sum(mu) == 4

    def test_staircase_generators(self):
        assert staircase_generators(()) == [(0, 0)]
        assert staircase_generators((2, 1)) == [(2, 0), (1, 1), (0, 2)]
        assert staircase_generators((3, 3)) == [(3, 0), (0, 2)]


class TestCharacters:
    def test_dict_helpers(self):
        # a character is its exponent map {(p, q, c): m}, with no zero
        # entry: sums, the product, the dual and a shift are maps
        t1, t2 = {(1, 0, 0): 1}, {(0, 1, 0): 1}
        plus, minus = H._exps_sum(t1, t2), H._exps_sum(t1, t2, -1)
        assert minus == {(1, 0, 0): 1, (0, 1, 0): -1}
        # (t1 + t2)(t1 - t2) = t1^2 - t2^2: the cross terms cancel
        assert H._char_product(plus, minus) \
            == {(2, 0, 0): 1, (0, 2, 0): -1} \
            == H._exps_sum(H._char_product(t1, t1),
                           H._char_product(t2, t2), -1)
        assert H._char_product(minus, {}) == {}
        assert H.dual(H._char_product(t1, t2)) == {(-1, -1, 0): 1}
        assert H.dual({(1, -2, 3): 2}) == {(-1, 2, -3): 2}
        assert H.dual(H.dual(minus)) == minus
        # the dual of a specialized exponent map negates its weights
        assert H.dual({(3, -2): 1, (0, 1): -2}) == {(-3, 2): 1, (0, -1): -2}
        assert H.specialize_weights(minus, None, (2, 3, 1)) \
            == {(3, 3, 1): 1, (2, 4, 1): -1}
        # an entry that cancels is deleted, not kept as a zero
        assert H._exps_sum(plus, t2, -1) == t1
        assert H._exps_sum(plus, plus, -1) == {}
        assert H._merge_weights([plus, minus, H.dual(t1)]) \
            == {(1, 0, 0): 2, (-1, 0, 0): 1}

    def test_box_character(self):
        q = box_character((2, 1))
        assert q == {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1}
        assert sum(q.values()) == 3

    def test_tangent_character_single_box(self):
        w = ((1, 0), (0, 1))
        t = tangent_character((1,), w)
        assert t == {(1, 0, 0): 1, (0, 1, 0): 1}

    def test_tangent_character_term_count(self):
        w = ((1, 0), (0, 1))
        for n in range(1, 5):
            for mu in partitions(n):
                assert sum(tangent_character(mu, w).values()) == 2 * n

    def test_tangent_matches_vertex_formula(self):
        # chi(O,O) - chi(I,I) in chart variables equals the arm/leg
        # closed form written in the dual (tangent) weights
        m1, m2 = (1, 0), (0, 1)
        w = ((-1, 0), (0, -1))
        # conj((1 - t1)(1 - t2))
        dbar = {(0, 0, 0): 1, (-1, 0, 0): -1, (0, -1, 0): -1, (-1, -1, 0): 1}
        for n in range(1, 5):
            for mu in partitions(n):
                q = box_character(mu, m1, m2)
                qbar = H.dual(q)
                vertex = H._exps_sum(
                    H._exps_sum(q, H.specialize_weights(qbar, None,
                                                        (-1, -1, 0))),
                    H._char_product(H._char_product(dbar, qbar), q), -1)
                assert vertex == tangent_character(mu, w), mu

    def test_ideal_numerator_matches_taylor_resolution(self):
        for n in range(0, 5):
            for mu in partitions(n):
                assert ideal_numerator(mu) == taylor_ideal_numerator(mu), mu

    def test_rhom_numerator_matches_taylor_product(self):
        for na in range(0, 4):
            for mu in partitions(na):
                for nb in range(0, 4):
                    for nu in partitions(nb):
                        closed, _ = rhom_character(mu, nu)
                        oracle = H._char_product(
                            H.dual(taylor_ideal_numerator(mu)),
                            taylor_ideal_numerator(nu))
                        assert closed == oracle, (mu, nu)

    def test_four_term_decomposition(self):
        # conj(P_mu) P_nu = 1 - dQ_nu - conj(dQ_mu) + conj(dQ_mu) dQ_nu
        mu, nu = (2,), (2, 1)
        lhs, _ = rhom_character(mu, nu)
        sn = structure_numerator(nu)
        smb = H.dual(structure_numerator(mu))
        assert lhs == H._exps_sum(
            {(0, 0, 0): 1},
            H._exps_sum(H._char_product(smb, sn), H._exps_sum(sn, smb), -1))

    def test_truncated_expansion_agrees(self):
        # expand num / d in the coordinate quadrant and compare routes
        mu, nu = (1, 1), (2,)
        closed, _ = rhom_character(mu, nu)
        oracle = H._char_product(H.dual(taylor_ideal_numerator(mu)),
                                 taylor_ideal_numerator(nu))
        D = 6
        geo = {(a, b, 0): 1 for a in range(D) for b in range(D)}
        box = lambda ch: {k: v for k, v in ch.items()
                          if 0 <= k[0] + 2 < D - 2 and 0 <= k[1] + 2 < D - 2}
        lhs = H._char_product(closed, geo)
        rhs = H._char_product(oracle, geo)
        assert box(lhs) == box(rhs)


class TestAssembly:
    def test_chi_values_match_riemann_roch(self):
        for S, classes in (
                (p2(), [(0,), (1,), (2,), (3,), (-1,), (-3,)]),
                (p1xp1(), [(0, 0), (1, 1), (2, 1), (-1, 0), (-2, -2)]),
                (f2(), [(0, 0), (1, 1), (3, 1), (2, 1)]),
        ):
            for c in classes:
                ch = chi_line_character(S, c)
                assert sum(ch.values()) == H.riemann_roch_chi(S, c), \
                    (S.name, c)

    def test_chi_cache_keyed_by_fan_not_name(self):
        # a user surface named "P1xP1" on the rays of F1 gets the
        # character of its own fan, not that of the builtin P1xP1
        fake = surface_from_json({"name": "P1xP1",
                                  "rays": [list(r) for r in f1().rays],
                                  "basis": [0, 1]})
        assert sum(chi_line_character(p1xp1(), (1, 1)).values()) == 4
        assert sum(chi_line_character(fake, (1, 1)).values()) == 3

    def test_nef_line_bundle_is_effective_character(self):
        # Brion: for nef L, chi(L) = H^0(L), whose character is the sum
        # of t^m over the lattice points m of the section polytope
        for S, classes in ((p2(), [(0,), (1,), (2,), (3,)]),
                           (p1xp1(), [(1, 0), (1, 1), (2, 1)]),
                           (f1(), [(1, 0), (1, 1), (2, 1)]),
                           (f2(), [(1, 0), (3, 1)])):
            for beta in classes:
                assert chi_line_character(S, beta) \
                    == {(x, y, 0): 1 for x, y in S.polytope_points(beta)}, \
                    (S.name, beta)
        assert sum(chi_line_character(p2(), (2,)).values()) == 6

    def test_assembly_failure_on_open_chart(self):
        with pytest.raises(ValueError, match="assembly failure"):
            assemble([({(0, 0, 0): 1}, ((1, 0), (0, 1)))])

    def test_canonical_direction_flip(self):
        # 1/(1 - t^-v) = -t^v/(1 - t^v): both orientations assemble alike
        S = p2()
        terms = []
        for chart in S.charts:
            u = S.chart_vertex(chart, (1,))
            terms.append(((int(u[0]), int(u[1])), (chart.m1, chart.m2)))
        flipped = [({(p - v1[0], q - v1[1], 0): -1}, ((-v1[0], -v1[1]), v2))
                   for (p, q), (v1, v2) in terms]
        terms = [({(p, q, 0): 1}, dens) for (p, q), dens in terms]
        assert assemble(terms) == assemble(flipped)

    def test_rhom_closed_form_matches_assembly(self):
        S = p1xp1()
        ctx = LocalizationContext(S)
        for mus, nus, _ in enumerate_fixed_points(ctx, 1, 1, nested=False):
            a = rhom_global_character(ctx, mus, nus, (1, 1))
            b = rhom_by_assembly(S, mus, nus, (1, 1))
            assert a == b

    def test_rhom_rank_is_riemann_roch(self):
        S = p2()
        ctx = LocalizationContext(S)
        for mus, nus, _ in enumerate_fixed_points(ctx, 1, 2, nested=False):
            ch = rhom_global_character(ctx, mus, nus, (2,))
            assert sum(ch.values()) == H.riemann_roch_chi(S, (2,)) - 3

    def test_tangent_from_rhom(self):
        S = p2()
        ctx = LocalizationContext(S)
        for pt in enumerate_fixed_points(ctx, 0, 2):
            ch = rhom_global_character(ctx, pt[1], pt[1], (0,))
            tangent = H._exps_sum(chi_line_character(S, (0,)), ch, -1)
            assert tangent == full_tangent_character(ctx, pt)

    def test_rhom_chart_piece_is_arm_leg_form(self):
        # each chart piece is -E(mu, nu): an honest character of rank
        # |mu| + |nu| that holds the zero weight exactly when nu is not
        # inside mu, which is where the monopole integrand vanishes
        small = [lam for n in range(5) for lam in partitions(n)]
        for S in (p2(), p1xp1(), f1(), f2()):
            for chart in S.charts:
                w = chart.tangent_weights()
                for mu in small:
                    for nu in small:
                        piece = H._rhom_chart_piece(chart.m1, chart.m2,
                                                    mu, nu)
                        E = arm_leg_character(mu, nu, w)
                        assert piece == H._exps_sum({}, E, -1)
                        assert min(E.values(), default=1) > 0
                        assert sum(E.values()) == sum(mu) + sum(nu)
                        assert ((0, 0, 0) in piece) == (not contains(mu, nu))


class TestFixedPoints:
    def test_hilbert_counts(self):
        P2, P1xP1 = LocalizationContext(p2()), LocalizationContext(p1xp1())
        for n in range(5):
            assert len(list(enumerate_fixed_points(P2, 0, n))) \
                == gottsche_coefficient(3, n)
            assert len(list(enumerate_fixed_points(P1xP1, 0, n))) \
                == gottsche_coefficient(4, n)

    def test_nested_counts(self):
        pts = list(enumerate_fixed_points(LocalizationContext(p2()), 1, 2))
        assert len(pts) == 12
        assert all(all(contains(nu, mu) for mu, nu in zip(mus, nus))
                   for mus, nus, _ in pts)

    def test_ambient_counts(self):
        pts = list(enumerate_fixed_points(LocalizationContext(p2()), 1, 2,
                                          nested=False))
        assert len(pts) == 27

    def test_with_pb_stream(self):
        ctx = LocalizationContext(p2(), with_pb=(1,))
        pts = list(enumerate_fixed_points(ctx, 0, 1))
        assert len(pts) == 9
        assert {pb for _, _, pb in pts} == {0, 1, 2}

    def test_with_pb_needs_spanning_sections(self):
        # the negative-self-intersection section: effective but chi = 0
        ctx = LocalizationContext(f2(), with_pb=(0, 1))
        with pytest.raises(ValueError, match="sections"):
            list(enumerate_fixed_points(ctx, 0, 0))

    def test_needs_toric(self):
        with pytest.raises(ValueError, match="toric"):
            LocalizationContext(k3_profile())

    def test_chart_tuples_match_reference_recursion(self):
        for k in range(5):
            for n in range(6):
                assert H._chart_tuples(k, n, []) \
                    == list(ref_chart_tuples(k, n)), (k, n)

    @pytest.mark.parametrize("make", [p2, p1xp1])
    def test_stream_order_matches_reference_recursion(self, make):
        # nu tuples outside, mu tuples inside, section lines innermost
        S = make()
        ctx = LocalizationContext(S)
        k = len(S.charts)
        for n1 in range(6):
            for n2 in range(6 - n1):
                for nested in (True, False):
                    want = [(mus, nus, None)
                            for nus in ref_chart_tuples(k, n2)
                            for mus in ref_chart_tuples(k, n1)
                            if not nested or all(
                                contains(nu, mu)
                                for mu, nu in zip(mus, nus))]
                    got = list(enumerate_fixed_points(ctx, n1, n2,
                                                      nested=nested))
                    assert got == want, (n1, n2, nested)
        beta = (1,) * len(S.basis)
        got = list(enumerate_fixed_points(
            LocalizationContext(S, with_pb=beta), 1, 1))
        sections = range(len(S.polytope_points(beta)))
        assert got == [(mus, nus, pb) for nus in ref_chart_tuples(k, 1)
                       for mus in ref_chart_tuples(k, 1)
                       if all(contains(nu, mu) for mu, nu in zip(mus, nus))
                       for pb in sections]


def ref_chart_tuples(k, total):
    """Partitions of the given total size placed on k charts, by the
    plain recursion: chart by chart, smaller sizes first."""
    def go(i, remaining):
        if i == k - 1:
            for lam in partitions(remaining):
                yield (lam,)
            return
        for here in range(remaining + 1):
            for lam in partitions(here):
                for rest in go(i + 1, remaining - here):
                    yield (lam,) + rest
    if k == 0:
        if total == 0:
            yield ()
        return
    yield from go(0, total)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("job", _load_workloads().WORKLOADS["euler-sweep"],
                         ids=lambda job: job.name)
def test_euler_sweep_points_match_closed_form(job):
    # the benchmark's traced run checks that hilbloc.fixed_points equals
    # the job's closed-form count; this checks the same in-process
    argv = list(job.argv)
    ctx = LocalizationContext(load_surface(argv[argv.index("--surface") + 1]))
    lo, hi = map(int, argv[argv.index("--n") + 1].split(":"))
    points = 0
    for n in range(lo, hi + 1):
        equivariant_integrate(EULER, ctx, 0, n)
        points += ctx.points
    assert points == job.points


def gottsche_betti(e, N):
    """Poincare polynomials of S^[n], n <= N, for a toric surface with
    Euler number e: a list of {i: b_2i}, from Goettsche's product
    prod_k 1 / ((1 - z^(2k-2) q^k) (1 - z^(2k) q^k)^(e-2)
    (1 - z^(2k+2) q^k)), with z^2 written as one step of i."""
    series = [{0: 1}] + [{} for _ in range(N)]
    for k in range(1, N + 1):
        for shift, power in ((k - 1, 1), (k, e - 2), (k + 1, 1)):
            for _ in range(power):
                # times 1 / (1 - z^(2 shift) q^k), in place by rising n
                for n in range(N + 1 - k):
                    for i, b in list(series[n].items()):
                        row = series[n + k]
                        row[i + shift] = row.get(i + shift, 0) + b
    return series


class TestBettiNumbers:
    @pytest.mark.parametrize("make,N", [(p2, 5), (p1xp1, 4), (f1, 4),
                                        (f2, 4)])
    def test_positive_tangent_weights_count_betti_numbers(self, make, N):
        # Bialynicki-Birula: under a generic circle the fixed points of
        # S^[n] with i positive tangent weights number b_2i(S^[n]); a
        # wrong tangent weight moves a point between cells
        S = make()
        ctx = LocalizationContext(S)
        want = gottsche_betti(len(S.rays), N)
        for n in range(N + 1):
            got = {}
            for pt in enumerate_fixed_points(ctx, 0, n):
                exps = H.specialize_weights(full_tangent_character(ctx, pt),
                                            (7, 3))
                i = sum(m for (k, _), m in exps.items() if k > 0)
                got[i] = got.get(i, 0) + 1
            assert got == want[n]


EULER = FE.euler(FE.leaf("tangent"))


class TestIntegration:
    def test_euler_counts(self):
        ctx = LocalizationContext(p2())
        for n in range(4):
            assert equivariant_integrate(EULER, ctx, 0, n) \
                == gottsche_coefficient(3, n)
        assert equivariant_integrate(EULER, LocalizationContext(p1xp1()),
                                     0, 2) == 14

    def test_tangent_specialized_once_per_chart_piece(self, monkeypatch):
        # each distinct (chart, partition) tangent piece is specialized
        # once per integral, and the tangent leaf under euler and the
        # localization denominator share the point's merged map
        calls = []
        specialize = H.specialize_weights
        monkeypatch.setattr(H, "specialize_weights",
                            lambda *a: calls.append(a) or specialize(*a))
        S = p1xp1()
        ctx = LocalizationContext(S)
        assert equivariant_integrate(EULER, ctx, 0, 2) == 14
        assert ctx.attempts == 1
        pieces = {(chart, lam) for chart in range(len(S.charts))
                  for n in (1, 2) for lam in partitions(n)}
        assert len(calls) == len(pieces) == 12
        assert len(calls) < ctx.points == 14

    def test_character_reads_keep_the_direction_tables(self, monkeypatch):
        # characters are the maps of no direction, kept apart from a
        # direction's: reading them between two integrals leaves the
        # direction's maps in place, so the second integral specializes
        # nothing
        S = p1xp1()
        ctx = LocalizationContext(S)
        assert equivariant_integrate(EULER, ctx, 0, 2) == 14
        spec, tangent = ctx.spec, ctx.table(ctx.spec, "tangent", H.NO_SHIFT)
        for pt in enumerate_fixed_points(ctx, 0, 2):
            assert sum(full_tangent_character(ctx, pt).values()) == 4
        assert ctx.spec == spec \
            and ctx.table(spec, "tangent", H.NO_SHIFT) is tangent
        calls = []
        specialize = H.specialize_weights
        monkeypatch.setattr(H, "specialize_weights",
                            lambda *a: calls.append(a) or specialize(*a))
        assert equivariant_integrate(EULER, ctx, 0, 2) == 14
        assert calls == []

    def test_chi_built_once_per_class(self, monkeypatch):
        # the context memo builds each twist class's chi(L) once for
        # the whole integral, not once per rhom or pushO leaf per point
        from nesthilb.vw import monopole_integrand
        calls = []
        chi = H.chi_line_character
        monkeypatch.setattr(H, "chi_line_character",
                            lambda S, beta: calls.append(beta) or chi(S, beta))
        ctx = LocalizationContext(p1xp1(), beta=(1, 1))
        equivariant_integrate(monopole_integrand(1, 1), ctx, 1, 1)
        assert ctx.points == 16 and ctx.attempts == 1
        assert len(calls) == len(set(calls)) == 5

    def test_fundamental_class_integrates_to_zero(self):
        ctx = LocalizationContext(p2())
        assert equivariant_integrate(1, ctx, 0, 1) == 0
        assert equivariant_integrate(1, ctx, 1, 1) == 0

    def test_point_case(self):
        assert equivariant_integrate(7, LocalizationContext(p2()), 0, 0) == 7

    def test_projective_bundle_cross_evaluator(self):
        # the same number through the formal Segre route
        ctx = LocalizationContext(p2(), with_pb=(1,))
        h = FE.chern(1, o1_line())
        val = equivariant_integrate(FE.mul(h, h), ctx, 0, 0)
        base = point_base(D=2)
        B = KClass.trivial(base.ring, 3)
        level = projective_bundle(base, B)
        hf = level.taut["h"]
        formal = integrate(level, hf * hf)
        assert val == formal.constant() == 1

    def test_euler_class_of_taut_line(self):
        # c_1(O(1)^[1])^2 over S^[1] = P2 is the self-intersection 1
        ctx = LocalizationContext(p2())
        t1 = FE.chern(1, taut((1,), 2))
        assert equivariant_integrate(FE.mul(t1, t1), ctx, 0, 1) == 1
        t2 = FE.chern(1, taut((2,), 2))
        assert equivariant_integrate(FE.mul(t2, t2), ctx, 0, 1) == 4

    def test_co_pairing_vanishes(self):
        ctx = LocalizationContext(p2(), beta=(1,))
        co = co_class(bc=1)
        assert equivariant_integrate(FE.chern(2, co), ctx, 0, 1) == 0
        t1 = FE.chern(1, taut((1,), 2))
        expr = FE.mul(t1, FE.chern(3, co))
        assert equivariant_integrate(expr, ctx, 0, 2) == 0

    def test_refined_twisted_euler(self):
        # int of c(T tensor aux)^2 degree parts: 15 t^2 exactly
        aux = pushO(tp=1)
        cls = FE.twist(FE.leaf("tangent"), aux, 1)
        expr = FE.mul(FE.euler(cls), FE.euler(cls))
        val = equivariant_integrate(expr, LocalizationContext(p2()), 0, 1)
        assert isinstance(val, RatFunc)
        assert val == RatFunc((0, 0, 15))
        with pytest.raises(ValueError, match="auxiliary weight"):
            H.format_value(val)
        assert nonequivariant_limit(val) == 0

    def test_seed_determinism(self):
        first, second = LocalizationContext(p2()), LocalizationContext(p2())
        equivariant_integrate(EULER, first, 0, 2, seed=5)
        equivariant_integrate(EULER, second, 0, 2, seed=5)
        assert first.spec == second.spec

    def test_not_constant_error(self):
        bad = FE.euler(FE.kdiff(FE.ksum(), FE.leaf("tangent")))
        with pytest.raises(ValueError,
                           match="integral not equivariantly constant"):
            equivariant_integrate(bad, LocalizationContext(p2()), 0, 1)

    def test_degenerate_weight_error(self):
        bad = FE.euler(FE.kdiff(FE.ksum(), pushO()))
        with pytest.raises(ValueError,
                           match="non-isolated or non-generic weights"):
            equivariant_integrate(bad, LocalizationContext(p2()), 0, 1)

    def test_trace_free_rank(self):
        ctx = LocalizationContext(p2(), beta=(0,))
        pt = next(enumerate_fixed_points(ctx, 0, 2))
        # with no direction the map holds the character's terms
        ev = H.PointEvaluator(ctx, pt, None)
        ch = ev.weights(rhom(2, 2, trace_free=True))
        assert sum(ch.values()) == -4


class TestCarlssonOkounkov:
    """Carlsson-Okounkov (arXiv 0801.2565, Cor. 1): the top Chern class
    of E_L = chi(L) - RHom(I, I L) on S^[n] integrates to the q^n
    coefficient of prod_k (1 - q^k)^-(e(S) + L.(L - K)).  c_2n at
    n = 4 reaches Chern classes of degree 8 of the weights."""

    @pytest.mark.parametrize("make, beta, exponent", [
        (p2, (1,), 7), (p2, (-1,), 1), (p1xp1, (1, 1), 10),
        (f1, (1, 0), 6)])
    def test_top_chern_class_of_ext_bundle(self, make, beta, exponent):
        S = make()
        assert S.e + S.dot(beta, S.sub(beta, S.K)) == exponent
        ctx = LocalizationContext(S, beta=beta)
        for n in range(5):
            expr = FE.chern(2 * n, FE.kdiff(pushO(bc=1), rhom(1, 1, bc=1)))
            assert equivariant_integrate(expr, ctx, n, 0) \
                == gottsche_coefficient(exponent, n), n


class TestTwists:
    """A twist passes its line's weight down as a shift.  Twisted by a
    trivial line, or by one of circle weight, the tangent bundle's Euler
    class still integrates to the Euler number; twists by one line
    compose, and a dual turns a twist by m into one by -m."""

    SURFACES = [(p2, (1,), 3), (p1xp1, (1, 1), 4), (f1, (1, 1), 4)]

    @pytest.mark.parametrize("make, beta, e", SURFACES)
    def test_twisted_tangent_keeps_euler_numbers(self, make, beta, e):
        ctx = LocalizationContext(make())
        T = FE.leaf("tangent")
        for n in range(4):
            for line, m in ((pushO(), 1), (pushO(), -2), (pushO(tp=1), 1)):
                assert equivariant_integrate(
                    FE.euler(FE.twist(T, line, m)), ctx, 0, n) \
                    == gottsche_coefficient(e, n)

    @pytest.mark.parametrize("make, beta, e", SURFACES)
    @pytest.mark.parametrize("pb", [False, True])
    def test_twists_compose_and_dualize(self, make, beta, e, pb):
        # O(1) of the section lines shifts lattice weights, the circle
        # line only the circle weight; both classes are integrated in
        # the top degree and one above, where the circle twist shows
        S = make()
        L = o1_line() if pb else pushO(tp=1)
        x = FE.ksum(taut(beta, 2), FE.dual(rhom(1, 2, bc=1)))
        ctx = LocalizationContext(S, beta=beta, with_pb=beta if pb else None)
        dim = H.riemann_roch_chi(S, beta) - 1 if pb else 0
        moved = False
        for n in range(4):
            for n1 in range(min(n, 1) + 1):
                for d in (2 * n + dim, 2 * n + dim + 1):
                    def integral(k):
                        return equivariant_integrate(FE.chern(d, k), ctx,
                                                     n1, n - n1)
                    by = {m: integral(FE.twist(x, L, m)) for m in (0, 1, 3)}
                    moved |= len(set(by.values())) > 1
                    assert integral(FE.twist(FE.twist(x, L, 1), L, 2)) \
                        == by[3]
                    assert integral(FE.twist(FE.twist(x, L, -1), L, 1)) \
                        == by[0]
                    for m in (1, 3):
                        assert integral(FE.dual(FE.twist(x, L, m))) \
                            == integral(FE.twist(FE.dual(x), L, -m))
        assert moved


def jacobi_trudi(a, b, x):
    """delta(a, b, x) expanded by hand into chern, mul, add and scale."""
    c = lambda k: FE.chern(k, x)  # noqa: E731
    if (a, b) == (2, 1):
        return FE.add(FE.mul(c(1), c(1)), FE.scale(-1, c(2)))
    if (a, b) == (1, 2):
        return c(2)
    if (a, b) == (2, 2):
        return FE.add(FE.mul(c(2), c(2)), FE.scale(-1, FE.mul(c(1), c(3))))
    raise ValueError((a, b))


class TestDeltaNode:
    @pytest.mark.parametrize("make, beta", [(p2, (1,)), (p1xp1, (1, 1))])
    @pytest.mark.parametrize("a, b", [(2, 1), (1, 2), (2, 2)])
    def test_delta_matches_jacobi_trudi(self, make, beta, a, b):
        ctx = LocalizationContext(make(), beta=beta)
        n = a * b // 2
        for x, (n1, n2) in (
                (FE.leaf("tangent"), (0, n)),
                (FE.kdiff(pushO(bc=1), rhom(1, 1, bc=1, tp=1)), (n, 0))):
            got = equivariant_integrate(FE.delta(a, b, x), ctx, n1, n2)
            assert got == equivariant_integrate(
                jacobi_trudi(a, b, x), ctx, n1, n2)
            assert got != 0


class TestRatFunc:
    """Weight-dependent values are Laurent polynomials in the auxiliary
    weight."""

    def test_negative_power_is_not_constant(self):
        v = RatFunc({-1: 1, 0: 1})  # t^-1 + 1
        assert not v.is_constant()
        with pytest.raises(ValueError,
                           match="integral not equivariantly constant"):
            v.series(2)
        with pytest.raises(ValueError,
                           match="integral not equivariantly constant"):
            nonequivariant_limit(v)
        with pytest.raises(ValueError, match="auxiliary weight"):
            v.as_fraction()

    def test_constant_and_zero(self):
        assert RatFunc.const(Fraction(5, 2)).as_fraction() == Fraction(5, 2)
        assert not RatFunc(()).terms and RatFunc(()).as_fraction() == 0
        assert not RatFunc({}).terms and RatFunc((0, 0)) == RatFunc(())
        assert nonequivariant_limit(RatFunc((1, 2))) == 1
        v = RatFunc((0, 3, 2))
        assert v == RatFunc({1: 3, 2: 2}) and v.series(3) == [0, 3, 2, 0]

    def test_pickle_round_trip(self):
        v = RatFunc({-2: Fraction(-3, 14), 0: Fraction(5, 2)})
        w = pickle.loads(pickle.dumps(v))
        assert w == v and hash(w) == hash(v)
        assert w.terms == {-2: Fraction(-3, 14), 0: Fraction(5, 2)}


class TestRouteAgreement:
    """Pushforward through the section bundle against the closed
    fibrewise form, paired with tautological insertions."""

    def check(self, tau, i, n1, n2):
        S = p2()
        beta = (1,)
        vd = vd_beta(S, beta)
        B1 = FE.twist(pushO(bc=1), o1_line(), 1)
        R1 = rhom(1, 2, bc=1, o1=1)
        cls_a = FE.chern(n1 + n2, FE.kdiff(B1, R1))
        hs = [FE.chern(1, o1_line())] * i
        factors = ([tau] if tau is not None else []) + hs + [cls_a]
        va = equivariant_integrate(
            FE.mul(*factors), LocalizationContext(S, beta=beta, with_pb=beta),
            n1, n2)
        k = n1 + n2 - vd + i
        cls_b = FE.chern(k, FE.kdiff(FE.ksum(), rhom(1, 2, bc=1)))
        fb = ([tau] if tau is not None else []) + [cls_b]
        vb = equivariant_integrate(
            FE.mul(*fb), LocalizationContext(S, beta=beta), n1, n2)
        assert va == vb
        return va

    def test_point_case(self):
        assert self.check(None, 2, 0, 0) == 1

    def test_one_point_cases(self):
        t1 = FE.chern(1, taut((1,), 2))
        assert self.check(FE.mul(t1, t1), 1, 0, 1) == 1
        assert self.check(t1, 2, 0, 1) == 1

    def test_two_point_case(self):
        t1 = FE.chern(1, taut((1,), 2))
        s1 = FE.chern(1, taut((1,), 1))
        assert self.check(FE.mul(s1, t1, t1), 1, 1, 1) == 4
