"""Acceptance gate: ten headline identities and cross-checks, one test
per criterion, each at its stated bound and time budget."""

import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from nesthilb.ringcore import Ring, GradedClass, KClass, series_invert
from nesthilb.bundles import grassmann_split_pushforward
from nesthilb.surface import p2, p1xp1, f2, general_type_profile, vd_beta
from nesthilb.expr import FormulaExpr as FE, rhom, pushO, o1_line, taut, \
    co_class, ZERO_CLASS
from nesthilb.porteous import FormalEnv, eval_formal, normalize, \
    duality_rewrite, degeneracy_pushforward_X, degeneracy_pushforward_GrB
from nesthilb.hilbloc import partitions, EquivChar, tangent_character, \
    rhom_character, enumerate_fixed_points, equivariant_integrate
from nesthilb.vw import SWTable, point_contribution, \
    monopole_contribution, universality_fit, monomial_value
from support import staircase_generators, nonequivariant_limit, \
    sw_coupled_pushforward, virtual_class_route


# ---------------------------------------------------------------------------
# independent oracles


def split_total(ring, names):
    out = KClass(0, ring.one())
    for name in names:
        out = out + KClass.line(ring.gen(name))
    return out


def partition_series_coefficient(e, n):
    """Coefficient of q^n in prod_m (1 - q^m)^(-e), by direct series
    multiplication."""
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
    """Resolution numerator of a monomial ideal by inclusion-exclusion
    over least common multiples of generator subsets."""
    gens = staircase_generators(mu)
    out = EquivChar()
    for size in range(1, len(gens) + 1):
        for subset in combinations(gens, size):
            a = max(g[0] for g in subset)
            b = max(g[1] for g in subset)
            sign = -1 if size % 2 == 0 else 1
            out = out + EquivChar({(a, b, 0): sign})
    return out


def taut_monomials(levels, degree_cap, max_factors=2):
    """Products of small tautological Chern classes on the given
    nesting levels, up to the degree cap; None stands for the empty
    product."""
    gens = []
    for level in levels:
        gens.append((1, FE.chern(1, taut((1,), level))))
        gens.append((2, FE.chern(2, taut((1,), level))))
    out = [(0, None)]
    for count in range(1, max_factors + 1):
        for combo in combinations_with_replacement(range(len(gens)),
                                                   count):
            degree = sum(gens[i][0] for i in combo)
            if degree <= degree_cap:
                out.append((degree,
                            FE.mul(*[gens[i][1] for i in combo])))
    return out


# ---------------------------------------------------------------------------
# the ten criteria


def test_criterion_01_thom_porteous_pushforward():
    # determinantal kernel-locus class == Gysin pushforward of the top
    # Chern class of Hom(U, E1) from the split Grassmann bundle
    start = time.monotonic()
    D = 12
    for r in (1, 2):
        for e0 in range(r, 5):
            for e1 in range(0, 5):
                if e1 - e0 + r < 0:
                    continue
                anames = ["a%d" % i for i in range(1, e0 + 1)]
                bnames = ["b%d" % k for k in range(1, e1 + 1)]
                names = anames + bnames
                ring = Ring(names, degrees=[1] * len(names), D=D)
                E = split_total(ring, bnames) - split_total(ring, anames)
                det_route, _ = degeneracy_pushforward_X(
                    e0, e1, r, E.chern, dimX=D)

                free = Ring(names, degrees=[1] * len(names))
                aroots = [free.gen(n) for n in anames]
                broots = [free.gen(n) for n in bnames]

                def top_chern(*subs):
                    acc = free.one()
                    for u in subs:
                        for b in broots:
                            acc = acc * (b - u)
                    return acc

                push = grassmann_split_pushforward(aroots, r, top_chern)
                assert GradedClass(ring, dict(push.poly)) == det_route, \
                    (r, e0, e1)
    assert time.monotonic() - start < 60


def test_criterion_02_determinant_equals_euler_form():
    # r x r determinant of c(C - U_B) == product of twisted top Chern
    # classes over the splitting roots of U_B, with the surjection
    # hypothesis realized by embedding E0 into B + E1
    start = time.monotonic()
    for r in (1, 2):
        for b in range(r, 5):
            for e0 in (0, 1, 2):
                for e1 in (0, 1, 2):
                    N = b + e1 - e0
                    if not 0 <= N <= 5:
                        continue
                    xnames = ["x%d" % i for i in range(1, b + 1)]
                    fnames = ["f%d" % i for i in range(1, e1 + 1)]
                    unames = ["u%d" % i for i in range(1, r + 1)]
                    names = xnames + fnames + unames
                    ring = Ring(names, degrees=[1] * len(names),
                                D=r * N + 1)
                    env = FormalEnv(ring)
                    B = FE.leaf("B", rank=b)
                    E1 = FE.leaf("E1", rank=e1)
                    E0 = FE.leaf("E0", rank=e0)
                    env.bind(B, split_total(ring, xnames))
                    env.bind(E1, split_total(ring, fnames))
                    env.bind(E0, split_total(ring,
                                             (xnames + fnames)[:e0]))
                    env.bind(FE.leaf("U", rank=r),
                             split_total(ring, unames))
                    roots = None
                    if r > 1:
                        roots = [FE.leaf(n, rank=1) for n in unames]
                        for leaf, n in zip(roots, unames):
                            env.bind(leaf, KClass.line(ring.gen(n)))
                    det_form, euler_form = degeneracy_pushforward_GrB(
                        E0, E1, B, r, esurj2=True, roots=roots)
                    assert eval_formal(det_form, env) \
                        == eval_formal(euler_form, env), (r, b, e0, e1)
    assert time.monotonic() - start < 60


def test_criterion_03_segre_pushforward():
    # rank-one split-localization pushforward of h powers == Segre
    # components of the base bundle
    for b in range(1, 6):
        names = ["a%d" % i for i in range(1, b + 1)]
        free = Ring(names, degrees=[1] * b)
        roots = [free.gen(n) for n in names]
        for k in range(0, b + 5):
            def h_power(u):
                acc = free.one()
                for _ in range(b - 1 + k):
                    acc = acc * (-u)
                return acc

            push = grassmann_split_pushforward(roots, 1, h_power)
            ring = Ring(names, degrees=[1] * b, D=k)
            segre = series_invert(split_total(ring, names).chern)
            assert GradedClass(ring, dict(push.poly)) \
                == segre.component(k), (b, k)


def test_criterion_04_fixed_points_and_euler_characteristics():
    # fixed-point counts and weighted tangent-Euler integrals over the
    # Hilbert scheme of points == partition generating series
    start = time.monotonic()
    integrand = FE.euler(FE.leaf("tangent"))
    for surface, e in ((p2(), 3), (p1xp1(), 4)):
        for n in range(5):
            expected = partition_series_coefficient(e, n)
            count = len(list(enumerate_fixed_points(surface, 0, n)))
            assert count == expected, (surface.name, n)
            chi = equivariant_integrate(integrand, surface, 0, n)
            assert chi == expected, (surface.name, n)
    assert equivariant_integrate(integrand, p2(), 0, 2) == 9
    assert time.monotonic() - start < 120


def test_criterion_05_character_closed_forms():
    # closed-form tangent and pair characters == free-resolution oracle
    one = EquivChar.one()
    d = (one - EquivChar.monomial(1, 0)) \
        * (one - EquivChar.monomial(0, 1))
    w = ((-1, 0), (0, -1))
    pairs = [(mu, nu) for na in range(4) for mu in partitions(na)
             for nb in range(4) for nu in partitions(nb)]
    for mu, nu in pairs:
        closed = rhom_character(mu, nu).num
        oracle = taylor_ideal_numerator(mu).conj() \
            * taylor_ideal_numerator(nu)
        assert closed == oracle, (mu, nu)
    for n in range(4):
        for mu in partitions(n):
            lhs = tangent_character(mu, w) * d
            oracle = taylor_ideal_numerator(mu)
            assert lhs == one - oracle.conj() * oracle, mu
    # degree-truncated expansion of the rational forms also agrees
    mu, nu = (2,), (1, 1)
    D = 6
    quadrant = EquivChar({(a, b, 0): 1
                          for a in range(D) for b in range(D)})
    box = lambda ch: EquivChar(
        {k: v for k, v in ch.terms.items()
         if 0 <= k[0] + 2 < D - 2 and 0 <= k[1] + 2 < D - 2})
    closed = rhom_character(mu, nu).num * quadrant
    oracle = (taylor_ideal_numerator(mu).conj()
              * taylor_ideal_numerator(nu)) * quadrant
    assert box(closed) == box(oracle)


def test_criterion_06_two_route_pushforward():
    # section-bundle route against the shifted single Chern class,
    # paired with spanning tautological monomials
    start = time.monotonic()
    S = p2()
    checked = substantive = 0
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        n = n1 + n2
        levels = [lvl for lvl, size in ((1, n1), (2, n2)) if size]
        for d in (1, 2, 3):
            beta = (d,)
            vd = vd_beta(S, beta)
            for i in (0, 1, 2):
                cap = max(0, 2 * n - (n - vd + i))
                taus = taut_monomials(levels, cap)
                if d > 1:
                    # the shifted degree is negative, so both routes
                    # must vanish; two insertions witness that
                    taus = taus[:2]
                for degree, tau in taus:
                    B1 = FE.twist(pushO(bc=1), o1_line(), 1)
                    R1 = rhom(1, 2, bc=1, o1=1)
                    cls_a = FE.chern(n, FE.kdiff(B1, R1))
                    parts = ([tau] if tau is not None else []) \
                        + [FE.chern(1, o1_line())] * i + [cls_a]
                    va = equivariant_integrate(
                        FE.mul(*parts), S, n1, n2, beta=beta,
                        with_pb=beta)
                    cls_b = FE.chern(n - vd + i,
                                     FE.kdiff(FE.ksum(),
                                              rhom(1, 2, bc=1)))
                    parts = ([tau] if tau is not None else []) \
                        + [cls_b]
                    vb = equivariant_integrate(FE.mul(*parts), S,
                                               n1, n2, beta=beta)
                    assert va == vb, (n1, n2, d, i, degree)
                    checked += 1
                    substantive += va != 0
    assert substantive > 0
    assert checked > 100
    assert time.monotonic() - start < 600


def test_criterion_07_carlsson_okounkov_vanishing():
    # pairings of the shifted difference-bundle Chern classes with
    # complementary tautological monomials vanish
    S = p2()
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        n = n1 + n2
        levels = [lvl for lvl, size in ((1, n1), (2, n2)) if size]
        for d in (1, 2):
            for i in (1, 2):
                cap = max(0, n - i) + 1
                for degree, tau in taut_monomials(levels, cap):
                    cls = FE.chern(n + i, co_class(bc=1))
                    expr = cls if tau is None else FE.mul(tau, cls)
                    value = equivariant_integrate(
                        expr, S, n1, n2, beta=(d,), refined=True)
                    assert nonequivariant_limit(value) == 0, \
                        (n1, n2, d, i, degree)


def test_criterion_08_universality():
    # point contributions agree across surfaces matched in the
    # intersection numbers, and the universal fit closes exactly
    start = time.monotonic()
    A, B = p1xp1(), f2()
    for name, expected in (("c1sq", 8), ("c2", 4)):
        assert monomial_value(name, A, (1, 1)) == expected
        assert monomial_value(name, B, (2, 1)) == expected
    matched = (((1, 1), (2, 1)), ((2, 2), (4, 2)))
    for ab, fb in matched:
        assert monomial_value("betasq", A, ab) \
            == monomial_value("betasq", B, fb)
        assert monomial_value("c1beta", A, ab) \
            == monomial_value("c1beta", B, fb)
    configs = [(p2(), (1,)), (p2(), (2,)), (A, (1, 1)), (A, (2, 2)),
               (B, (2, 1)), (B, (4, 2))]
    for n in range(3):
        for ab, fb in matched:
            va = point_contribution(A, ab, n, seed=11).value
            vb = point_contribution(B, fb, n, seed=23).value
            assert va == vb, (ab, fb, n)
        fit = universality_fit(
            n, configs, monomials=["1", "c1sq", "betasq", "c1beta"])
        assert fit["residual"] == 0 and fit["runs"] == 6
    with pytest.raises(ValueError, match="insufficient surface spread"):
        universality_fit(0, configs,
                         monomials=["1", "c1sq", "c2", "betasq",
                                    "c1beta"])
    assert time.monotonic() - start < 600


def test_criterion_09_duality():
    # rewriting the positive-genus pushforward formula reproduces the
    # parity sign in normal form, and applying it twice is the identity
    G = general_type_profile(1)
    beta = (1,)
    for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 1)):
        for i in (0, 1):
            expr = sw_coupled_pushforward("pg>0", i, n1, n2, beta, G)
            dual, s = duality_rewrite(expr, n1, n2, beta, G)
            assert s == n1 + n2 - 2
            sign = -1 if (s + i) % 2 else 1
            lhs = normalize(expr, G, beta)
            rhs = normalize(FE.scale(sign, dual), G, beta)
            assert lhs == rhs, (n1, n2, i)
            again, _ = duality_rewrite(dual, n2, n1, beta, G)
            assert again == expr, (n1, n2, i)


def test_criterion_10_vanishing_bookkeeping():
    # positive-genus profiles with the vanishing flag return the zero
    # class, and nonzero virtual dimension forces zero contributions
    G = general_type_profile(1)
    assert virtual_class_route(1, 1, G, (1,), h2_vanishing=True) \
        == ZERO_CLASS
    assert virtual_class_route(0, 2, G, (2,), h2_vanishing=True) \
        == ZERO_CLASS
    with pytest.raises(ValueError, match="vanish"):
        SWTable(p2(), entries={(1,): (1, ())})
    with pytest.raises(ValueError, match="vanish"):
        SWTable(G, entries={(2,): (Fraction(1, 2), ())})
    result = monopole_contribution(p2(), SWTable(p2(), {}), (1,), 1)
    assert result.value == 0
    result = monopole_contribution(G, SWTable(G, {}, higher_mode=True),
                                   (2,), 0)
    assert result.value == 0
