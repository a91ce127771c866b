import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.ringcore import (Ring, GradedClass, KClass, series_invert,
                               delta_det, k_twist, k_dual, binom_general,
                               _det)
from nesthilb.expr import rational_str, parse_rational
from nesthilb.bundles import (free_model, projective_bundle,
                              grassmann_split_pushforward)


def ring3(D=6):
    return Ring(["x", "y", "c1", "c2"], degrees=[1, 1, 1, 2], D=D)


# -- random series generator used by the multiply-back oracles ------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)


@st.composite
def unit_series(draw, D=6):
    R = ring3(D)
    poly = {(0, 0, 0, 0): Fraction(1)}
    n = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n):
        mono = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(4))
        if R.mdeg(mono) == 0 or R.mdeg(mono) > D:
            continue
        poly[mono] = draw(coeffs)
    return GradedClass(R, poly)


class TestSeriesInvert:
    def test_identity(self):
        R = ring3()
        assert series_invert(R.one()) == R.one()

    def test_geometric(self):
        R = Ring(["x"], D=5)
        s = series_invert(R.one() + R.gen("x"))
        x = R.gen("x")
        expect = R.one() - x + x**2 - x**3 + x**4 - x**5
        assert s == expect

    @settings(max_examples=40, deadline=None)
    @given(unit_series())
    def test_multiply_back(self, c):
        s = series_invert(c)
        assert s * c == c.ring.one()
        assert c * s == c.ring.one()

    def test_noninvertible(self):
        R = ring3()
        with pytest.raises(ValueError, match="non-invertible series"):
            series_invert(R.gen("x"))
        with pytest.raises(ValueError, match="non-invertible series"):
            series_invert(2 * R.one())


class TestDeltaDet:
    def test_one_by_one(self):
        R = ring3()
        c = R.one() + R.gen("c1") + R.gen("c2")
        for b in range(-1, 4):
            assert delta_det(1, b, c) == c.component(b)

    def test_two_by_two(self):
        R = ring3()
        c = R.one() + R.gen("c1") + R.gen("c2")
        assert delta_det(2, 1, c) == R.gen("c1") ** 2 - R.gen("c2")

    def test_trivial_series_off_diagonal(self):
        R = ring3()
        assert delta_det(2, 3, R.one()).is_zero()

    def test_negative_size(self):
        R = ring3()
        with pytest.raises(ValueError):
            delta_det(-1, 1, R.one())

    def test_empty_det_is_one(self):
        R = ring3()
        assert delta_det(0, 2, R.one() + R.gen("c1")) == R.one()

    def test_row_swap_flips_sign(self):
        R = ring3()
        c1, c2, x = R.gen("c1"), R.gen("c2"), R.gen("x")
        rows = [[c1, c2], [R.one(), x]]
        swapped = [rows[1], rows[0]]
        assert _det(rows) == -_det(swapped)


def cofactor_det(rows):
    """Reference determinant: cofactor expansion along the first column
    (a! terms)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = rows[0][0].ring.zero()
    for i in range(n):
        entry = rows[i][0]
        if entry.is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = entry * cofactor_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


class TestLaplaceDet:
    @pytest.mark.parametrize("a", [4, 5])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_matches_cofactor_expansion(self, a, b):
        names = ["c%d" % k for k in range(1, 5)]
        R = Ring(names, degrees=[1, 2, 3, 4], D=a * b + 2)
        c = R.one() + R.gen("c1") + Fraction(1, 2) * R.gen("c2") \
            - R.gen("c3") + 3 * R.gen("c4") + R.gen("c1") * R.gen("c2")
        parts = c.components()
        rows = [[parts.get(b + j - i, R.zero()) for j in range(a)]
                for i in range(a)]
        assert delta_det(a, b, c) == _det(rows) == cofactor_det(rows)
        assert _det(rows).max_degree() <= a * b

    def test_truncated_ring(self):
        # entries of an over-degree product vanish in a truncated ring,
        # so both expansions must agree there too
        R = Ring(["x", "y"], D=3)
        x, y = R.gen("x"), R.gen("y")
        rows = [[x, y, R.one(), x * y],
                [R.one(), x + y, y, x],
                [y, R.one(), x * x, R.zero()],
                [x, x, R.one(), y]]
        assert _det(rows) == cofactor_det(rows)


class TestKTwist:
    def test_trivial_line(self):
        R = ring3()
        h = R.gen("x")
        E = KClass.trivial(R, 1)
        assert k_twist(E, h, 1).chern == R.one() + h

    def test_top_class_rank_n(self):
        # c_n(E(1)) = sum_j c_{n-j}(E) h^j for an honest rank-n class
        R = Ring(["h", "c1", "c2", "c3"], degrees=[1, 1, 2, 3], D=8)
        h = R.gen("h")
        n = 3
        E = KClass(n, R.one() + R.gen("c1") + R.gen("c2") + R.gen("c3"))
        tw = k_twist(E, h, 1)
        expect = sum((E.c(n - j) * h**j for j in range(n + 1)), R.zero())
        assert tw.c(n) == expect

    def test_splitting_oracle_virtual_rank_zero(self):
        # E = L_a - L_b has rank 0; twisting must shift both formal roots
        R = Ring(["a", "b", "h"], D=8)
        a, b, h = R.gen("a"), R.gen("b"), R.gen("h")
        E = KClass.line(a) - KClass.line(b)
        for m in (1, 2, -1):
            tw = k_twist(E, h, m)
            expect = KClass.line(a + m * h) - KClass.line(b + m * h)
            assert tw.chern == expect.chern
            assert tw.rank == 0

    def test_zero_power_is_identity(self):
        R = ring3()
        E = KClass(2, R.one() + R.gen("c1") + R.gen("c2"))
        assert k_twist(E, R.gen("x"), 0) == E

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3))
    def test_additivity(self, m, n, rank):
        R = ring3()
        E = KClass(rank, R.one() + R.gen("c1") + 2 * R.gen("c2"))
        h = R.gen("x")
        lhs = k_twist(k_twist(E, h, m), h, n)
        rhs = k_twist(E, h, m + n)
        assert lhs == rhs

    def test_rejects_inhomogeneous_twist_class(self):
        R = ring3()
        E = KClass.trivial(R, 1)
        with pytest.raises(ValueError):
            k_twist(E, R.one() + R.gen("x"), 1)


class TestKDual:
    def test_trivial(self):
        R = ring3()
        E = KClass.trivial(R, 3)
        assert k_dual(E) == E

    def test_sign_rule(self):
        R = ring3()
        E = KClass(1, R.one() + R.gen("c1"))
        assert k_dual(E).chern == R.one() - R.gen("c1")

    @settings(max_examples=30, deadline=None)
    @given(unit_series(D=8), st.integers(-3, 3))
    def test_involution(self, c, rank):
        E = KClass(rank, c)
        assert k_dual(k_dual(E)) == E
        assert k_dual(E).rank == E.rank


class TestKClassArithmetic:
    def test_whitney(self):
        R = ring3()
        E = KClass(2, R.one() + R.gen("c1"))
        F = KClass(1, R.one() + R.gen("x"))
        assert (E + F).chern == E.chern * F.chern
        assert (E + F).rank == 3

    def test_difference_inverts(self):
        R = ring3()
        E = KClass(2, R.one() + R.gen("c1"))
        F = KClass(1, R.one() + R.gen("x"))
        assert ((E - F) + F).chern == E.chern
        assert (E - F).rank == 1

    def test_negation(self):
        R = ring3()
        F = KClass(1, R.one() + R.gen("x"))
        assert (-F).rank == -1
        assert (-F).chern * F.chern == R.one()

    def test_from_roots(self):
        R = ring3()
        E = KClass.from_roots([R.gen("x"), R.gen("y")])
        assert E.rank == 2
        assert E.c(1) == R.gen("x") + R.gen("y")
        assert E.c(2) == R.gen("x") * R.gen("y")


class TestNormalForm:
    def test_single_relation(self):
        # a P^2-style relation h^3 = 0
        R = Ring(["h"], D=10, relations={"h": (3, {})})
        h = R.gen("h")
        assert (h**3).is_zero()
        assert not (h**2).is_zero()

    def test_bundle_relation(self):
        # h^2 = -c1 h - c2: the rank-2 projective bundle relation
        rel = {(1, 1, 0): Fraction(-1), (0, 0, 1): Fraction(-1)}
        R = Ring(["h", "c1", "c2"], degrees=[1, 1, 2], D=8,
                 relations={"h": (2, rel)})
        h, c1, c2 = R.gen("h"), R.gen("c1"), R.gen("c2")
        assert h * h == -c1 * h - c2
        # h^3 reduced two ways agrees
        assert (h * h) * h == h * (h * h)
        assert h**3 == (c1 * c1 - c2) * h + c1 * c2

    def test_long_rewrite_chain(self):
        # x^2 = x y rewrites x^k in k - 1 steps, more than the default
        # recursion limit of the interpreter
        R = Ring(["x", "y"], relations={"x": (2, {(1, 1): 1})})
        assert R.from_dict({(3000, 0): 1}).poly == {(1, 2999): 1}

    def test_truncation(self):
        R = Ring(["x"], D=3)
        x = R.gen("x")
        assert (x**4).is_zero()
        assert not (x**3).is_zero()

    def test_free_ring_only_truncates(self):
        # without relations a class only drops the monomials above D,
        # with no normal forms memoized
        R = Ring(["x", "c2"], degrees=[1, 2], D=4)
        cls = R.from_dict({(1, 2): 3, (2, 1): Fraction(1, 2), (0, 0): 0})
        assert cls.poly == {(2, 1): Fraction(1, 2)}
        assert all_fractions(cls)
        assert not R._nf


# -- products and normal forms against a schoolbook reference ------------


def schoolbook_product(p, q):
    """Every pair of terms, Fraction arithmetic, no truncation."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return out


def stack_reduce(ring, poly):
    """Reference reduction: rewrite one relation step per monomial via a
    stack, dropping monomials above the ring's bound."""
    out = {}
    stack = [(m, Fraction(c)) for m, c in poly.items() if c]
    while stack:
        mono, coeff = stack.pop()
        if ring.D is not None and ring.mdeg(mono) > ring.D:
            continue
        hit = next(((i, p, repl) for i, (p, repl) in ring.rels.items()
                    if mono[i] >= p), None)
        if hit is None:
            out[mono] = out.get(mono, Fraction(0)) + coeff
            continue
        i, p, repl = hit
        rest = list(mono)
        rest[i] -= p
        for rm, rc in repl.items():
            stack.append((tuple(a + b for a, b in zip(rest, rm)),
                          coeff * rc))
    return {m: c for m, c in out.items() if c}


def fractional_ring(D):
    """h^2 = c1 h / 2 - 3 c2 / 4: replacement coefficients not integral."""
    return Ring(["h", "c1", "c2"], degrees=[1, 1, 2], D=D,
                relations={"h": (2, {(1, 1, 0): Fraction(1, 2),
                                     (0, 0, 1): Fraction(-3, 4)})})


def tower_ring(D):
    """Two-level flag tower P(Q_1) -> P(B) -> base with B of rank 3: the
    h2 relation involves h1, which has its own relation."""
    base = free_model(["b0", "b1", "b2"], D=D)
    P1 = projective_bundle(base, KClass.from_roots(base.ring.gens()),
                           name="h1")
    return projective_bundle(P1, P1.taut["Q"], name="h2").ring


RINGS = {
    "free": lambda: Ring(["x", "y", "c2"], degrees=[1, 1, 2]),
    "free-D5": lambda: Ring(["x", "y", "c2"], degrees=[1, 1, 2], D=5),
    "fractional-relation": lambda: fractional_ring(None),
    "fractional-relation-D6": lambda: fractional_ring(6),
    "tower-D2": lambda: tower_ring(2),
    "tower-D4": lambda: tower_ring(4),
}

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def raw_poly(draw, ring, top=3):
    n = draw(st.integers(min_value=0, max_value=6))
    return {tuple(draw(st.integers(0, top)) for _ in ring.names):
            draw(fractions) for _ in range(n)}


@st.composite
def ring_and_polys(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]()
    return ring, draw(raw_poly(ring)), draw(raw_poly(ring))


# -- fused sums (determinants, inversion, twists, split pushforwards)
# -- against schoolbook routes on raw dicts, reduced once at the end ----

# rings of the product kernel plus generator degrees up to 3
KERNEL_RINGS = dict(RINGS, **{
    "weighted-D7": lambda: Ring(["u", "v", "w"], degrees=[1, 2, 3], D=7),
    "weighted": lambda: Ring(["u", "v", "w"], degrees=[1, 2, 3]),
})
TRUNCATED = sorted(k for k, make in KERNEL_RINGS.items()
                   if make().D is not None)


def schoolbook_sum(terms):
    """sum of sign * p * q over (sign, p, q) raw dicts."""
    out = {}
    for sign, p, q in terms:
        for m, c in schoolbook_product(p, q).items():
            out[m] = out.get(m, Fraction(0)) + sign * c
    return out


def unit(ring):
    return {(0,) * len(ring.names): Fraction(1)}


def leibniz_det(ring, rows):
    """Determinant of raw dicts as a sum over all permutations."""
    n = len(rows)
    terms = []
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2)
                         if perm[i] > perm[j])
        prod = unit(ring)
        for i, j in enumerate(perm):
            prod = schoolbook_product(prod, rows[i][j])
        terms.append(((-1) ** inversions, prod, unit(ring)))
    return schoolbook_sum(terms)


def unit_class(ring, raw):
    """1 plus the terms of raw of positive degree."""
    poly = {m: c for m, c in raw.items() if ring.mdeg(m) > 0}
    poly.update(unit(ring))
    return GradedClass(ring, poly)


def all_fractions(cls):
    return all(type(c) is Fraction for c in cls.poly.values())


@st.composite
def ring_and_matrix(draw, size=3):
    ring = KERNEL_RINGS[draw(st.sampled_from(sorted(KERNEL_RINGS)))]()
    return ring, [[draw(raw_poly(ring)) for _ in range(size)]
                  for _ in range(size)]


@st.composite
def truncated_ring_and_poly(draw):
    ring = KERNEL_RINGS[draw(st.sampled_from(TRUNCATED))]()
    return ring, draw(raw_poly(ring))


class TestProductKernel:
    @settings(max_examples=80, deadline=None)
    @given(ring_and_polys())
    def test_against_schoolbook(self, data):
        ring, p, q = data
        a, b = GradedClass(ring, p), GradedClass(ring, q)
        assert a.poly == stack_reduce(ring, p)
        assert b.poly == stack_reduce(ring, q)
        prod = a * b
        assert prod.poly == stack_reduce(
            ring, schoolbook_product(a.poly, b.poly))
        assert all(type(c) is Fraction for c in prod.poly.values())
        assert (b * a).poly == prod.poly

    def test_equal_names_different_relations(self):
        # normal forms belong to one ring: x^2 vanishes in the first
        # ring and not in the second, whichever is reduced first
        for first, second in ((2, 3), (3, 2)):
            R1 = Ring(["x"], D=5, relations={"x": (first, {})})
            R2 = Ring(["x"], D=5, relations={"x": (second, {})})
            squares = [(R.gen("x") * R.gen("x")).is_zero() for R in (R1, R2)]
            assert squares == [first == 2, second == 2]
        R1 = Ring(["x", "y"], D=4, relations={"x": (2, {(1, 1): 1})})
        R2 = Ring(["x", "y"], D=4, relations={"x": (2, {(1, 1): -1})})
        assert (R1.gen("x") ** 2).poly == {(1, 1): 1}
        assert (R2.gen("x") ** 2).poly == {(1, 1): -1}

    @settings(max_examples=40, deadline=None)
    @given(ring_and_matrix())
    def test_det_against_leibniz(self, data):
        ring, raw = data
        rows = [[GradedClass(ring, p) for p in row] for row in raw]
        det = _det(rows)
        assert det.poly == stack_reduce(
            ring, leibniz_det(ring, [[e.poly for e in row] for row in rows]))
        assert all_fractions(det)

    @settings(max_examples=40, deadline=None)
    @given(truncated_ring_and_poly())
    def test_series_invert_against_geometric_series(self, data):
        ring, raw = data
        c = unit_class(ring, raw)
        # 1/c = sum_k (1 - c)^k; the k > D terms vanish
        x = {m: -v for m, v in c.poly.items() if ring.mdeg(m) > 0}
        power = inverse = unit(ring)
        for _ in range(ring.D):
            power = stack_reduce(ring, schoolbook_product(power, x))
            inverse = stack_reduce(ring, schoolbook_sum(
                [(1, inverse, unit(ring)), (1, power, unit(ring))]))
        s = series_invert(c)
        assert s.poly == inverse
        assert all_fractions(s)

    @settings(max_examples=40, deadline=None)
    @given(truncated_ring_and_poly(), st.integers(-3, 3),
           st.integers(-2, 2), fractions)
    def test_k_twist_against_schoolbook(self, data, rank, m, q):
        ring, raw = data
        E = KClass(rank, unit_class(ring, raw))
        j = ring.degrees.index(1)
        h = GradedClass(ring, {tuple(int(i == j) for i in
                                     range(len(ring.names))): q or 1})
        mh = {k: m * v for k, v in h.poly.items()}
        parts = E.chern.components()
        terms = []
        for k in range(ring.D + 1):
            for i, ci in parts.items():
                if i > k:
                    continue
                power = unit(ring)
                for _ in range(k - i):
                    power = schoolbook_product(power, mh)
                terms.append((binom_general(rank - i, k - i), ci.poly,
                              power))
        tw = k_twist(E, h, m)
        assert tw.chern.poly == stack_reduce(ring, schoolbook_sum(terms))
        assert all_fractions(tw.chern)

    @pytest.mark.parametrize("r", [1, 2])
    def test_split_pushforward_multiplies_back(self, r):
        # exponents above 64 and non-integral coefficients: the quotient
        # times the Vandermonde product is the signed sum over subsets
        R = Ring(["b0", "b1", "b2"])
        roots = R.gens()

        def F(*xs):
            total = R.zero()
            for x in xs:
                total = total + Fraction(3, 7) * x ** 70
            prod = R.one()
            for x in xs:
                prod = prod * x
            return total + Fraction(-5, 2) * prod ** 33

        push = grassmann_split_pushforward(roots, r, F)
        assert all_fractions(push)
        assert max(map(max, push.poly)) > 64
        e = len(roots)
        vandermonde = unit(R)
        for i, j in combinations(range(e), 2):
            vandermonde = schoolbook_product(
                vandermonde, (roots[j] - roots[i]).poly)
        numerator = []
        for S in combinations(range(e), r):
            sign = (-1) ** sum(1 for i in S for j in range(e)
                               if j not in S and i > j)
            term = F(*[roots[i] for i in S]).poly
            for i, j in combinations(range(e), 2):
                if (i in S) == (j in S):
                    term = schoolbook_product(term,
                                              (roots[j] - roots[i]).poly)
            numerator.append((sign, term, unit(R)))
        assert stack_reduce(R, schoolbook_product(push.poly, vandermonde)) \
            == stack_reduce(R, schoolbook_sum(numerator))

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_wide_exponents_untruncated(self, data):
        # exponents up to 200 in the operands need fields wider than
        # any truncated ring here uses
        ring = Ring(["x", "y", "c2"], degrees=[1, 1, 2])
        p = data.draw(raw_poly(ring, top=200))
        q = data.draw(raw_poly(ring, top=200))
        a, b = GradedClass(ring, p), GradedClass(ring, q)
        prod = a * b
        assert prod.poly == stack_reduce(
            ring, schoolbook_product(a.poly, b.poly))
        assert all_fractions(prod)
        rows = [[a, b], [b, a * a]]
        assert _det(rows).poly == stack_reduce(
            ring, leibniz_det(ring, [[e.poly for e in row] for row in rows]))


# -- the packed stored form: integer numerators by degree over one
# -- denominator, against the schoolbook routes on its .poly view ------


def assert_packed(x):
    """The stored form of x is canonical: a positive denominator, no
    zero numerator, gcd 1, every monomial in its degree's bucket; and
    its view holds Fractions only."""
    ring = x.ring
    nums = [c for b in x._fit().values() for c in b.values()]
    assert x.den > 0 and 0 not in nums
    assert math.gcd(x.den, *nums) == 1
    for d, bucket in x.parts.items():
        assert bucket
        assert all(ring.mdeg(ring.unpack(m)) == d for m in bucket)
    assert all_fractions(x)


def split_numerator(R, roots, r, F):
    """sum over r-subsets S of sign(S) F(roots_S) times the Vandermonde
    factors within S and within its complement, as raw dicts."""
    e = len(roots)
    terms = []
    for S in combinations(range(e), r):
        sign = (-1) ** sum(1 for i in S for j in range(e)
                           if j not in S and i > j)
        term = F(*[roots[i] for i in S]).poly
        for i, j in combinations(range(e), 2):
            if (i in S) == (j in S):
                term = schoolbook_product(term, (roots[j] - roots[i]).poly)
        terms.append((sign, term, unit(R)))
    return schoolbook_sum(terms)


class TestPackedForm:
    @settings(max_examples=60, deadline=None)
    @given(ring_and_polys(), fractions)
    def test_linear_operations_against_schoolbook(self, data, q):
        ring, p, r = data
        a, b = GradedClass(ring, p), GradedClass(ring, r)
        one = unit(ring)
        assert (a + b).poly == stack_reduce(
            ring, schoolbook_sum([(1, p, one), (1, r, one)]))
        assert (a - b).poly == stack_reduce(
            ring, schoolbook_sum([(1, p, one), (-1, r, one)]))
        assert (-a).poly == {m: -c for m, c in a.poly.items()}
        assert (a * q).poly == stack_reduce(
            ring, {m: c * q for m, c in p.items()})
        assert a.constant() == a.poly.get((0,) * len(ring.names), 0)
        assert a.is_zero() == (not a.poly)
        parts = a.components()
        assert set(parts) == {ring.mdeg(m) for m in a.poly}
        for k, part in parts.items():
            assert part.poly == {m: c for m, c in a.poly.items()
                                 if ring.mdeg(m) == k}
            assert part == a.component(k)
            assert_packed(part)
        for x in (a, b, a + b, a - b, -a, a * q, a * b):
            assert_packed(x)

    @settings(max_examples=30, deadline=None)
    @given(truncated_ring_and_poly(), st.integers(-3, 3))
    def test_invert_twist_dual_stay_canonical(self, data, rank):
        ring, raw = data
        c = unit_class(ring, raw)
        E = KClass(rank, c)
        j = ring.degrees.index(1)
        h = ring.gen(ring.names[j])
        for x in (series_invert(c), k_twist(E, h, 2).chern,
                  k_dual(E).chern):
            assert_packed(x)
        assert k_dual(E).chern.poly == {
            m: (-v if ring.mdeg(m) % 2 else v) for m, v in c.poly.items()}

    @pytest.mark.parametrize("r", [1, 2])
    def test_split_pushforward_in_relation_ring(self, r):
        # the roots are free; h^2 = b0 h / 2 rewrites the integrand
        R = Ring(["b0", "b1", "b2", "h"],
                 relations={"h": (2, {(1, 0, 0, 1): Fraction(1, 2)})})
        roots, h = R.gens()[:3], R.gen("h")

        def F(*xs):
            total = R.zero()
            for x in xs:
                total = total + x ** 3 * h * h + Fraction(2, 3) * x ** 5
            return total

        push = grassmann_split_pushforward(roots, r, F)
        assert_packed(push)
        vandermonde = unit(R)
        for i, j in combinations(range(3), 2):
            vandermonde = schoolbook_product(
                vandermonde, (roots[j] - roots[i]).poly)
        assert stack_reduce(R, schoolbook_product(push.poly, vandermonde)) \
            == stack_reduce(R, split_numerator(R, roots, r, F))

    @pytest.mark.parametrize("make", [
        lambda: Ring(["x", "y", "c2"], degrees=[1, 1, 2]),
        lambda: fractional_ring(None)])
    def test_class_packed_before_its_ring_widens(self, make):
        R = make()
        p = {(1, 0, 0): Fraction(1, 3), (0, 1, 1): 2}
        a = GradedClass(R, p)
        width = R.width
        big = R.gen(R.names[1]) ** 300
        assert R.width > width and a.width == width
        prod = a * big
        assert a.width == R.width
        assert prod.poly == stack_reduce(
            R, schoolbook_product(a.poly, big.poly))
        assert (a + big).poly == stack_reduce(
            R, schoolbook_sum([(1, p, unit(R)), (1, big.poly, unit(R))]))
        # an equal ring that never widened holds the same class
        twin = GradedClass(make(), p)
        assert twin.ring.width < R.width
        assert twin == a and a == twin
        assert (twin + a).poly == (a * 2).poly
        for x in (a, prod, twin):
            assert_packed(x)

    def test_lift_and_cast_across_layouts(self):
        small = Ring(["x", "y"], D=3)
        big = Ring(["y", "z", "x"], D=40)
        free = Ring(["x", "y"])
        assert len({small.width, big.width}) == 2
        a = GradedClass(small, {(2, 1): Fraction(-1, 2), (1, 0): 3})
        up = big.lift(a)
        assert up.poly == {(1, 0, 2): Fraction(-1, 2), (0, 0, 1): 3}
        assert up * big.gen("z") ** 30 == big.from_dict(
            {(1, 30, 2): Fraction(-1, 2), (0, 30, 1): 3})
        # x^3 y has degree 4 > 3 and drops on the way back
        back = small.cast(free.cast(a) * free.gen("x"))
        assert back.poly == {(2, 0): 3}
        for x in (up, back):
            assert_packed(x)


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_round_trip(self, p, q):
        f = Fraction(p, q)
        assert parse_rational(rational_str(f)) == f

    def test_formats(self):
        assert rational_str(Fraction(3, 1)) == "3"
        assert rational_str(Fraction(-2, 5)) == "-2/5"


def test_binom_general_negative():
    assert binom_general(-1, 3) == -1
    assert binom_general(-2, 2) == 3
    assert binom_general(4, 2) == 6
    assert binom_general(3, 0) == 1
    assert binom_general(2, 5) == 0
