"""Expression-tree layer: serialization, normalization rules, formal
evaluation, and the formula emitters."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb.ringcore import Ring, KClass, k_twist
from nesthilb.bundles import free_model, projective_bundle, proj_pushforward
from nesthilb.surface import p2, general_type_profile, vd_beta
from nesthilb.expr import (
    FormulaExpr as FE, ZERO_CLASS, rhom, pushO, o1_line, sw_factor,
    pic_point, co_class, expr_to_json, expr_from_json, taut,
)
from nesthilb.porteous import (
    normalize, eval_formal, FormalEnv, virtual_rank,
    degeneracy_pushforward_X, degeneracy_pushforward_GrB, comparison_factor,
    nested_reduced_formula, nested_vir_comparison, ell_step_formula,
    duality_rewrite,
)
from nesthilb.vw import monopole_integrand
from support import sw_coupled_pushforward


def rank_from_attr(leaf):
    return leaf.attr("rank")


class TestTree:
    def test_equality_ignores_attr_order(self):
        a = FE.leaf("rhom", i=1, j=2, bc=1)
        b = FE.leaf("rhom", bc=1, j=2, i=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_immutable(self):
        e = FE.one()
        with pytest.raises(AttributeError):
            e.kind = "mul"

    def test_distinct_attrs_distinct_keys(self):
        assert rhom(1, 2, bc=1) != rhom(1, 2, bc=2)

    def test_json_round_trip(self):
        e = FE.scale(Fraction(-3, 2), FE.mul(
            FE.chern(2, FE.kdiff(pushO(bc=1), rhom(1, 2, bc=1, o1=1))),
            FE.cap(FE.leaf("svir"), FE.delta(2, 1, FE.dual(pushO(kc=1)))),
            FE.push(0, FE.euler(FE.twist(pushO(), o1_line(), -2))),
        ))
        wire = json.dumps(expr_to_json(e), sort_keys=True)
        back = expr_from_json(json.loads(wire))
        assert back == e
        assert json.dumps(expr_to_json(back), sort_keys=True) == wire

    def test_virtual_rank(self):
        V = FE.leaf("V", rank=3)
        W = FE.leaf("W", rank=1)
        e = FE.twist(FE.kdiff(V, FE.dual(W)), o1_line(), 2)
        assert virtual_rank(e, rank_from_attr) == 2
        with pytest.raises(ValueError):
            virtual_rank(FE.chern(1, V), rank_from_attr)


def dumped_key(e):
    """The key as it was first defined: the whole tree's JSON form."""
    return json.dumps(expr_to_json(e), sort_keys=True,
                      separators=(",", ":"))


def subtrees(e):
    yield e
    for c in e.children:
        yield from subtrees(c)


def builder_trees():
    """The trees of every formula builder of porteous and vw."""
    S, G = p2(), general_type_profile(1)
    E0, E1, B = (FE.leaf(name, rank=r) for name, r in
                 (("E0", 1), ("E1", 2), ("B", 3)))
    roots = [FE.leaf("u%d" % i, rank=1) for i in (1, 2)]
    pg_positive = sw_coupled_pushforward("pg>0", 0, 1, 1, (1,), G)
    trees = [
        rhom(1, 2, bc=1, o1=1), rhom(1, 1, kc=1, tp=1, trace_free=True),
        pushO(kc=1), o1_line(lvl=1), taut((2, 0), 1), sw_factor(1, kc=1),
        pic_point(), co_class(bc=1, o1=1), ZERO_CLASS,
        degeneracy_pushforward_GrB(E0, E1, B, 1),
        *degeneracy_pushforward_GrB(E0, E1, B, 2, esurj2=True,
                                    roots=roots),
        comparison_factor(E1, 1, 2, u_line=o1_line()),
        nested_reduced_formula(1, 2, S, (1,), (0,), h2_vanishing=True)[0],
        nested_vir_comparison(1, 2),
        *ell_step_formula((1, 2, 1), ((1,), (2,))),
        duality_rewrite(pg_positive, 1, 1, (1,), G)[0],
        normalize(FE.scale(Fraction(-3, 4), FE.mul(
            FE.chern(3, FE.dual(rhom(2, 1, bc=1))), pushO(bc=1)))),
        monopole_integrand(2, 1), pg_positive,
        sw_coupled_pushforward("pg=0-effective", 1, 1, 1, (1,), S,
                               check=False),
    ]
    return trees


attr_values = st.one_of(st.integers(-3, 3),
                        st.fractions(max_denominator=4),
                        st.tuples(st.integers(-2, 2), st.integers(0, 2)))
expr_leaves = st.one_of(
    st.just(FE.one()),
    st.builds(lambda name, attrs: FE.leaf(name, **attrs),
              st.sampled_from(["rhom", "pushO", "taut", "V", "svir"]),
              st.dictionaries(st.sampled_from(["i", "bc", "kc", "a"]),
                              attr_values, max_size=3)))


def expr_trees():
    return st.recursive(
        expr_leaves,
        lambda sub: st.one_of(
            st.lists(sub, max_size=3).map(lambda xs: FE.ksum(*xs)),
            st.lists(sub, max_size=3).map(lambda xs: FE.add(*xs)),
            st.lists(sub, max_size=3).map(lambda xs: FE.mul(*xs)),
            st.tuples(sub, sub).map(lambda ab: FE.kdiff(*ab)),
            st.tuples(sub, sub).map(lambda ab: FE.cap(*ab)),
            sub.map(FE.dual), sub.map(FE.euler),
            st.tuples(sub, sub, st.integers(-2, 2)).map(
                lambda t: FE.twist(*t)),
            st.tuples(st.integers(0, 4), sub).map(lambda t: FE.chern(*t)),
            st.tuples(st.integers(0, 3), st.integers(-1, 3), sub).map(
                lambda t: FE.delta(*t)),
            st.tuples(st.integers(0, 2), sub).map(lambda t: FE.push(*t)),
            st.tuples(st.fractions(max_denominator=5), sub).map(
                lambda t: FE.scale(*t))),
        max_leaves=8)


class TestKey:
    # normalize sorts children by key, so a key built another way must
    # keep the same string

    def test_builder_trees(self):
        for tree in builder_trees():
            for e in subtrees(tree):
                assert e.key() == dumped_key(e)

    @settings(max_examples=200, deadline=None)
    @given(expr_trees())
    def test_random_trees(self, tree):
        for e in subtrees(tree):
            assert e.key() == dumped_key(e)


class TestNormalize:
    def test_serre_orientation_odd_sign(self):
        # Rhom(I2, I1 K L^-1) is the Serre dual of Rhom(I1, I2 L)
        lhs = FE.chern(3, FE.neg(rhom(2, 1, bc=-1, kc=1)))
        rhs = FE.scale(-1, FE.chern(3, FE.neg(rhom(1, 2, bc=1))))
        assert normalize(lhs) == normalize(rhs)

    def test_serre_orientation_even_no_sign(self):
        lhs = FE.chern(2, FE.neg(rhom(2, 1, bc=-1, kc=1)))
        rhs = FE.chern(2, FE.neg(rhom(1, 2, bc=1)))
        assert normalize(lhs) == normalize(rhs)

    def test_double_dual_strips(self):
        V = FE.leaf("V", rank=2)
        assert normalize(FE.chern(1, FE.dual(FE.dual(V)))) \
            == normalize(FE.chern(1, V))

    def test_product_flattening_and_sorting(self):
        x = FE.chern(1, pushO(bc=1))
        y = FE.chern(2, pushO(kc=1))
        a = FE.mul(x, FE.mul(y, FE.one()))
        b = FE.mul(y, x)
        assert normalize(a) == normalize(b)

    def test_single_factor_unwraps(self):
        x = FE.chern(1, pushO(bc=1))
        assert normalize(FE.mul(x)) == normalize(x)

    def test_zero_absorbs(self):
        x = FE.chern(1, pushO(bc=1))
        assert normalize(FE.mul(ZERO_CLASS, x)) == ZERO_CLASS
        assert normalize(FE.scale(0, x)) == ZERO_CLASS

    def test_chern_zero_is_unit(self):
        assert normalize(FE.chern(0, pushO(bc=1))) == normalize(FE.one())

    def test_manivel_expansion_normal_form(self):
        # c_k of a rank-k twisted argument expands with unit coefficients
        V = FE.leaf("V", rank=3)
        W = FE.leaf("W", rank=1)
        body = FE.kdiff(V, W)
        h = FE.chern(1, o1_line())
        lhs = FE.chern(2, FE.twist(body, o1_line(), 1))
        rhs = FE.add(
            FE.chern(2, body),
            FE.mul(FE.chern(1, body), h),
            FE.mul(FE.chern(0, body), h, h),
        )
        assert normalize(lhs, rank_env=rank_from_attr) \
            == normalize(rhs, rank_env=rank_from_attr)

    def test_manivel_needs_matching_rank(self):
        V = FE.leaf("V", rank=3)
        e = FE.chern(2, FE.twist(V, o1_line(), 1))
        out = normalize(e, rank_env=rank_from_attr)
        assert out.kind == "chern"

    def test_sw_resolution(self):
        S = general_type_profile(1)
        e = FE.mul(sw_factor(bc=1), FE.chern(1, pushO(bc=1)))
        out = normalize(e, surface=S, beta=(1,))
        # SW at beta = K is (-1)^chi(O) = +1, so the factor drops out
        assert out == normalize(FE.chern(1, pushO(bc=1)))
        zero = normalize(FE.mul(sw_factor(bc=2), FE.chern(1, pushO(bc=1))),
                         surface=S, beta=(1,))
        assert zero == ZERO_CLASS


def split_env():
    """Three Chern roots for V, one for W, one fibre class."""
    ring = Ring(["v1", "w1", "h", "v2", "v3"],
                degrees=[1, 1, 1, 2, 3], D=8)
    V = KClass(3, ring.one() + ring.gen("v1") + ring.gen("v2")
               + ring.gen("v3"))
    W = KClass(1, ring.one() + ring.gen("w1"))
    env = FormalEnv(ring)
    env.bind(FE.leaf("V", rank=3), V)
    env.bind(FE.leaf("W", rank=1), W)
    env.bind(o1_line(), KClass.line(ring.gen("h")))
    return ring, V, W, env


class TestEvalFormal:
    def test_k_arithmetic(self):
        ring, V, W, env = split_env()
        e = FE.chern(2, FE.kdiff(V_leaf(), W_leaf()))
        assert eval_formal(e, env) == (V - W).c(2)

    def test_dual_and_twist(self):
        ring, V, W, env = split_env()
        h = ring.gen("h")
        e = FE.chern(2, FE.twist(FE.dual(V_leaf()), o1_line(), 2))
        assert eval_formal(e, env) == k_twist(V.dual(), h, 2).c(2)

    def test_delta_matches_determinant(self):
        ring, V, W, env = split_env()
        e = FE.delta(2, 1, V_leaf())
        c = V.chern
        expect = c.component(1) * c.component(1) - c.component(2)
        assert eval_formal(e, env) == expect

    def test_euler_needs_nonnegative_rank(self):
        ring, V, W, env = split_env()
        assert eval_formal(FE.euler(V_leaf()), env) == V.c(3)
        with pytest.raises(ValueError):
            eval_formal(FE.euler(FE.kdiff(W_leaf(), V_leaf())), env)

    def test_scale_add_mul(self):
        ring, V, W, env = split_env()
        x = FE.chern(1, V_leaf())
        e = FE.add(FE.scale(Fraction(1, 2), x), FE.scale(Fraction(1, 2), x))
        assert eval_formal(e, env) == V.c(1)
        assert eval_formal(FE.one(), env) == ring.one()

    def test_normalization_preserves_value(self):
        ring, V, W, env = split_env()
        e = FE.chern(3, FE.neg(FE.dual(FE.kdiff(V_leaf(), W_leaf()))))
        n = normalize(e)
        assert eval_formal(e, env) == eval_formal(n, env)

    def test_manivel_preserves_value(self):
        ring, V, W, env = split_env()
        body = FE.kdiff(V_leaf(), W_leaf())
        e = FE.chern(2, FE.twist(body, o1_line(), 1))
        n = normalize(e, rank_env=rank_from_attr)
        assert n != e
        assert eval_formal(e, env) == eval_formal(n, env)

    def test_shared_subtree_evaluated_once_per_binding(self):
        ring, V, W, _ = split_env()

        class CountingEnv(FormalEnv):
            lookups = 0

            def __call__(self, leaf):
                self.lookups += 1
                return FormalEnv.__call__(self, leaf)

        env = CountingEnv(ring).bind(V_leaf(), V).bind(W_leaf(), W)
        C = FE.kdiff(FE.ksum(V_leaf(), W_leaf()), W_leaf())
        e = FE.mul(FE.chern(1, C), FE.chern(2, C))
        assert eval_formal(e, env) == V.c(1) * V.c(2)
        # C is evaluated once, so each of its three leaves is read once
        assert env.lookups == 3
        assert eval_formal(FE.chern(1, C), env) == V.c(1)
        assert env.lookups == 3
        # a new binding empties the memo
        h = ring.gen("h")
        V2 = KClass(3, ring.one() + h + h * h)
        env.bind(V_leaf(), V2)
        assert not env.memo
        assert eval_formal(e, env) == h ** 3
        assert env.lookups == 6

    def test_push_node_segre(self):
        base = free_model(["c1", "c2", "c3"], degrees=[1, 2, 3], D=8)
        B = KClass(3, base.ring.one() + base.ring.gen("c1")
                   + base.ring.gen("c2") + base.ring.gen("c3"))
        model = projective_bundle(base, B)
        env = FormalEnv(model.ring, spaces={0: model})
        env.bind(o1_line(), model.taut["O1"])
        h_power = FE.mul(*([FE.chern(1, o1_line())] * 4))
        out = eval_formal(FE.push(0, h_power), env)
        c1 = base.ring.gen("c1")
        c2 = base.ring.gen("c2")
        assert out == c1 * c1 - c2


def V_leaf():
    return FE.leaf("V", rank=3)


def W_leaf():
    return FE.leaf("W", rank=1)


class TestDegeneracyX:
    def test_rank_one_is_top_chern(self):
        ring = Ring(["a1", "a2", "b1"], degrees=[1, 2, 1], D=6)
        E1 = KClass(2, ring.one() + ring.gen("a1") + ring.gen("a2"))
        E0 = KClass(1, ring.one() + ring.gen("b1"))
        E = E1 - E0
        cls, vd = degeneracy_pushforward_X(1, 2, 1, E.chern, dimX=6)
        assert cls == E.c(2)
        assert vd == 4

    def test_codimension_error(self):
        ring = Ring(["a1"], degrees=[1], D=4)
        E = KClass(0, ring.one())
        with pytest.raises(ValueError, match="negative expected codimension"):
            degeneracy_pushforward_X(3, 1, 1, E.chern, dimX=4)
        with pytest.raises(ValueError):
            degeneracy_pushforward_X(2, 3, 0, E.chern, dimX=4)
        with pytest.raises(ValueError):
            degeneracy_pushforward_X(2, 3, 3, E.chern, dimX=4)


class TestDegeneracyGrB:
    def build_model(self):
        base = free_model(["c1", "c2", "c3"], degrees=[1, 2, 3], D=9)
        B = KClass(3, base.ring.one() + base.ring.gen("c1")
                   + base.ring.gen("c2") + base.ring.gen("c3"))
        model = projective_bundle(base, B)
        env = FormalEnv(model.ring)
        env.bind(FE.leaf("B", rank=3), model.taut["B"])
        env.bind(FE.leaf("U", rank=1), model.taut["U"])
        return model, env

    def test_zero_map_gives_top_chern_of_quotient(self):
        # with no degeneracy data the locus is all of P(B) and the
        # excess class c_b(Q_B) vanishes there
        model, env = self.build_model()
        zero = FE.ksum()
        expr = degeneracy_pushforward_GrB(zero, zero, FE.leaf("B", rank=3), 1)
        assert expr.kind == "delta"
        assert eval_formal(expr, env).is_zero()

    def test_delta_equals_euler_form_line_case(self):
        model, env = self.build_model()
        zero = FE.ksum()
        delta_form, euler_form = degeneracy_pushforward_GrB(
            zero, zero, FE.leaf("B", rank=3), 1, esurj2=True)
        assert eval_formal(delta_form, env) == eval_formal(euler_form, env)

    def test_rank_two_needs_roots(self):
        zero = FE.ksum()
        with pytest.raises(ValueError, match="roots"):
            degeneracy_pushforward_GrB(zero, zero, FE.leaf("B", rank=4), 2,
                                       esurj2=True)
        out = degeneracy_pushforward_GrB(
            zero, zero, FE.leaf("B", rank=4), 2, esurj2=True,
            roots=[FE.leaf("x1", rank=1), FE.leaf("x2", rank=1)])
        assert out[1].kind == "mul" and len(out[1].children) == 2

    def test_negative_codimension(self):
        E0 = FE.leaf("E0", rank=5)
        E1 = FE.leaf("E1", rank=1)
        with pytest.raises(ValueError, match="negative expected codimension"):
            degeneracy_pushforward_GrB(E0, E1, FE.leaf("B", rank=3), 1)


class TestComparisonFactor:
    def test_rank_zero_is_unit(self):
        G = FE.leaf("G", rank=0)
        assert comparison_factor(G, 2, 0) == FE.one()

    def test_trivial_positive_rank_vanishes(self):
        ring = Ring(["t"], degrees=[1], D=4)
        env = FormalEnv(ring)
        G = FE.leaf("G", rank=2)
        env.bind(G, KClass.trivial(ring, 2))
        expr = comparison_factor(G, 2, 2)
        assert expr == FE.chern(4, G)
        assert eval_formal(expr, env).is_zero()

    def test_line_twist_form(self):
        ring = Ring(["g1", "h"], degrees=[1, 1], D=4)
        env = FormalEnv(ring)
        G = FE.leaf("G", rank=1)
        u = FE.leaf("Uline", rank=1)
        env.bind(G, KClass(1, ring.one() + ring.gen("g1")))
        env.bind(u, KClass.line(-ring.gen("h")))
        expr = comparison_factor(G, 1, 1, u_line=u)
        assert eval_formal(expr, env) == ring.gen("g1") - ring.gen("h")
        with pytest.raises(ValueError):
            comparison_factor(G, 2, 1, u_line=u)


class TestNestedFormulas:
    def test_reduced_needs_flag(self):
        with pytest.raises(ValueError, match="H2"):
            nested_reduced_formula(1, 1, p2(), (1,), (1,))

    def test_reduced_degree_bookkeeping(self):
        S = p2()
        expr, info = nested_reduced_formula(1, 2, S, (1,), (1,),
                                            h2_vanishing=True)
        # twist dimension A.(2 beta + A - K)/2 for A = H, beta = H
        assert info["d"] == 3
        assert info["degree"] == 6
        assert expr == FE.chern(6, expr.children[0])
        expr0, info0 = nested_reduced_formula(1, 2, S, (1,), (0,),
                                              h2_vanishing=True)
        assert info0["d"] == 0
        # reduced virtual dimension chi(L) + n1 + n2 + q - 1
        assert info0["reduced_vd"] == 3 + 3 - 1

    def test_vir_comparison_rank(self):
        expr = nested_vir_comparison(1, 2)
        assert expr.kind == "cap"
        body = expr.children[1]
        assert body.kind == "chern" and body.params == (3,)

        def rank_env(leaf):
            if leaf.params[0] == "pushO":
                return 5
            if leaf.params[0] == "rhom":
                return 5 - 3
            raise AssertionError

        assert virtual_rank(body.children[0], rank_env) == 3

    def test_ell_step_two_matches_one_step(self):
        S = p2()
        nested, _ = nested_reduced_formula(1, 2, S, (1,), (1,),
                                           h2_vanishing=True)
        reduced, co = ell_step_formula([1, 2], [(1,)], S, (1,))
        assert normalize(reduced) == normalize(nested)
        co_part = co.children[0]
        assert co_part.params == (3,)

    def test_ell_step_three_levels(self):
        S = p2()
        reduced, co = ell_step_formula([1, 1, 2], [(1,), (2,)], S, (0,))
        assert len(reduced.children) == 2
        first, second = reduced.children
        leaf_ij = sorted((c.attr("i"), c.attr("j"))
                         for f in (first, second)
                         for c in f.children[0].children
                         if c.kind == "leaf" and c.params[0] == "rhom")
        assert leaf_ij == [(1, 2), (2, 3)]
        lvls = sorted(c.attr("lvl") for f in (first, second)
                      for c in f.children[0].children if c.kind == "leaf")
        assert lvls == [0, 1]

    def test_ell_step_length_mismatch(self):
        with pytest.raises(ValueError):
            ell_step_formula([1], [], p2(), (0,))
        with pytest.raises(ValueError):
            ell_step_formula([1, 1, 1], [(1,)], p2(), (0,))


class TestDualityRewrite:
    def pg_positive_expr(self, n):
        return FE.mul(sw_factor(bc=1),
                      FE.chern(n, FE.neg(rhom(1, 2, bc=1))),
                      pic_point())

    def test_involution(self):
        S = general_type_profile(1)
        e = self.pg_positive_expr(2)
        once, s = duality_rewrite(e, 0, 2, (1,), S)
        twice, s2 = duality_rewrite(once, 2, 0, (0,), S)
        assert twice == e
        assert once != e

    def test_sign_exponent(self):
        S = general_type_profile(1)
        _, s = duality_rewrite(self.pg_positive_expr(2), 0, 2, (1,), S)
        assert s == 0 + 2 - 2 - vd_beta(S, (1,))

    def test_rejects_A_twist(self):
        S = general_type_profile(1)
        e = FE.chern(1, rhom(1, 2, bc=1, ac=1))
        with pytest.raises(ValueError, match="unrecognized shape"):
            duality_rewrite(e, 0, 1, (1,), S)

    def test_pg_positive_normal_form_equality(self):
        # the rewritten side, renormalized through Serre duality and the
        # sign rule, reproduces the original up to (-1)^(s+i) with i = 0
        S = general_type_profile(1)
        beta = (1,)
        for n in range(4):
            e = self.pg_positive_expr(n)
            rewritten, s = duality_rewrite(e, 0, n, beta, S)
            sign = -1 if (s + 0) % 2 else 1
            lhs = normalize(e, surface=S, beta=beta)
            rhs = normalize(FE.scale(sign, rewritten), surface=S, beta=beta)
            assert lhs == rhs
