"""One LocalizationContext per job: the integrals of an n range, of the
splittings of a monopole contribution and of one fit run share it, and
each of them gives the value and leaves the counters of an integral in
a context of its own."""

import itertools
import json
import math
import random
import weakref
from unittest import mock

import pytest

from nesthilb import cli, vw
from nesthilb import hilbloc as H
from nesthilb.expr import FormulaExpr as FE, co_class, pushO
from nesthilb.surface import p2
from support import integral_info

EULER = FE.euler(FE.leaf("tangent"))
INTEGRATE = H.equivariant_integrate


def recording(calls):
    """equivariant_integrate that records each call with its value and
    the counters it left on the context."""
    def integrate(expr, ctx, n1=0, n2=0, **kw):
        value = INTEGRATE(expr, ctx, n1, n2, **kw)
        calls.append((expr, ctx, n1, n2, kw, value, integral_info(ctx)))
        return value
    return integrate


def assert_matches_fresh(calls):
    """Each recorded integral ran in a shared context and equals the
    same integral in a new context of its own, counters included."""
    for expr, ctx, n1, n2, kw, value, info in calls:
        fresh = H.LocalizationContext(ctx.surface, beta=ctx.beta, A=ctx.A,
                                      with_pb=ctx.with_pb)
        assert INTEGRATE(expr, fresh, n1, n2, **kw) == value
        assert integral_info(fresh) == info


def sw_job(tmp_path, beta):
    path = tmp_path / "sw.json"
    path.write_text(json.dumps({"sw": {"entries": [{"beta": beta,
                                                     "sw": 1}]}}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["integrate", "--formula", "euler", "--surface", "P1xP1", "--n", "0:4"],
    ["integrate", "--formula", "co:0", "--surface", "P2", "--beta", "1",
     "--n", "0:3", "--order", "2"],
])
def test_integrate_range_shares_one_context(argv, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(H, "equivariant_integrate", recording(calls))
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) > 1
    assert len({id(call[1]) for call in calls}) == 1
    assert_matches_fresh(calls)


def test_vw_splittings_share_one_context(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(vw, "equivariant_integrate", recording(calls))
    argv = ["vw", "--order", "2", "--surface", "P2", "--beta", "0",
            "--n", "0:2", "--job", sw_job(tmp_path, [0])]
    assert cli.main(argv) == cli.EXIT_OK
    # splittings n1 + n2 = n for n = 0, 1, 2
    assert [(c[2], c[3]) for c in calls] \
        == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len({id(call[1]) for call in calls}) == 1
    assert_matches_fresh(calls)


def test_fit_runs_each_share_one_context(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(vw, "equivariant_integrate", recording(calls))
    assert cli.main(["fit", "--n", "1"]) == cli.EXIT_OK
    contexts = [call[1] for call in calls]
    # the six default runs, two splittings each
    assert len(calls) == 12
    assert len({id(ctx) for ctx in contexts}) == 6
    for first, second in zip(contexts[::2], contexts[1::2]):
        assert first is second
    assert_matches_fresh(calls)


def _collides(ctx, points, spec):
    return any(k == 0 and c == 0 and (p, q) != (0, 0)
               for pt in points
               for p, q, c in H.full_tangent_character(ctx, pt)
               for k in [p * spec[0] + q * spec[1]])


def test_redraw_resets_the_shared_direction_memo():
    # the integral at n = 3 draws a direction that annihilates one of
    # its tangent weights but none at n <= 2; it redraws, and the next
    # integral draws the first direction again, so the shared context
    # empties its tables twice in the middle of the job.  The last
    # integral needs the tangent pieces of size 3 again, first
    # specialized under the redrawn direction.
    S = p2()
    ctx = H.LocalizationContext(S)
    low = [pt for n in range(3) for pt in H.enumerate_fixed_points(ctx, 0, n)]
    three = list(H.enumerate_fixed_points(ctx, 0, 3))
    bad = next(spec for spec in itertools.product(range(2, 40), range(1, 40))
               if math.gcd(*spec) == 1 and spec[0] != spec[1]
               and _collides(ctx, three, spec)
               and not _collides(ctx, low, spec))
    integrals = [(EULER, 0, n, None) for n in range(5)] \
        + [(FE.chern(n, co_class(bc=1)), 0, n, (1,)) for n in range(4)]
    draws = [(7, 3)] * 3 + [bad, (11, 4)] + [(7, 3)] * 5

    def run(shared):
        # one context of the class for every integral, or a new one for
        # each with the class it needs
        script = iter(draws)
        out = []
        ctx = H.LocalizationContext(S, beta=(1,))
        with mock.patch.object(H, "_draw_spec", lambda rng: next(script)):
            for expr, n1, n2, beta in integrals:
                if not shared:
                    ctx = H.LocalizationContext(S, beta=beta)
                value = INTEGRATE(expr, ctx, n1, n2)
                out.append((value, integral_info(ctx)))
        return out
    shared, fresh = run(True), run(False)
    assert shared == fresh
    assert [info["attempts"] for _, info in shared] \
        == [1, 1, 1, 2, 1, 1, 1, 1, 1]
    assert shared[3][1]["spec"] == (11, 4)
    assert [value for value, _ in shared[:5]] == [1, 3, 9, 22, 51]


def test_integral_leaves_its_counters_on_the_context():
    ctx = H.LocalizationContext(p2(), beta=(0,))
    assert (ctx.spec, ctx.attempts, ctx.points, ctx.visited) \
        == (None, 0, 0, 0)
    assert INTEGRATE(EULER, ctx, 0, 2, seed=3) == 9
    assert ctx.spec == H._draw_spec(random.Random(3))
    assert (ctx.attempts, ctx.points, ctx.visited) == (1, 9, 9)
    # the next integral replaces them: at beta = 0 the monopole
    # integrand is zero at each of the three points of P2^[0] x P2^[1]
    assert INTEGRATE(vw.monopole_integrand(0, 1), ctx, 0, 1, seed=3) == 0
    assert (ctx.attempts, ctx.points, ctx.visited) == (1, 3, 0)


@pytest.mark.parametrize("wrap", [lambda e: e, FE.add],
                         ids=["chart-factor", "per-point"])
def test_integral_that_raises_leaves_its_own_counters(wrap):
    # euler(-O) holds the zero weight of chi(O) at every point, so the
    # first direction of the second integral raises; the counters are
    # then that integral's, not those the first integral left
    ctx = H.LocalizationContext(p2())
    assert INTEGRATE(wrap(EULER), ctx, 0, 2) == 9
    assert integral_info(ctx) == {"spec": (866, 395), "attempts": 1,
                                  "points": 9, "visited": 9}
    with pytest.raises(ValueError, match="non-isolated or non-generic"):
        INTEGRATE(wrap(FE.euler(FE.neg(pushO()))), ctx, 0, 1, seed=5)
    assert integral_info(ctx) == {"spec": (639, 262), "attempts": 1,
                                  "points": 3, "visited": 0}


def test_integrate_range_specializes_each_chart_piece_once(monkeypatch,
                                                           capsys):
    # 4 charts x 11 partitions of sizes 1-4, for all five integrals
    calls = []
    specialize = H.specialize_weights
    monkeypatch.setattr(H, "specialize_weights",
                        lambda *a: calls.append(a) or specialize(*a))
    assert cli.main(["integrate", "--formula", "euler", "--surface",
                     "P1xP1", "--n", "0:4"]) == cli.EXIT_OK
    assert capsys.readouterr().out.split()[:5] == ["1", "4", "14", "40",
                                                   "105"]
    assert len(calls) == 4 * 11 == 44


def test_redraw_keeps_a_directions_maps(monkeypatch):
    # seed 1 draws another direction than seed 0; the maps of seed 0's
    # direction outlive it, so the third integral specializes nothing
    # and still gives the value and counters of a context of its own
    assert H._draw_spec(random.Random(1)) != H._draw_spec(random.Random(0))
    ctx = H.LocalizationContext(p2())
    assert INTEGRATE(EULER, ctx, 0, 2, seed=0) == 9
    assert INTEGRATE(EULER, ctx, 0, 2, seed=1) == 9
    calls = []
    specialize = H.specialize_weights
    monkeypatch.setattr(H, "specialize_weights",
                        lambda *a: calls.append(a) or specialize(*a))
    value = INTEGRATE(EULER, ctx, 0, 2, seed=0)
    assert calls == []
    fresh = H.LocalizationContext(p2())
    assert INTEGRATE(EULER, fresh, 0, 2, seed=0) == value
    assert integral_info(fresh) == integral_info(ctx)


def test_context_freed_with_its_job():
    # no memo key or map holds the context, so the job's last reference
    # frees it at once with everything it built
    ctx = H.LocalizationContext(p2(), beta=(1,))
    assert INTEGRATE(vw.monopole_integrand(1, 1), ctx, 1, 1) is not None
    ref = weakref.ref(ctx)
    del ctx
    assert ref() is None


def test_vw_builds_chi_once_per_twist_class(tmp_path, monkeypatch, capsys):
    calls = []
    chi = H.chi_line_character
    monkeypatch.setattr(H, "chi_line_character",
                        lambda S, beta: calls.append(beta) or chi(S, beta))
    argv = ["vw", "--order", "2", "--surface", "P2", "--beta", "0",
            "--n", "0:2", "--job", sw_job(tmp_path, [0])]
    assert cli.main(argv) == cli.EXIT_OK
    # classes beta + a K of the integrand's rhom and pushO leaves, with
    # beta = 0 and K = -3H; the trace-free leaf needs no chi(L)
    assert sorted(calls) == [(-6,), (-3,), (0,), (3,)]
