"""One LocalizationContext per job: the integrals of an n range, of the
splittings of a monopole contribution and of one fit run share it, and
each of them gives the value and the info of an integral in a context
of its own."""

import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import pytest

from nesthilb import cli, vw
from nesthilb import hilbloc as H
from nesthilb.expr import FormulaExpr as FE, co_class
from nesthilb.surface import p2

EULER = FE.euler(FE.leaf("tangent"))
INTEGRATE = H.equivariant_integrate


def recording(calls):
    """equivariant_integrate that records each call with its value and
    info."""
    def integrate(expr, surface, n1=0, n2=0, **kw):
        value, info = INTEGRATE(expr, surface, n1, n2, return_info=True,
                                **kw)
        calls.append((expr, surface, n1, n2, kw, value, info))
        return value
    return integrate


def assert_matches_fresh(calls):
    """Each recorded integral ran in a shared context and equals the
    same integral in a new context of its own, info included."""
    for expr, ctx, n1, n2, kw, value, info in calls:
        assert isinstance(ctx, H.LocalizationContext)
        kw = dict(kw, beta=ctx.beta, A=ctx.A, with_pb=ctx.with_pb)
        fresh = INTEGRATE(expr, ctx.surface, n1, n2, return_info=True, **kw)
        assert (value, info) == fresh
        assert set(info) >= {"spec", "attempts", "visited", "points"}


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


def _collides(S, points, spec):
    return any(k == 0 and c == 0 and (p, q) != (0, 0)
               for pt in points
               for p, q, c in H.full_tangent_character(S, pt).terms
               for k in [p * spec[0] + q * spec[1]])


def test_redraw_resets_the_shared_direction_memo():
    # the integral at n = 3 draws a direction that annihilates one of
    # its tangent weights but none at n <= 2; it redraws, and the next
    # integral draws the first direction again, so the shared context
    # empties its tables twice in the middle of the job.  The last
    # integral needs the tangent pieces of size 3 again, first
    # specialized under the redrawn direction.
    S = p2()
    low = [pt for n in range(3) for pt in H.enumerate_fixed_points(S, 0, n)]
    three = list(H.enumerate_fixed_points(S, 0, 3))
    bad = next(spec for spec in itertools.product(range(2, 40), range(1, 40))
               if math.gcd(*spec) == 1 and spec[0] != spec[1]
               and _collides(S, three, spec) and not _collides(S, low, spec))
    integrals = [(EULER, 0, n, {}) for n in range(5)] \
        + [(FE.chern(n, co_class(bc=1)), 0, n, {"beta": (1,)})
           for n in range(4)]
    draws = [(7, 3)] * 3 + [bad, (11, 4)] + [(7, 3)] * 5

    def run(shared):
        script = iter(draws)
        out = []
        ctx = H.LocalizationContext(S, beta=(1,))
        with mock.patch.object(H, "_draw_spec", lambda rng: next(script)):
            for expr, n1, n2, kw in integrals:
                out.append(INTEGRATE(expr, ctx if shared else S, n1, n2,
                                     refined=True, return_info=True, **kw))
        return out
    shared, fresh = run(True), run(False)
    assert shared == fresh
    assert [info["attempts"] for _, info in shared] \
        == [1, 1, 1, 2, 1, 1, 1, 1, 1]
    assert shared[3][1]["spec"] == (11, 4)
    assert [value.as_fraction() for value, _ in shared[:5]] \
        == [1, 3, 9, 22, 51]


def test_conflicting_classes_are_rejected():
    S = p2()
    ctx = H.LocalizationContext(S, beta=(1,))
    pt = next(H.enumerate_fixed_points(S, 0, 1))
    # the context's own class, as integers or Fractions, is no conflict
    assert INTEGRATE(EULER, ctx, 0, 1, beta=(1,)) == 3
    assert INTEGRATE(EULER, ctx, 0, 1, beta=(Fraction(1),)) == 3
    with pytest.raises(ValueError, match="beta .* conflicts"):
        INTEGRATE(EULER, ctx, 0, 1, beta=(2,))
    with pytest.raises(ValueError, match="A .* conflicts"):
        INTEGRATE(EULER, ctx, 0, 1, A=(1,))
    with pytest.raises(ValueError, match="with_pb .* conflicts"):
        INTEGRATE(EULER, ctx, 0, 1, with_pb=(1,))
    with pytest.raises(ValueError, match="with_pb .* conflicts"):
        H.full_tangent_character(ctx, pt, with_pb=(1,))
    with pytest.raises(ValueError, match="beta .* conflicts"):
        INTEGRATE(EULER, H.LocalizationContext(S), 0, 1, beta=(1,))


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
