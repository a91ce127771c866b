"""The formal jobs never build the {exponent tuple: Fraction} view: with
``GradedClass.poly`` made to raise, the push and verify commands, the
two routes at r = 3 and the flag tower still run and agree."""

import pytest

import nesthilb.checks as checks
from nesthilb.cli import main, EXIT_OK
from nesthilb.ringcore import GradedClass

from support import flag_tower_routes


@pytest.fixture
def no_view(monkeypatch):
    def refuse(self):
        raise AssertionError("the Fraction view of a class was built")
    monkeypatch.setattr(GradedClass, "poly", property(refuse))


def test_push_and_verify(no_view, capsys):
    assert main(["push", "--formula", "porteous:4,4,5"]) == EXIT_OK
    assert "c5" in capsys.readouterr().out
    for suite in ("porteous", "delta", "segre"):
        assert main(["verify", "--suite", suite]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["all green", "# seed 0"]


def test_two_routes_rank_three(no_view):
    det_route, loc_route = checks.porteous_two_routes(3, 3, 4)
    assert det_route == loc_route and not det_route.is_zero()


def test_flag_tower(no_view):
    def F(x, y):
        return (x + y) ** 2 * x * y + x ** 3 * y ** 3

    split, tower = flag_tower_routes(4, F)
    assert split == tower and repr(split) == repr(tower)
