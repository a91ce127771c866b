"""Job schema, dispatch, exit codes, and output formats of the batch
front-end."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nesthilb import cli
from nesthilb.expr import FormulaExpr as FE, parse_rational, MAX_DEPTH, \
    expr_from_json, expr_to_json, pushO, rhom
from nesthilb.hilbloc import LocalizationContext
from nesthilb.surface import p2
from nesthilb.vw import MONOMIALS
from nesthilb.checks import delta_euler_forms, segre_two_routes, \
    _series_coefficient
from nesthilb.cli import (
    JobSpec, SchemaError, run, main, porteous_two_routes,
    EXIT_OK, EXIT_SCHEMA, EXIT_MATH, EXIT_RESIDUAL,
)


def job(**fields):
    return JobSpec(fields)


# an inline P2 whose own Seiberg-Witten table holds class 0
P2_SW_CLASS_ZERO = {"name": "P2", "rays": [[1, 0], [0, 1], [-1, -1]],
                    "basis": [0], "sw_table": [{"beta": [0], "sw": 1}]}


# the job files that the command lines below read
PER_POINT = {"params": {"expr": {"kind": "add", "children": [
    {"kind": "euler", "children": [{"kind": "leaf", "params": ["tangent"]}]}
]}}}
WEIGHTED = {"params": {"expr": {"kind": "chern", "params": [1], "children": [
    {"kind": "leaf", "params": ["pushO"], "attrs": {"tp": 1}}]}}}
SW_P2 = {"sw": {"entries": [{"beta": [0], "sw": 1}]}}
SW_RANK2 = {"sw": {"entries": [{"beta": [0, 0], "sw": 1}]}}
JOB_FILES = {"per_point.json": PER_POINT, "weighted.json": WEIGHTED,
             "vw1.json": SW_P2, "vw2.json": SW_RANK2,
             "fit.json": {"n": 1, "seed": 1}}

# (command line, merged job document): the command lines of README's
# "Command line" section and of the CI workflow, then the other forms
# of a flag, then the jobs of the benchmark's workloads
COMMAND_LINES = [
    (["verify", "--suite", "porteous"],
     {"command": "verify", "suite": "porteous"}),
    (["integrate", "--surface", "P2", "--formula", "euler", "--n", "2"],
     {"command": "integrate", "surface": "P2", "formula": "euler",
      "n": "2"}),
    (["vw", "--surface", "P2", "--beta", "1", "--n", "0"],
     {"command": "vw", "surface": "P2", "beta": "1", "n": "0"}),
    (["integrate", "--surface", "P2", "--formula", "euler", "--n", "0:3"],
     {"command": "integrate", "surface": "P2", "formula": "euler",
      "n": "0:3"}),
    (["integrate", "--surface", "P1xP1", "--formula", "euler", "--n",
      "0:5"],
     {"command": "integrate", "surface": "P1xP1", "formula": "euler",
      "n": "0:5"}),
    (["integrate", "--surface", "P1xP1", "--formula", "custom", "--n",
      "0:5", "--job", "per_point.json"],
     {"command": "integrate", "surface": "P1xP1", "formula": "custom",
      "n": "0:5", "params": PER_POINT["params"]}),
    (["vw", "--surface", "P1xP1", "--beta", "0,0", "--n", "0:2", "--order",
      "0", "--job", "vw2.json"],
     {"command": "vw", "surface": "P1xP1", "beta": "0,0", "n": "0:2",
      "order": "0", "sw": SW_RANK2["sw"]}),
    (["vw", "--surface", "P1xP1", "--beta", "0,0", "--n", "0:2", "--order",
      "3", "--job", "vw2.json"],
     {"command": "vw", "surface": "P1xP1", "beta": "0,0", "n": "0:2",
      "order": "3", "sw": SW_RANK2["sw"]}),
    (["integrate", "--surface", "P2", "--formula", "custom", "--n", "0:1",
      "--order", "0", "--job", "weighted.json"],
     {"command": "integrate", "surface": "P2", "formula": "custom",
      "n": "0:1", "order": "0", "params": WEIGHTED["params"]}),
    (["integrate", "--surface", "P2", "--formula", "custom", "--n", "0:1",
      "--order", "2", "--job", "weighted.json"],
     {"command": "integrate", "surface": "P2", "formula": "custom",
      "n": "0:1", "order": "2", "params": WEIGHTED["params"]}),
    (["verify", "--suite", "all"], {"command": "verify", "suite": "all"}),
    (["push", "--formula", "porteous:3,3,5"],
     {"command": "push", "formula": "porteous:3,3,5"}),
    (["integrate", "--sur", "P2", "--formula", "euler", "--n", "0:3"],
     {"command": "integrate", "surface": "P2", "formula": "euler",
      "n": "0:3"}),
    # --name=value, an empty value, a repeated flag, flags before the
    # command, values that start with "-", a flag over its job file's
    # field, a bare "--"
    (["vw", "--surface=P2", "--beta=1", "--n=0", "--out="],
     {"command": "vw", "surface": "P2", "beta": "1", "n": "0", "out": ""}),
    (["fit", "--n", "1", "--n", "2", "--n=3"], {"command": "fit", "n": "3"}),
    (["--surface", "P2", "--formula", "euler", "integrate", "--n", "2"],
     {"command": "integrate", "surface": "P2", "formula": "euler",
      "n": "2"}),
    (["integrate", "--n", "-1", "--beta", "-1,0", "--A", "-x"],
     {"command": "integrate", "n": "-1", "beta": "-1,0", "A": "-x"}),
    (["fit", "--job", "fit.json", "--seed", "2"],
     {"command": "fit", "n": 1, "seed": "2"}),
    (["--n", "2", "--", "integrate"], {"command": "integrate", "n": "2"}),
]
# the benchmark's jobs, each with its --seed
COMMAND_LINES += [
    (["integrate", "--formula", "euler", "--surface", surface, "--n", n,
      "--seed", "17"],
     {"command": "integrate", "formula": "euler", "surface": surface,
      "n": n, "seed": "17"})
    for surface, n in (("P2", "0:8"), ("P1xP1", "0:7"), ("F1", "0:6"),
                       ("F2", "0:6"))]
COMMAND_LINES += [
    (["verify", "--suite", suite, "--seed", "1"],
     {"command": "verify", "suite": suite, "seed": "1"})
    for suite in ("porteous", "delta", "segre")]
COMMAND_LINES += [
    (["push", "--formula", formula, "--seed", "1"],
     {"command": "push", "formula": formula, "seed": "1"})
    for formula in ("porteous:3,3,5", "porteous:4,4,5")]
for threads in ([], ["--threads", "2"]):
    extra = {"threads": "2"} if threads else {}
    COMMAND_LINES.append((["fit", "--n", "1"] + threads + ["--seed", "5"],
                          dict(command="fit", n="1", seed="5", **extra)))
    COMMAND_LINES += [
        (["vw", "--order", "4", "--surface", surface, "--beta", beta,
          "--n", n] + threads + ["--seed", "9", "--job", job],
         dict(command="vw", order="4", surface=surface, beta=beta, n=n,
              seed="9", sw=JOB_FILES[job]["sw"], **extra))
        for surface, beta, n, job in (("P2", "0", "0:3", "vw1.json"),
                                      ("P1xP1", "0,0", "0:2", "vw2.json"),
                                      ("F2", "0,0", "0:2", "vw2.json"))]


class TestJobSpec:
    def test_minimal_commands(self):
        assert job(command="verify", suite="segre").suite == "segre"
        assert job(command="push", formula="porteous:1,1,1").formula
        j = job(command="integrate", surface="P2", formula="euler", n=2)
        assert j.n_range == (2,)
        j = job(command="vw", surface="P2", beta=[1], n="0:2")
        assert j.n_range == (0, 1, 2)
        assert job(command="fit", n=0).n_range == (0,)

    def test_unknown_field(self):
        with pytest.raises(SchemaError, match="unknown field"):
            job(command="verify", suite="segre", extra=1)

    def test_unknown_params_and_sw_keys(self):
        with pytest.raises(SchemaError,
                           match="unknown field 'params.monomial'"):
            job(command="fit", n=0, params={"monomial": ["1"]})
        with pytest.raises(SchemaError,
                           match="unknown field 'sw.higher-mode'"):
            job(command="vw", surface="P2", beta=[0], n=0,
                sw={"higher-mode": True})

    def test_class_weighed_for_vw_only(self):
        sw = {"entries": [{"beta": [0], "sw": 2}]}
        spec = job(command="vw", surface="P2", beta=[0], n=0, sw=sw)
        assert spec.weight == 2
        # other commands check the entries but weigh no class
        spec = job(command="integrate", surface="P2", formula="euler",
                   n=1, sw=sw)
        assert not hasattr(spec, "weight")

    @pytest.mark.parametrize("sw", [None, {}])
    def test_missing_sw_entries_keep_surface_table(self, sw, tmp_path,
                                                   capsys):
        # an sw object without entries still reads the surface's table
        doc = {"surface": P2_SW_CLASS_ZERO}
        if sw is not None:
            doc["sw"] = sw
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        code = main(["vw", "--beta", "0", "--n", "0", "--job", str(path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "1/1024"

    @pytest.mark.parametrize("doc,key", [
        ({"sw": {"higher_mode": True}}, "unknown field 'sw.higher_mode'"),
        # an entry nonzero at vd != 0 has no way round its check
        ({"sw": {"entries": [{"beta": [1], "sw": 1}], "higher_mode": True}},
         "unknown field 'sw.higher_mode'"),
        ({"sw": {"entries": [{"beta": [0], "sw": 1, "higher": []}]}},
         "unknown key 'higher'"),
        ({"surface": dict(P2_SW_CLASS_ZERO, sw_table=[
            {"beta": [0], "sw": 1, "higher": []}])},
         "unknown key 'higher'"),
    ])
    def test_sw_entry_holds_beta_and_sw_only(self, doc, key, tmp_path,
                                             capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict({"surface": "P2"}, **doc)))
        code = main(["vw", "--beta", "0", "--n", "0", "--job", str(path)])
        assert code == EXIT_SCHEMA
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == EXIT_SCHEMA and key in error["message"]

    def test_explicit_sw_entries_replace_surface_table(self):
        # class 1 has vd != 0, so the job needs no entry for its class
        fields = dict(command="vw", surface=P2_SW_CLASS_ZERO, n=0)
        assert job(sw={"entries": []}, beta=[1], **fields).weight == 0
        # class 0 is weighed by the surface's table, or by the entries
        # that replace it
        assert job(sw={}, beta=[0], **fields).weight == 1
        assert job(sw={"entries": [{"beta": [0], "sw": 3}]}, beta=[0],
                   **fields).weight == 3
        with pytest.raises(SchemaError,
                           match=r"^missing SW entry for class \(0\)$"):
            job(sw={"entries": []}, beta=[0], **fields)

    def test_unknown_command(self):
        with pytest.raises(SchemaError, match="command"):
            job(command="solve")

    def test_bad_surface(self):
        with pytest.raises(SchemaError, match="bad surface"):
            job(command="integrate", surface="QX", formula="euler", n=1)

    def test_beta_outside_lattice(self):
        with pytest.raises(SchemaError, match="lattice"):
            job(command="vw", surface="P2", beta=[1, 2], n=0)

    def test_beta_parsing(self):
        j = job(command="vw", surface="P1xP1", beta="2,1", n=0)
        assert j.beta == (2, 1)
        with pytest.raises(SchemaError, match="non-rational"):
            job(command="vw", surface="P2", beta=["x"], n=0)

    def test_n_range_validation(self):
        with pytest.raises(SchemaError, match="range is empty"):
            job(command="vw", surface="P2", beta=[1], n=[2, 0])
        with pytest.raises(SchemaError, match="at least"):
            job(command="vw", surface="P2", beta=[1], n=-1)
        with pytest.raises(SchemaError, match="single n"):
            job(command="fit", n=[0, 1])

    def test_missing_required(self):
        with pytest.raises(SchemaError, match="needs field 'surface'"):
            job(command="integrate", formula="euler", n=1)
        with pytest.raises(SchemaError, match="needs field 'beta'"):
            job(command="vw", surface="P2", n=0)
        with pytest.raises(SchemaError, match="suite"):
            job(command="verify", suite="everything")

    def test_evaluator_pinning(self, capsys):
        # each command runs on one evaluator, so there is no field for it
        with pytest.raises(SchemaError, match="unknown field 'evaluator'"):
            job(command="integrate", surface="P2", formula="euler",
                n=1, evaluator="equivariant")
        assert main(["push", "--formula", "porteous:1,1,1",
                     "--evaluator", "formal"]) == EXIT_SCHEMA
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["error"]["code"] == EXIT_SCHEMA
        assert "--evaluator" in doc["error"]["message"]
        assert err == ""

    @pytest.mark.parametrize("argv, words", [
        (["vw", "--surface", "P2", "--beta", "1", "--n", "0:1",
          "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        # these two keep the ids of their shorter first wording
        pytest.param([], "the following arguments are required: command",
                     id="argv1-required: command"),
        pytest.param(["vw", "--surface", "P2", "--beta"],
                     "argument --beta: expected one argument",
                     id="argv2---beta: expected one argument"),
        (["--surface", "P2", "--n", "1"],
         "the following arguments are required: command"),
        # a value may start with "-", but not be a flag
        (["integrate", "--surface", "--formula", "euler"],
         "argument --surface: expected one argument"),
        (["integrate", "--surface", "-h"],
         "argument --surface: expected one argument"),
        (["integrate", "--surface", "--"],
         "argument --surface: expected one argument"),
        (["integrate", "--s", "P2"],
         "ambiguous option: --s could match --suite, --surface, --seed"),
        (["integrate", "--fo=euler"],
         "ambiguous option: --fo=euler could match --formula, --format"),
        (["integrate", "vw"], "unrecognized arguments: vw"),
        (["-x", "integrate", "-1", "-"],
         "unrecognized arguments: -x -1 -"),
        (["integrate", "--", "--n", "2"], "unrecognized arguments: --n 2"),
        (["integrate", "--help=x"],
         "argument -h/--help: ignored explicit argument 'x'"),
    ])
    def test_command_line_errors_write_the_error_document(
            self, capsys, argv, words):
        assert main(argv) == EXIT_SCHEMA
        out, err = capsys.readouterr()
        error = json.loads(out)["error"]
        assert error == {"code": EXIT_SCHEMA,
                         "message": "command line: " + words}
        assert err == ""

    def test_values_may_start_with_a_dash(self, capsys):
        outputs = []
        for beta in (["--beta", "-1,0"], ["--beta=-1,0"]):
            assert main(["integrate", "--formula", "co:1", "--surface",
                         "P1xP1"] + beta + ["--n", "0:2"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == "0\n0\n0\n# seed 0\n"

    @pytest.mark.parametrize("argv, doc", COMMAND_LINES,
                             ids=[" ".join(a) for a, _ in COMMAND_LINES])
    def test_command_lines_merge_to_jobs(self, tmp_path, monkeypatch, argv,
                                         doc):
        # the job files are read relative to the working directory
        monkeypatch.chdir(tmp_path)
        for name, body in JOB_FILES.items():
            (tmp_path / name).write_text(json.dumps(body))
        assert cli._merge_job(cli.parse_command_line(argv)) == doc

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["-h"], ["--he"],
                     ["vw", "--bogus", "-h", "--beta"]):
            assert main(argv) == EXIT_OK
            out, err = capsys.readouterr()
            assert out.startswith("usage: nesthilb") and err == ""
            assert ", ".join(cli.FLAGS) in out

    def test_format_and_counts(self):
        with pytest.raises(SchemaError, match="format"):
            job(command="fit", n=0, format="xml")
        with pytest.raises(SchemaError, match="threads"):
            job(command="fit", n=0, threads=0)
        with pytest.raises(SchemaError, match="order"):
            job(command="fit", n=0, order=-1)

    def test_threads_bounded_by_cpu_count(self, monkeypatch, capsys):
        # validation only: run() is replaced, so no job runs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "run", lambda job: pytest.fail("ran"))
        assert job(command="fit", n=0, threads=2).threads == 2
        with pytest.raises(SchemaError, match="at most 2"):
            job(command="fit", n=0, threads=3)
        code = main(["integrate", "--surface", "P2", "--formula", "euler",
                     "--n", "1", "--threads", "3"])
        assert code == EXIT_SCHEMA
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == EXIT_SCHEMA
        assert "threads" in doc["error"]["message"]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert job(command="fit", n=0, threads=3).threads == 3

    def test_general_type_reference(self):
        j = job(command="fit", n=0, surface="general_type:2,3")
        assert j.surface.K2 == 2 and j.surface.chiO == 3


class TestSuiteRoutes:
    def test_checks_do_not_import_cli(self, tmp_path):
        # the suites live in checks; cli only hands porteous_two_routes
        # on, so ``python -m nesthilb.cli verify`` imports cli once
        source = ("import sys, nesthilb.checks\n"
                  "assert nesthilb.checks.SUITES\n"
                  "assert 'nesthilb.cli' not in sys.modules\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", source], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert porteous_two_routes is cli.checks.porteous_two_routes

    def test_porteous_routes_agree(self):
        det_route, loc_route = porteous_two_routes(2, 2, 3)
        assert det_route == loc_route
        assert not det_route.is_zero()

    def test_delta_forms_agree_with_virtual_subtraction(self):
        det_val, euler_val = delta_euler_forms(2, 3, 2, 1)
        assert det_val == euler_val

    @pytest.mark.parametrize("e0,e1", [(3, 3), (3, 4)])
    def test_porteous_routes_agree_rank_three(self, e0, e1):
        det_route, loc_route = porteous_two_routes(3, e0, e1)
        assert det_route == loc_route
        assert not det_route.is_zero()

    def test_segre_routes_agree(self):
        push, segre = segre_two_routes(3, 2)
        assert push == segre

    def test_series_coefficients(self):
        assert [_series_coefficient(3, n) for n in range(5)] \
            == [1, 3, 9, 22, 51]
        assert [_series_coefficient(4, n) for n in range(5)] \
            == [1, 4, 14, 40, 105]


class TestRun:
    def test_integrate_euler_value(self):
        code, text = run(job(command="integrate", surface="P2",
                             formula="euler", n=2))
        assert code == EXIT_OK
        assert text == "9\n# seed 0\n"

    def test_vw_zero_at_nonzero_dimension(self):
        code, text = run(job(command="vw", surface="P2", beta=[1], n=0))
        assert code == EXIT_OK
        assert text == "0\n# seed 0\n"

    def test_verify_suites_green(self):
        for suite in ("porteous", "delta", "segre", "euler",
                      "characters"):
            code, text = run(job(command="verify", suite=suite))
            assert code == EXIT_OK, suite
            assert "all green" in text and "FAIL" not in text

    def test_vw_supplied_table_csv(self):
        sw = {"entries": [{"beta": ["0"], "sw": "1"}]}
        code, text = run(job(command="vw", surface="P2", beta=[0],
                             n=[0, 2], sw=sw, format="csv"))
        assert code == EXIT_OK
        lines = text.splitlines()
        assert lines[0] == "# seed 0"
        assert lines[1] == "beta,n,n1,n2,value,t_order"
        totals = [ln for ln in lines if ",,," in ln]
        values = [ln.split(",")[4] for ln in totals]
        assert values == ["1/1024", "-9/512", "69/512"]
        for ln in lines[2:]:
            parse_rational(ln.split(",")[4])

    def test_vw_text_same_at_every_order(self):
        # the contributions integrate only vd(beta) = 0 classes, exact
        # rationals: --order sets the t_order column, which text omits
        sw = {"entries": [{"beta": [0, 0], "sw": 1}]}
        outputs = [run(job(command="vw", surface="P1xP1", beta=[0, 0],
                           n=[0, 2], sw=sw, order=order))
                   for order in (0, 3)]
        assert outputs[0] == outputs[1] \
            == (EXIT_OK, "-1/512\n1/32\n-27/128\n# seed 0\n")

    def test_weight_dependent_integral_needs_order(self):
        # c_1 of a line with circle weight integrates to t at n = 0: no
        # exact rational at --order 0, its coefficients at --order 2
        tree = {"kind": "chern", "params": [1], "children": [
            {"kind": "leaf", "params": ["pushO"], "attrs": {"tp": 1}}]}
        spec = dict(command="integrate", surface="P2", formula="custom",
                    n=[0, 1], params={"expr": tree})
        code, text = run(job(order=0, **spec))
        assert code == EXIT_MATH
        assert json.loads(text)["error"]["message"] \
            == "result depends on the auxiliary weight"
        assert run(job(order=2, **spec)) == (EXIT_OK, "0 1 0\n0\n# seed 0\n")

    def test_vw_missing_entry_exits_schema(self):
        with pytest.raises(SchemaError, match="missing SW entry"):
            job(command="vw", surface="P2", beta=[0], n=0)

    @pytest.mark.parametrize("fields", [
        # vd(2 K) = 1 on a general-type profile
        dict(surface="general_type:1", beta=[2]),
        # outside the slope window
        dict(surface="P2", beta=[0], params={"window": [0, -3]}),
        dict(surface="K3", beta=[0], params={"window": [0, -3]}),
        # a zero entry
        dict(surface="K3", beta=[0], sw={"entries": [{"beta": [0],
                                                      "sw": 0}]}),
    ])
    def test_vw_class_not_integrated_needs_no_entry_or_toric_surface(
            self, fields):
        assert run(job(command="vw", n=[0, 1], **fields)) \
            == (EXIT_OK, "0\n0\n# seed 0\n")

    def test_fit_default_runs(self):
        code, text = run(job(command="fit", n=0, format="json"))
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["residual"] == "0"
        assert doc["runs"] == 6 and doc["seed"] == 0
        assert set(doc["monomials"]) \
            == {"1", "c1sq", "betasq", "c1beta"}

    def test_default_monomials_are_known(self):
        # JobSpec checks only the monomials a job supplies, against the
        # one list in vw; the default must come from that list
        assert set(cli.DEFAULT_FIT_MONOMIALS) <= set(MONOMIALS)

    def test_fit_rank_deficient_design_exits_residual(self):
        params = {"monomials": ["1", "c1sq", "c2", "betasq", "c1beta"]}
        code, text = run(job(command="fit", n=0, params=params))
        assert code == EXIT_RESIDUAL
        assert json.loads(text)["error"]["code"] == EXIT_RESIDUAL

    def test_fit_names_noether_when_c2_cannot_separate(self, tmp_path,
                                                       capsys):
        # every default run is toric, chi(O) = 1
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"monomials": [
            "1", "c1sq", "c2", "betasq", "c1beta"]}}))
        code = main(["fit", "--n", "0", "--job", str(path)])
        assert code == EXIT_RESIDUAL
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message.startswith("insufficient surface spread")
        assert "c1^2 + c2 = 12 chi(O) = 12 on every run" in message

    def test_fit_refuses_design_before_integrating(self, tmp_path, capsys,
                                                   monkeypatch):
        # the Noether and rank checks read the design rows only, so no
        # point contribution is computed for a design they refuse
        from nesthilb import vw
        calls = []
        monkeypatch.setattr(vw, "point_contribution",
                            lambda *a, **k: calls.append(a))
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"monomials": [
            "1", "c1sq", "c2", "betasq", "c1beta"]}}))
        code = main(["fit", "--n", "2", "--job", str(path)])
        assert code == EXIT_RESIDUAL
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert "c1^2 + c2 = 12 chi(O) = 12 on every run" in message
        assert calls == []

    def test_push_porteous_class(self):
        code, text = run(job(command="push",
                             formula="porteous:2,2,3", format="json"))
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["class"] == [["c3^2", "1"], ["c2*c4", "-1"]]
        assert doc["codim"] == 6
        code, text = run(job(command="push", formula="porteous:1,1,2",
                             format="json"))
        assert json.loads(text)["class"] == [["c2", "1"]]

    def test_push_reduced_tree(self):
        code, text = run(job(command="push", formula="reduced",
                             surface="P2", beta=[1], n2=1,
                             params={"h2_vanishing": True},
                             format="json"))
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["expr"]["kind"]
        assert set(doc["info"]) == {"d", "reduced_vd", "degree"}
        # its leaves, each with "lvl": 0, resolve where there are
        # section lines and a polarization
        LocalizationContext(p2(), beta=(1,), A=(1,), with_pb=(1,)).resolve(
            expr_from_json(doc["expr"]))

    def test_integrate_co_vanishing(self):
        code, text = run(job(command="integrate", surface="P2",
                             formula="co:2", beta=[1], n=1))
        assert code == EXIT_OK
        assert text.splitlines()[0] == "0"

    def test_unknown_formula_exits_schema(self, capsys):
        code = main(["push", "--formula", "mystery"])
        assert code == EXIT_SCHEMA
        assert json.loads(capsys.readouterr().out)["error"]["code"] \
            == EXIT_SCHEMA

    def test_byte_reproducible(self):
        spec = dict(command="fit", n=0, format="json", seed=3)
        assert run(job(**spec)) == run(job(**spec))

    def test_seed_recorded(self):
        code, text = run(job(command="vw", surface="P2", beta=[1],
                             n=0, seed=5))
        assert text.endswith("# seed 5\n")
        code, text = run(job(command="vw", surface="P2", beta=[1],
                             n=0, seed=5, format="json"))
        assert json.loads(text)["seed"] == 5


# the JSON document of a vw job over P2, class 0 with invariant 2, at
# n = 1 and --order 2
VW_JSON_ROWS = """{
  "columns": [
    "beta",
    "n",
    "n1",
    "n2",
    "value",
    "t_order"
  ],
  "command": "vw",
  "rows": [
    {
      "beta": "0",
      "n": 1,
      "n1": 0,
      "n2": 1,
      "t_order": 2,
      "value": "0"
    },
    {
      "beta": "0",
      "n": 1,
      "n1": 1,
      "n2": 0,
      "t_order": 2,
      "value": "-9/512"
    },
    {
      "beta": "0",
      "n": 1,
      "n1": "",
      "n2": "",
      "t_order": 2,
      "value": "-9/256"
    }
  ],
  "seed": 0,
  "surface": "P2"
}"""


class TestOutputForms:
    """CSV output of every command, the fundamental class over an n
    range, and a vw window given on the command line's job file."""

    @pytest.mark.parametrize("argv,header,row", [
        (["verify", "--suite", "porteous"], "check,status", None),
        (["push", "--formula", "porteous:1,1,2"], "term,coeff", "c2,1"),
        (["fit", "--n", "1"], "monomial,coefficient", None),
    ])
    def test_csv_header(self, argv, header, row, capsys):
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# seed 0", header]
        assert len(lines) > 2
        if row is not None:
            assert lines[2:] == [row]

    def test_fundamental_class_over_a_range(self, capsys):
        assert main(["integrate", "--surface", "P2", "--formula", "one",
                     "--n", "0:2"]) == EXIT_OK
        assert capsys.readouterr().out == "1\n0\n0\n# seed 0\n"

    def test_vw_window_from_job_file(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"window": ["1/2", 3]},
                                    "sw": SW_P2["sw"]}))
        assert main(["vw", "--surface", "P2", "--beta", "0", "--n", "0:1",
                     "--job", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "1/1024\n-9/512\n# seed 0\n"

    @pytest.mark.parametrize("argv,want", [
        (["--n", "0:1", "--format", "csv"], [
            "# seed 0", "beta,n,n1,n2,value,t_order", "0,0,0,0,1/1024,0",
            "0,0,,,1/512,0", "0,1,0,1,0,0", "0,1,1,0,-9/512,0",
            "0,1,,,-9/256,0"]),
        (["--n", "1", "--format", "json", "--order", "2"],
         VW_JSON_ROWS.splitlines()),
    ])
    def test_vw_rows(self, argv, want, tmp_path, capsys):
        # the whole output: per n, one row per splitting, sorted, then
        # the total with blank n1 and n2
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"sw": {"entries": [{"beta": [0],
                                                        "sw": 2}]}}))
        assert main(["vw", "--surface", "P2", "--beta", "0", "--job",
                     str(path)] + argv) == EXIT_OK
        assert capsys.readouterr().out == "".join(
            line + "\n" for line in want)


class TestPolarizationTwist:
    """c_2k of chi(L) - Rhom(I, I L) on (P1xP1)^[k] with L twisted by
    the polarization A = (1, 1), through a custom tree and the n1/n2
    flags.  Carlsson-Okounkov: its integral is the q^k coefficient of
    prod_m (1 - q^m)^-(e + L.(L - K)), with e + L.(L - K) = 4 + 6."""

    @staticmethod
    def integrate(tmp_path, k, attr, flags):
        tree = FE.chern(2 * k, FE.kdiff(pushO(**{attr: 1}),
                                        rhom(1, 1, **{attr: 1})))
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"expr": expr_to_json(tree)}}))
        return main(["integrate", "--formula", "custom", "--surface",
                     "P1xP1", "--n", str(k), "--n1", str(k), "--n2", "0",
                     "--job", str(path)] + flags)

    @pytest.mark.parametrize("k,want", [(1, 10), (2, 65), (3, 330)])
    def test_twist_by_polarization(self, k, want, tmp_path, capsys):
        assert want == _series_coefficient(10, k)
        # the same class as the curve class beta gives the same number
        for attr, flags in (("ac", ["--A", "1,1"]), ("bc", ["--beta", "1,1"])):
            assert self.integrate(tmp_path, k, attr, flags) == EXIT_OK
            assert capsys.readouterr().out == "%d\n# seed 0\n" % want

    def test_unbound_polarization_is_a_schema_error(self, tmp_path, capsys):
        # the leaf is resolved against the job's A before any point
        assert self.integrate(tmp_path, 1, "ac", []) == EXIT_SCHEMA
        assert json.loads(capsys.readouterr().out)["error"]["message"] \
            == ("params.expr.children[0].children[0]: twist references an"
                " unbound polarization")


def chern1(node):
    """The JSON form of c_1 of the K-class node."""
    return {"kind": "chern", "params": [1], "children": [node]}


# a P2 fan whose table gives class 1, of virtual dimension 2, an invariant
P2_VD_BREACH = dict(P2_SW_CLASS_ZERO, sw_table=[{"beta": [1], "sw": 5}])
VD_RULE = "invariant must vanish at nonzero virtual dimension (class (1))"
SW_VD_BREACH = {"sw": {"entries": [{"beta": [1], "sw": 1}]}}


def fan(rays, basis):
    return {"surface": {"name": "x", "rays": rays, "basis": basis}}


# jobs outside the math's domain, with the message the math would raise
OUT_OF_DOMAIN = [
    ({"command": "integrate", "surface": "K3", "formula": "euler", "n": 1},
     "localization needs a toric surface"),
    ({"command": "integrate", "surface": "elliptic", "formula": "co:0",
      "beta": [0], "n": 1}, "localization needs a toric surface"),
    ({"command": "push", "formula": "porteous:0,0,0"},
     "kernel rank out of range"),
    ({"command": "push", "formula": "porteous:2,0,1"},
     "kernel rank out of range"),
    ({"command": "push", "formula": "porteous:1,-1,0"},
     "kernel rank out of range"),
    ({"command": "push", "formula": "porteous:1,3,0"},
     "negative expected codimension"),
    ({"command": "fit", "n": 0, "runs": [["K3", [0]], ["P2", [1]]]},
     "point contributions need a toric surface or a value in the run"),
    ({"command": "push", "formula": "reduced", "surface": "P2",
      "beta": [1], "n2": 1},
     "reduced formula needs the H2-vanishing flag"),
    # K3's own table gives class 0 the invariant 1
    ({"command": "vw", "surface": "K3", "beta": [0], "n": 0},
     "point contributions need a toric surface"),
]


class TestMain:
    def test_flag_example(self, capsys):
        code = main(["integrate", "--surface", "P2", "--formula",
                     "euler", "--n", "2"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "9\n# seed 0\n"

    def test_missing_sw_entry_names_the_class_in_p_q(self, capsys):
        # P2's own table has no entry for class 0
        code = main(["vw", "--surface", "P2", "--beta", "0", "--n", "0:1"])
        assert code == EXIT_SCHEMA
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == "missing SW entry for class (0)"
        assert "Fraction(" not in message

    def test_job_file_with_override(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(
            {"command": "vw", "surface": "P2", "beta": [1], "n": 0,
             "seed": 1}))
        code = main(["vw", "--job", str(path), "--seed", "2"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "0\n# seed 2\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.txt"
        code = main(["vw", "--surface", "P2", "--beta", "1", "--n",
                     "0", "--out", str(target)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_text() == "0\n# seed 0\n"

    def test_unwritable_out_is_schema_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "result.txt"
        code = main(["integrate", "--surface", "P2", "--formula", "euler",
                     "--n", "1", "--out", str(target)])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["code"] == EXIT_SCHEMA
        assert captured.err == ""

    def test_schema_error_json(self, capsys):
        code = main(["integrate", "--surface", "P2", "--formula",
                     "euler"])
        assert code == EXIT_SCHEMA
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == EXIT_SCHEMA

    def test_non_integral_class_is_schema_error(self, capsys):
        code = main(["vw", "--surface", "P2", "--beta", "1/2", "--n",
                     "0:1"])
        assert code == EXIT_SCHEMA
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == EXIT_SCHEMA
        assert "non-integral" in doc["error"]["message"]

    @pytest.mark.parametrize("expr", [{"foo": 1}, "x", {"kind": "leaf"}])
    def test_malformed_custom_expr_is_schema_error(self, expr, tmp_path,
                                                   capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(
            {"command": "integrate", "surface": "P2", "formula": "custom",
             "n": 1, "params": {"expr": expr}}))
        code = main(["integrate", "--job", str(path)])
        assert code == EXIT_SCHEMA
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == EXIT_SCHEMA
        assert doc["error"]["message"].startswith("params.expr")

    @pytest.mark.parametrize("expr,message", [
        ({"kind": "euler", "children": [{"kind": "leaf", "params": ["sw"]}]},
         "params.expr.children[0]: leaf 'sw' has no equivariant value"),
        ({"kind": "euler", "children": [
            {"kind": "leaf", "params": ["picpoint"]}]},
         "params.expr.children[0]: leaf 'picpoint' has no equivariant"
         " value"),
        ({"kind": "push", "params": [0], "children": [{"kind": "one"}]},
         "params.expr: unknown kind 'push'"),
    ])
    def test_tree_without_equivariant_value_is_schema_error(
            self, expr, message, tmp_path, capsys):
        # trees that localization cannot evaluate: formal leaves, and
        # the bundle pushforward no command builds, exit 2 with nothing
        # on stderr
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"expr": expr}}))
        code = main(["integrate", "--surface", "P2", "--formula", "custom",
                     "--n", "1", "--job", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_SCHEMA
        assert captured.err == ""
        assert json.loads(captured.out)["error"] \
            == {"code": EXIT_SCHEMA, "message": message}

    @pytest.mark.parametrize("expr,message", [
        # attributes of the wrong type
        (chern1({"kind": "leaf", "params": ["pushO"],
                 "attrs": {"tp": "1/2"}}),
         "params.expr.children[0]: leaf 'pushO': attr 'tp' must be an"
         " integer"),
        (chern1({"kind": "leaf", "params": ["rhom0"],
                 "attrs": {"i": 1, "j": 1, "kc": [0]}}),
         "params.expr.children[0]: leaf 'rhom0': attr 'kc' must be a"
         " rational"),
        (chern1({"kind": "leaf", "params": ["taut"],
                 "attrs": {"a": 1, "level": 2}}),
         "params.expr.children[0]: leaf 'taut': attr 'a' must be a class"
         " vector of length 1"),
        # leaves that do not resolve in the job
        (chern1({"kind": "leaf", "params": ["rhom"],
                 "attrs": {"i": 3, "j": 1}}),
         "params.expr.children[0]: nesting index out of range for"
         " localization"),
        (chern1({"kind": "leaf", "params": ["O1"]}),
         "params.expr.children[0]: no projective bundle level in this"
         " problem"),
        # an attribute outside the leaf's set, and a section level
        # other than 0, which were once ignored
        (chern1({"kind": "leaf", "params": ["pushO"], "attrs": {"pt": 1}}),
         "params.expr.children[0]: leaf 'pushO': unknown attr 'pt'"),
        (chern1({"kind": "leaf", "params": ["tangent"],
                 "attrs": {"lvl": 5}}),
         "params.expr.children[0]: leaf 'tangent': unknown attr 'lvl'"),
        (chern1({"kind": "leaf", "params": ["rhom"],
                 "attrs": {"i": 1, "j": 2, "lvl": 5}}),
         "params.expr.children[0]: leaf 'rhom': attr 'lvl' must be 0"),
        (chern1({"kind": "leaf", "params": ["taut"],
                 "attrs": {"a": [1], "level": 2, "i": 1}}),
         "params.expr.children[0]: leaf 'taut': unknown attr 'i'"),
        # nodes no command builds, or out of their place
        ({"kind": "cap", "children": [{"kind": "one"}, {"kind": "one"}]},
         "params.expr: unknown kind 'cap'"),
        ({"kind": "euler", "children": [{"kind": "one"}]},
         "params.expr.children[0]: one is a class node where a K-class is"
         " wanted"),
        ({"kind": "ksum", "children": []},
         "params.expr: ksum is a K-class node where a class is wanted"),
        ({"kind": "leaf", "params": ["tangent"]},
         "params.expr: leaf is a K-class node where a class is wanted"),
    ])
    def test_malformed_custom_integrand_exits_at_schema(
            self, expr, message, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"expr": expr}}))
        code = main(["integrate", "--surface", "P2", "--beta", "1",
                     "--formula", "custom", "--n", "1", "--job", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_SCHEMA
        assert captured.err == ""
        assert json.loads(captured.out)["error"] \
            == {"code": EXIT_SCHEMA, "message": message}

    @pytest.mark.parametrize("doc", [
        {"command": "fit", "n": 1, "params": {"monomials": 5}},
        {"command": "fit", "n": 1, "params": {"monomials": ["foo"]}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "params": {"window": 7}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "params": {"window": [1]}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "sw": {"entries": 5}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "sw": {"entries": [{"beta": [0], "sw": "1/0"}]}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "sw": {"entries": [{"beta": ["1/0"], "sw": 1}]}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "sw": {"entries": [{"beta": [0], "sw": 1, "higher": "12"}]}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "sw": {"entries": [{"beta": [0, 1], "sw": 1}]}},
        {"command": "vw", "beta": [0], "n": 0,
         "surface": {"name": "P2", "rays": [[1, 0], [0, 1], [-1, -1]],
                     "basis": [0],
                     "sw_table": [{"beta": ["0", "1"], "sw": "1"}]}},
        {"command": "fit", "n": 0, "params": {"monomials": []}},
        {"command": "vw", "beta": [0], "n": 0,
         "surface": {"name": "x", "rays": [[1], [0, 1], [-1, -1]]}},
        {"command": "vw", "beta": [0], "n": 0,
         "surface": {"name": "x", "rays": [[1, 0], [0, 1], [-1, -1]],
                     "basis": 5}},
        {"command": "vw", "beta": [0], "n": 0,
         "surface": {"name": "x", "profile": {"chiO": 1, "K2": None,
                                              "e": 3, "q": 0, "pg": 0}}},
        {"command": "fit", "n": 0,
         "runs": [[{"rays": [[1, 0], [0, 1], [-1, -1]]}, [1]]]},
        {"command": "fit", "n": 0, "runs": [[5, [1]]]},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "sw": {"entries": [{"beta": [0], "sw": 1}],
                "higher_mode": "no"}},
        {"command": "push", "formula": "reduced", "surface": "P2",
         "beta": [1], "n2": 1, "params": {"h2_vanishing": "no"}},
        {"command": "fit", "n": 0, "params": {"monomial": ["1"]}},
        {"command": "vw", "surface": "P2", "beta": [0], "n": 0,
         "sw": {"entries": [{"beta": [0], "sw": 1}],
                "higher-mode": True}},
    ] + [doc for doc, _ in OUT_OF_DOMAIN])
    def test_malformed_params_and_sw_are_schema_errors(self, doc, tmp_path,
                                                       capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        code = main([doc["command"], "--job", str(path)])
        assert code == EXIT_SCHEMA
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == EXIT_SCHEMA

    @pytest.mark.parametrize("doc,message", OUT_OF_DOMAIN)
    def test_out_of_domain_jobs_keep_the_math_message(self, doc, message,
                                                      tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        assert main([doc["command"], "--job", str(path)]) == EXIT_SCHEMA
        assert json.loads(capsys.readouterr().out)["error"]["message"] \
            == message

    @pytest.mark.parametrize("doc", [
        # S^[1] x S^[1] would be printed once per n, labelled n = 0, 1, 2
        {"n": "0:2", "n1": 1, "n2": 1, "formula": "custom",
         "params": {"expr": {"kind": "one"}}},
        {"n": 1, "n1": 1, "formula": "euler"},
    ])
    def test_integrate_n1_n2_need_custom_and_one_n(self, doc, tmp_path,
                                                   capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(doc, surface="P2")))
        code = main(["integrate", "--job", str(path)])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["code"] == EXIT_SCHEMA
        assert "'n1' and 'n2'" in json.loads(captured.out)["error"]["message"]
        assert captured.err == ""

    def test_custom_expr_parsed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        parse = cli.expr_from_json
        monkeypatch.setattr(cli, "expr_from_json",
                            lambda *a: calls.append(a) or parse(*a))
        path = tmp_path / "job.json"
        path.write_text(json.dumps(
            {"command": "integrate", "surface": "P2", "formula": "custom",
             "n": "0:3", "params": {"expr": {"kind": "one"}}}))
        assert main(["integrate", "--job", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "1\n0\n0\n0\n# seed 0\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("argv,doc,message", [
        (["integrate", "--surface", "P2", "--formula", "euler", "--n",
          "0:1:2"], None, "field 'n' range must be a pair"),
        (["fit", "--n", "1"], {"runs": 5},
         "field 'runs' must be a nonempty list"),
        (["fit", "--n", "1"], {"runs": [["P2"]]},
         "each run is [surface, beta] or [surface, beta, value]"),
        (["fit", "--n", "1"], {"runs": [["P2", [1], "x"]]},
         "run value 'x' is not rational"),
        (["fit", "--n", "1"], [1, 2], "job file must hold a JSON object"),
        (["push"], {"formula": 5}, "field 'formula' must be a string"),
        (["push", "--formula", "porteous:1,x,2"], None,
         "formula argument 'x' is not an integer"),
        (["push", "--formula", "porteous:1,2"], None,
         "formula 'porteous' takes r,e0,e1"),
        (["push", "--formula", "reduced", "--surface", "P2"], None,
         "formula 'reduced' needs surface and beta"),
        (["integrate", "--formula", "co", "--surface", "P2", "--beta", "1",
          "--n", "1"], None, "formula 'co' takes the shift i"),
        (["integrate", "--formula", "co:0", "--surface", "P2", "--n", "1"],
         None, "formula 'co' needs beta"),
        (["push", "--formula", "reduced", "--surface", "P2", "--beta", "1",
          "--format", "csv"], {"params": {"h2_vanishing": True}},
         "format 'csv' fits only polynomial output"),
        (["integrate", "--surface", "P2", "--formula", "euler:7", "--n",
          "2"], None, "formula 'euler' takes no arguments"),
        (["integrate", "--surface", "P2", "--formula", "one:1", "--n",
          "2"], None, "formula 'one' takes no arguments"),
        (["integrate", "--surface", "P2", "--formula", "custom:2", "--n",
          "2"], PER_POINT, "formula 'custom' takes no arguments"),
        (["push", "--formula", "reduced:9", "--surface", "P2", "--beta", "1",
          "--n1", "1", "--n2", "1"], {"params": {"h2_vanishing": True}},
         "formula 'reduced' takes no arguments"),
        # a Seiberg-Witten table is refused where it is parsed, whatever
        # the command
        (["integrate", "--formula", "euler", "--n", "1"],
         {"surface": P2_VD_BREACH}, "bad surface: " + VD_RULE),
        (["vw", "--beta", "0", "--n", "1"], {"surface": P2_VD_BREACH},
         "bad surface: " + VD_RULE),
        (["vw", "--beta", "0", "--n", "1"],
         {"surface": P2_VD_BREACH, "sw": {"entries": []}},
         "bad surface: " + VD_RULE),
        (["fit", "--n", "1"], {"runs": [[P2_VD_BREACH, [1]], ["P2", [2]]]},
         "bad surface in runs: " + VD_RULE),
        (["vw", "--surface", "P2", "--beta", "0", "--n", "1"], SW_VD_BREACH,
         "field 'sw.entries': " + VD_RULE),
        (["integrate", "--surface", "P2", "--formula", "euler", "--n", "1"],
         SW_VD_BREACH, "field 'sw.entries': " + VD_RULE),
        # a fan holds integer pairs and integer ray indices
        (["integrate", "--formula", "euler", "--n", "1"],
         fan([[1.5, 0], [0, 1], [-1, -1]], [0]),
         "bad surface: ray [1.5, 0] is not a pair of integers"),
        (["integrate", "--formula", "euler", "--n", "1"],
         fan([[True, 0], [0, 1], [-1, -1]], [0]),
         "bad surface: ray [True, 0] is not a pair of integers"),
        (["integrate", "--formula", "euler", "--n", "1"],
         fan([[1, 0, 0], [0, 1], [-1, -1]], [0]),
         "bad surface: ray [1, 0, 0] is not a pair of integers"),
        (["integrate", "--formula", "euler", "--n", "1"],
         fan([[1, 0], [0, 1], [-1, -1]], [True]),
         "bad surface: basis indices must be integers from 0 to 2"),
        # a leaf that does not resolve is named by its path
        (["integrate", "--surface", "P2", "--formula", "custom", "--n", "0"],
         {"params": {"expr": chern1({"kind": "leaf", "params": ["pushO"],
                                     "attrs": {"pt": 1}})}},
         "params.expr.children[0]: leaf 'pushO': unknown attr 'pt'"),
    ])
    def test_schema_boundary_messages(self, argv, doc, message, tmp_path,
                                      capsys):
        if doc is not None:
            path = tmp_path / "job.json"
            path.write_text(json.dumps(doc))
            argv = argv + ["--job", str(path)]
        assert main(argv) == EXIT_SCHEMA
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["code"], error["message"]) == (EXIT_SCHEMA, message)

    def test_missing_job_file(self, tmp_path, capsys):
        code = main(["vw", "--job", str(tmp_path / "missing.json")])
        assert code == EXIT_SCHEMA
        assert json.loads(capsys.readouterr().out)["error"]["message"] \
            .startswith("cannot read job file:")

    def test_malformed_job_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code = main(["vw", "--job", str(path)])
        assert code == EXIT_SCHEMA
        assert "not valid JSON" \
            in json.loads(capsys.readouterr().out)["error"]["message"]

    @staticmethod
    def dual_chain(duals, wrap):
        """euler(dual^duals(tangent)), inside a one-child add if wrap."""
        node = {"kind": "leaf", "params": ["tangent"]}
        for _ in range(duals):
            node = {"kind": "dual", "children": [node]}
        node = {"kind": "euler", "children": [node]}
        return {"kind": "add", "children": [node]} if wrap else node

    @pytest.mark.parametrize("args,message", [
        (["integrate", "--job", "{path}"], "job file nests too deeply"),
        (["integrate", "--surface", "{path}", "--formula", "euler", "--n",
          "0:1"], "bad surface: surface file nests too deeply"),
    ])
    def test_deep_json_documents_are_schema_errors(self, args, message,
                                                   tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        code = main([a.format(path=path) for a in args])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == {
            "code": EXIT_SCHEMA, "message": message}
        assert captured.err == ""

    @pytest.mark.parametrize("duals,wrap,ok", [
        # euler, 198 duals and the leaf: exactly MAX_DEPTH nodes deep, on
        # the chart-factor path and, one dual fewer, on the per-point one
        (198, False, True), (197, True, True),
        (199, False, False), (198, True, False), (450, False, False)])
    def test_custom_expr_depth_bounded(self, duals, wrap, ok, tmp_path,
                                       capsys):
        assert MAX_DEPTH == 200
        path = tmp_path / "job.json"
        path.write_text(json.dumps(
            {"command": "integrate", "surface": "P2", "formula": "custom",
             "n": "0:2", "params": {"expr": self.dual_chain(duals, wrap)}}))
        code = main(["integrate", "--job", str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        if ok:
            # e(T dual) = e(T) on even-dimensional S^[n]
            assert (code, captured.out) == (EXIT_OK, "1\n3\n9\n# seed 0\n")
        else:
            assert code == EXIT_SCHEMA
            message = json.loads(captured.out)["error"]["message"]
            assert message.startswith("params.expr.children[0]")
            assert message.endswith(": tree deeper than 200 nodes")

    def test_depth_error_names_the_path_briefly(self, tmp_path, capsys):
        # euler over a chain of 199 duals, 201 nodes deep: the message
        # names the root, the first and last segments and the depth,
        # not all 200 segments
        node = self.dual_chain(199, False)
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"expr": node}}))
        code = main(["integrate", "--surface", "P2", "--formula", "custom",
                     "--n", "0:1", "--job", str(path)])
        assert code == EXIT_SCHEMA
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == ("params.expr.children[0]...children[0]"
                           " (depth 201): tree deeper than 200 nodes")
        assert len(message) < 300

    def test_deep_leaf_error_names_the_path_briefly(self, tmp_path, capsys):
        # a leaf that does not resolve under euler and 9 duals is named
        # like a grammar error that deep
        node = {"kind": "leaf", "params": ["pushO"], "attrs": {"pt": 1}}
        for _ in range(9):
            node = {"kind": "dual", "children": [node]}
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"expr": {
            "kind": "euler", "children": [node]}}}))
        code = main(["integrate", "--surface", "P2", "--formula", "custom",
                     "--n", "0", "--job", str(path)])
        assert code == EXIT_SCHEMA
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == ("params.expr.children[0]...children[0]"
                           " (depth 11): leaf 'pushO': unknown attr 'pt'")

    def test_deep_grammar_error_names_the_path_briefly(self, tmp_path,
                                                       capsys):
        # euler over 197 duals ending in an unknown kind, inside the
        # depth bound: the grammar error is named like the depth error
        node = {"kind": "bogus"}
        for _ in range(197):
            node = {"kind": "dual", "children": [node]}
        node = {"kind": "euler", "children": [node]}
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"params": {"expr": node}}))
        code = main(["integrate", "--surface", "P2", "--formula", "custom",
                     "--n", "0:1", "--job", str(path)])
        assert code == EXIT_SCHEMA
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert message == ("params.expr.children[0]...children[0]"
                           " (depth 199): unknown kind 'bogus'")
        assert len(message) < 300


# ---------------------------------------------------------------------------
# the CLI contract on random job documents

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                 st.sampled_from(["", "x", "1/0", "0:1"]),
                 st.lists(st.integers(-1, 2), max_size=2), st.just({}))
SMALL = st.integers(-2, 3)
VECTORS = st.one_of(st.lists(SMALL, min_size=1, max_size=3),
                    st.sampled_from(["1", "0,1", "1,1", "1/2", "x"]), JUNK)
FANS = st.one_of(
    st.sampled_from([[[1, 0], [0, 1], [-1, -1]],
                     [[1, 0], [0, 1], [-1, 0], [0, -1]],
                     [[1], [0, 1], [-1, -1]], [[1, 0], [0, 1]]]),
    st.lists(st.lists(SMALL, max_size=3), max_size=5), JUNK)
PROFILES = st.one_of(
    st.sampled_from([{"chiO": 1, "K2": 9, "e": 3, "q": 0, "pg": 0},
                     {"chiO": 2, "K2": 0, "e": 24, "q": 0, "pg": 1},
                     {"chiO": 1, "K2": None, "e": 3, "q": 0, "pg": 0},
                     {"chiO": 1}]), JUNK)
SW_ENTRIES = st.one_of(
    st.lists(st.fixed_dictionaries(
        {"beta": VECTORS, "sw": st.one_of(SMALL, st.sampled_from(["1/0"]))},
        optional={"higher": st.one_of(st.lists(SMALL, max_size=2), JUNK)}),
        max_size=2), JUNK)
SURFACES = st.one_of(
    st.sampled_from(["P2", "P1xP1", "F1", "F2", "K3", "elliptic",
                     "general_type:2,3", "general_type:x", "QX"]),
    st.fixed_dictionaries({}, optional={
        "name": st.one_of(st.just("S"), JUNK), "rays": FANS,
        "basis": st.one_of(st.lists(st.integers(-1, 4), max_size=3), JUNK),
        "profile": PROFILES, "sw_table": SW_ENTRIES}),
    JUNK)
# custom integrands: leaves of the localization's vocabulary (and one
# it lacks) whose attributes, known to some leaf or to none, take every
# JSON type, at the nesting levels 1 or 2 of the leaves that read them
# unless an attribute overrides them, under K-level nodes, under chern
# and euler, and under products and sums; EXPRS draws a K-class tree as
# the integrand too
ATTR_VALUES = st.one_of(
    st.integers(-1, 3), st.sampled_from(["1/2", "-1", "x", "1/0"]),
    st.lists(st.one_of(st.integers(-1, 2), st.just("1/2")), max_size=2),
    st.sampled_from([None, True, 1.5, {}]))
LEVELS = st.sampled_from([1, 2])
LEVEL_KEYS = {"rhom": ("i", "j"), "rhom0": ("i", "j"), "taut": ("level",)}
LEAVES = st.sampled_from(["tangent", "taut", "rhom", "rhom0", "pushO",
                          "O1", "sw"]).flatmap(lambda name: st.builds(
    lambda levels, attrs: {"kind": "leaf", "params": [name],
                           "attrs": dict(levels, **attrs)},
    st.fixed_dictionaries({k: LEVELS for k in LEVEL_KEYS.get(name, ())}),
    st.dictionaries(st.sampled_from(["i", "a", "bc", "ac", "kc", "o1",
                                     "tp", "lvl", "pt"]),
                    ATTR_VALUES, max_size=2)))
K_TREES = st.recursive(LEAVES, lambda sub: st.one_of(
    st.lists(sub, max_size=2).map(lambda xs: {"kind": "ksum",
                                              "children": xs}),
    st.lists(sub, min_size=2, max_size=2).map(lambda xs: {"kind": "kdiff",
                                                          "children": xs}),
    sub.map(lambda x: {"kind": "dual", "children": [x]})), max_leaves=3)
CUSTOM_TREES = st.recursive(
    st.one_of(st.just({"kind": "one"}),
              st.tuples(st.integers(0, 2), K_TREES).map(
                  lambda t: {"kind": "chern", "params": [t[0]],
                             "children": [t[1]]}),
              K_TREES.map(lambda x: {"kind": "euler", "children": [x]})),
    lambda sub: st.lists(sub, max_size=2).flatmap(
        lambda xs: st.sampled_from([{"kind": "mul", "children": xs},
                                    {"kind": "add", "children": xs}])),
    max_leaves=3)
EXPRS = st.one_of(st.sampled_from([
    {"kind": "one"},
    {"kind": "euler", "children": [{"kind": "leaf", "params": ["tangent"]}]},
    {"kind": "leaf", "params": ["taut"]}, {"foo": 1}, "x"]), CUSTOM_TREES,
    K_TREES)
FIELD_VALUES = {
    "surface": SURFACES, "beta": VECTORS, "A": VECTORS,
    "n": st.one_of(st.integers(-1, 1),
                   st.sampled_from(["0:1", "1:0", "0", "x", [0, 1], [0]]),
                   JUNK),
    "n1": st.one_of(st.integers(-1, 1), JUNK),
    "n2": st.one_of(st.integers(-1, 1), JUNK),
    "formula": st.one_of(st.sampled_from(
        ["euler", "one", "co", "co:0", "co:1", "co:x", "custom",
         "porteous:1,1,1", "porteous:1,2,2", "porteous:1,1",
         "porteous:0,0,0", "reduced", "mystery", ""]), JUNK),
    "suite": st.one_of(st.sampled_from(["segre", "characters", "x"]), JUNK),
    "format": st.one_of(st.sampled_from(["text", "csv", "json", "xml"]),
                        JUNK),
    "order": st.one_of(st.integers(-1, 2), JUNK),
    "seed": st.one_of(st.integers(0, 3), JUNK),
    "threads": st.one_of(st.just(1), JUNK),
    # never a path or a small integer: the job would write a file or an
    # open descriptor
    "out": st.sampled_from([None, [], {}, 1.5]),
    "runs": st.one_of(st.lists(st.one_of(
        st.tuples(SURFACES, VECTORS).map(list),
        st.tuples(SURFACES, VECTORS, st.one_of(SMALL, JUNK)).map(list),
        JUNK), max_size=3), JUNK),
    "sw": st.one_of(st.fixed_dictionaries({}, optional={
        "entries": SW_ENTRIES,
        "higher_mode": st.one_of(st.booleans(), JUNK)}), JUNK),
    "params": st.one_of(st.fixed_dictionaries({}, optional={
        "expr": EXPRS,
        "monomials": st.one_of(st.lists(st.sampled_from(
            ["1", "c1sq", "betasq", "c1beta", "c2", "foo"]), max_size=4),
            JUNK),
        "window": st.one_of(st.lists(st.sampled_from(["0", "1/2", "x"]),
                                     max_size=3), JUNK),
        "h2_vanishing": st.one_of(st.booleans(), JUNK)}), JUNK),
    "evaluator": JUNK, "extra": JUNK,
}
# one well-formed job of each kind; an example overrides up to three of
# its fields and may run it under another command
BASES = [
    ("verify", {"suite": "segre"}),
    ("verify", {"suite": "characters"}),
    ("push", {"formula": "porteous:1,1,1"}),
    ("push", {"formula": "reduced", "surface": "P2", "beta": [1], "n2": 1,
              "params": {"h2_vanishing": True}}),
    ("integrate", {"surface": "P2", "formula": "euler", "n": 1}),
    ("integrate", {"surface": "P1xP1", "formula": "co:0", "beta": [1, 0],
                   "n": "0:1", "format": "csv"}),
    ("integrate", {"surface": "P2", "formula": "custom", "n": 1,
                   "params": {"expr": {"kind": "one"}}}),
    ("vw", {"surface": "P2", "beta": [0], "n": "0:1", "format": "json",
            "sw": {"entries": [{"beta": [0], "sw": 1}]}}),
    ("vw", {"surface": "P1xP1", "beta": [1, 1], "n": 1, "order": 1}),
    ("fit", {"n": 0, "runs": [["P2", [1], 1], ["P2", [2], 2],
                              ["P1xP1", [1, 1], 3], ["F2", [2, 1], 2]]}),
    ("fit", {"n": 0}),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_contract(data):
    """Every job document ends in a documented exit code, with a JSON
    error document on failure, and nothing on stderr."""
    command, doc = data.draw(st.sampled_from(BASES))
    command = data.draw(st.one_of(st.just(command),
                                  st.sampled_from(cli.COMMANDS + ("x",))))
    doc = dict(doc)
    for key in data.draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)),
                                  max_size=3, unique=True)):
        doc[key] = data.draw(FIELD_VALUES[key])
    code = run_contract_job(command, doc)
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_MATH, EXIT_RESIDUAL)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(expr=CUSTOM_TREES)
def test_cli_contract_custom_integrands(expr):
    """A custom integrand of any shape ends in exit 0, 2 or 3: a leaf
    attribute of the wrong type or a leaf that does not resolve stops
    at the schema, never in a traceback."""
    code = run_contract_job("integrate", {
        "surface": "P2", "beta": [1], "formula": "custom", "n": "0:1",
        "params": {"expr": expr}})
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_MATH)


def run_contract_job(command, doc):
    """The exit code of the job ``doc`` under ``command``, run from a job
    file, after checking that a failure printed its JSON error document
    and that nothing reached stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--job", path])
    if code != EXIT_OK:
        assert json.loads(out.getvalue())["error"]["code"] == code
    assert err.getvalue() == ""
    return code
