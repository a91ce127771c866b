"""The benchmark's tracer patches named nesthilb functions from outside
the package; every name it lists must still exist, and a traced job
must still pass through the spans of the per-point loop."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nesthilb import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_tracing = _load_tracing()
TARGETS = [(module, attr) for module, attr, _ in
           _tracing.SPANS + _tracing.COUNTERS]


@pytest.mark.parametrize("module,attr", TARGETS)
def test_target_resolves(module, attr):
    mod = importlib.import_module("nesthilb." + module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the entry in the class __dict__
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr, None))


def test_hot_paths_listed():
    for target in (("hilbloc", "RatFunc.__init__"),
                   ("hilbloc", "chern_value"),
                   ("hilbloc", "point_value_laurent")):
        assert target in TARGETS


def test_traced_job_fires_per_point_spans(tmp_path, capsys):
    # a refactor that bypassed a traced function would leave its span
    # silent without changing any output
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"sw": {"entries": [{"beta": [0],
                                                    "sw": 1}]}}))
    argv = ["vw", "--surface", "P2", "--beta", "0", "--n", "1",
            "--job", str(job)]
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "jobproc.py"), str(record), "1",
         "trace-check", "cli"] + argv,
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == cli.EXIT_OK
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.splitlines()[0] == "-9/512"
    doc = json.loads(record.read_text())
    names = {span[0] for span in doc["spans"]}
    for name in ("hilbloc.integrate", "hilbloc.tangent_char",
                 "hilbloc.rhom_char", "hilbloc.chi", "hilbloc.chern_value",
                 "hilbloc.laurent"):
        assert name in names, name
    # S^[n1] x S^[n2] over n1 + n2 = 1 on P2: 3 points for each split
    assert doc["counts"]["hilbloc.fixed_points"] == 6


def test_traced_job_visits_nested_points_only(tmp_path):
    # the point stream stays whole (the closed-form ambient count), but
    # only points where c_n(E_L) is nonzero build a tangent character
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"sw": {"entries": [{"beta": [0],
                                                    "sw": 1}]}}))
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "jobproc.py"), str(record), "1",
         "trace-visited", "cli", "vw", "--surface", "P2", "--beta", "0",
         "--n", "0:3", "--job", str(job)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(record.read_text())
    ambient = sum(workloads.colored_partitions(2 * workloads.CHARTS["P2"], n)
                  for n in range(4))
    assert doc["counts"]["hilbloc.fixed_points"] == ambient == 132
    tangents = [span for span in doc["spans"]
                if span[0] == "hilbloc.tangent_char"]
    assert len(tangents) == 50


def test_traced_formal_job(tmp_path, capsys):
    # a formal job executes neither hilbloc nor surface, yet the tracer
    # patches their functions too; the spans of the formal layer fire
    # (the determinant runs on the fused kernel, not GradedClass.__mul__)
    argv = ["push", "--formula", "porteous:3,3,5"]
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "jobproc.py"), str(record), "1",
         "trace-formal", "cli"] + argv,
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == cli.EXIT_OK
    assert proc.stdout == capsys.readouterr().out
    names = {span[0] for span in json.loads(record.read_text())["spans"]}
    assert {"porteous.degeneracy", "ringcore.delta_det"} <= names
