"""Each nesthilb module but ringcore and cli is loaded on first use, so
a job executes only the modules its command runs.  Every check runs in
a fresh interpreter, and reads ``type(module)``: a lazy module that has
not been executed is not a plain module, and ``type`` does not trigger
the load that ``module.__dict__`` or any attribute would."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# prints, as JSON, the nesthilb modules registered and executed after
# ``import nesthilb.cli`` and after running the job of its arguments
PROBE = """
import contextlib, io, json, sys, types
import nesthilb.cli as cli

def modules(executed):
    return sorted(name[len("nesthilb."):] for name, mod in
                  list(sys.modules.items())
                  if name.startswith("nesthilb.")
                  and (type(mod) is types.ModuleType or not executed))

doc = {"registered": modules(False), "imported": modules(True)}
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        doc["code"] = cli.main(sys.argv[1:])
    doc["ran"] = modules(True)
print(json.dumps(doc))
"""


def probe(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE] + list(argv),
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def traced_modules():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {module for module, _, _ in tracing.SPANS + tracing.COUNTERS}


def test_import_registers_every_module_and_executes_few(tmp_path):
    doc = probe(tmp_path)
    # the benchmark's tracer looks its modules up in sys.modules right
    # after importing nesthilb.cli
    assert traced_modules() <= set(doc["registered"])
    assert set(doc["registered"]) == {"ringcore", "bundles", "surface",
                                      "porteous", "hilbloc", "vw", "cli"}
    assert doc["imported"] == ["cli", "porteous", "ringcore"]


VW_JOB = {"sw": {"entries": [{"beta": [0], "sw": 1}]}}

# (command line, modules it must not execute)
FOOTPRINTS = [
    (["push", "--formula", "porteous:3,3,5"], {"hilbloc", "vw", "surface"}),
    (["verify", "--suite", "porteous"], {"hilbloc", "vw", "surface"}),
    (["verify", "--suite", "delta"], {"hilbloc", "vw", "surface"}),
    (["verify", "--suite", "segre"], {"hilbloc", "vw", "surface"}),
    (["integrate", "--surface", "P2", "--formula", "euler", "--n", "0:2"],
     {"vw", "bundles"}),
    (["vw", "--surface", "P2", "--beta", "0", "--n", "1", "--job", "JOB"],
     {"bundles"}),
    (["fit", "--n", "1"], {"bundles"}),
]


@pytest.mark.parametrize("argv,idle", FOOTPRINTS,
                         ids=[" ".join(a[:3]) for a, _ in FOOTPRINTS])
def test_command_footprint(tmp_path, argv, idle):
    (tmp_path / "JOB").write_text(json.dumps(VW_JOB))
    doc = probe(tmp_path, *argv)
    assert doc["code"] == 0
    assert not idle & set(doc["ran"]), doc["ran"]
