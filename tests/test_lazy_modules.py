"""Each nesthilb module but expr and cli is loaded on first use, so a
job executes only the modules its command runs.  Every check runs in
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


def run_python(tmp_path, source, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", source] + list(argv),
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probe(tmp_path, *argv):
    return json.loads(run_python(tmp_path, PROBE, *argv))


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
    assert set(doc["registered"]) == {"expr", "ringcore", "bundles",
                                      "surface", "porteous", "hilbloc", "vw",
                                      "checks", "cli"}
    assert doc["imported"] == ["cli", "expr"]


VW_JOB = {"sw": {"entries": [{"beta": [0], "sw": 1}]}}

# the modules of the formal side and of the verify suites, which no
# localization job runs
FORMAL = {"ringcore", "porteous", "bundles", "checks"}

# (command line, modules it must execute, modules it must not execute)
FOOTPRINTS = [
    (["push", "--formula", "porteous:3,3,5"], {"ringcore", "porteous"},
     {"hilbloc", "vw", "surface", "checks"}),
    (["verify", "--suite", "porteous"], {"checks", "bundles"},
     {"hilbloc", "vw", "surface"}),
    (["verify", "--suite", "delta"], {"checks", "porteous"},
     {"hilbloc", "vw", "surface"}),
    (["verify", "--suite", "segre"], {"checks", "bundles"},
     {"hilbloc", "vw", "surface"}),
    (["verify", "--suite", "euler"], {"checks", "hilbloc"},
     {"vw", "bundles", "ringcore", "porteous"}),
    (["integrate", "--surface", "P2", "--formula", "euler", "--n", "0:2"],
     {"hilbloc", "chartfactors"}, FORMAL | {"vw"}),
    (["integrate", "--formula", "co:1", "--surface", "P2", "--beta", "1",
      "--n", "0:2"], {"hilbloc"}, FORMAL | {"vw"}),
    (["vw", "--surface", "P2", "--beta", "0", "--n", "1", "--job", "JOB"],
     {"vw"}, FORMAL),
    (["fit", "--n", "1"], {"vw"}, FORMAL),
]


@pytest.mark.parametrize("argv,runs,idle", FOOTPRINTS,
                         ids=[" ".join(a[:3]) for a, _, _ in FOOTPRINTS])
def test_command_footprint(tmp_path, argv, runs, idle):
    (tmp_path / "JOB").write_text(json.dumps(VW_JOB))
    doc = probe(tmp_path, *argv)
    assert doc["code"] == 0
    assert runs <= set(doc["ran"]), doc["ran"]
    assert not idle & set(doc["ran"]), doc["ran"]


def test_euler_integral_executes_only_the_localization(tmp_path):
    doc = probe(tmp_path, "integrate", "--surface", "P2", "--formula",
                "euler", "--n", "0:2")
    assert doc["ran"] == ["chartfactors", "cli", "expr", "hilbloc",
                          "surface"]


def test_package_ring_names_load_ringcore_on_first_read(tmp_path):
    run_python(tmp_path, """
import sys, types
import nesthilb
ran = lambda: type(sys.modules["nesthilb.ringcore"]) is types.ModuleType
from nesthilb import rational_str, parse_rational
assert not ran()
from nesthilb import Ring, KClass
assert ran() and Ring is sys.modules["nesthilb.ringcore"].Ring
assert rational_str(parse_rational("-6/4")) == "-3/2"
""")
