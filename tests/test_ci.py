"""The CI workflow runs the tier-1 command that ROADMAP.md names, on
every supported interpreter, after installing the test extra, running
the installed console script and, on one interpreter, the traced
benchmark, with a time limit."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def tier1_command():
    text = (ROOT / "ROADMAP.md").read_text()
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", text).group(1)


def test_workflow_runs_tier1():
    doc = yaml.safe_load(WORKFLOW.read_text())
    # YAML 1.1 reads the bare key "on" as true
    triggers = doc.get("on", doc.get(True))
    assert {"push", "pull_request"} <= set(triggers)
    (job,) = doc["jobs"].values()
    # a hung run stops after 15 minutes, not GitHub's 6 h default
    assert job["timeout-minutes"] == 15
    assert job["strategy"]["matrix"]["python-version"] \
        == ["3.10", "3.11", "3.12", "3.13"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    # the [project.scripts] entry point is what users run; no test
    # imports it.  One step localizes an n range in one shared context,
    # one compares the chart-factor and per-point paths, one runs every
    # verify suite: the formal rings, the Euler integrals of the
    # chart-factor path and the Betti counts.
    console = ('test "$(nesthilb integrate --surface P2 --formula euler'
               ' --n 0:3 | head -n 4 | tr \'\\n\' \' \')" = "1 3 9 22 "')
    # the same n range on the chart-factor path and, inside a one-child
    # add, on the per-point path, byte for byte
    tmp = '"$RUNNER_TEMP/%s"'
    agree = "\n".join([
        "echo '%s' > %s" % (
            '{"params": {"expr": {"kind": "add", "children": [{"kind":'
            ' "euler", "children": [{"kind": "leaf", "params":'
            ' ["tangent"]}]}]}}}', tmp % "per_point.json"),
        "nesthilb integrate --surface P1xP1 --formula euler --n 0:5 > "
        + tmp % "chart.txt",
        "nesthilb integrate --surface P1xP1 --formula custom --n 0:5"
        " --job %s > %s" % (tmp % "per_point.json", tmp % "per_point.txt"),
        "cmp %s %s" % (tmp % "chart.txt", tmp % "per_point.txt"),
        "test \"$(tr '\\n' ' ' < %s)\" = \"1 4 14 40 105 252 # seed 0 \""
        % (tmp % "chart.txt"),
        ""])
    # verify ends with its "# seed" line, after the verdict
    verify = ('test "$(nesthilb verify --suite all'
              ' | grep -v \'^# seed\' | tail -n 1)" = "all green"')
    # the traced benchmark checks every workload's outputs, on one
    # interpreter only; it prints one result line per workload
    bench = ("test \"$(python3 perfbench/run.py --workload all --seed 1"
             " --seconds 1 --trace 1 | grep -cF '\"correct\": true')\""
             " = 4\n")
    assert runs == ['pip install -e ".[test]"', console, agree, verify,
                    bench, tier1_command()]
    (bench_step,) = [step for step in job["steps"]
                     if step.get("run") == bench]
    assert bench_step["if"] == "matrix.python-version == '3.11'"
    setup = [step for step in job["steps"]
             if step.get("uses", "").startswith("actions/setup-python")]
    assert setup[0]["with"]["python-version"] \
        == "${{ matrix.python-version }}"
