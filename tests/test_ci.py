"""The CI workflow runs the tier-1 command that ROADMAP.md names, on
every supported interpreter, after installing the test extra, running
the installed console script (one of its outputs checked against the
benchmark's recorded digest) and, on one interpreter, the benchmark
traced and untraced, with a time limit."""

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
    # one reads malformed and abbreviated command lines, one compares
    # the chart-factor and per-point paths, one integrates delta
    # nodes, one runs every verify suite: the formal rings, the Euler
    # integrals of the chart-factor path and the Betti counts; one
    # counts the checks of the characters suite; one reads the CSV
    # header of every command; one runs a vw job whose Seiberg-Witten
    # entries hold one invariant each and refuses any other key; one
    # pins vw rows and reads malformed jobs that exit at the schema;
    # one reads custom integrands whose leaves are malformed; one reads
    # a fan that is not integral, a Seiberg-Witten table that breaks
    # the virtual-dimension rule and a leaf named by its path.
    console = ('test "$(nesthilb integrate --surface P2 --formula euler'
               ' --n 0:3 | head -n 4 | tr \'\\n\' \' \')" = "1 3 9 22 "')
    # the command line: --help exits 0 and prints the usage, a flag
    # without its value exits 2 with a JSON error document, a unique
    # prefix names its flag
    tmp = '"$RUNNER_TEMP/%s"'
    errors = "\n".join([
        "nesthilb --help > " + tmp % "help.txt",
        "head -n 1 %s | grep -q '^usage: nesthilb'" % (tmp % "help.txt"),
        "code=0",
        "nesthilb vw --surface P2 --beta > %s || code=$?"
        % (tmp % "error.json"),
        'test "$code" = 2',
        "test \"$(python3 -c 'import json, sys; print(json.load(sys.stdin)"
        "[\"error\"][\"code\"])' < %s)\" = 2" % (tmp % "error.json"),
        "test \"$(nesthilb integrate --sur P2 --formula euler --n 0:3"
        " | head -n 4 | tr '\\n' ' ')\" = \"1 3 9 22 \"",
        ""])
    # the same n range on the chart-factor path and, inside a one-child
    # add, on the per-point path, byte for byte
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
    # vw prints the same exact rationals at --order 0 and --order 3
    vw = "\n".join([
        "echo '%s' > %s" % ('{"sw": {"entries": [{"beta": [0, 0],'
                            ' "sw": 1}]}}', tmp % "vw.json")]
        + ["nesthilb vw --surface P1xP1 --beta 0,0 --n 0:2 --order %d"
           " --job %s > %s" % (order, tmp % "vw.json",
                               tmp % ("vw%d.txt" % order))
           for order in (0, 3)]
        + ["cmp %s %s" % (tmp % "vw0.txt", tmp % "vw3.txt"),
           "test \"$(tr '\\n' ' ' < %s)\" = \"-1/512 1/32 -27/128"
           " # seed 0 \"" % (tmp % "vw0.txt"),
           ""])
    # a Seiberg-Witten entry is one invariant: with sw = 2 for class 0
    # on P2 the totals at n = 0, 1 are 1/512 and -9/256, and a "higher"
    # key in the entry or "higher_mode" in sw exits 2
    one_invariant = "\n".join([
        "echo '%s' > %s" % (
            '{"sw": {"entries": [{"beta": [0], "sw": 2%s}]%s}}' % extra,
            tmp % name)
        for name, extra in (("sw.json", ("", "")),
                            ("sw_higher.json", (', "higher": []', "")),
                            ("sw_higher_mode.json",
                             ("", ', "higher_mode": true')))]
        + ["test \"$(nesthilb vw --surface P2 --beta 0 --n 0:1 --job %s"
           " | tr '\\n' ' ')\" = \"1/512 -9/256 # seed 0 \""
           % (tmp % "sw.json"),
           "for name in sw_higher sw_higher_mode; do",
           "  code=0",
           "  nesthilb vw --surface P2 --beta 0 --n 0:1 --job"
           " \"$RUNNER_TEMP/$name.json\" > /dev/null || code=$?",
           '  test "$code" = 2',
           "done",
           ""])
    # a vw job's rows, pinned in CSV and read from JSON; a formula
    # argument the formula does not take, a vw class without its
    # Seiberg-Witten entry and one that needs a toric surface exit 2
    rows_job = "--job %s" % (tmp % "rows.json")
    rows = "\n".join([
        "echo '%s' > %s" % ('{"sw": {"entries": [{"beta": [0], "sw": 2}]}}',
                            tmp % "rows.json"),
        "nesthilb vw --surface P2 --beta 0 --n 0:1 --format csv %s > %s"
        % (rows_job, tmp % "rows.csv"),
        "printf '%%s\\n' '# seed 0' %s | cmp - %s" % (" ".join([
            "beta,n,n1,n2,value,t_order", "0,0,0,0,1/1024,0",
            "0,0,,,1/512,0", "0,1,0,1,0,0", "0,1,1,0,-9/512,0",
            "0,1,,,-9/256,0"]), tmp % "rows.csv"),
        "test \"$(nesthilb vw --surface P2 --beta 0 --n 1 --format json"
        " --order 2 %s | python3 -c 'import json, sys; print(\" \".join("
        "str(r[\"n1\"]) + \":\" + r[\"value\"] for r in json.load("
        "sys.stdin)[\"rows\"]))')\" = \"0:0 1:-9/512 :-9/256\"" % rows_job,
        "for job in %s; do" % " ".join(
            '"%s"' % job for job in (
                "integrate --surface P2 --formula euler:7 --n 2",
                "vw --surface K3 --beta 0 --n 0",
                "vw --surface P2 --beta 0 --n 0")),
        "  code=0",
        "  nesthilb $job > /dev/null || code=$?",
        '  test "$code" = 2',
        "done",
        ""])
    # a custom integrand with a leaf attribute of the wrong type, one
    # outside its leaf's set or a section level other than 0 exits 2
    # with a JSON error document, for five such leaves
    malformed = "\n".join([
        "echo '%s' > %s" % (
            '{"params": {"expr": {"kind": "chern", "params": [1],'
            ' "children": [{"kind": "leaf", "params": ["%s"], "attrs":'
            ' %s}]}}}' % leaf, tmp % ("%s.json" % name))
        for name, leaf in (("tp", ("pushO", '{"tp": "1/2"}')),
                           ("kc", ("rhom0", '{"i": 1, "j": 1, "kc": [0]}')),
                           ("a", ("taut", '{"a": 1, "level": 2}')),
                           ("pt", ("pushO", '{"pt": 1}')),
                           ("lvl", ("pushO", '{"lvl": 5}')))]
        + ["for name in tp kc a pt lvl; do",
           "  code=0",
           "  nesthilb integrate --surface P2 --beta 1 --n 1 --formula"
           " custom --job \"$RUNNER_TEMP/$name.json\" >"
           " \"$RUNNER_TEMP/$name.out\" || code=$?",
           '  test "$code" = 2',
           "  test \"$(python3 -c 'import json, sys; print(json.load("
           "sys.stdin)[\"error\"][\"code\"])' < \"$RUNNER_TEMP/$name.out\")\""
           " = 2",
           "done",
           ""])
    # a surface document with a ray coordinate 1.5, one whose table
    # gives class 1 of P2 the invariant 5, and a leaf with an unknown
    # attribute exit 2; the leaf's message starts with its path
    parsed = "\n".join([
        "echo '%s' > %s" % (doc, tmp % ("%s.json" % name))
        for name, doc in (
            ("float_ray", '{"name": "x", "rays": [[1.5, 0], [0, 1],'
                          ' [-1, -1]], "basis": [0]}'),
            ("vd_breach", '{"name": "P2", "rays": [[1, 0], [0, 1],'
                          ' [-1, -1]], "basis": [0], "sw_table": [{"beta":'
                          ' [1], "sw": 5}]}'),
            ("leaf", '{"params": {"expr": {"kind": "chern", "params": [1],'
                     ' "children": [{"kind": "leaf", "params": ["pushO"],'
                     ' "attrs": {"pt": 1}}]}}}'))]
        + ["for name in float_ray vd_breach; do",
           "  code=0",
           "  nesthilb integrate --surface \"$RUNNER_TEMP/$name.json\""
           " --formula euler --n 1 > /dev/null || code=$?",
           '  test "$code" = 2',
           "done",
           "code=0",
           "nesthilb integrate --surface P2 --formula custom --n 0 --job"
           " %s > %s || code=$?" % (tmp % "leaf.json", tmp % "leaf.out"),
           'test "$code" = 2',
           "test \"$(python3 -c 'import json, sys; print(json.load("
           "sys.stdin)[\"error\"][\"message\"].startswith("
           "\"params.expr.children[0]\"))' < %s)\" = True"
           % (tmp % "leaf.out"),
           ""])
    # a weight-dependent integral exits 3 at --order 0 and prints its
    # coefficients at --order 2; the expected exit is captured, since
    # the step's bash runs with -e
    weighted = "\n".join([
        "echo '%s' > %s" % (
            '{"params": {"expr": {"kind": "chern", "params": [1],'
            ' "children": [{"kind": "leaf", "params": ["pushO"],'
            ' "attrs": {"tp": 1}}]}}}', tmp % "weighted.json"),
        "code=0",
        "nesthilb integrate --surface P2 --formula custom --n 0:1"
        " --order 0 --job %s > /dev/null || code=$?" % (
            tmp % "weighted.json"),
        'test "$code" = 3',
        "test \"$(nesthilb integrate --surface P2 --formula custom"
        " --n 0:1 --order 2 --job %s | tr '\\n' ' ')\" = \"0 1 0 0"
        " # seed 0 \"" % (tmp % "weighted.json"),
        ""])
    # the tangent bundle twisted by a line of circle weight keeps the
    # Euler numbers
    twist = "\n".join([
        "echo '%s' > %s" % (
            '{"params": {"expr": {"kind": "euler", "children": [{"kind":'
            ' "twist", "params": [1], "children": [{"kind": "leaf",'
            ' "params": ["tangent"]}, {"kind": "leaf", "params": ["pushO"],'
            ' "attrs": {"tp": 1}}]}]}}}', tmp % "twist.json"),
        "test \"$(nesthilb integrate --surface P2 --formula custom"
        " --n 0:4 --job %s | tr '\\n' ' ')\" = \"1 3 9 22 51"
        " # seed 0 \"" % (tmp % "twist.json"),
        ""])
    # a delta node expands its determinant in the ring of s and t:
    # delta(1, 4) = c_4 and delta(2, 2) of the tangent bundle of P2^[2]
    delta = "\n".join(
        ["echo '%s' > %s" % (
            '{"params": {"expr": {"kind": "delta", "params": [%d, %d],'
            ' "children": [{"kind": "leaf", "params": ["tangent"]}]}}}'
            % ab, tmp % ("delta%d%d.json" % ab))
         for ab in ((1, 4), (2, 2))]
        + ["test \"$(nesthilb integrate --surface P2 --formula custom"
           " --n 2 --job %s | tr '\\n' ' ')\" = \"%s # seed 0 \""
           % (tmp % ("delta%d%d.json" % ab), value)
           for ab, value in (((1, 4), 9), ((2, 2), 36))]
        + [""])
    # verify ends with its "# seed" line, after the verdict
    verify = ('test "$(nesthilb verify --suite all'
              ' | grep -v \'^# seed\' | tail -n 1)" = "all green"')
    # the characters suite prints its 24 checks, then its verdict just
    # before the "# seed" line
    characters = "\n".join([
        "nesthilb verify --suite characters > " + tmp % "characters.txt",
        "test \"$(grep -c '^ok ' %s)\" = 24" % (tmp % "characters.txt"),
        "test \"$(tail -n 2 %s | head -n 1)\" = \"all green\""
        % (tmp % "characters.txt"),
        "tail -n 1 %s | grep -q '^# seed'" % (tmp % "characters.txt"),
        ""])
    # every command's CSV header after its "# seed" line, and the one
    # row of a push
    csv = "\n".join([
        "test \"$(nesthilb verify --suite porteous --format csv"
        " | sed -n 2p)\" = \"check,status\"",
        "test \"$(nesthilb push --formula porteous:1,1,2 --format csv"
        " | tail -n +2 | tr '\\n' ' ')\" = \"term,coeff c2,1 \"",
        "test \"$(nesthilb integrate --surface P2 --formula euler --n 0:1"
        " --format csv | sed -n 2p)\" = \"n,value\"",
        "test \"$(nesthilb vw --surface P2 --beta 1 --n 0 --format csv"
        " | sed -n 2p)\" = \"beta,n,n1,n2,value,t_order\"",
        "test \"$(nesthilb fit --n 1 --format csv | sed -n 2p)\""
        " = \"monomial,coefficient\"",
        ""])
    # the push output, without its "# seed" line, hashes to the digest
    # the benchmark records for the same job, read from its file
    push = "\n".join([
        "digest=\"$(python3 -c 'import json; print(json.load(open("
        "\"perfbench/expected.json\"))[\"push-3-3-5\"])')\"",
        "test \"$(nesthilb push --formula porteous:3,3,5"
        " | grep -v '^# seed' | sha256sum | cut -d ' ' -f 1)\""
        " = \"$digest\"",
        ""])
    # the reduced formula's push, with the H^2-vanishing flag from a job
    # file: line 2 holds its twist dimension, degree and reduced
    # virtual dimension
    reduced = "\n".join([
        "echo '%s' > %s" % ('{"params": {"h2_vanishing": true}}',
                            tmp % "reduced.json"),
        "test \"$(nesthilb push --formula reduced --surface P2 --beta 1"
        " --n1 1 --n2 1 --job %s | sed -n 2p)\" = '%s'"
        % (tmp % "reduced.json", '{"d": 0, "degree": 2, "reduced_vd": 4}'),
        ""])
    # the benchmark checks every workload's outputs, on one interpreter
    # only; it prints one result line per workload.  It runs traced and
    # untraced: the tracer loads every lazy module, so only the
    # untraced run sees a job that reaches a module it never loaded.
    bench = ("test \"$(python3 perfbench/run.py --workload all --seed 1"
             " --seconds 1 --trace %d | grep -cF '\"correct\": true')\""
             " = 4\n")
    traced, untraced = bench % 1, bench % 0
    assert runs == ['pip install -e ".[test]"', console, errors, agree, vw,
                    one_invariant, rows, malformed, parsed, weighted, twist,
                    delta,
                    verify,
                    characters, csv, push, reduced, traced, untraced,
                    tier1_command()]
    for run in (traced, untraced):
        (bench_step,) = [step for step in job["steps"]
                         if step.get("run") == run]
        assert bench_step["if"] == "matrix.python-version == '3.11'"
    setup = [step for step in job["steps"]
             if step.get("uses", "").startswith("actions/setup-python")]
    assert setup[0]["with"]["python-version"] \
        == "${{ matrix.python-version }}"
