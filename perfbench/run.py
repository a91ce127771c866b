"""nesthilb benchmark: real jobs, each in a fresh process, end to end and
per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each
in turn.  The load is a closed loop: one client runs the workload's jobs
one after another, each in a fresh interpreter, as users of the
command line (one job per process) do.  A pass is one run of the
whole job list; passes repeat while the next one still fits in S
seconds, after a minimum of two.  Every job's output is checked (see
``workloads.py``).

With ``--trace 0`` the end-to-end metrics are reported, in seconds at
a nominal host speed (see NOMINAL_REFERENCE_S); wall_s and cpu_s add up
each job's median over the passes.  With
``--trace 1`` at least two untraced and two traced passes run; the
per-layer metrics come from the traced passes (totals over one pass of
the job list), and their exact counts must agree between the traced
passes.  The last stdout line is one JSON object with keys correct,
attempted, failed and metrics.  The spans of the first traced pass are
written to ``.perfbench_out/`` at the root of the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOBPROC = HERE / "jobproc.py"
JOB_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# Other tenants of a shared host slow every process on a vCPU, by up to
# 1.8x and for seconds to minutes at a time.  So a fixed reference job,
# a fresh interpreter running REFERENCE, is timed on a job's CPUs just
# before and after the job, and the job's times are scaled by
# NOMINAL_REFERENCE_S over the mean of the two.  NOMINAL_REFERENCE_S is
# the reference's time on a lightly loaded 2-vCPU KVM Xeon host under
# Python 3.11.7, so scaled times are seconds at that host's speed.  The
# reference never runs beside a job and involves no nesthilb code, so a
# change to the program moves scaled times as much as raw ones.
NOMINAL_REFERENCE_S = 0.1
# fixed exact arithmetic of the jobs' own kind: Fraction products and
# sums in a dict keyed by exponent tuples
REFERENCE = """
from fractions import Fraction
for _ in range(4):
    acc = {}
    x = Fraction(1, 3)
    for i in range(1500):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0) + x * (i % 13) / (1 + i % 5)
"""
CPUS = sorted(os.sched_getaffinity(0))


def _ms_per_point(c, t, s, n):
    points = n["hilbloc.fixed_points"]
    return 1000 * t["hilbloc.integrate"] / points if points else 0


# (metric, unit, value from span calls c, span times t, self times s and
# counters n of one pass); units "count" are exact and must repeat
PER_LAYER = (
    ("cli.import_s", "s", lambda c, t, s, n: t["cli.import"]),
    ("cli.jobspec_s", "s", lambda c, t, s, n: t["cli.jobspec"]),
    ("cli.run_s", "s", lambda c, t, s, n: t["cli.run"]),
    ("surface.load_s", "s", lambda c, t, s, n: t["surface.load"]),
    ("surface.chart_vertex_calls", "count",
     lambda c, t, s, n: n["surface.chart_vertex_calls"]),
    ("ringcore.mul_calls", "count", lambda c, t, s, n: c["ringcore.mul"]),
    ("ringcore.mul_s", "s", lambda c, t, s, n: t["ringcore.mul"]),
    ("ringcore.mul_terms_out", "count",
     lambda c, t, s, n: n["ringcore.mul_terms_out"]),
    ("ringcore.series_invert_s", "s",
     lambda c, t, s, n: t["ringcore.series_invert"]),
    ("ringcore.delta_det_calls", "count",
     lambda c, t, s, n: c["ringcore.delta_det"]),
    ("ringcore.delta_det_s", "s", lambda c, t, s, n: t["ringcore.delta_det"]),
    ("bundles.split_pushforward_s", "s",
     lambda c, t, s, n: t["bundles.split_pushforward"]),
    ("bundles.projective_bundle_s", "s",
     lambda c, t, s, n: t["bundles.projective_bundle"]),
    ("bundles.proj_pushforward_s", "s",
     lambda c, t, s, n: t["bundles.proj_pushforward"]),
    ("porteous.eval_formal_calls", "count",
     lambda c, t, s, n: c["porteous.eval_formal"]),
    ("porteous.eval_formal_s", "s",
     lambda c, t, s, n: t["porteous.eval_formal"]),
    ("porteous.degeneracy_s", "s",
     lambda c, t, s, n: t["porteous.degeneracy"]),
    ("porteous.expr_json_s", "s", lambda c, t, s, n: t["porteous.expr_json"]),
    ("hilbloc.integrate_calls", "count",
     lambda c, t, s, n: c["hilbloc.integrate"]),
    ("hilbloc.integrate_s", "s", lambda c, t, s, n: t["hilbloc.integrate"]),
    ("hilbloc.fixed_points", "count",
     lambda c, t, s, n: n["hilbloc.fixed_points"]),
    ("hilbloc.enumerate_s", "s", lambda c, t, s, n: t["hilbloc.enumerate"]),
    ("hilbloc.tangent_char_calls", "count",
     lambda c, t, s, n: c["hilbloc.tangent_char"]),
    ("hilbloc.tangent_char_s", "s",
     lambda c, t, s, n: t["hilbloc.tangent_char"]),
    ("hilbloc.rhom_char_calls", "count",
     lambda c, t, s, n: c["hilbloc.rhom_char"]),
    ("hilbloc.rhom_char_s", "s", lambda c, t, s, n: t["hilbloc.rhom_char"]),
    ("hilbloc.chi_calls", "count", lambda c, t, s, n: c["hilbloc.chi"]),
    ("hilbloc.chi_misses", "count",
     lambda c, t, s, n: n["hilbloc.assemble_calls"]),
    ("hilbloc.spec_collisions", "count",
     lambda c, t, s, n: n["hilbloc.spec_draws"] - c["hilbloc.integrate"]),
    ("hilbloc.chern_value_s", "s",
     lambda c, t, s, n: t["hilbloc.chern_value"]),
    ("hilbloc.laurent_s", "s", lambda c, t, s, n: t["hilbloc.laurent"]),
    ("hilbloc.ratfunc_new", "count",
     lambda c, t, s, n: n["hilbloc.ratfunc_new"]),
    ("hilbloc.ms_per_point", "ms", _ms_per_point),
    ("vw.monopole_contribution_s", "s",
     lambda c, t, s, n: t["vw.monopole_contribution"]),
    ("vw.point_contribution_s", "s",
     lambda c, t, s, n: t["vw.point_contribution"]),
    ("vw.fit_s", "s", lambda c, t, s, n: t["vw.fit"]),
    ("vw.fit_self_s", "s", lambda c, t, s, n: s["vw.fit"]),
)
OVERHEAD = (("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
            ("trace.overhead_s", "s"))


def reference_time(cpus):
    """Mean wall time of the reference job on each of ``cpus``; leaves
    this process pinned to ``cpus``, so a job it starts runs there."""
    total = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", REFERENCE], cwd=ROOT,
                       check=True)
        total += time.monotonic() - start
    os.sched_setaffinity(0, cpus)
    return total / len(cpus)


def run_job(job, argv, trace, tmp, job_id, expected, cpus=CPUS):
    """Run one job on ``cpus`` in a fresh process and check its output.
    Returns a dict of its measurements, with ``error`` set when it
    failed; ``scale`` turns its times into seconds at the nominal host
    speed."""
    before = reference_time(cpus)
    record = tmp / (job_id + ".record")
    if job.doc is not None:
        doc_path = tmp / (job_id + ".job.json")
        doc_path.write_text(json.dumps(job.doc))
        argv = argv + ("--job", str(doc_path))
    cmd = [sys.executable, str(JOBPROC), str(record), "1" if trace else "0",
           job_id] + (["cli", *argv] if argv else ["lib", job.library])
    out_path, err_path = tmp / (job_id + ".out"), tmp / (job_id + ".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                start_new_session=True)
        # the job leads its own process group, so a timeout, a stopped
        # benchmark or a pool worker left behind is ended with the group
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    after = reference_time(cpus)
    res = {"job": job, "spawn": spawn, "wall": end - spawn,
           "scale": 2 * NOMINAL_REFERENCE_S / (before + after),
           "cpu": usage.ru_utime + usage.ru_stime,
           "rss_mb": usage.ru_maxrss / 1024, "error": None,
           "output": out_path.read_text()}
    if proc.returncode != 0:
        tail = err_path.read_text().strip().splitlines()[-1:]
        res["error"] = "exit %d %s" % (proc.returncode, " ".join(tail))
        return res
    rec = json.loads(record.read_text())
    if rec["handler_start"] is None:
        res["error"] = "the job never reached its handler"
        return res
    res["setup"] = rec["handler_start"] - spawn
    res["error"] = workloads.check_output(job, res["output"], expected)
    if trace:
        res["spans"] = rec["spans"]
        res["counts"] = Counter(rec["counts"])
        points = res["counts"]["hilbloc.fixed_points"]
        if job.points is not None and points != job.points \
                and res["error"] is None:
            res["error"] = "visited %d fixed points, closed form gives %d" \
                % (points, job.points)
    return res


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_pass(workload, jobs, trace, tmp, index, expected):
    start = time.monotonic()
    results = []
    for i, (job, argv) in enumerate(jobs):
        # a serial job is pinned to one CPU, taken in turn, so the host
        # speed is read where the job runs
        cpus = CPUS if job.threads > 1 else [CPUS[(index + i) % len(CPUS)]]
        results.append(run_job(job, argv, trace, tmp,
                               "p%d-%s" % (index, job.name), expected, cpus))
    outputs = {r["job"].name: workloads.strip_seed(r["output"])
               for r in results}
    for a, b in workloads.SAME_OUTPUT.get(workload, ()):
        if outputs[a] != outputs[b]:
            for r in results:
                if r["job"].name in (a, b) and r["error"] is None:
                    r["error"] = "%s and %s differ" % (a, b)
    for r in results:
        if r["error"]:
            print("FAILED %s: %s" % (r["job"].name, r["error"]),
                  file=sys.stderr)
    return {"traced": trace, "results": results,
            "elapsed": time.monotonic() - start}


def job_list_time(passes, key):
    """Scaled ``key`` time of the whole job list: the sum over its jobs
    of each job's median over the passes."""
    return sum(statistics.median(p["results"][i][key]
                                 * p["results"][i]["scale"] for p in passes)
               for i in range(len(passes[0]["results"])))


def layer_values(pas):
    """Per-layer metrics of one traced pass: totals over its jobs."""
    calls, total, self_time, counts = Counter(), Counter(), Counter(), \
        Counter()
    for r in pas["results"]:
        if "spans" in r:
            for acc, part in zip((calls, total, self_time),
                                 tracing.summarize(r["spans"])):
                acc.update(part)
            counts.update(r["counts"])
    return {name: fn(calls, total, self_time, counts)
            for name, _, fn in PER_LAYER}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(passes):
    """The end-to-end metrics of the untraced passes.  Prints each with
    the median and quartiles of its scaled per-pass (per-job for
    setup_s) samples and of the raw ones."""
    samples = {}
    for name, key in (("wall_s", "wall"), ("cpu_s", "cpu")):
        samples[name] = [(sum(r[key] * r["scale"] for r in p["results"]),
                          sum(r[key] for r in p["results"]))
                         for p in passes]
    # a failed job has no setup time; 0 stands in if every job failed
    samples["setup_s"] = [(r["setup"] * r["scale"], r["setup"])
                          for p in passes for r in p["results"]
                          if "setup" in r] or [(0.0, 0.0)]
    samples["peak_rss_mb"] = [(max(r["rss_mb"] for r in p["results"]),) * 2
                              for p in passes]
    values = {
        "wall_s": job_list_time(passes, "wall"),
        "cpu_s": job_list_time(passes, "cpu"),
        "setup_s": statistics.median(s for s, _ in samples["setup_s"]),
        "peak_rss_mb": statistics.median(s for s, _ in
                                         samples["peak_rss_mb"]),
    }
    scales = [r["scale"] for p in passes for r in p["results"]]
    print("host speed: job times scaled by %.4g (median; range %.4g to"
          " %.4g) to %.4g s per reference job" % (
              statistics.median(scales), min(scales), max(scales),
              NOMINAL_REFERENCE_S))
    print("%-12s %10s %-3s %10s %10s %10s %11s %10s %10s  %s" % (
        "metric", "value", "", "median", "q1", "q3", "raw median", "q1",
        "q3", "samples"))
    for name, unit in END_TO_END:
        scaled = quartiles([s for s, _ in samples[name]])
        raw = quartiles([r for _, r in samples[name]])
        print("%-12s %10.5g %-3s %10.5g %10.5g %10.5g %11.5g %10.5g %10.5g"
              "  %d %s" % (name, values[name], unit, scaled[1], scaled[0],
                           scaled[2], raw[1], raw[0], raw[2],
                           len(samples[name]),
                           "jobs" if name == "setup_s" else "passes"))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(passes):
    """The per-layer metrics and tracing overhead, and whether every
    exact count agreed between the traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [layer_values(p) for p in traced]
    steady = True
    metrics = {}
    for name, unit, _ in PER_LAYER:
        values = [v[name] for v in per_pass]
        if unit == "count" and len(set(values)) > 1:
            steady = False
            print("FAILED exact count %s differs between traced passes: %s"
                  % (name, values), file=sys.stderr)
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    untraced = job_list_time(plain, "wall")
    traced_wall = job_list_time(traced, "wall")
    for (name, unit), value in zip(OVERHEAD, (
            untraced, traced_wall, traced_wall - untraced)):
        metrics[name] = {"value": value, "unit": unit}
    print("%-28s %14s  %s" % ("metric", "value", "unit"))
    for name, m in metrics.items():
        print("%-28s %14.6g  %s" % (name, m["value"], m["unit"]))
    return metrics, steady


def run_workload(workload, seed, seconds, trace, tmp):
    jobs = workloads.make_jobs(workload, seed)
    expected = workloads.load_expected()
    # at least two passes of each kind, so every job has a median over
    # passes, and the exact counts of two traced passes can be compared
    plan = [False, True, True, False] if trace else [False, False]
    passes = []
    start = time.monotonic()
    while plan:
        passes.append(run_pass(workload, jobs, plan.pop(0), tmp,
                               len(passes), expected))
        longest = max(p["elapsed"] for p in passes)
        if not plan and time.monotonic() - start + longest * (1 + trace) \
                <= seconds:
            plan = [False, True] if trace else [False]

    results = [r for p in passes for r in p["results"]]
    failed = sum(1 for r in results if r["error"])
    print("workload %s seed %d trace %d: %d jobs per pass, %d passes"
          " (%d traced)" % (workload, seed, trace, len(jobs), len(passes),
                            sum(p["traced"] for p in passes)))
    print("error_rate %d/%d = %g (jobs that exited nonzero, raised or"
          " failed a check / jobs attempted)"
          % (failed, len(results), failed / len(results)))
    steady = True
    if trace:
        metrics, steady = per_layer(passes)
        _write_spans(workload, seed, next(p for p in passes if p["traced"]))
    else:
        metrics = end_to_end(passes)
    return {"correct": failed == 0 and steady, "attempted": len(results),
            "failed": failed, "metrics": metrics}


def _write_spans(workload, seed, pas):
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    doc = [{"job": r["job"].name, "spans": r.get("spans", [])}
           for r in pas["results"]]
    path = out / ("spans-%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps(doc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stopped benchmark ends its current job too (see run_job)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (SRC / "nesthilb" / "cli.py").is_file():
        print("no nesthilb sources at %s" % SRC, file=sys.stderr)
        return 2
    # compile the package once, as an installed copy would be, so the
    # first measured job does not pay for it
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
         " import nesthilb.cli", str(SRC)], cwd=ROOT)
    if warm.returncode != 0:
        print("cannot import nesthilb from %s" % SRC, file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), tmp)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
