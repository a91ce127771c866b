"""Every job of the benchmark, run in this one process, prints exactly
the output recorded in ``perfbench/expected.json``: command-line jobs
through ``cli.main``, library jobs through ``jobproc.LIBRARY_JOBS``.
The serial and ``--threads 2`` variants of a job share one recorded
output, and no job may depend on work done earlier in the process."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from nesthilb import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_workloads = _load("perfbench_workloads", "workloads.py")
_jobproc = _load("perfbench_jobproc", "jobproc.py")
_expected = _workloads.load_expected()
CLI_JOBS = [pytest.param(job, id="%s/%s" % (workload, job.name))
            for workload, jobs in _workloads.WORKLOADS.items()
            for job in jobs if job.argv]
LIBRARY_JOBS = [pytest.param(job, id="%s/%s" % (workload, job.name))
                for workload, jobs in _workloads.WORKLOADS.items()
                for job in jobs if job.library]


@pytest.mark.parametrize("job", CLI_JOBS)
def test_cli_job_matches_recorded_output(job, tmp_path, capsys):
    cpus = os.cpu_count()
    if cpus is not None and job.threads > cpus:
        pytest.skip("--threads %d exceeds this machine's CPU count"
                    % job.threads)
    argv = list(job.argv)
    if job.doc is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(job.doc))
        argv += ["--job", str(path)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK, out
    assert _workloads.check_output(job, out, _expected) is None


@pytest.mark.parametrize("job", LIBRARY_JOBS)
def test_library_job_matches_recorded_output(job, capsys):
    code = _jobproc.LIBRARY_JOBS[job.library](cli)
    out = capsys.readouterr().out
    assert code == 0, out
    assert _workloads.check_output(job, out, _expected) is None
