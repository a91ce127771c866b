"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/record_expected.py

Runs each distinct job once and writes the SHA-256 of its output, with
the ``# seed`` line stripped, to ``perfbench/expected.json``.  Run it
only on a commit whose outputs are known to be right; the benchmark
then requires every later commit to reproduce them byte for byte.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main():
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=run.ROOT))
    digests = {}
    try:
        for name in sorted(workloads.WORKLOADS):
            for job, argv in workloads.make_jobs(name, 0):
                if job.expect in digests:
                    continue
                # with nothing recorded yet, a right output can only fail
                # the comparison with the record
                res = run.run_job(job, argv, False, tmp, job.name, {})
                if res["error"] != workloads.MISMATCH:
                    raise SystemExit("%s failed: %s" % (job.name,
                                                        res["error"]))
                digests[job.expect] = workloads.digest(
                    workloads.strip_seed(res["output"]))
                print(job.expect, digests[job.expect])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.EXPECTED_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
