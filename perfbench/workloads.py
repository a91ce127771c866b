"""Job lists, per-job oracles and closed-form counts of the benchmark.

A workload is a fixed list of jobs.  The workload seed only sets each
CLI job's ``--seed`` field and the order in which the jobs run, so every
seed does the same amount of work.  Each job runs in a fresh
interpreter (see ``jobproc.py``), as the command line does.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
MISMATCH = "output differs from the recorded reference"

# number of toric charts (torus-fixed points) of each builtin surface
CHARTS = {"P2": 3, "P1xP1": 4, "F1": 4, "F2": 4}

# surfaces of the six default runs of the fit command
FIT_SURFACES = ("P2", "P2", "P1xP1", "P1xP1", "F2", "F2")

SW_BETA0 = {1: {"sw": {"entries": [{"beta": [0], "sw": 1}]}},
            2: {"sw": {"entries": [{"beta": [0, 0], "sw": 1}]}}}


def colored_partitions(k, n):
    """Coefficient of q^n in prod_m (1 - q^m)^(-k): the number of
    k-tuples of partitions of total size n, by the divisor-sum
    recurrence n a(n) = k sum_j sigma(j) a(n - j)."""
    sigma = [0] + [sum(d for d in range(1, j + 1) if j % d == 0)
                   for j in range(1, n + 1)]
    a = [1]
    for m in range(1, n + 1):
        a.append(k * sum(sigma[j] * a[m - j] for j in range(1, m + 1)) // m)
    return a[n]


def strip_seed(text):
    """Job output without the ``# seed`` line, which the seed sets."""
    return "".join(line for line in text.splitlines(True)
                   if not line.startswith("# seed"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Job:
    """One job: CLI arguments, or the name of a library job in
    ``jobproc.LIBRARY_JOBS``.

    ``expect`` keys the job's recorded output in ``expected.json``; the
    serial and two-thread variants of a job share it.  ``points`` is the
    closed-form number of fixed points its integrals visit, or None
    when it integrates nothing.  ``threads`` is the job's ``--threads``.
    """
    name: str
    argv: tuple = ()
    library: str = ""
    doc: dict = None
    expect: str = ""
    points: int = None
    check: object = None
    threads: int = 1


# -- oracles: each takes the job and its output without the seed line and
# -- returns an error message, or None when the output is right


def all_green(job, text):
    lines = text.splitlines()
    if not lines or lines[-1] != "all green":
        return "verify did not end with 'all green'"
    return None


def routes_equal(job, text):
    labels = [line for line in text.splitlines() if line.startswith("route")]
    if not labels or any(not line.endswith(" equal") for line in labels):
        return "the two routes differ"
    return None


def residual_zero(job, text):
    if "residual 0" not in text.splitlines():
        return "fit residual is not 0"
    return None


def euler_numbers(surface, n_lo, n_hi):
    e = 3 if surface == "P2" else 4
    want = [str(colored_partitions(e, n)) for n in range(n_lo, n_hi + 1)]

    def check(job, text):
        if text.split() != want:
            return "Euler numbers differ from the q-series coefficients"
        return None
    return check


def _euler_job(surface, n_lo, n_hi):
    k = CHARTS[surface]
    return Job("euler-%s" % surface,
               ("integrate", "--formula", "euler", "--surface", surface,
                "--n", "%d:%d" % (n_lo, n_hi)),
               expect="euler-%s" % surface,
               points=sum(colored_partitions(k, n)
                          for n in range(n_lo, n_hi + 1)),
               check=euler_numbers(surface, n_lo, n_hi))


def _monopole_jobs(threads):
    extra = ("--threads", "2") if threads == 2 else ()
    tag = "-t2" if threads == 2 else ""
    k = CHARTS
    jobs = [Job("fit-n1" + tag, ("fit", "--n", "1") + extra,
                expect="fit-n1",
                points=sum(colored_partitions(2 * k[s], 1)
                           for s in FIT_SURFACES),
                check=residual_zero, threads=threads)]
    for surface, beta, n_hi in (("P2", "0", 3), ("P1xP1", "0,0", 2),
                                ("F2", "0,0", 2)):
        jobs.append(Job(
            "vw-%s%s" % (surface, tag),
            ("vw", "--order", "4", "--surface", surface, "--beta", beta,
             "--n", "0:%d" % n_hi) + extra,
            doc=SW_BETA0[beta.count(",") + 1],
            expect="vw-%s" % surface,
            # splittings n1 + n2 = n run over the whole product of the
            # two Hilbert schemes: 2k-tuples of partitions of size n
            points=sum(colored_partitions(2 * k[surface], n)
                       for n in range(n_hi + 1)),
            threads=threads))
    return jobs


def _verify_job(suite):
    return Job("verify-" + suite, ("verify", "--suite", suite),
               expect="verify-" + suite, check=all_green)


def _push_job(r, e0, e1):
    formula = "porteous:%d,%d,%d" % (r, e0, e1)
    return Job("push-%d-%d-%d" % (r, e0, e1), ("push", "--formula", formula),
               expect="push-%d-%d-%d" % (r, e0, e1))


def _library_job(name):
    return Job("lib-" + name, library=name, expect="lib-" + name,
               check=routes_equal)


WORKLOADS = {
    "formal": [_verify_job("porteous"), _verify_job("delta"),
               _verify_job("segre"), _push_job(3, 3, 5), _push_job(4, 4, 5),
               _library_job("porteous-r3"), _library_job("flag-tower-e3")],
    "euler-sweep": [_euler_job("P2", 0, 8), _euler_job("P1xP1", 0, 7),
                    _euler_job("F1", 0, 6), _euler_job("F2", 0, 6)],
    "monopole": _monopole_jobs(1),
    "monopole-par": _monopole_jobs(2),
}

# deformation invariance: P1xP1 and F2 at beta = 0 have the same
# intersection numbers, so their vw outputs must agree
SAME_OUTPUT = {"monopole": [("vw-P1xP1", "vw-F2")],
               "monopole-par": [("vw-P1xP1-t2", "vw-F2-t2")]}


def make_jobs(workload, seed):
    """The workload's jobs in seeded order, each CLI job with its seeded
    ``--seed`` field.  Returns a list of (job, argv) pairs."""
    rng = random.Random(seed)
    out = []
    for job in WORKLOADS[workload]:
        argv = job.argv
        if argv:
            argv = argv + ("--seed", str(rng.randrange(1, 1000)))
        out.append((job, argv))
    rng.shuffle(out)
    return out


def load_expected():
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


def check_output(job, text, expected):
    """Error message for a wrong job output, or None."""
    text = strip_seed(text)
    if job.check is not None:
        err = job.check(job, text)
        if err:
            return err
    if expected.get(job.expect) != digest(text):
        return MISMATCH
    return None
