"""Run one benchmark job in this fresh interpreter.

    python3 perfbench/jobproc.py RECORD TRACE JOB_ID cli ARG...
    python3 perfbench/jobproc.py RECORD TRACE JOB_ID lib NAME

``cli`` runs ``nesthilb.cli.main(ARG...)``, which is what the
``nesthilb`` command does; ``lib`` runs one of LIBRARY_JOBS through the
public functions.  nesthilb is imported from the checkout's ``src``.
The job's output goes to stdout and its exit code is the job's.  A JSON
record goes to RECORD: when the handler started (CLOCK_MONOTONIC, which
the parent shares) and, with TRACE=1, the job's spans and counts, the
first span timing ``import nesthilb.cli``.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def porteous_r3(cli):
    """Determinant route against the split Grassmann route at r = 3,
    where the cofactor determinant has 3! terms per entry product."""
    for e0, e1 in ((3, 3), (3, 4)):
        det_route, loc_route = cli.porteous_two_routes(3, e0, e1)
        print("route porteous r=3 e0=%d e1=%d %s"
              % (e0, e1, "equal" if det_route == loc_route else "differ"))
        print(det_route)
    return 0


def flag_tower_e3(cli):
    """Rank-2 Grassmann pushforward of F from a rank-3 bundle, as the
    split formula and as the flag tower P(Q_1) -> P(B) -> point, whose
    ring products go through the relation reduction."""
    from nesthilb.ringcore import Ring, KClass
    from nesthilb.bundles import free_model, projective_bundle, \
        proj_pushforward, grassmann_split_pushforward

    names = ["b%d" % i for i in range(3)]

    def F(x, y):
        return (x + y) ** 2 * x * y + x ** 3 * y ** 3

    split = grassmann_split_pushforward(Ring(names).gens(), 2, F)
    base = free_model(names, D=12)
    P1 = projective_bundle(base, KClass.from_roots(base.ring.gens()),
                           name="h1")
    P2 = projective_bundle(P1, P1.taut["Q"], name="h2")
    h1 = P2.ring.lift(P1.taut["h"])
    h2 = P2.taut["h"]
    tower = proj_pushforward(P1, proj_pushforward(P2, F(-h1, -h2) * h1))
    split = base.ring.cast(split)
    print("route flag tower e=3 r=2 %s"
          % ("equal" if split == tower else "differ"))
    print(tower)
    return 0


LIBRARY_JOBS = {"porteous-r3": porteous_r3, "flag-tower-e3": flag_tower_e3}


def main(argv):
    record_path, trace, job_id, kind = argv[1:5]
    args = argv[5:]
    start = time.monotonic()
    import nesthilb.cli as cli
    imported = time.monotonic()
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        print("nesthilb was not imported from %s" % SRC, file=sys.stderr)
        return 70
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer(job_id)
        tracer.install()
        tracer.add_span("cli.import", start, imported)

    marks = {}

    def marked(handler):
        def run(*a, **k):
            marks["handler_start"] = time.monotonic()
            return handler(*a, **k)
        return run

    if kind == "cli":
        for name, handler in list(cli.HANDLERS.items()):
            cli.HANDLERS[name] = marked(handler)
        code = cli.main(args)
    else:
        code = marked(LIBRARY_JOBS[args[0]])(cli)
    sys.stdout.flush()
    record = {"handler_start": marks.get("handler_start")}
    if tracer is not None:
        record.update(tracer.dump())
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
