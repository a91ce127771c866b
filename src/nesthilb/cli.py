"""Batch front-end: one process runs one job.

A job is a single JSON object (a command plus its inputs), optionally
layered under command-line flag overrides; flags win.  No environment
variables are consulted.  Output is a deterministic function of the
job and its seed, every number is emitted in loss-free p/q form, and
failures exit with a machine-readable error document:

    0  success
    2  malformed job (schema)
    3  violated mathematical invariant
    4  universality failure (nonzero residual or bad design)
"""

import argparse
import csv
import io
import json
import os
import sys

from .expr import FormulaExpr, expr_to_json, expr_from_json, co_class, \
    rational_str, parse_rational
# lazy modules (see the package docstring), reached through the module
# at call time, so that a job loads only what its command runs; the
# alias keeps the module apart from the many locals named surface
from . import checks, hilbloc, porteous, ringcore, vw
from . import surface as surfaces

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_MATH = 3
EXIT_RESIDUAL = 4

COMMANDS = ("verify", "push", "integrate", "vw", "fit")
FORMATS = ("json", "csv", "text")
SUITE_NAMES = ("porteous", "delta", "segre", "euler", "characters", "all")
# the job fields that a command-line flag of the same name overrides
FLAGS = ("suite", "surface", "beta", "A", "formula", "n", "n1", "n2",
         "order", "threads", "seed", "format", "out")
# the fields each command needs, and the formulas of those that take one
REQUIRED = {"push": ("formula",), "integrate": ("surface", "formula", "n"),
            "vw": ("surface", "beta", "n"), "fit": ("n",)}
FORMULAS = {"push": ("porteous", "reduced"),
            "integrate": ("euler", "one", "co", "custom")}
# the keys the two nested objects of a job may hold
PARAMS_KEYS = ("expr", "monomials", "window", "h2_vanishing")
SW_KEYS = ("entries", "higher_mode")

DEFAULT_FIT_RUNS = (("P2", (1,)), ("P2", (2,)), ("P1xP1", (1, 1)),
                    ("P1xP1", (2, 2)), ("F2", (2, 1)), ("F2", (4, 2)))
DEFAULT_FIT_MONOMIALS = ("1", "c1sq", "betasq", "c1beta")


def __getattr__(name):
    # PEP 562: porteous_two_routes lives in checks (the benchmark's
    # library jobs call it here), which then loads on first read
    if name == "porteous_two_routes":
        return checks.porteous_two_routes
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class SchemaError(ValueError):
    """The job object does not satisfy the schema."""


# ---------------------------------------------------------------------------
# job specification


def _require_int(value, name, least=None):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError("field %r must be an integer" % name)
    try:
        value = int(value)
    except ValueError:
        raise SchemaError("field %r must be an integer" % name)
    if least is not None and value < least:
        raise SchemaError("field %r must be at least %d" % (name, least))
    return value


def _parse_vector(value, name):
    if value is None:
        return None
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError("field %r must be a lattice vector" % name)
    out = []
    for entry in value:
        try:
            x = parse_rational(str(entry))
        except (ValueError, ZeroDivisionError):
            raise SchemaError("field %r has a non-rational entry %r"
                              % (name, entry))
        if x.denominator != 1:
            raise SchemaError("field %r has a non-integral entry %r: a"
                              " class has integer coordinates" % (name, entry))
        out.append(x)
    return tuple(out)


def _parse_class(value, name, surface):
    """A lattice vector that, when there is a surface, fits its lattice."""
    vec = _parse_vector(value, name)
    if vec is not None and surface is not None:
        try:
            surface.cls(vec)
        except ValueError:
            raise SchemaError("field %r does not fit the surface lattice"
                              % name)
    return vec


def _load_surface(source, what="bad surface"):
    try:
        return surfaces.load_surface(source)
    except (ValueError, OSError) as err:
        raise SchemaError("%s: %s" % (what, err))


def _parse_n(value):
    if value is None:
        return None
    if isinstance(value, str) and ":" in value:
        value = value.split(":")
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise SchemaError("field 'n' range must be a pair")
        lo = _require_int(value[0], "n", least=0)
        hi = _require_int(value[1], "n", least=0)
        if hi < lo:
            raise SchemaError("field 'n' range is empty")
        return tuple(range(lo, hi + 1))
    return (_require_int(value, "n", least=0),)


def _parse_window(value):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError("params.window must be a pair of rationals")
    try:
        return tuple(parse_rational(str(x)) for x in value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError("params.window must be a pair of rationals")


def _check_keys(obj, allowed, prefix=""):
    for key in obj:
        if key not in allowed:
            raise SchemaError("unknown field %r" % (prefix + str(key)))


def _parse_flag(obj, key, name):
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError("%s must be true or false" % name)
    return value


def _parse_runs(source):
    """Fit runs as (surface, beta) or (surface, beta, value) tuples."""
    if source is None:
        source = DEFAULT_FIT_RUNS
    if not isinstance(source, (list, tuple)) or not source:
        raise SchemaError("field 'runs' must be a nonempty list")
    runs = []
    for item in source:
        if not isinstance(item, (list, tuple)) or len(item) not in (2, 3):
            raise SchemaError("each run is [surface, beta] or"
                              " [surface, beta, value]")
        surface = _load_surface(item[0], "bad surface in runs")
        beta = _parse_class(item[1] or (), "runs.beta", surface)
        if len(item) == 3:
            try:
                value = parse_rational(str(item[2]))
            except (ValueError, ZeroDivisionError):
                raise SchemaError("run value %r is not rational"
                                  % (item[2],))
            runs.append((surface, beta, value))
        elif not isinstance(surface, surfaces.ToricSurface):
            raise SchemaError("point contributions need a toric surface"
                              " or a supplied table")
        else:
            runs.append((surface, beta))
    return runs


class JobSpec:
    """One validated batch job: the only place a job is rejected.

    Collects the command, the geometric inputs (surface, curve classes,
    lengths), the formula or suite to run, output options, and the seed
    that fixes the weight specialization.  Every field is parsed once,
    here (surfaces, formula, ``custom`` tree, fit runs, Seiberg-Witten
    entries, boolean params), and a ``vw`` job's Seiberg-Witten table
    is built here; the handlers only compute.

    ``threads`` is accepted and validated (an integer from 1 to the CPU
    count) so that existing job files keep running, but nothing reads
    it: a job runs in one process, and parallel work means running
    jobs side by side.
    """

    FIELDS = ("command", "runs", "sw", "params") + FLAGS

    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise SchemaError("job must be a JSON object")
        _check_keys(doc, self.FIELDS)

        self.command = doc.get("command")
        if self.command not in COMMANDS:
            raise SchemaError("command must be one of %s"
                              % ", ".join(COMMANDS))

        ref = doc.get("surface")
        self.surface = None if ref is None else _load_surface(ref)
        self.beta = _parse_class(doc.get("beta"), "beta", self.surface)
        self.A = _parse_class(doc.get("A"), "A", self.surface)

        self.n_range = _parse_n(doc.get("n"))
        self.n1 = _require_int(doc.get("n1", 0), "n1", least=0)
        self.n2 = _require_int(doc.get("n2", 0), "n2", least=0)
        self.formula = doc.get("formula")
        self.suite = doc.get("suite")
        self.order = _require_int(doc.get("order", 0), "order", least=0)
        self.seed = _require_int(doc.get("seed", 0), "seed")
        self.threads = _require_int(doc.get("threads", 1), "threads",
                                    least=1)
        cpus = os.cpu_count()
        if cpus is not None and self.threads > cpus:
            raise SchemaError("field 'threads' must be at most %d, the"
                              " number of CPUs" % cpus)
        self.out = doc.get("out")
        if self.out is not None and not isinstance(self.out, str):
            raise SchemaError("field 'out' must be a file path")
        self.params = doc.get("params") or {}
        if not isinstance(self.params, dict):
            raise SchemaError("field 'params' must be an object")
        _check_keys(self.params, PARAMS_KEYS, "params.")
        monomials = self.params.get("monomials")
        if monomials is None:
            monomials = DEFAULT_FIT_MONOMIALS
        elif not (isinstance(monomials, (list, tuple)) and monomials
                  and all(name in vw.MONOMIALS for name in monomials)):
            raise SchemaError("params.monomials must be a nonempty list of"
                              " names from %s" % ", ".join(vw.MONOMIALS))
        self.monomials = list(monomials)
        self.window = _parse_window(self.params.get("window"))
        self.h2_vanishing = _parse_flag(self.params, "h2_vanishing",
                                        "params.h2_vanishing")
        sw_entries, higher_mode = None, False
        sw = doc.get("sw")
        if sw is not None:
            if not isinstance(sw, dict):
                raise SchemaError("field 'sw' must be an object")
            _check_keys(sw, SW_KEYS, "sw.")
            # no entries: the surface's own table; a list replaces it
            entries = sw.get("entries")
            if entries is not None:
                if not isinstance(entries, (list, tuple)):
                    raise SchemaError("field 'sw.entries' must be a list")
                if self.surface is not None:
                    try:
                        sw_entries = surfaces.parse_sw_entries(
                            self.surface, entries)
                    except ValueError as err:
                        raise SchemaError("field 'sw.entries': %s" % err)
            higher_mode = _parse_flag(sw, "higher_mode",
                                      "field 'sw.higher_mode'")

        self.format = doc.get("format") or "text"
        if self.format not in FORMATS:
            raise SchemaError("format must be one of %s"
                              % ", ".join(FORMATS))

        self._check_required()
        if self.command in FORMULAS:
            self._check_formula()
        if self.command == "fit":
            self.runs = _parse_runs(doc.get("runs"))
        if self.command == "vw":
            try:
                self.sw_table = vw.SWTable(self.surface, sw_entries,
                                           higher_mode)
            except ValueError as err:
                raise SchemaError(str(err))

    def _check_required(self):
        if self.command == "verify" and self.suite not in SUITE_NAMES:
            raise SchemaError("suite must be one of %s"
                              % ", ".join(SUITE_NAMES))
        have = {"surface": self.surface, "beta": self.beta,
                "formula": self.formula, "n": self.n_range}
        for name in REQUIRED.get(self.command, ()):
            if not have[name]:
                raise SchemaError("command %r needs field %r"
                                  % (self.command, name))
        if self.command == "fit" and len(self.n_range) != 1:
            raise SchemaError("fit takes a single n")
        if self.command == "integrate" \
                and not isinstance(self.surface, surfaces.ToricSurface):
            raise SchemaError("localization needs a toric surface")

    def _check_formula(self):
        """Set formula_name, formula_args and the custom tree expr."""
        if not isinstance(self.formula, str):
            raise SchemaError("field 'formula' must be a string")
        name, _, tail = self.formula.partition(":")
        args = []
        for piece in tail.split(",") if tail else ():
            try:
                args.append(int(piece))
            except ValueError:
                raise SchemaError("formula argument %r is not an integer"
                                  % piece)
        if name not in FORMULAS[self.command]:
            raise SchemaError("unknown formula %r" % name)
        self.formula_name, self.formula_args = name, args
        if name == "porteous":
            if len(args) != 3:
                raise SchemaError("formula 'porteous' takes r,e0,e1")
            r, e0, e1 = args
            if not 1 <= r <= e0:
                raise SchemaError("kernel rank out of range")
            if e1 - e0 + r < 0:
                raise SchemaError("negative expected codimension")
        if name == "reduced" and (self.surface is None or self.beta is None):
            raise SchemaError("formula 'reduced' needs surface and beta")
        if name == "reduced" and not self.h2_vanishing:
            raise SchemaError("reduced formula needs the H2-vanishing flag")
        if name == "reduced" and self.format == "csv":
            raise SchemaError("format 'csv' fits only polynomial output")
        if name == "co" and len(args) != 1:
            raise SchemaError("formula 'co' takes the shift i")
        if name == "co" and self.beta is None:
            raise SchemaError("formula 'co' needs beta")
        if name == "custom":
            if "expr" not in self.params:
                raise SchemaError("formula 'custom' needs params.expr")
            try:
                self.expr = expr_from_json(self.params["expr"], "params.expr")
            except ValueError as err:
                raise SchemaError(str(err))
        if self.command == "integrate" and (self.n1 or self.n2):
            # rows are labelled by n, which S^[n1] x S^[n2] ignores
            if name != "custom":
                raise SchemaError("fields 'n1' and 'n2' apply only to"
                                  " formula 'custom'")
            if len(self.n_range) != 1:
                raise SchemaError("fields 'n1' and 'n2' take a single n")


# ---------------------------------------------------------------------------
# command handlers


def _handle_verify(job):
    names = SUITE_NAMES[:-1] if job.suite == "all" else (job.suite,)
    results = []
    for name in names:
        results.extend(checks.SUITES[name]())
    ok = all(flag for _, flag in results)
    doc = {"suite": job.suite,
           "checks": [{"name": name, "ok": flag} for name, flag in results],
           "ok": ok}
    return (EXIT_OK if ok else EXIT_MATH), doc


def _term_string(ring, mono):
    parts = []
    for name, power in zip(ring.names, mono):
        if power == 1:
            parts.append(name)
        elif power > 1:
            parts.append("%s^%d" % (name, power))
    return "*".join(parts) if parts else "1"


def _class_terms(cls):
    return [[_term_string(cls.ring, mono), rational_str(coeff)]
            for mono, coeff in sorted(cls.poly.items())
            if coeff != 0]


def _handle_push(job):
    if job.formula_name == "porteous":
        r, e0, e1 = job.formula_args
        codim = r * (e1 - e0 + r)
        size = max(codim, 1)
        ring = ringcore.Ring(["c%d" % i for i in range(1, size + 1)],
                             degrees=list(range(1, size + 1)), D=size)
        total = ring.one()
        for i in range(1, size + 1):
            total = total + ring.gen("c%d" % i)
        cls, _ = porteous.degeneracy_pushforward_X(e0, e1, r, total,
                                                   dimX=codim)
        doc = {"formula": job.formula, "codim": codim,
               "class": _class_terms(cls), "text": str(cls)}
        return EXIT_OK, doc
    A = job.A if job.A is not None else job.surface.zero_class()
    expr, info = porteous.nested_reduced_formula(
        job.n1, job.n2, job.surface, job.beta, A,
        h2_vanishing=job.h2_vanishing)
    doc = {"formula": job.formula, "expr": expr_to_json(expr),
           "info": {k: int(v) for k, v in info.items()}}
    return EXIT_OK, doc


def _integrand(job, n):
    """The integrand of the job at length n, with its (n1, n2)."""
    if job.formula_name == "euler":
        return FormulaExpr.euler(FormulaExpr.leaf("tangent")), 0, n
    if job.formula_name == "one":
        return FormulaExpr.one(), 0, n
    if job.formula_name == "co":
        return FormulaExpr.chern(n + job.formula_args[0],
                                 co_class(bc=1)), 0, n
    if job.n1 or job.n2:
        return job.expr, job.n1, job.n2
    return job.expr, 0, n


def _handle_integrate(job):
    rows = []
    # one context for the job: every n shares its chart pieces and maps
    ctx = hilbloc.LocalizationContext(job.surface, beta=job.beta, A=job.A)
    for n in job.n_range:
        expr, n1, n2 = _integrand(job, n)
        value = hilbloc.equivariant_integrate(
            expr, ctx, n1, n2, refined=job.order > 0, seed=job.seed)
        rows.append({"n": n,
                     "value": hilbloc.format_value(value, job.order)})
    return EXIT_OK, {"formula": job.formula,
                     "surface": job.surface.name, "rows": rows}


def _handle_vw(job):
    rows = []
    # one context for every n and splitting of the job; a profile
    # surface has none and fails in vw without a point table
    ctx = None
    if isinstance(job.surface, surfaces.ToricSurface):
        ctx = hilbloc.LocalizationContext(job.surface, beta=job.beta)
    for n in job.n_range:
        result = vw.monopole_contribution(
            job.surface, job.sw_table, job.beta, n, seed=job.seed,
            window=job.window, context=ctx)
        rows.extend(result.rows(job.order))
    return EXIT_OK, {"surface": job.surface.name,
                     "columns": list(vw.ROW_FIELDS), "rows": rows}


def _handle_fit(job):
    fit = vw.universality_fit(job.n_range[0], job.runs,
                              monomials=job.monomials, seed=job.seed)
    return EXIT_OK, vw.fit_report(fit, order=job.order or 4)


HANDLERS = {"verify": _handle_verify, "push": _handle_push,
            "integrate": _handle_integrate, "vw": _handle_vw,
            "fit": _handle_fit}


# ---------------------------------------------------------------------------
# rendering


def _render_json(job, doc):
    body = dict(doc)
    body["command"] = job.command
    body["seed"] = job.seed
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _csv_text(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([columns] + rows)
    return buf.getvalue()


def _render_csv(job, doc):
    head = "# seed %d\n" % job.seed
    if job.command == "verify":
        rows = [[c["name"], "ok" if c["ok"] else "FAIL"]
                for c in doc["checks"]]
        return head + _csv_text(["check", "status"], rows)
    if job.command == "push":
        return head + _csv_text(["term", "coeff"], doc["class"])
    if job.command == "integrate":
        rows = [[row["n"], row["value"]] for row in doc["rows"]]
        return head + _csv_text(["n", "value"], rows)
    if job.command == "vw":
        rows = [[row[c] for c in doc["columns"]] for row in doc["rows"]]
        return head + _csv_text(doc["columns"], rows)
    rows = [[name, doc["coefficients"][name]] for name in doc["monomials"]]
    rows.append(["residual", doc["residual"]])
    return head + _csv_text(["monomial", "coefficient"], rows)


def _render_text(job, doc):
    lines = []
    if job.command == "verify":
        for c in doc["checks"]:
            lines.append(("ok " if c["ok"] else "FAIL ") + c["name"])
        lines.append("all green" if doc["ok"] else "%d of %d failed"
                     % (sum(not c["ok"] for c in doc["checks"]),
                        len(doc["checks"])))
    elif job.command == "push":
        if "text" in doc:
            lines.append(doc["text"])
        else:
            lines.append(json.dumps(doc["expr"], sort_keys=True))
            lines.append(json.dumps(doc["info"], sort_keys=True))
    elif job.command == "integrate":
        for row in doc["rows"]:
            lines.append(row["value"])
    elif job.command == "vw":
        for row in doc["rows"]:
            if row["n1"] == "":
                lines.append(row["value"])
    else:
        for name in doc["monomials"]:
            lines.append("%s %s" % (name, doc["coefficients"][name]))
        lines.append("residual %s" % doc["residual"])
    lines.append("# seed %d" % job.seed)
    return "\n".join(lines) + "\n"


def _render(job, doc):
    if job.format == "json":
        return _render_json(job, doc)
    if job.format == "csv":
        return _render_csv(job, doc)
    return _render_text(job, doc)


def _render_error(code, message):
    doc = {"error": {"code": code, "message": message}}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run(job):
    """Execute one validated job.  Returns (exit code, artifact text)."""
    try:
        code, doc = HANDLERS[job.command](job)
        return code, _render(job, doc)
    except vw.UniversalityError as err:
        return EXIT_RESIDUAL, _render_error(EXIT_RESIDUAL, str(err))
    except ValueError as err:
        return EXIT_MATH, _render_error(EXIT_MATH, str(err))


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    """Raises SchemaError where argparse would print its usage and exit
    2, so a malformed command line also gets the JSON error document."""

    def error(self, message):
        raise SchemaError("command line: %s" % message)


def build_parser():
    parser = _Parser(
        prog="nesthilb",
        description="batch runner for intersection-theory jobs")
    parser.add_argument("command")
    parser.add_argument("--job", help="JSON job file; flags override it")
    for name in FLAGS:
        parser.add_argument("--" + name)
    return parser


def _merge_job(args):
    doc = {}
    if args.job is not None:
        try:
            with open(args.job) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise SchemaError("cannot read job file: %s" % err)
        except ValueError as err:
            raise SchemaError("job file is not valid JSON: %s" % err)
        except RecursionError:
            raise SchemaError("job file nests too deeply")
        if not isinstance(doc, dict):
            raise SchemaError("job file must hold a JSON object")
    for name in FLAGS:
        value = getattr(args, name)
        if value is not None:
            doc[name] = value
    doc["command"] = args.command
    return doc


def main(argv=None):
    try:
        job = JobSpec(_merge_job(build_parser().parse_args(argv)))
    except SystemExit as err:
        # --help, after printing the usage
        return EXIT_SCHEMA if err.code else EXIT_OK
    except SchemaError as err:
        sys.stdout.write(_render_error(EXIT_SCHEMA, str(err)))
        return EXIT_SCHEMA
    code, text = run(job)
    if job.out:
        try:
            with open(job.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as err:
            sys.stdout.write(_render_error(
                EXIT_SCHEMA, "cannot write output file: %s" % err))
            return EXIT_SCHEMA
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
