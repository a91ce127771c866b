"""The suites of the ``verify`` command: identities that two independent
routes must agree on.

- porteous: the Thom-Porteous determinant against the split Grassmann
  pushforward of a top Chern class (``porteous_two_routes``, defined
  here; ``nesthilb.cli`` also offers the name and loads this module
  only when it is read, so this module never imports cli);
- delta: the determinantal and Euler forms of a degeneracy class;
- segre: a projective-bundle pushforward against a Segre class;
- euler: Euler numbers and Betti numbers of S^[n] by localization
  against Goettsche's generating series;
- characters: closed-form tangent characters and cached Rhom pieces
  against their assembled forms.

Each suite returns a list of (check name, passed) pairs.  The modules a
suite runs are reached through the module object at call time, so the
``euler`` and ``characters`` suites load neither the ring model nor the
formal evaluator.
"""

from math import comb

from .expr import FormulaExpr
# lazy modules (see the package docstring)
from . import bundles, hilbloc, porteous, ringcore
from . import surface as surfaces


def _series_coefficient(e, n):
    """Coefficient of q^n in prod_m (1 - q^m)^(-e)."""
    coefs = [0] * (n + 1)
    coefs[0] = 1
    for m in range(1, n + 1):
        new = [0] * (n + 1)
        for j in range(n // m + 1):
            c = comb(e + j - 1, j)
            for i in range(n + 1 - m * j):
                new[i + m * j] += coefs[i] * c
        coefs = new
    return coefs[n]


def _gottsche_betti(e, N):
    """Betti numbers of S^[n], n <= N, for a toric surface with Euler
    number e: a list of {i: b_2i}, from Goettsche's product
    prod_k 1 / ((1 - z^(2k-2) q^k) (1 - z^(2k) q^k)^(e-2)
    (1 - z^(2k+2) q^k)), with z^2 counted as one step of i."""
    series = [{0: 1}] + [{} for _ in range(N)]
    for k in range(1, N + 1):
        for shift, power in ((k - 1, 1), (k, e - 2), (k + 1, 1)):
            for _ in range(power):
                # times 1 / (1 - z^(2 shift) q^k), in place by rising n
                for n in range(N + 1 - k):
                    for i, b in list(series[n].items()):
                        row = series[n + k]
                        row[i + shift] = row.get(i + shift, 0) + b
    return series


def _split_class(ring, names):
    """The sum of the lines whose first Chern classes are the named
    generators of the ring."""
    if not names or ring.D == 0:
        # no roots, or a ring in which every generator is zero
        return ringcore.KClass.trivial(ring, len(names))
    return ringcore.KClass.from_roots([ring.gen(n) for n in names])


def porteous_two_routes(r, e0, e1, D=None):
    """Determinantal class of the rank-r kernel locus next to the
    direct sum-over-subsets pushforward of the top Chern class of
    Hom(U, E1) from the split Grassmann bundle of subs of E0.

    Returns (determinant route, localization route) in a common
    truncated root ring.
    """
    codim = r * (e1 - e0 + r)
    if D is None:
        D = codim + r + 1
    anames = ["a%d" % i for i in range(1, e0 + 1)]
    bnames = ["b%d" % k for k in range(1, e1 + 1)]
    names = anames + bnames
    degrees = [1] * len(names)
    ring = ringcore.Ring(names, degrees=degrees, D=D)
    # the determinant reads c_k(E) for k < e1 - e0 + 2r only
    low = ring.truncated(min(D, e1 - e0 + 2 * r - 1))
    E = _split_class(low, bnames) - _split_class(low, anames)
    det_route, _ = porteous.degeneracy_pushforward_X(
        e0, e1, r, ring.lift(E.chern), dimX=D)

    free = ringcore.Ring(names, degrees=degrees)
    aroots = [free.gen(n) for n in anames]
    broots = [free.gen(n) for n in bnames]

    def top_chern(*subs):
        acc = free.one()
        for u in subs:
            for b in broots:
                acc = acc * (b - u)
        return acc

    push = bundles.grassmann_split_pushforward(aroots, r, top_chern)
    return det_route, ring.cast(push)


def _suite_porteous(emax=3):
    checks = []
    for r in (1, 2):
        for e0 in range(r, emax + 1):
            for e1 in range(0, emax + 1):
                if e1 - e0 + r < 0:
                    continue
                det_route, loc_route = porteous_two_routes(r, e0, e1)
                checks.append(("porteous r=%d e0=%d e1=%d" % (r, e0, e1),
                               det_route == loc_route))
    return checks


def delta_euler_forms(r, b, e0, e1):
    """The determinantal and Euler forms of the degeneracy class over
    the Grassmann bundle, evaluated in a fully split environment.

    The Euler form needs the surjection hypothesis, so the split model
    realizes it: E0 is bound to the first e0 roots of B + E1, making
    the inner class an honest bundle spanned by the leftover roots.
    """
    N = b + e1 - e0
    xnames = ["x%d" % i for i in range(1, b + 1)]
    fnames = ["f%d" % i for i in range(1, e1 + 1)]
    unames = ["u%d" % i for i in range(1, r + 1)]
    names = xnames + fnames + unames
    ring = ringcore.Ring(names, degrees=[1] * len(names), D=r * N + 1)
    env = porteous.FormalEnv(ring)
    B = FormulaExpr.leaf("B", rank=b)
    E1 = FormulaExpr.leaf("E1", rank=e1)
    E0 = FormulaExpr.leaf("E0", rank=e0)
    env.bind(B, _split_class(ring, xnames))
    env.bind(E1, _split_class(ring, fnames))
    env.bind(E0, _split_class(ring, (xnames + fnames)[:e0]))
    env.bind(FormulaExpr.leaf("U", rank=r), _split_class(ring, unames))
    roots = None
    if r > 1:
        roots = [FormulaExpr.leaf(n, rank=1) for n in unames]
        for leaf, n in zip(roots, unames):
            env.bind(leaf, ringcore.KClass.line(ring.gen(n)))
    det_form, euler_form = porteous.degeneracy_pushforward_GrB(
        E0, E1, B, r, esurj2=True, roots=roots)
    return porteous.eval_formal(det_form, env), \
        porteous.eval_formal(euler_form, env)


def _suite_delta(bmax=4, Nmax=5):
    checks = []
    for r in (1, 2):
        for b in range(r, bmax + 1):
            for e0 in (0, 1, 2):
                for e1 in (0, 1, 2):
                    N = b + e1 - e0
                    if not 0 <= N <= Nmax:
                        continue
                    det_val, euler_val = delta_euler_forms(r, b, e0, e1)
                    checks.append(
                        ("delta r=%d b=%d e0=%d e1=%d" % (r, b, e0, e1),
                         det_val == euler_val))
    return checks


def segre_two_routes(b, k):
    """Pushforward of h^(b-1+k) from the split projective bundle of
    sub-lines next to the degree-k Segre component of the base bundle.
    """
    names = ["a%d" % i for i in range(1, b + 1)]
    free = ringcore.Ring(names, degrees=[1] * b)
    roots = [free.gen(n) for n in names]

    def h_power(u):
        acc = free.one()
        for _ in range(b - 1 + k):
            acc = acc * (-u)
        return acc

    push = bundles.grassmann_split_pushforward(roots, 1, h_power)
    ring = ringcore.Ring(names, degrees=[1] * b, D=k)
    total = _split_class(ring, names).chern
    segre = ringcore.series_invert(total).component(k)
    return ring.cast(push), segre


def _suite_segre(bmax=4, extra=3):
    checks = []
    for b in range(1, bmax + 1):
        for k in range(0, b + extra + 1):
            push, segre = segre_two_routes(b, k)
            checks.append(("segre b=%d k=%d" % (b, k), push == segre))
    return checks


def _suite_euler(nmax=3):
    integrand = FormulaExpr.euler(FormulaExpr.leaf("tangent"))
    checks = []
    for name, e in (("P2", 3), ("P1xP1", 4)):
        ctx = hilbloc.LocalizationContext(surfaces.load_surface(name))
        for n in range(nmax + 1):
            value = hilbloc.equivariant_integrate(integrand, ctx, 0, n)
            checks.append(("euler %s n=%d" % (name, n),
                           value == _series_coefficient(e, n)))
        betti = _gottsche_betti(e, nmax)
        for n in range(nmax + 1):
            checks.append(("betti %s n=%d" % (name, n),
                           hilbloc.tangent_index_counts(ctx, n) == betti[n]))
    return checks


def rhom_by_assembly(surface, parts_a, parts_b, beta):
    """The assembly route for the global Rhom character: the chart
    characters summed by ``hilbloc.assemble``, as an independent check
    of ``hilbloc.rhom_global_character``."""
    return hilbloc.assemble([
        hilbloc.rhom_character(mu, nu, chart, u)
        for chart, u, mu, nu in zip(surface.charts,
                                    surface.chart_vertices(beta),
                                    parts_a, parts_b)])


def _suite_characters(nmax=3):
    checks = []
    m1, m2 = (1, 0), (0, 1)
    w = ((-1, 0), (0, -1))
    dbar = hilbloc.dual(hilbloc._denominator_char(m1, m2))
    for n in range(1, nmax + 1):
        for mu in hilbloc.partitions(n):
            # q + conj(q) t^(-1,-1) - conj(d q) q, q the box character
            q = hilbloc.box_character(mu, m1, m2)
            qbar = hilbloc.dual(q)
            vertex = hilbloc._exps_sum(
                hilbloc._exps_sum(
                    q, hilbloc.specialize_weights(qbar, None, (-1, -1, 0))),
                hilbloc._char_product(hilbloc._char_product(dbar, qbar), q),
                -1)
            checks.append(("tangent vertex mu=%r" % (mu,),
                           vertex == hilbloc.tangent_character(mu, w)))
    # the cached arm/leg pieces of Rhom against the assembled rational
    # chart characters, at every ambient fixed point
    for name, beta in (("P2", (1,)), ("P1xP1", (1, 1))):
        ctx = hilbloc.LocalizationContext(surfaces.load_surface(name))
        for n1 in range(3):
            for n2 in range(3):
                checks.append((
                    "rhom pieces %s beta=%s n1=%d n2=%d"
                    % (name, ",".join(map(str, beta)), n1, n2),
                    all(hilbloc.rhom_global_character(ctx, mus, nus, beta)
                        == rhom_by_assembly(ctx.surface, mus, nus, beta)
                        for mus, nus, _ in hilbloc.enumerate_fixed_points(
                            ctx, n1, n2, nested=False))))
    return checks


SUITES = {"porteous": _suite_porteous, "delta": _suite_delta,
          "segre": _suite_segre, "euler": _suite_euler,
          "characters": _suite_characters}
