"""Surface geometry: numeric invariants, toric models, lattice data.

A `SurfaceData` is a numerical profile of a surface (chi(O), K^2,
Euler number, irregularity, geometric genus) plus a small Neron-Severi
lattice and a Seiberg-Witten table; it is enough for the formal
pushforward identities.  A `ToricSurface` is a `SurfaceData` whose
profile is derived from a smooth complete fan in Z^2, and it adds the
chart data needed for equivariant localization: dual bases, fixed
points, polytopes of invariant divisors.

Conventions.  Rays are listed counterclockwise; chart i is the cone on
(v_i, v_{i+1}).  On chart i the dual basis (m_1, m_2) satisfies
<m_a, v_b> = delta_ab, torus weights of the two tangent directions are
(-m_1, -m_2), and the invariant divisor sum(a_rho D_rho) trivializes
with weight u_sigma, <u_sigma, v_rho> = -a_rho on the chart's rays.
Sections of the line bundle are the lattice points u with
<u, v_rho> >= -a_rho for every ray.
"""

import json
from fractions import Fraction

from .expr import parse_rational


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


class SurfaceData:
    """Numeric invariants and lattice data of a surface.

    gram is the intersection matrix of the chosen Neron-Severi basis,
    K the canonical class in that basis, sw_table a map from class
    tuples to Seiberg-Witten invariants (Fractions).
    """

    def __init__(self, name, chiO, K2, e, q, pg, gram, K, sw_table=None,
                 basis_names=None):
        self.name = name
        self.chiO = int(chiO)
        self.K2 = int(K2)
        self.e = int(e)
        self.q = int(q)
        self.pg = int(pg)
        if 12 * self.chiO != self.K2 + self.e:
            raise ValueError("invariants violate Noether's formula")
        if self.chiO != 1 - self.q + self.pg:
            raise ValueError("chi(O) must equal 1 - q + p_g")
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.rank = len(self.gram)
        if any(len(row) != self.rank for row in self.gram):
            raise ValueError("intersection matrix must be square")
        if any(self.gram[i][j] != self.gram[j][i]
               for i in range(self.rank) for j in range(self.rank)):
            raise ValueError("intersection matrix must be symmetric")
        self.K = tuple(Fraction(x) for x in K)
        if len(self.K) != self.rank:
            raise ValueError("canonical class has wrong rank")
        if self.dot(self.K, self.K) != self.K2:
            raise ValueError("K.K disagrees with K^2")
        self.sw_table = dict(sw_table or {})
        self.basis_names = tuple(basis_names) if basis_names else \
            tuple("B%d" % i for i in range(self.rank))

    def dot(self, a, b):
        """Intersection pairing of two classes in the chosen basis."""
        a, b = self.cls(a), self.cls(b)
        return sum(a[i] * self.gram[i][j] * b[j]
                   for i in range(self.rank) for j in range(self.rank))

    def cls(self, a):
        a = tuple(Fraction(x) for x in a)
        if len(a) != self.rank:
            raise ValueError("class has wrong rank")
        return a

    def add(self, a, b):
        return tuple(x + y for x, y in zip(self.cls(a), self.cls(b)))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(self.cls(a), self.cls(b)))

    def scale(self, c, a):
        c = Fraction(c)
        return tuple(c * x for x in self.cls(a))

    def zero_class(self):
        return (Fraction(0),) * self.rank

    def __repr__(self):
        return "SurfaceData(%r)" % (self.name,)


class Chart:
    """Torus-fixed chart of a toric surface: the cone on (v, w)."""

    __slots__ = ("index", "v", "w", "m1", "m2")

    def __init__(self, index, v, w):
        d = _cross2(v, w)
        if d != 1:
            raise ValueError("fan is not smooth and counterclockwise")
        self.index = index
        self.v = v
        self.w = w
        self.m1 = (w[1], -w[0])
        self.m2 = (-v[1], v[0])

    def tangent_weights(self):
        """Weights of the torus action on the tangent plane."""
        return ((-self.m1[0], -self.m1[1]), (-self.m2[0], -self.m2[1]))

    def vertex(self, coeffs):
        """Trivializing weight of sum(a_rho D_rho) on this chart."""
        a, b = coeffs
        return (-a * self.m1[0] - b * self.m2[0],
                -a * self.m1[1] - b * self.m2[1])


class ToricSurface(SurfaceData):
    """Smooth complete toric surface from counterclockwise rays.

    Derives the Neron-Severi basis (indices of basis rays supplied or
    the first two), the intersection form and the canonical class, and
    from them its own numeric profile (chi(O) = 1, q = p_g = 0, Euler
    number the number of rays), verified against Noether's formula.
    """

    def __init__(self, name, rays, basis=None, basis_names=None):
        self.rays = [tuple(int(x) for x in r) for r in rays]
        n = len(self.rays)
        if n < 3:
            raise ValueError("need at least three rays")
        self.charts = [Chart(i, self.rays[i], self.rays[(i + 1) % n])
                       for i in range(n)]
        self.basis = list(basis) if basis is not None else [0, 1]
        rank = n - 2
        if len(self.basis) != rank:
            raise ValueError("basis must have %d rays" % rank)

        # classes of the ray divisors in the chosen basis, from the two
        # linear equivalences sum <m, v_rho> D_rho = 0
        others = [i for i in range(n) if i not in self.basis]
        if len(others) != 2:
            raise ValueError("basis rays must be distinct")
        A = [[Fraction(self.rays[j][c]) for j in others] for c in range(2)]
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if det == 0:
            raise ValueError("basis rays do not span the lattice of classes")
        rows = [[Fraction(0)] * rank for _ in range(n)]
        for k, i in enumerate(self.basis):
            rows[i][k] = Fraction(1)
        for c in range(rank):
            rhs = [-Fraction(self.rays[self.basis[c]][m]) for m in range(2)]
            rows[others[0]][c] = (rhs[0] * A[1][1] - A[0][1] * rhs[1]) / det
            rows[others[1]][c] = (A[0][0] * rhs[1] - rhs[0] * A[1][0]) / det
        self.ray_classes = [tuple(r) for r in rows]

        selfint = []
        for i in range(n):
            prev = self.rays[(i - 1) % n]
            nxt = self.rays[(i + 1) % n]
            v = self.rays[i]
            s = (prev[0] + nxt[0], prev[1] + nxt[1])
            if v[0] != 0:
                ni, rem = divmod(-s[0], v[0])
            else:
                ni, rem = divmod(-s[1], v[1])
            if rem or (s[0], s[1]) != (-ni * v[0], -ni * v[1]):
                raise ValueError("fan is not smooth")
            selfint.append(ni)
        self._ray_dot = {}
        for i in range(n):
            for j in range(n):
                if i == j:
                    self._ray_dot[i, j] = Fraction(selfint[i])
                elif (j - i) % n == 1 or (i - j) % n == 1:
                    self._ray_dot[i, j] = Fraction(1)
                else:
                    self._ray_dot[i, j] = Fraction(0)

        gram = [[self._ray_dot[a, b] for b in self.basis] for a in self.basis]
        K = [-sum(cl[c] for cl in self.ray_classes) for c in range(rank)]
        K2 = sum(K[a] * gram[a][b] * K[b]
                 for a in range(rank) for b in range(rank))
        super().__init__(name, 1, K2, n, 0, 0, gram, K,
                         basis_names=basis_names)

    def ray_coeffs(self, beta):
        """An invariant divisor representing the class: the combination
        of basis ray divisors with the class's own coordinates."""
        beta = self.cls(beta)
        coeffs = [Fraction(0)] * len(self.rays)
        for c, i in enumerate(self.basis):
            coeffs[i] += beta[c]
        if any(x.denominator != 1 for x in coeffs):
            raise ValueError("divisor coefficients must be integers")
        return [int(x) for x in coeffs]

    def chart_vertices(self, beta):
        """Integer trivializing weights u_sigma of the class, one per
        chart in chart order, from one set of ray coefficients."""
        coeffs = self.ray_coeffs(beta)
        return tuple(chart.vertex((a, b)) for chart, a, b in
                     zip(self.charts, coeffs, coeffs[1:] + coeffs[:1]))

    def chart_vertex(self, chart, beta):
        return self.chart_vertices(beta)[chart.index]

    def polytope_points(self, beta):
        """Lattice points of the section polytope of the divisor."""
        coeffs = self.ray_coeffs(beta)
        n = len(self.rays)
        pts = []
        for i in range(n):
            for j in range(i + 1, n):
                vi, vj = self.rays[i], self.rays[j]
                det = _cross2(vi, vj)
                if det == 0:
                    continue
                # <u, vi> = -a_i, <u, vj> = -a_j
                x = Fraction(-coeffs[i] * vj[1] + coeffs[j] * vi[1], det)
                y = Fraction(coeffs[i] * vj[0] - coeffs[j] * vi[0], det)
                pts.append((x, y))
        if not pts:
            return []
        import math
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        out = []
        for x in range(math.floor(min(xs)), math.floor(max(xs)) + 1):
            for y in range(math.floor(min(ys)), math.floor(max(ys)) + 1):
                if all(x * v[0] + y * v[1] >= -a
                       for v, a in zip(self.rays, coeffs)):
                    out.append((x, y))
        out.sort()
        return out

    def __repr__(self):
        return "ToricSurface(%r, rays=%r)" % (self.name, self.rays)


def riemann_roch_chi(surface, beta):
    """Euler characteristic of the line bundle with first Chern class
    beta: chi(O) + beta.(beta - K)/2."""
    beta = surface.cls(beta)
    val = surface.chiO \
        + Fraction(surface.dot(beta, surface.sub(beta, surface.K)), 2)
    if val.denominator != 1:
        raise ValueError("Riemann-Roch value is not an integer")
    return int(val)


def vd_beta(surface, beta):
    """Expected dimension of the curve system in class beta:
    beta.(beta - K)/2."""
    return riemann_roch_chi(surface, beta) - surface.chiO


def twist_dim_d(surface, beta, A):
    """Dimension shift d = A.(2 beta + A - K)/2 from twisting the curve
    class by A; equal to chi(beta + A) - chi(beta)."""
    beta, A = surface.cls(beta), surface.cls(A)
    two = surface.add(surface.add(beta, beta), surface.sub(A, surface.K))
    val = Fraction(surface.dot(A, two), 2)
    if val.denominator != 1:
        raise ValueError("twist dimension is not an integer")
    chk = riemann_roch_chi(surface, surface.add(beta, A)) \
        - riemann_roch_chi(surface, beta)
    if val != chk:
        raise AssertionError("twist dimension disagrees with Riemann-Roch")
    return int(val)


# ---------------------------------------------------------------------------
# built-in surfaces


def p2():
    """The projective plane; basis H (any line)."""
    return ToricSurface("P2", [(1, 0), (0, 1), (-1, -1)], basis=[0],
                        basis_names=["H"])


def p1xp1():
    """Product of two lines; basis f, g (the two rulings)."""
    return ToricSurface("P1xP1", [(1, 0), (0, 1), (-1, 0), (0, -1)],
                        basis=[0, 1], basis_names=["f", "g"])


def hirzebruch(a):
    """The Hirzebruch surface of degree a; basis f (fibre), e (the
    section of self-intersection -a)."""
    return ToricSurface("F%d" % a, [(1, 0), (0, 1), (-1, a), (0, -1)],
                        basis=[0, 1], basis_names=["f", "e"])


def f1():
    return hirzebruch(1)


def f2():
    return hirzebruch(2)


def k3_profile():
    """Numeric profile of a K3 surface; rank-one lattice, K = 0."""
    return SurfaceData("K3", 2, 0, 24, 0, 1, [[0]], [0],
                       sw_table={(Fraction(0),): Fraction(1)})


def general_type_profile(K2, chiO=2):
    """Minimal general type with p_g > 0, rank-one lattice spanned by K.

    The Seiberg-Witten table carries the two basic classes 0 and K with
    invariants 1 and (-1)^chi(O)."""
    if K2 <= 0 or chiO < 2:
        raise ValueError("need K^2 > 0 and chi(O) >= 2")
    sw = {(Fraction(0),): Fraction(1),
          (Fraction(1),): Fraction((-1) ** chiO)}
    return SurfaceData("general_type_K2_%d_chi_%d" % (K2, chiO),
                       chiO, K2, 12 * chiO - K2, 0, chiO - 1,
                       [[K2]], [1], sw_table=sw, basis_names=["K"])


def elliptic_profile():
    """A chi(O) = 0, K^2 = 0 profile (minimal properly elliptic or
    torus-like); every twist of the trivial class has chi = 0."""
    return SurfaceData("elliptic_0", 0, 0, 0, 1, 0, [[0]], [0],
                       sw_table={(Fraction(0),): Fraction(1)})


BUILTIN_SURFACES = {
    "P2": p2,
    "P1xP1": p1xp1,
    "F1": f1,
    "F2": f2,
    "K3": k3_profile,
    "elliptic": elliptic_profile,
}


def builtin_surface(name):
    if name.startswith("general_type:"):
        parts = name.split(":")[1].split(",")
        K2 = int(parts[0])
        chiO = int(parts[1]) if len(parts) > 1 else 2
        return general_type_profile(K2, chiO)
    try:
        return BUILTIN_SURFACES[name]()
    except KeyError:
        raise ValueError("unknown surface %r" % name)


# ---------------------------------------------------------------------------
# JSON interchange


def parse_sw_entries(surface, entries):
    """Seiberg-Witten table of the surface from a list of entries
    {"beta": class, "sw": invariant}: a map from class to invariant.
    Numbers are JSON numbers or "p/q" strings.  A malformed entry,
    including a class of the wrong rank or a key other than "beta" and
    "sw", raises ValueError naming the entry."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError("Seiberg-Witten entries must be a list")
    table = {}
    for entry in entries:
        try:
            beta = entry["beta"]
            unknown = [k for k in entry if k not in ("beta", "sw")]
            if unknown:
                raise ValueError("unknown key %r" % (unknown[0],))
            if not isinstance(beta, (list, tuple)):
                raise TypeError("beta must be a list")
            key = surface.cls([parse_rational(str(x)) for x in beta])
            value = parse_rational(str(entry["sw"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
            raise ValueError("malformed Seiberg-Witten entry %r: %s: %s"
                             % (entry, type(err).__name__, err))
        table[key] = value
    return table


def surface_from_json(doc):
    """Surface from its JSON form: "name", "rays" and "basis" of a
    toric surface or the "profile" of another, and the Seiberg-Witten
    entries "sw_table" (see parse_sw_entries).  A malformed document
    raises ValueError naming the document."""
    try:
        name, prof = doc["name"], doc.get("profile") or {}
        if doc.get("rays"):
            surf = ToricSurface(name, doc["rays"], basis=doc.get("basis"))
            if prof and any(prof[key] != getattr(surf, key)
                            for key in ("chiO", "K2", "e", "q", "pg")):
                raise ValueError("profile disagrees with the fan")
        else:
            K2 = prof["K2"]
            surf = SurfaceData(name, prof["chiO"], K2, prof["e"], prof["q"],
                               prof["pg"], [[K2]], [1 if K2 != 0 else 0])
        entries = doc.get("sw_table") or []
    except (KeyError, TypeError, IndexError) as err:
        raise ValueError("malformed surface document %r: %s: %s"
                         % (doc, type(err).__name__, err))
    surf.sw_table.update(parse_sw_entries(surf, entries))
    return surf


def load_surface(source):
    """Accept a built-in name, a JSON file path, or a parsed dict; any
    other source raises ValueError."""
    if isinstance(source, SurfaceData):
        return source
    if isinstance(source, dict):
        return surface_from_json(source)
    if not isinstance(source, str):
        raise ValueError("a surface is a name, a file path or a JSON"
                         " object, not %r" % (source,))
    try:
        return builtin_surface(source)
    except ValueError:
        pass
    with open(source) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("surface file nests too deeply")
    return surface_from_json(doc)
