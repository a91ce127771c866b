"""Exact graded commutative algebra for intersection-theory computations.

A `Ring` is a truncated polynomial model of a Chow ring: finitely many
named generators, each with a fixed positive degree, exact rational
coefficients, and an optional list of monic single-generator relations
(the kind that arise from projective-bundle towers).  Elements are
`GradedClass` objects; K-theory classes (virtual rank plus total Chern
series) are `KClass` objects.

All arithmetic is exact.  Products silently truncate above the ring's
bound D, mirroring the vanishing of cycle classes above the ambient
dimension.

A `GradedClass` is stored packed: one positive denominator and, per
weighted degree, a dict {packed monomial: int numerator}, normalized so
that the denominator and the numerators have gcd 1.  A packed monomial
is one int with a bit field per generator, so multiplying monomials is
one integer addition.  The ring fixes the field width: D.bit_length()
bits in a truncated ring, since no exponent of a kept monomial exceeds
D; an untruncated ring widens its fields when a degree needs it, and a
class packed at an older width is repacked when it is next used.
Printing, lifting and casting between rings, and the bundle maps of
`nesthilb.bundles` read these integer buckets over the denominator.
`GradedClass.poly`, the {exponent tuple: Fraction} dict, is a read-only
view for tests and hashing, built on first access.

Every product, and every sum of products (determinant minors, series
inversion, twists), goes through one fused kernel, `_dot`: it sums the
products as integer numerators over one common denominator and skips
pairs of degree buckets above D.  Relations are applied through normal
forms of packed monomials in the generators they rewrite, memoized on
each `Ring` instance (never shared between rings), so each such
monomial is rewritten once per ring and a rewrite step is one integer
subtraction; a ring without relations only drops the monomials above
D.
"""

import math
from fractions import Fraction
from itertools import combinations
from operator import lshift, mul

ZERO = Fraction(0)


def binom_general(n, k):
    """Binomial coefficient C(n, k) for any integer n and k >= 0.

    Uses the falling-factorial definition, so negative n is allowed:
    C(n, k) = n (n-1) ... (n-k+1) / k!.  Needed for twisting K-classes
    of negative virtual rank.

    >>> binom_general(-1, 3)
    -1
    >>> binom_general(4, 2)
    6
    """
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("binomial is not an integer")
    return q


def _exact(c):
    """A rational as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratio_str(c, den):
    """The rational c / den, c an int and den a positive int, as
    ``expr.rational_str`` writes it: "p/q", or "p" when q = 1.

    >>> ratio_str(-4, 6), ratio_str(6, 3)
    ('-2/3', '2')
    """
    g = math.gcd(c, den)
    return str(c // g) if g == den else "%d/%d" % (c // g, den // g)


def monomial_str(names, mono):
    """A monomial as "x^2*y" from its exponent tuple; "" for 1."""
    return "*".join([name if e == 1 else "%s^%d" % (name, e)
                     for name, e in zip(names, mono) if e])


def _integral(den, parts):
    """(den, parts) with every numerator an int: buckets whose values
    may be Fractions are scaled by the lcm of their denominators."""
    scale = math.lcm(*[c.denominator for b in parts.values()
                       for c in b.values()])
    return den * scale, {d: {m: c.numerator * (scale // c.denominator)
                             for m, c in b.items()}
                         for d, b in parts.items()}


def _class(ring, den, parts):
    """The class of packed buckets over den, already in normal form."""
    x = object.__new__(GradedClass)
    x._set(ring, den, parts)
    return x


def _moved(ring, src, width, den, parts):
    """The class in ``ring`` of packed buckets over den laid out as in
    ring ``src`` at field width ``width``: each generator moves to the
    field of its name in ``ring``, and the fields of names ``ring``
    lacks must be zero.  Buckets above D drop, an untruncated ring
    first widens to the top degree, and a ring with relations reduces
    the result."""
    D = ring.D
    if D is None:
        ring._widen(max(parts, default=0))
    else:
        parts = {d: b for d, b in parts.items() if d <= D}
    pairs = [(i, ring.index[n]) for i, n in enumerate(src.names)
             if n in ring.index]
    if any(src.degrees[i] != ring.degrees[j] for i, j in pairs):
        raise ValueError("generator degrees differ between the rings")
    moves = [(i * width, ring.shifts[j]) for i, j in pairs]
    if width != ring.width or any(s != t for s, t in moves):
        mask = (1 << width) - 1
        parts = {d: {sum([((m >> s) & mask) << t for s, t in moves]): c
                     for m, c in b.items()}
                 for d, b in parts.items()}
    if ring.rels:
        den, parts = ring._reduce(den, parts)
    return _class(ring, den, parts)


def _generator_indices(roots):
    """The common ring of the roots and the generator index of each.
    Every root must be one degree-1 generator with coefficient 1 and
    no two alike; anything else raises ValueError."""
    ring = getattr(roots[0], "ring", None)
    idx = []
    for root in roots:
        terms = [(d, m, c) for d, b in root._fit().items()
                 for m, c in b.items()] \
            if isinstance(root, GradedClass) else ()
        if len(terms) != 1 or root.den != 1:
            raise ValueError("roots must be single generators")
        if root.ring is not ring:
            raise ValueError("roots must share a ring")
        (d, m, c), = terms
        # a generator is one field holding 1: a power of two whose bit
        # starts a field
        j, rest = divmod(m.bit_length() - 1, ring.width)
        if c != 1 or m <= 0 or m & (m - 1) or rest:
            raise ValueError("roots must be single generators")
        if d != 1:
            raise ValueError("roots must have degree 1")
        idx.append(j)
    if len(set(idx)) != len(idx):
        raise ValueError("roots must be distinct generators")
    return ring, idx


def _sum(ring, terms):
    """sum(k * x) over (int k, class x) pairs, the numerators brought
    over the lcm of the denominators."""
    den = math.lcm(*[x.den for _, x in terms])
    parts = {}
    for k, x in terms:
        f = k * (den // x.den)
        for d, b in x._fit().items():
            acc = parts.setdefault(d, {})
            get = acc.get
            for m, c in b.items():
                acc[m] = get(m, 0) + c * f
    return _class(ring, den, parts)


def _dot(ring, triples):
    """The class sum(sign * a * b) over (sign, a, b) triples, sign an
    int: the fused kernel behind every product of the ring.

    No exponent of a product exceeds its degree, and pairs of degree
    buckets above D are skipped whole, so a truncated ring's fields
    never overflow; an untruncated ring first widens its fields to the
    largest degree of a product.  Products are summed as integer
    numerators over one common denominator, by degree bucket.
    """
    triples = [(s, a, b) for s, a, b in triples if s and a.parts and b.parts]
    if not triples:
        return ring.zero()
    D = ring.D
    if D is None:
        ring._widen(max(max(a.parts) + max(b.parts) for _, a, b in triples))
    common = math.lcm(*[a.den * b.den for _, a, b in triples])
    out = {}
    for s, a, b in triples:
        f = s * (common // (a.den * b.den))
        terms_b = [(d2, t2.items()) for d2, t2 in b._fit().items()]
        for d1, t1 in a._fit().items():
            t1 = t1.items() if f == 1 else [(m1, c1 * f)
                                            for m1, c1 in t1.items()]
            for d2, t2 in terms_b:
                d = d1 + d2
                if D is not None and d > D:
                    continue
                acc = out.get(d)
                if acc is None:
                    acc = out[d] = {}
                get = acc.get
                for m1, c1 in t1:
                    for m2, c2 in t2:
                        m = m1 + m2
                        acc[m] = get(m, 0) + c1 * c2
    if ring.rels:
        common, out = ring._reduce(common, out)
    return _class(ring, common, out)


class Ring:
    """Truncated graded polynomial ring with rational coefficients.

    Parameters
    ----------
    names : list of generator names (strings, all distinct)
    degrees : list of positive integer degrees, parallel to names
        (defaults to all 1)
    D : truncation bound, a non-negative integer, or None for no bound
    relations : dict name -> (power, replacement) where replacement is a
        dict {exponent tuple: Fraction} meaning gen**power = replacement.
        Each replacement must be homogeneous of degree power*deg(gen) and
        must only involve the generator itself to exponents < power.

    ``width`` is the bit width of one generator's field in a packed
    monomial.  Normal forms of packed monomials are memoized on the
    instance as they are needed; the memo depends only on the ring's
    own generators, relations, D and width.
    """

    def __init__(self, names, degrees=None, D=None, relations=None):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        if degrees is None:
            degrees = [1] * len(names)
        degrees = [int(d) for d in degrees]
        if any(d <= 0 for d in degrees):
            raise ValueError("generator degrees must be positive")
        if len(degrees) != len(names):
            raise ValueError("names and degrees must have equal length")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.index = {n: i for i, n in enumerate(names)}
        self.D = None if D is None else int(D)
        self.rels = {}
        if relations:
            for name, (power, repl) in relations.items():
                i = self.index[name]
                repl = {tuple(m): _exact(c) for m, c in repl.items() if c}
                for m in repl:
                    if len(m) != len(names):
                        raise ValueError("relation monomial has wrong arity")
                    if m[i] >= power:
                        raise ValueError("relation replacement not reduced")
                    if self.mdeg(m) != power * degrees[i]:
                        raise ValueError("relation is not homogeneous")
                self.rels[i] = (int(power), repl)
        # integral relations keep numerators integral
        self._int_rels = all(type(c) is int for _, repl in self.rels.values()
                             for c in repl.values())
        self.width = 0
        self._widen(self.D or 0)

    def _widen(self, top):
        """Widen the fields to hold exponents up to top.  Packed
        relations and the normal-form memo follow the new layout; a
        relation only rewrites monomials of at least its own degree, so
        it is packed wide enough whenever it applies."""
        width = max(top.bit_length(), 1)
        if width <= self.width:
            return
        self.width = width
        self.shifts = tuple(range(0, len(self.names) * width, width))
        self.mask = (1 << width) - 1
        self._nf = {}
        self._rules = [(self.shifts[i], p, p << self.shifts[i],
                        [(self.pack(m), c) for m, c in repl.items()])
                       for i, (p, repl) in self.rels.items()]
        # the fields of the generators that relations rewrite
        self._bound = sum(self.mask << self.shifts[i] for i in self.rels)

    def pack(self, mono):
        return sum(map(lshift, mono, self.shifts))

    def unpack(self, m):
        mask = self.mask
        return tuple([(m >> s) & mask for s in self.shifts])

    def mdeg(self, mono):
        return sum(map(mul, mono, self.degrees))

    def zero(self):
        return _class(self, 1, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        return _class(self, c.denominator, {0: {0: c.numerator}})

    def gen(self, name):
        i = self.index[name]
        d = self.degrees[i]
        if self.D is not None and d > self.D:
            return self.zero()
        self._widen(d)
        den, parts = 1, {d: {1 << self.shifts[i]: 1}}
        if self.rels:
            den, parts = self._reduce(den, parts)
        return _class(self, den, parts)

    def gens(self):
        return [self.gen(n) for n in self.names]

    def extend(self, names, degrees=None, relations=None):
        """New ring with extra generators appended; relations may refer to
        old and new generators (monomials in the extended arity).
        Existing relations are carried over."""
        if degrees is None:
            degrees = [1] * len(names)
        pad = len(names)
        rels = {}
        for i, (p, repl) in self.rels.items():
            rels[self.names[i]] = (p, {m + (0,) * pad: c for m, c in repl.items()})
        if relations:
            rels.update(relations)
        return Ring(list(self.names) + list(names),
                    list(self.degrees) + list(degrees),
                    D=self.D, relations=rels)

    def truncated(self, D):
        """Same generators and relations, different truncation bound."""
        rels = {self.names[i]: (p, dict(repl)) for i, (p, repl) in self.rels.items()}
        return Ring(self.names, self.degrees, D=D, relations=rels)

    def lift(self, x):
        """Map a class from a ring whose generators are a prefix of (or are
        contained, by name, in) this ring's generators, of the same
        degrees.  The packed monomials are repacked field by field;
        terms above this ring's bound D drop and its relations apply."""
        missing = [n for n in x.ring.names if n not in self.index]
        if missing:
            raise ValueError("generators %s are not in the ring"
                             % ", ".join(missing))
        return _moved(self, x.ring, x.width, x.den, x.parts)

    def cast(self, x):
        """Re-interpret a class from another ring with identical generator
        names (by name lookup), reducing in this ring."""
        return self.lift(x)

    def _normal_form(self, mono):
        """Normal form of one packed monomial of degree at most D: a
        tuple of (packed monomial, coefficient) pairs, coefficients int
        where the relations allow.

        Filled through the relations depth first and memoized; a stack,
        not recursion, so a long rewrite chain (a high power in an
        untruncated ring) cannot exhaust the interpreter's stack."""
        memo = self._nf
        mask = self.mask
        pending = {}
        todo = [mono]
        while todo:
            m = todo[-1]
            if m in memo:
                todo.pop()
                continue
            terms = pending.pop(m, None)
            if terms is None:
                hit = next(((step, repl) for s, p, step, repl in self._rules
                            if (m >> s) & mask >= p), None)
                if hit is None:
                    memo[todo.pop()] = ((m, 1),)
                    continue
                rest = m - hit[0]
                terms = [(rest + rm, rc) for rm, rc in hit[1]]
            acc = {}
            get = acc.get
            missing = []
            for t, rc in terms:
                sub = memo.get(t)
                if sub is None:
                    missing.append(t)
                elif not missing:
                    # once a term is missing, m is combined on its
                    # next visit, after its missing terms
                    for m2, k in sub:
                        acc[m2] = get(m2, 0) + rc * k
            if missing:
                pending[m] = terms
                todo.extend(missing)
            else:
                memo[todo.pop()] = tuple([(m2, k) for m2, k in acc.items()
                                          if k])
        return memo[mono]

    def _reduce(self, den, parts):
        """(den, parts) of the normal form of packed buckets over den,
        every monomial of degree at most D.  Relations are homogeneous,
        so each bucket keeps its degree, and no relation rewrites a
        free generator, so a monomial's normal form is its free part
        times the memoized normal form of its other part."""
        memo, bound = self._nf, self._bound
        out = {}
        for d, bucket in parts.items():
            acc = out[d] = {}
            get = acc.get
            for mono, c in bucket.items():
                r = mono & bound
                nf = memo.get(r)
                if nf is None:
                    nf = self._normal_form(r)
                free = mono - r
                for m, k in nf:
                    m += free
                    acc[m] = get(m, 0) + c * k
        return (den, out) if self._int_rels else _integral(den, out)

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.names == other.names
                and self.degrees == other.degrees and self.D == other.D
                and self.rels == other.rels)

    def __hash__(self):
        return hash((self.names, self.degrees, self.D))

    def __repr__(self):
        rel = ", ".join("%s^%d -> ..." % (self.names[i], p)
                        for i, (p, _) in sorted(self.rels.items()))
        return "Ring(%s; D=%s%s)" % (",".join(self.names), self.D,
                                     "; " + rel if rel else "")


class GradedClass:
    """Element of a Ring: sparse polynomial in normal form.

    ``GradedClass(ring, poly)`` reduces a dict {exponent tuple:
    rational} into the ring.  The stored form is packed (see the module
    docstring): ``den`` and ``parts``, a dict {degree: {packed monomial:
    int numerator}}, with ``width`` the field width it was packed at;
    every stored monomial has degree at most the ring's bound D.
    ``poly`` is the {exponent tuple: Fraction} view, built once, for
    tests and hashing; ``terms`` lists the packed form by exponent
    tuple.
    """

    __slots__ = ("ring", "den", "parts", "width", "_poly")

    def __init__(self, ring, poly):
        D, mdeg = ring.D, ring.mdeg
        terms = [(d, m, c) for m, c in poly.items() if c
                 for d in (mdeg(m),) if D is None or d <= D]
        ring._widen(max([d for d, _, _ in terms], default=0))
        parts = {}
        for d, m, c in terms:
            parts.setdefault(d, {})[ring.pack(m)] = _exact(c)
        den, parts = _integral(1, parts)
        if ring.rels:
            den, parts = ring._reduce(den, parts)
        self._set(ring, den, parts)

    def _set(self, ring, den, parts):
        """Store packed buckets over den: zero terms and empty buckets
        dropped, the gcd of den and the numerators divided out."""
        out = {}
        g = den
        for d, bucket in parts.items():
            bucket = {m: c for m, c in bucket.items() if c}
            if bucket:
                out[d] = bucket
                if g != 1:
                    g = math.gcd(g, *bucket.values())
        if g != 1:
            out = {d: {m: c // g for m, c in b.items()}
                   for d, b in out.items()}
        self.ring, self.den, self.parts = ring, den // g, out
        self.width, self._poly = ring.width, None

    def _fit(self):
        """The buckets in the ring's current layout: a class packed
        before its untruncated ring widened is repacked once."""
        ring = self.ring
        if self.width != ring.width:
            w = self.width
            old = range(0, len(ring.names) * w, w)
            mask = (1 << w) - 1
            pack = ring.pack
            self.parts = {d: {pack([(m >> s) & mask for s in old]): c
                              for m, c in b.items()}
                          for d, b in self.parts.items()}
            self.width = ring.width
        return self.parts

    @property
    def poly(self):
        """Read-only {exponent tuple: Fraction} view of the class."""
        if self._poly is None:
            unpack, den = self.ring.unpack, self.den
            self._poly = {unpack(m): Fraction(c, den)
                          for b in self._fit().values()
                          for m, c in b.items()}
        return self._poly

    def _coerce(self, other):
        if isinstance(other, GradedClass):
            if other.ring is self.ring:
                return other
            if other.ring != self.ring:
                raise ValueError("classes from different rings")
            return self.ring.cast(other)
        return self.ring.const(other)

    def __add__(self, other):
        return _sum(self.ring, ((1, self), (1, self._coerce(other))))

    __radd__ = __add__

    def __neg__(self):
        return _sum(self.ring, ((-1, self),))

    def __sub__(self, other):
        return _sum(self.ring, ((1, self), (-1, self._coerce(other))))

    def __rsub__(self, other):
        return _sum(self.ring, ((-1, self), (1, self._coerce(other))))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            p = c.numerator
            return _class(self.ring, self.den * c.denominator,
                          {d: {m: v * p for m, v in b.items()}
                           for d, b in self._fit().items()})
        return _dot(self.ring, [(1, self, self._coerce(other))])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a graded class")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, GradedClass) or (
                other.ring is not self.ring and other.ring != self.ring):
            return False
        other = self._coerce(other)
        return self.den == other.den and self._fit() == other._fit()

    def __hash__(self):
        return hash(frozenset(self.poly.items()))

    def is_zero(self):
        return not self.parts

    def constant(self):
        unit = self.parts.get(0)
        return Fraction(unit[0], self.den) if unit else ZERO

    def component(self, k):
        """Homogeneous piece of weighted degree k (zero class for k < 0
        or k above the truncation bound)."""
        return _class(self.ring, self.den, {k: self._fit().get(k, {})})

    def components(self):
        """Dict degree -> homogeneous GradedClass, only nonzero pieces."""
        ring, den = self.ring, self.den
        return {k: _class(ring, den, {k: b})
                for k, b in sorted(self._fit().items())}

    def terms(self):
        """The (degree, exponent tuple, numerator) triples of the class,
        sorted by degree, then exponent tuple; each coefficient is the
        numerator over ``den``."""
        unpack = self.ring.unpack
        return [(d, mono, c) for d, b in sorted(self._fit().items())
                for mono, c in sorted([(unpack(m), c) for m, c in b.items()])]

    def __repr__(self):
        names, den = self.ring.names, self.den
        out = []
        for _, mono, c in self.terms():
            body, coef = monomial_str(names, mono), ratio_str(c, den)
            if not body:
                out.append(coef)
            elif coef == "1":
                out.append(body)
            elif coef == "-1":
                out.append("-" + body)
            else:
                out.append(coef + "*" + body)
        return " + ".join(out).replace("+ -", "- ") if out else "0"


def series_invert(c):
    """Multiplicative inverse of a series with constant term 1.

    Returns s with s*c = 1 up to the ring truncation.  Raises ValueError
    for series whose degree-0 part is not 1.  The component
    s_k = -sum_j c_j s_{k-j} is one fused sum `_dot` per degree k.

    >>> R = Ring(["x"], D=4)
    >>> series_invert(R.one() + R.gen("x"))
    1 - x + x^2 - x^3 + x^4
    """
    if not isinstance(c, GradedClass):
        raise TypeError("expected a GradedClass")
    if c.constant() != 1:
        raise ValueError("non-invertible series")
    ring = c.ring
    if ring.D is None:
        raise ValueError("series inversion requires a truncated ring")
    parts = c.components()
    s = {0: ring.one()}
    for k in range(1, ring.D + 1):
        sk = _dot(ring, [(-1, cj, s[k - j]) for j, cj in parts.items()
                         if 0 < j <= k and k - j in s])
        if sk.parts:
            s[k] = sk
    return _sum(ring, [(1, sk) for sk in s.values()])


def _det(rows):
    """Determinant of a square matrix of GradedClass entries.

    Laplace expansion along the rows, memoized over column subsets: the
    minor on the last k rows and a k-set of columns is computed once,
    so an a x a matrix needs at most a 2^(a-1) products, not a! terms.
    Each minor is one fused signed sum `_dot` over its first row.  It
    divides nowhere, so it is valid in truncated rings.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring
    memo = {}

    def minor(cols):
        if len(cols) == 1:
            return rows[n - 1][cols[0]]
        value = memo.get(cols)
        if value is None:
            row = rows[n - len(cols)]
            value = _dot(ring, [(-1 if j % 2 else 1, row[col],
                                 minor(cols[:j] + cols[j + 1:]))
                                for j, col in enumerate(cols)
                                if row[col].parts])
            memo[cols] = value
        return value

    return minor(tuple(range(n)))


def delta_det(a, b, c):
    """The a x a determinant det(c_{b+j-i}) of components of a series.

    Components with index < 0 or above the ring truncation count as 0.
    Returns the ring unit for a = 0.

    >>> R = Ring(["c1", "c2"], degrees=[1, 2], D=4)
    >>> c = R.one() + R.gen("c1") + R.gen("c2")
    >>> delta_det(2, 1, c)
    -c2 + c1^2
    """
    if a < 0:
        raise ValueError("invalid")
    ring = c.ring
    if a == 0:
        return ring.one()
    parts = c.components()
    zero = ring.zero()
    # _det expands along the first row; that of the transpose
    # (c_{b+i-j}), c_b .. c_{b-a+1}, holds the lowest indices and so the
    # fewest terms
    rows = [[parts.get(b + i - j, zero) for j in range(a)] for i in range(a)]
    return _det(rows)


class KClass:
    """Virtual rank plus total Chern series, the unit of formula arithmetic.

    The chern series must have degree-0 part exactly 1.  Sum is Whitney
    (ranks add, series multiply); difference divides the series.
    """

    __slots__ = ("rank", "chern")

    def __init__(self, rank, chern):
        if not isinstance(chern, GradedClass):
            raise TypeError("chern must be a GradedClass")
        if chern.constant() != 1:
            raise ValueError("chern series must have constant term 1")
        self.rank = int(rank)
        self.chern = chern

    @property
    def ring(self):
        return self.chern.ring

    @classmethod
    def trivial(cls, ring, rank):
        return cls(rank, ring.one())

    @classmethod
    def line(cls, c1):
        """Line bundle with the given first Chern class (degree-1 class)."""
        return cls(1, c1.ring.one() + c1)

    @classmethod
    def from_roots(cls, roots):
        """Sum of the line bundles whose first Chern classes are the
        given roots.

        Each root must be a degree-1 generator of one common ring, with
        coefficient 1, and no generator may repeat: a multiple, a
        negative, a sum or a repeated generator raises ValueError.  The
        total Chern class prod_i (1 + x_i) is then written directly as
        the sum of the elementary symmetric polynomials e_k of the
        roots, up to the ring's bound D: one packed monomial, one
        ``sum`` of the roots' fields, per subset.

        >>> R = Ring(["x", "y", "z"], D=2)
        >>> KClass.from_roots(R.gens())
        KClass(rank=3, c=1 + z + y + x + y*z + x*z + x*y)
        """
        if not roots:
            raise ValueError("need at least one root (use trivial instead)")
        ring, idx = _generator_indices(roots)
        top = len(idx) if ring.D is None else min(len(idx), ring.D)
        ring._widen(top)
        # a root in normal form has no relation of power 1, so a
        # product of distinct roots, every exponent 0 or 1, is in
        # normal form too
        fields = [1 << ring.shifts[j] for j in idx]
        return cls(len(idx), _class(ring, 1, {
            k: dict.fromkeys(map(sum, combinations(fields, k)), 1)
            for k in range(top + 1)}))

    def __add__(self, other):
        return KClass(self.rank + other.rank, self.chern * other.chern)

    def __sub__(self, other):
        return KClass(self.rank - other.rank,
                      self.chern * series_invert(other.chern))

    def __neg__(self):
        return KClass(-self.rank, series_invert(self.chern))

    def __eq__(self, other):
        return isinstance(other, KClass) and self.rank == other.rank \
            and self.chern == other.chern

    def c(self, k):
        return self.chern.component(k)

    def dual(self):
        return k_dual(self)

    def twist(self, h, m=1):
        return k_twist(self, h, m)

    def __repr__(self):
        return "KClass(rank=%d, c=%r)" % (self.rank, self.chern)


def k_dual(E):
    """Dual K-class: rank unchanged, c_i picks up the sign (-1)^i."""
    ch = E.chern
    return KClass(E.rank, _class(ch.ring, ch.den, {
        d: b if d % 2 == 0 else {m: -c for m, c in b.items()}
        for d, b in ch._fit().items()}))


def k_twist(E, h, m=1):
    """Tensor a K-class by the m-th power of a line class with c_1 = h.

    Implements c_k(E otimes l^m) = sum_i C(rank-i, k-i) c_i(E) (m h)^{k-i}
    with generalized binomial coefficients, which is the unique extension
    consistent with the splitting principle for arbitrary (also negative)
    virtual rank.  Each c_k is one fused sum `_dot` over i.
    """
    ring = E.ring
    if ring.D is None:
        raise ValueError("k_twist requires a truncated ring")
    if not isinstance(h, GradedClass) or h.ring != ring:
        raise ValueError("twist class must live in the same ring")
    if not h.is_zero() and set(h.parts) != {1}:
        raise ValueError("twist class must be homogeneous of degree 1")
    if m == 0 or h.is_zero():
        return E
    mh = h * m
    parts = E.chern.components()
    hp = {0: ring.one()}
    for k in range(1, ring.D + 1):
        hp[k] = hp[k - 1] * mh
    total = [(1, _dot(ring, [(binom_general(E.rank - i, k - i), ci, hp[k - i])
                             for i, ci in parts.items() if i <= k]))
             for k in range(0, ring.D + 1)]
    return KClass(E.rank, _sum(ring, total))
