"""Exact graded commutative algebra for intersection-theory computations.

A `Ring` is a truncated polynomial model of a Chow ring: finitely many
named generators, each with a fixed positive degree, exact rational
coefficients, and an optional list of monic single-generator relations
(the kind that arise from projective-bundle towers).  Elements are
`GradedClass` objects; K-theory classes (virtual rank plus total Chern
series) are `KClass` objects.

All arithmetic is exact.  Products silently truncate above the ring's
bound D, mirroring the vanishing of cycle classes above the ambient
dimension.  Every product, and every sum of products (determinant
minors, series inversion, twists), goes through one fused kernel,
`_dot`: it packs each monomial into one int with a bit field per
variable, so multiplying monomials is one integer addition, sums the
products as integer numerators over one common denominator, skips
degree buckets above D, and builds one Fraction per output term.
Relations are applied through normal forms of monomials, memoized on
each `Ring` instance (never shared between rings), so every monomial is
rewritten once per ring; a ring without relations only drops the
monomials above D.
"""

import math
from fractions import Fraction
from itertools import chain
from operator import add, lshift, mul

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_str(x):
    """Serialize a rational number as "p/q", or "p" when q = 1.

    >>> rational_str(Fraction(-3, 7))
    '-3/7'
    >>> rational_str(Fraction(5))
    '5'
    """
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(s):
    """Inverse of rational_str; accepts "p" and "p/q" strings."""
    return Fraction(s)


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
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _over(nums, den):
    """{monomial: Fraction} dict of the nonzero numerators over den."""
    if den == 1:
        return {m: Fraction(v) for m, v in nums.items() if v}
    return {m: Fraction(v, den) for m, v in nums.items() if v}


def _operand(poly, shifts, degrees, D):
    """(den, {degree: [(packed monomial, numerator)]}) of one factor:
    integer numerators over the least common denominator, grouped by
    weighted degree when D bounds the ring (else all under 0)."""
    den = math.lcm(*[c.denominator for c in poly.values()])
    buckets = {}
    for m, c in poly.items():
        d = sum(map(mul, m, degrees)) if D is not None else 0
        buckets.setdefault(d, []).append(
            (sum(map(lshift, m, shifts)), c.numerator * (den // c.denominator)))
    return den, buckets


def _dot(ring, triples):
    """The class sum(sign * a * b) over (sign, a, b) triples, sign an
    int: the fused kernel behind every product of the ring.

    A monomial is packed into one int, one bit field per variable, so
    multiplying monomials is one integer addition.  A field is
    D.bit_length() bits wide in a truncated ring, since no exponent of a
    kept product exceeds D, and is sized from the operands' largest
    exponents in an untruncated ring.  Pairs of degree buckets above D
    are skipped whole.  Products are summed as integer numerators over
    one common denominator; one Fraction is built per output term.
    """
    triples = [(s, a, b) for s, a, b in triples if s and a.poly and b.poly]
    if not triples:
        return ring.zero()
    D, degrees, n = ring.D, ring.degrees, len(ring.names)
    flat = chain.from_iterable
    top = D if D is not None else max(
        max(flat(a.poly), default=0) + max(flat(b.poly), default=0)
        for _, a, b in triples)
    width = max(top.bit_length(), 1)
    shifts = tuple(range(0, n * width, width))
    factors = []
    common = 1
    for s, a, b in triples:
        den_a, terms_a = _operand(a.poly, shifts, degrees, D)
        den_b, terms_b = _operand(b.poly, shifts, degrees, D)
        factors.append((s, den_a * den_b, terms_a, terms_b))
        common = math.lcm(common, den_a * den_b)
    out = {}
    get = out.get
    for s, den, terms_a, terms_b in factors:
        f = s * (common // den)
        for d1, t1 in terms_a.items():
            if f != 1:
                t1 = [(m1, c1 * f) for m1, c1 in t1]
            for d2, t2 in terms_b.items():
                if D is not None and d1 + d2 > D:
                    continue
                for m1, c1 in t1:
                    for m2, c2 in t2:
                        m = m1 + m2
                        out[m] = get(m, 0) + c1 * c2
    mask = (1 << width) - 1
    poly = {tuple([(m >> k) & mask for k in shifts]): c
            for m, c in out.items() if c}
    poly = ring._reduce(poly, common) if ring.rels else _over(poly, common)
    return GradedClass(ring, poly, reduced=True)


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

    Normal forms of monomials are memoized on the instance as they are
    needed; the memo depends only on the ring's own generators,
    relations and D.
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
        self._nf = {}
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

    def mdeg(self, mono):
        return sum(map(mul, mono, self.degrees))

    def zero(self):
        return GradedClass(self, {}, reduced=True)

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return GradedClass(self, {(0,) * len(self.names): c}, reduced=True)

    def gen(self, name):
        i = self.index[name]
        mono = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return GradedClass(self, {mono: ONE})

    def gens(self):
        return [self.gen(n) for n in self.names]

    def from_dict(self, poly):
        return GradedClass(self, {tuple(m): Fraction(c) for m, c in poly.items()})

    def extend(self, names, degrees=None, relations=None):
        """New ring with extra generators appended; relations may refer to
        old and new generators (monomials in the extended arity).
        Existing relations are carried over."""
        if degrees is None:
            degrees = [1] * len(names)
        old_n = len(self.names)
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
        contained, by name, in) this ring's generators."""
        src = x.ring
        pos = [self.index[n] for n in src.names]
        n = len(self.names)
        poly = {}
        for m, c in x.poly.items():
            mono = [0] * n
            for p, e in zip(pos, m):
                mono[p] = e
            poly[tuple(mono)] = c
        return GradedClass(self, poly)

    def cast(self, x):
        """Re-interpret a class from another ring with identical generator
        names (by name lookup), reducing in this ring."""
        return self.lift(x)

    def _normal_form(self, mono):
        """Normal form of one monomial: a tuple of (monomial, coefficient)
        pairs, coefficients int where the relations allow.

        Filled through the relations depth first and memoized; a stack,
        not recursion, so a long rewrite chain (a high power in an
        untruncated ring) cannot exhaust the interpreter's stack.  A
        monomial above D has the empty normal form."""
        memo = self._nf
        pending = {}
        todo = [mono]
        while todo:
            m = todo[-1]
            if m in memo:
                todo.pop()
                continue
            terms = pending.pop(m, None)
            if terms is None:
                if self.D is not None and self.mdeg(m) > self.D:
                    memo[todo.pop()] = ()
                    continue
                hit = next(((i, p, repl) for i, (p, repl)
                            in self.rels.items() if m[i] >= p), None)
                if hit is None:
                    memo[todo.pop()] = ((m, 1),)
                    continue
                i, p, repl = hit
                rest = list(m)
                rest[i] -= p
                terms = [(tuple(map(add, rest, rm)), rc)
                         for rm, rc in repl.items()]
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

    def _reduce(self, poly, den=1):
        """Normal form of sum(c * m) / den over the items m: c of poly, as
        a {monomial: Fraction} dict without zero terms.  The c may be
        ints (numerators) or Fractions.  A ring without relations only
        drops the monomials above D."""
        if not self.rels:
            if self.D is not None:
                mdeg, D = self.mdeg, self.D
                poly = {m: c for m, c in poly.items() if mdeg(m) <= D}
            return _over(poly, den)
        memo = self._nf
        out = {}
        get = out.get
        for mono, c in poly.items():
            nf = memo.get(mono)
            if nf is None:
                nf = self._normal_form(mono)
            for m, k in nf:
                out[m] = get(m, 0) + c * k
        return _over(out, den)

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

    The defining data is a dict {exponent tuple: Fraction}.  Components
    are recovered by weighted degree; every stored monomial has degree
    at most the ring's bound D.  A product of two classes is the fused
    kernel `_dot` on one pair, so it never builds a Fraction per term
    pair, only per output term.
    """

    __slots__ = ("ring", "poly")

    def __init__(self, ring, poly, reduced=False):
        self.ring = ring
        if not reduced:
            poly = ring._reduce(poly)
        self.poly = poly

    def _coerce(self, other):
        if isinstance(other, GradedClass):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("classes from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        poly = dict(self.poly)
        for m, c in other.poly.items():
            v = poly.get(m, ZERO) + c
            if v:
                poly[m] = v
            else:
                poly.pop(m, None)
        return GradedClass(self.ring, poly, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(self.ring, {m: -c for m, c in self.poly.items()},
                           reduced=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return GradedClass(self.ring,
                               {m: v * c for m, v in self.poly.items()},
                               reduced=True)
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
        return isinstance(other, GradedClass) and self.ring == other.ring \
            and self.poly == other.poly

    def __hash__(self):
        return hash(frozenset(self.poly.items()))

    def is_zero(self):
        return not self.poly

    def constant(self):
        key = (0,) * len(self.ring.names)
        return self.poly.get(key, ZERO)

    def component(self, k):
        """Homogeneous piece of weighted degree k (zero class for k < 0
        or k above the truncation bound)."""
        ring = self.ring
        if k < 0 or (ring.D is not None and k > ring.D):
            return ring.zero()
        poly = {m: c for m, c in self.poly.items() if ring.mdeg(m) == k}
        return GradedClass(ring, poly, reduced=True)

    def components(self):
        """Dict degree -> homogeneous GradedClass, only nonzero pieces."""
        ring = self.ring
        parts = {}
        for m, c in self.poly.items():
            parts.setdefault(ring.mdeg(m), {})[m] = c
        return {k: GradedClass(ring, p, reduced=True)
                for k, p in sorted(parts.items())}

    def max_degree(self):
        if not self.poly:
            return -1
        return max(self.ring.mdeg(m) for m in self.poly)

    def coefficient(self, mono):
        return self.poly.get(tuple(mono), ZERO)

    def __repr__(self):
        if not self.poly:
            return "0"
        ring = self.ring
        terms = []
        for m in sorted(self.poly, key=lambda m: (ring.mdeg(m), m)):
            c = self.poly[m]
            factors = []
            for name, e in zip(ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            body = "*".join(factors)
            if not body:
                terms.append(rational_str(c))
            elif c == 1:
                terms.append(body)
            elif c == -1:
                terms.append("-" + body)
            else:
                terms.append(rational_str(c) + "*" + body)
        s = " + ".join(terms)
        return s.replace("+ -", "- ")


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
    total = dict(s[0].poly)
    for k in range(1, ring.D + 1):
        sk = _dot(ring, [(-1, cj, s[k - j]) for j, cj in parts.items()
                         if 0 < j <= k and k - j in s])
        if sk.poly:
            s[k] = sk
            total.update(sk.poly)
    return GradedClass(ring, total, reduced=True)


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
                                if row[col].poly])
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
    rows = [[parts.get(b + j - i, zero) for j in range(a)] for i in range(a)]
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
        """Sum of line bundles with the given degree-1 Chern roots."""
        if not roots:
            raise ValueError("need at least one root (use trivial instead)")
        ring = roots[0].ring
        c = ring.one()
        for r in roots:
            c = c * (ring.one() + r)
        return cls(len(roots), c)

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
    ring = E.ring
    poly = {}
    for m, c in E.chern.poly.items():
        d = ring.mdeg(m)
        poly[m] = c if d % 2 == 0 else -c
    return KClass(E.rank, GradedClass(ring, poly, reduced=True))


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
    if not h.is_zero() and set(h.components()) != {1}:
        raise ValueError("twist class must be homogeneous of degree 1")
    if m == 0 or h.is_zero():
        return E
    mh = h * m
    parts = E.chern.components()
    hp = {0: ring.one()}
    for k in range(1, ring.D + 1):
        hp[k] = hp[k - 1] * mh
    total = {}
    for k in range(0, ring.D + 1):
        total.update(_dot(ring, [(binom_general(E.rank - i, k - i), ci,
                                  hp[k - i])
                                 for i, ci in parts.items() if i <= k]).poly)
    return KClass(E.rank, GradedClass(ring, total, reduced=True))
