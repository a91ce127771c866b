"""Projective bundles over a base model and pushforward maps.

A space is modelled by its intersection ring together with enough
structure to push classes down: a projective bundle level remembers the
rank of the bundle it came from, so integration over the fibre is
coefficient extraction in normal form.  The split Grassmannian
pushforward works purely with Chern roots and needs no ambient space at
all; it reduces the localization sum to one exact polynomial division.
"""

from fractions import Fraction
from itertools import combinations

from .ringcore import Ring, GradedClass, KClass, _class, _moved, \
    _generator_indices


class SpaceModel:
    """A smooth base with a graded ring and an optional bundle structure.

    ``base`` is the model one level down, or None for a root.  For a
    level built by :func:`projective_bundle`, ``fiber_rank`` is the rank
    of the projectivized bundle and ``taut`` holds the tautological
    classes on that level.
    """

    def __init__(self, ring, dim, base=None, fiber_rank=0, bundle=None):
        self.ring = ring
        self.dim = dim
        self.base = base
        self.fiber_rank = fiber_rank
        self.bundle = bundle
        self.taut = {}

    def __repr__(self):
        return "SpaceModel(dim=%d, ring=%r)" % (self.dim, self.ring)


def free_model(names, degrees=None, dim=0, D=None):
    """A root model carrying formal classes, for identities on an
    unspecified base."""
    return SpaceModel(Ring(names, degrees=degrees, D=D), dim)


def projective_bundle(space, B, name="h"):
    """The bundle of lines in B over ``space``.

    Adds one degree-one generator ``name`` with the single relation
    sum_i c_i(B) h^(b-i) = 0, where b = rank B.  Tautological classes
    are stored on the returned model under the keys "h", "O1", "U",
    "Q" and "B".
    """
    if not isinstance(B, KClass) or B.ring is not space.ring:
        raise ValueError("bundle must be a K-class on the base ring")
    b = B.rank
    if b < 1:
        raise ValueError("projective bundle needs rank at least 1")
    if name in space.ring.index:
        raise ValueError("generator name %r already in use" % name)

    base_ring = space.ring
    # sum_{i >= 1} c_i(B) h^(b-i), read off the packed degree-i buckets
    ch = B.chern
    unpack, den = base_ring.unpack, ch.den
    rel_poly = {unpack(m) + (b - i,): -c if den == 1 else Fraction(-c, den)
                for i, bucket in ch._fit().items() if 0 < i <= b
                for m, c in bucket.items()}

    D_new = None if base_ring.D is None else base_ring.D + (b - 1)
    ring = base_ring.extend([name], degrees=[1], relations={name: (b, rel_poly)})
    if D_new != ring.D:
        ring = ring.truncated(D_new)

    level = SpaceModel(ring, space.dim + (b - 1), base=space,
                       fiber_rank=b, bundle=B)
    h = ring.gen(name)
    B_up = KClass(B.rank, ring.lift(B.chern))
    O1 = KClass.line(h)
    U = KClass.line(-h)
    level.taut = {"h": h, "O1": O1, "U": U, "Q": B_up - U, "B": B_up}
    level.h_index = ring.index[name]
    return level


def proj_pushforward(space, cls):
    """Push a class on a projective bundle level down to its base.

    In normal form the fibre generator h has exponent below the bundle
    rank b, and integration over the fibre picks out the coefficient of
    h^(b-1).  This forces q_* h^(b-1+k) = s_k(B) because the bundle
    relation rewrites higher powers of h through the Segre recursion.
    """
    if space.base is None or space.fiber_rank < 1:
        raise ValueError("not a bundle level")
    if not isinstance(cls, GradedClass) or cls.ring is not space.ring:
        raise ValueError("class does not live on this level")
    b = space.fiber_rank
    ring = space.ring
    shift, mask = ring.shifts[space.h_index], ring.mask
    out = {}
    for d, bucket in cls._fit().items():
        for m, c in bucket.items():
            e = (m >> shift) & mask
            if e >= b:
                raise ValueError("class not in normal form")
            if e == b - 1:
                out.setdefault(d - e, {})[m - (e << shift)] = c
    return _moved(space.base.ring, ring, ring.width, cls.den, out)


def _divide_linear(nums, sj, si, mask):
    """Exact division of a {packed monomial: int} polynomial by
    (x_j - x_i), the fields of x_j and x_i at bit offsets sj and si.

    Synthetic division in the variable x_j, on integers: the divisor is
    monic, so the quotient has integer coefficients too.  The remainder
    is the substitution x_j -> x_i and must vanish.  Returns the
    quotient dict or None if the remainder is nonzero.
    """
    by_k = {}
    for mono, c in nums.items():
        k = (mono >> sj) & mask
        by_k.setdefault(k, {})[mono - (k << sj)] = c
    quot = {}
    carry = {}
    xi = 1 << si
    for k in range(max(by_k, default=0), -1, -1):
        new = dict(by_k.get(k, ()))
        for m, c in carry.items():
            new[m + xi] = new.get(m + xi, 0) + c
        carry = {m: c for m, c in new.items() if c}
        if not k:
            return None if carry else quot
        for m, c in carry.items():
            quot[m + ((k - 1) << sj)] = c


def grassmann_split_pushforward(roots, r, F):
    """Pushforward from the Grassmann bundle of rank-r subs of a split
    bundle with the given Chern roots.

    ``F`` is a function of r classes, symmetric in its arguments; the
    result is sum_S F(roots_S) / prod_{i in S, j not in S} (b_j - b_i)
    over size-r subsets S.  The sum is assembled over the common
    denominator prod_{i<j} (b_j - b_i) and divided out exactly, on
    integer numerators, so the answer is a polynomial class; a nonzero
    remainder means F was not symmetric and raises ValueError.

    The ring must be untruncated, since the intermediate numerator has
    higher degree than the result.
    """
    if not roots:
        raise ValueError("need at least one root")
    ring, idx = _generator_indices(roots)
    if ring.D is not None:
        raise ValueError("split pushforward requires an untruncated ring")
    if any(j in ring.rels for j in idx):
        raise ValueError("roots must be free generators")
    e = len(roots)
    if not 0 <= r <= e:
        raise ValueError("subspace rank out of range")

    numerator = ring.zero()
    for S in combinations(range(e), r):
        term = F(*[roots[i] for i in S])
        if not isinstance(term, GradedClass) or term.ring is not ring:
            raise ValueError("F must return classes in the root ring")
        if r in (0, e):
            # the one subset: no pair of roots straddles it, so the
            # denominator is the empty product
            return term
        in_S = set(S)
        inversions = sum(1 for i in S for j in range(e)
                         if j not in in_S and i > j)
        if inversions % 2:
            term = -term
        for i in range(e):
            for j in range(i + 1, e):
                if (i in in_S) == (j in in_S):
                    term = term * (roots[j] - roots[i])
        numerator = numerator + term

    # the divisors are homogeneous, so each degree bucket is divided
    # on its own, one degree down per divisor
    parts = numerator._fit()
    for i in range(e):
        for j in range(i + 1, e):
            sj, si = ring.shifts[idx[j]], ring.shifts[idx[i]]
            parts = {d - 1: _divide_linear(b, sj, si, ring.mask)
                     for d, b in parts.items()}
            if None in parts.values():
                raise ValueError("non-symmetric input")
    return _class(ring, numerator.den, parts)
