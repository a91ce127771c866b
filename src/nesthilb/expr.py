"""Expression trees for virtual-cycle pushforward formulas, their JSON
form, and the p/q form of rationals.

Every displayed class formula is built once as a `FormulaExpr` tree and
then consumed by two independent evaluators: the formal one in
`porteous` (over graded rings and K-classes) and the equivariant one in
`hilbloc` (over torus characters).  Keeping a single tree per formula
prevents the two routes from drifting apart.  This module holds only
the tree, so a job that evaluates trees by localization loads neither
the formal evaluator nor the ring model.

Leaves are named K-theory symbols.  A twist descriptor on a leaf is a
vector of coefficients (bc, ac, kc, o1, tp) meaning the line

    L_beta^bc (A)^ac K_S^kc O(1)^o1 t^tp,

with beta and A bound at evaluation time (see ``hilbloc._resolve_leaf``).
"""

import json
from fractions import Fraction


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


class FormulaExpr:
    """Immutable expression node.

    kind: one of "leaf", "one", "ksum", "kdiff", "dual", "twist",
    "chern", "euler", "delta", "add", "mul", "scale".  K-valued kinds
    (leaf, ksum, kdiff, dual, twist) combine with each other and sit
    under the class-valued operators chern, euler and delta;
    class-valued nodes (one, chern, euler, delta) combine with add, mul
    and scale.
    """

    __slots__ = ("kind", "params", "attrs", "children", "_key")

    def __init__(self, kind, params=(), attrs=(), children=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "attrs", tuple(sorted(attrs)))
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *a):
        raise AttributeError("FormulaExpr is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def leaf(name, **attrs):
        return FormulaExpr("leaf", params=(name,), attrs=attrs.items())

    @staticmethod
    def one():
        return FormulaExpr("one")

    @staticmethod
    def ksum(*xs):
        return FormulaExpr("ksum", children=xs)

    @staticmethod
    def kdiff(a, b):
        return FormulaExpr("kdiff", children=(a, b))

    @staticmethod
    def neg(x):
        return FormulaExpr.kdiff(FormulaExpr.ksum(), x)

    @staticmethod
    def dual(x):
        return FormulaExpr("dual", children=(x,))

    @staticmethod
    def twist(x, line, m=1):
        return FormulaExpr("twist", params=(m,), children=(x, line))

    @staticmethod
    def chern(k, x):
        return FormulaExpr("chern", params=(k,), children=(x,))

    @staticmethod
    def euler(x):
        return FormulaExpr("euler", children=(x,))

    @staticmethod
    def delta(a, b, x):
        return FormulaExpr("delta", params=(a, b), children=(x,))

    @staticmethod
    def add(*xs):
        return FormulaExpr("add", children=xs)

    @staticmethod
    def mul(*xs):
        return FormulaExpr("mul", children=xs)

    @staticmethod
    def scale(c, x):
        return FormulaExpr("scale", params=(Fraction(c),), children=(x,))

    # -- identity ---------------------------------------------------------

    def key(self):
        """``expr_to_json`` of the tree, dumped with sorted keys and no
        spaces.  Built from the children's cached keys, so keying every
        node of a tree takes time linear in its size."""
        if self._key is None:
            doc = _node_json(self)
            if self.children:
                fields = {k: _dump(v) for k, v in doc.items()}
                fields["children"] = "[%s]" % ",".join(
                    c.key() for c in self.children)
                key = "{%s}" % ",".join(
                    '"%s":%s' % (k, fields[k]) for k in sorted(fields))
            else:
                key = _dump(doc)
            object.__setattr__(self, "_key", key)
        return self._key

    def __eq__(self, other):
        return isinstance(other, FormulaExpr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "FormulaExpr(%s)" % self.key()

    def attr(self, name, default=0):
        for k, v in self.attrs:
            if k == name:
                return v
        return default


def rhom(i, j, bc=0, ac=0, kc=0, o1=0, tp=0, trace_free=False, lvl=0):
    """R hom_pi(I_i, I_j tensor twist); trace_free subtracts R pi_* of
    the twist (only meaningful for i == j)."""
    name = "rhom0" if trace_free else "rhom"
    if trace_free and i != j:
        raise ValueError("trace-free part needs equal indices")
    return FormulaExpr.leaf(name, i=i, j=j, bc=bc, ac=ac, kc=kc, o1=o1,
                            tp=tp, lvl=lvl)


def pushO(bc=0, ac=0, kc=0, o1=0, tp=0, lvl=0):
    """R pi_* of the twist line bundle."""
    return FormulaExpr.leaf("pushO", bc=bc, ac=ac, kc=kc, o1=o1, tp=tp,
                            lvl=lvl)


def o1_line(lvl=0):
    """The relative hyperplane line O(1) of the lvl-th projective
    bundle level."""
    return FormulaExpr.leaf("O1", lvl=lvl)


def taut(a, level):
    """Tautological bundle A^[n_level] of the line bundle A whose class
    is the vector ``a`` of integer coordinates in the surface's class
    basis (a scalar is no class and does not resolve)."""
    return FormulaExpr.leaf("taut", a=a, level=level)


def co_class(bc=1, o1=0):
    """The Carlsson-Okounkov K-class Rpi_* xi - Rhom_pi(I1, I2 xi)."""
    return FormulaExpr.kdiff(pushO(bc=bc, o1=o1), rhom(1, 2, bc=bc, o1=o1))


# ---------------------------------------------------------------------------
# serialization


def _attr_json(v):
    if isinstance(v, Fraction):
        return rational_str(v)
    return v


# the canonical dump of a JSON form: sorted keys, no spaces
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _node_json(e):
    """The JSON form of one node, without its children."""
    doc = {"kind": e.kind}
    if e.params:
        doc["params"] = [rational_str(p) if isinstance(p, Fraction) else p
                         for p in e.params]
    if e.attrs:
        doc["attrs"] = {k: _attr_json(v) for k, v in e.attrs}
    return doc


def expr_to_json(e):
    doc = _node_json(e)
    if e.children:
        doc["children"] = [expr_to_json(c) for c in e.children]
    return doc


# node grammar of the JSON form: kind -> (its sort, its children's sort,
# their number (None for any), the types of its params).  A class node
# sits at the root and under add, mul and scale, a K-class node under
# chern, euler, delta and the K-level nodes.  Only leaves carry attrs.
_K, _C = "K-class", "class"
_GRAMMAR = {
    "leaf": (_K, None, 0, ("name",)), "ksum": (_K, _K, None, ()),
    "kdiff": (_K, _K, 2, ()), "dual": (_K, _K, 1, ()),
    "twist": (_K, _K, 2, ("int",)), "one": (_C, None, 0, ()),
    "chern": (_C, _K, 1, ("int",)), "euler": (_C, _K, 1, ()),
    "delta": (_C, _K, 1, ("size", "int")), "add": (_C, _C, None, ()),
    "mul": (_C, _C, None, ()), "scale": (_C, _C, 1, ("rational",)),
}
_NODE_KEYS = {"kind", "params", "attrs", "children"}
# nodes on the longest root-to-leaf path of a tree read from JSON: every
# recursive walk of such a tree (keys and both evaluators) stays far
# inside the interpreter's recursion limit
MAX_DEPTH = 200
# nodes deeper than this are named in errors by a shortened path
SHORT_PATH_DEPTH = 8


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rational(x):
    if _is_int(x):
        return True
    if not isinstance(x, str):
        return False
    try:
        parse_rational(x)
    except (ValueError, ZeroDivisionError):
        return False
    return True


# param type -> (check, description)
_PARAM_TYPES = {
    "name": (lambda p: isinstance(p, str) and p != "", "a leaf name"),
    "int": (_is_int, "an integer"),
    "size": (lambda p: _is_int(p) and p >= 0, "a non-negative integer"),
    "rational": (_is_rational, "a rational"),
}


def node_where(path, depth):
    """A node as errors name it: its path, or past SHORT_PATH_DEPTH its
    first and last child segments and its depth, e.g.
    ``expr.children[0]...children[1] (depth 9)``."""
    if depth <= SHORT_PATH_DEPTH:
        return path
    first = path.find("]", path.find(".children[")) + 1
    return "%s...%s (depth %d)" % (
        path[:first], path[path.rfind(".children[") + 1:], depth)


def expr_from_json(doc, path="expr", depth=1, sort=_C):
    """Tree from its JSON form (see expr_to_json).

    Checks the node grammar: known kind and keys, a node of the sort
    its position wants (a class at the root, see ``_GRAMMAR``), number
    of children and params, param types, and attrs (on leaves only)
    holding integers or rational strings, or lists of them, and a depth
    of at most MAX_DEPTH nodes (``depth`` is the node's, the root's
    being 1).  A breach raises ValueError naming the node's path; past
    SHORT_PATH_DEPTH the path is shortened to its first and last
    segments and the depth.
    """
    where = node_where(path, depth)
    if depth > MAX_DEPTH:
        raise ValueError("%s: tree deeper than %d nodes" % (where, MAX_DEPTH))
    if not isinstance(doc, dict):
        raise ValueError("%s: node must be an object" % where)
    extra = sorted(set(doc) - _NODE_KEYS)
    if extra:
        raise ValueError("%s: unknown key %r" % (where, extra[0]))
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _GRAMMAR:
        raise ValueError("%s: unknown kind %r" % (where, kind))
    own, inner, arity, types = _GRAMMAR[kind]
    if own != sort:
        raise ValueError("%s: %s is a %s node where a %s is wanted"
                         % (where, kind, own, sort))
    params = doc.get("params", [])
    if not isinstance(params, list) or len(params) != len(types):
        raise ValueError("%s: %s takes %d param%s"
                         % (where, kind, len(types), "" if len(types) == 1
                            else "s"))
    for p, t in zip(params, types):
        check, what = _PARAM_TYPES[t]
        if not check(p):
            raise ValueError("%s: %s param %r is not %s"
                             % (where, kind, p, what))
    if kind == "scale":
        params = [parse_rational(params[0])]
    attrs = doc.get("attrs", {})
    if not isinstance(attrs, dict):
        raise ValueError("%s: attrs must be an object" % where)
    if attrs and kind != "leaf":
        raise ValueError("%s: only leaves carry attrs" % where)
    for k, v in attrs.items():
        if not (_is_rational(v) or isinstance(v, list)
                and all(_is_rational(x) for x in v)):
            raise ValueError("%s: attr %r must be a rational or a list of"
                             " rationals" % (where, k))
    children = doc.get("children", [])
    if not isinstance(children, list) \
            or arity is not None and len(children) != arity:
        raise ValueError("%s: %s takes %s children"
                         % (where, kind, "a list of" if arity is None
                            else arity))
    children = [expr_from_json(c, "%s.children[%d]" % (path, i), depth + 1,
                               inner)
                for i, c in enumerate(children)]
    return FormulaExpr(kind, params=params, attrs=attrs.items(),
                       children=children)
