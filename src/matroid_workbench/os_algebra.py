"""Products and normal forms in the Orlik-Solomon algebra.

orlik_solomon.py counts the nbc sets of each degree and holds them to the
Whitney numbers, which is all that `os-dims` and `os-basis` print. The
algebra's arithmetic lives here: exterior elements, the Koszul boundary,
normal forms by straightening over Z on the rank oracle, products, and
the reduced nbc basis that `reduced-os-basis` prints, whose identity minor
is checked on those normal forms. OSSpace.reduce loads this module, and
orlik_solomon names what it defines (PEP 562), so the counting commands
never compile it. The nbc sets and spaces are read as orlik_solomon.nbc_sets
and orlik_solomon.os_space at each call.
"""
from __future__ import annotations

from . import orlik_solomon
from .errors import InternalInvariantViolation, InvalidInput, quote
from .fields import QQ, as_field
from .matroids import Matroid, require_matroid


class ExteriorElement:
    """Homogeneous element of the exterior algebra on e_0..e_(n-1).

    Terms map sorted index tuples to nonzero field scalars (zeros are
    dropped); the explicit degree tells apart the zeros of each degree.
    """

    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms=None):
        self.field = field
        self.degree = degree
        t = {}
        for key, c in (terms or {}).items():
            if len(key) != degree or tuple(sorted(key)) != tuple(key):
                raise InvalidInput(f"term {key} is not a sorted degree-{degree} tuple")
            if not field.is_zero(c):
                t[key] = c
        self.terms = t

    @classmethod
    def monomial(cls, field, subset, c=None):
        subset = tuple(sorted(subset))
        return cls(field, len(subset), {subset: field.one if c is None else field.of(c)})

    @classmethod
    def scalar(cls, field, c):
        return cls(field, 0, {(): field.of(c)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.degree != other.degree:
            raise InvalidInput("cannot add elements of different degrees")
        t = dict(self.terms)
        for k, c in other.terms.items():
            t[k] = self.field.add(t.get(k, self.field.zero), c)
        return ExteriorElement(self.field, self.degree, t)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, c):
        c, f = self.field.of(c), self.field
        return ExteriorElement(f, self.degree, {k: f.mul(c, v) for k, v in self.terms.items()})

    def wedge(self, other):
        """e_A ^ e_B = (-1)^#{x in A, y in B: x > y} e_(A + B)."""
        f, t = self.field, {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                if set(ka).isdisjoint(kb):
                    key, c = tuple(sorted(ka + kb)), f.mul(ca, cb)
                    if sum(x > y for x in ka for y in kb) % 2:
                        c = f.neg(c)
                    t[key] = f.add(t.get(key, f.zero), c)
        return ExteriorElement(f, self.degree + other.degree, t)

    def __eq__(self, other):
        same = isinstance(other, ExteriorElement)
        return same and (self.degree, self.terms) == (other.degree, other.terms)

    def __repr__(self):
        bits = [f"({self.field.to_str(self.terms[key])})*" + ("^".join(f"e{i}" for i in key) or "1")
                for key in sorted(self.terms)]
        return " + ".join(bits) or f"0_deg{self.degree}"


def koszul_boundary(subset, field=QQ):
    """d e_S = sum_{i>=0} (-1)^i e_(S minus its (i+1)-th largest element)."""
    try:
        s = tuple(sorted(subset))
    except TypeError:  # not a collection of comparable elements
        raise InvalidInput(f"subset must be a collection of elements, got {quote(subset)}") from None
    field = as_field(field)
    if len(set(s)) != len(s):
        raise InvalidInput("boundary of a tuple with repeats")
    k, one = len(s), field.one  # s[j] is the (k - j)-th largest
    terms = {s[:j] + s[j + 1:]: field.neg(one) if (k - 1 - j) % 2 else one for j in range(k)}
    return ExteriorElement(field, k - 1, terms)


def _straightener(M):
    """Memoized integer normal forms on M: sorted S -> {nbc subset: int}.

    One pass down the ground set pushes S and finds the largest e outside S
    in cl(S_{>e}). A dependent e_S is 0, and an independent S with no such e
    is nbc. Otherwise the boundary relation of the dependent set S_{>e} + e,
    wedged with the rest of S, gives e_S as the sum over b in S_{>e} of
    (-1)^(pos of b in S + pos of e in T) e_T, T = (S - b) + e, each T
    lexicographically smaller than S. Normal forms over Z are unique, so any
    such relation gives the same one.
    """
    if "_os_straighten" in vars(M):
        return M._os_straighten
    down, steps, memo = M.elements[::-1], M.incremental_rank(), {}

    def straighten(S):
        if S in memo:
            return memo[S]
        out, ss, rule, depth = {}, frozenset(S), None, 0
        for x in down:
            if x in ss:
                depth += 1
                if not steps.push(x):
                    rule = False  # S is dependent
                    break
            elif rule is None:
                if not steps.push(x):
                    rule = x, S[len(S) - depth:]
                steps.pop()
        for _ in range(depth):
            steps.pop()
        if rule is None:
            out[S] = 1
        elif rule:
            e, above = rule
            for b in above:
                T = tuple(sorted((ss - {b}) | {e}))
                sign = -1 if (S.index(b) + T.index(e)) % 2 else 1
                for u, n in straighten(T).items():
                    out[u] = out.get(u, 0) + sign * n
            out = {u: n for u, n in out.items() if n}
        memo[S] = out
        return out

    M._os_straighten = straighten
    return straighten


def reduce(space, x: ExteriorElement) -> ExteriorElement:
    """Normal form of x on the nbc basis of the OSSpace `space`."""
    if x.degree != space.degree:
        raise InvalidInput(f"element degree {x.degree} != space degree {space.degree}")
    if x.field != space.field:
        raise InvalidInput(f"element over {x.field} read in a space over {space.field}")
    f, straighten, terms = space.field, _straightener(space.matroid), {}
    for key, c in x.terms.items():
        for s, n in straighten(key).items():
            terms[s] = f.add(terms.get(s, f.zero), f.mul(c, f.of(n)))
    return ExteriorElement(f, space.degree, terms)


def normal_form(M: Matroid, x: ExteriorElement):
    """Coordinates of x on the degree-matching nbc basis over x's field; an
    nbc monomial maps to a unit vector."""
    return orlik_solomon.os_space(M, x.degree, x.field).coordinates(x)


def os_multiply(M: Matroid, a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    """Product in the Orlik-Solomon algebra, reduced to nbc normal form."""
    if a.field != b.field:
        raise InvalidInput("operands live over different fields")
    w = a.wedge(b)
    if w.degree > M.size:  # no monomial has more than #E factors, so w is 0
        return w
    return orlik_solomon.os_space(M, w.degree, a.field).reduce(w)


class ReducedOSBasis:
    def __init__(self, degree, field, index_sets, monomials):
        self.degree = degree
        self.field = field
        self.index_sets = index_sets
        self.monomials = monomials
        self.dimension = len(index_sets)


def reduced_nbc_basis(M: Matroid, k, field=QQ) -> ReducedOSBasis:
    """Monomials prod_{s in S} (e_s - e_0) for S in reduced_nbc_index_sets.

    As e_0 ^ e_0 = 0, the product of S = (s_0 < ... < s_(k-1)) is e_S plus
    (-1)^(j+1) e_(S - s_j + 0) for each j. Every term is a subset of the nbc
    set S + {0}, so it is in normal form. Its coordinates must be 1 at S and
    0 at every other nbc monomial avoiding 0: that identity minor, checked
    here, proves the monomials independent.
    """
    require_matroid(M)
    idx = orlik_solomon.reduced_nbc_index_sets(M, k)
    space = orlik_solomon.os_space(M, k, field)
    field = space.field  # os_space reads a field name
    one, monos = field.one, []
    for s in idx:
        terms = {(0,) + s[:j] + s[j + 1:]: one if j % 2 else field.neg(one) for j in range(k)}
        acc = ExteriorElement(field, k, {s: one, **terms})
        away = {t: c for t, c in space.reduce(acc).terms.items() if 0 not in t}
        if away != {s: field.one}:
            raise InternalInvariantViolation(
                f"reduced degree-{k} product for {s} has coordinates {away} away from 0"
            )
        monos.append(acc)
    return ReducedOSBasis(k, field, idx, monos)


def reduced_os_dimensions(M: Matroid, field=QQ):
    """[dim of the reduced degree-k piece for k = 0..r-1], top first."""
    require_matroid(M)
    return [reduced_nbc_basis(M, k, field).dimension for k in range(max(M.r, 1) - 1, -1, -1)][::-1]
