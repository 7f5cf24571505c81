"""Orlik-Solomon algebras with no-broken-circuit monomial bases.

The algebra is the exterior algebra on e_0..e_(n-1) modulo the ideal
generated by the boundaries d e_S of dependent sets S, where d is the
Koszul boundary d e_S = sum_i (-1)^i e_(S minus its (i+1)-th largest
element). Over Z it is free on the nbc monomials: the sets containing no
broken circuit C - min C (Bjorner 1982; Orlik-Terao 3.5).

Normal forms come from straightening over Z. A dependent monomial is 0; a
monomial containing a broken circuit is rewritten with the boundary
relation of that circuit into lexicographically smaller monomials; an nbc
monomial stays. The integer coefficients are memoized per matroid and
mapped into the field only at the end, which the freeness over Z makes
valid, so Q and every GF(p) share one code path and one set of dimensions.

Cross-checks: in each degree the nbc count must equal the Whitney number
from the characteristic polynomial of the corank-nullity sum, and each
reduced-basis product must carry a unit at its own index set and zeros at
the other nbc monomials avoiding 0.
"""
from __future__ import annotations

import itertools

from . import tutte
from .errors import InternalInvariantViolation, InvalidInput, LooplessRequired
from .fields import QQ
from .matroids import Matroid


def _merge_sign(a, b):
    """Merge two sorted tuples; (merged, sign of the shuffle), or None when
    they intersect. The sign is the parity of the pairs x in a, y in b with
    x > y."""
    if not set(a).isdisjoint(b):
        return None
    inversions = sum(x > y for x in a for y in b)
    return tuple(sorted(a + b)), -1 if inversions % 2 else 1


class ExteriorElement:
    """Homogeneous element of the exterior algebra on e_0..e_(n-1).

    Terms map sorted index tuples to nonzero field scalars; the constructor
    drops zero coefficients. The degree is carried explicitly so the zero
    element of each degree is distinct.
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
        c = self.field.of(c)
        return ExteriorElement(
            self.field, self.degree, {k: self.field.mul(c, v) for k, v in self.terms.items()}
        )

    def wedge(self, other):
        f = self.field
        t = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                merged = _merge_sign(ka, kb)
                if merged is None:
                    continue
                key, sign = merged
                c = f.mul(ca, cb)
                t[key] = f.add(t.get(key, f.zero), c if sign > 0 else f.neg(c))
        return ExteriorElement(f, self.degree + other.degree, t)

    def __eq__(self, other):
        return (
            isinstance(other, ExteriorElement)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return f"0_deg{self.degree}"
        bits = []
        for key in sorted(self.terms):
            mono = "^".join(f"e{i}" for i in key) if key else "1"
            bits.append(f"({self.field.to_str(self.terms[key])})*{mono}")
        return " + ".join(bits)


def koszul_boundary(subset, field=QQ):
    """d e_S = sum_{i>=0} (-1)^i e_(S minus its (i+1)-th largest element)."""
    s = tuple(sorted(subset))
    if len(set(s)) != len(s):
        raise InvalidInput("boundary of a tuple with repeats")
    k = len(s)
    terms = {}
    for i in range(k):
        dropped = k - 1 - i  # position of the (i+1)-th largest
        key = s[:dropped] + s[dropped + 1:]
        terms[key] = field.one if i % 2 == 0 else field.neg(field.one)
    return ExteriorElement(field, k - 1, terms)


def _require_loopless(M):
    if not M.is_loopless():
        raise LooplessRequired(f"loops present: {sorted(M.loops())}")


def broken_circuits(M: Matroid):
    """Each circuit minus its smallest element, deduplicated, sorted."""
    _require_loopless(M)
    return sorted({c[1:] for c in M.circuits()})


def nbc_sets(M: Matroid, k):
    """k-subsets of the ground set containing no broken circuit, lex order.

    Such sets are automatically independent: a dependent set contains a
    circuit, hence that circuit's broken circuit.
    """
    if k < 0 or k > M.size:
        raise InvalidInput(f"degree {k} out of range 0..{M.size}")
    bcs = [frozenset(b) for b in broken_circuits(M)]
    out = []
    for s in itertools.combinations(M.elements, k):
        ss = frozenset(s)
        if not any(b <= ss for b in bcs):
            out.append(s)
    return out


class OSSpace:
    """Degree-k piece of the Orlik-Solomon algebra.

    `nbc` lists the monomial basis; `reduce` rewrites any degree-k element
    as its normal form on that basis.
    """

    def __init__(self, matroid, k, field, nbc):
        self.matroid = matroid
        self.degree = k
        self.field = field
        self.nbc = nbc
        self.dimension = len(nbc)

    def reduce(self, x: ExteriorElement) -> ExteriorElement:
        """Normal form of x on the nbc basis (a representative, not a coset)."""
        if x.degree != self.degree:
            raise InvalidInput(f"element degree {x.degree} != space degree {self.degree}")
        if x.field != self.field:
            raise InvalidInput(f"element over {x.field} read in a space over {self.field}")
        f = self.field
        straighten = _straightener(self.matroid)
        terms = {}
        for key, c in x.terms.items():
            for s, n in straighten(key).items():
                terms[s] = f.add(terms.get(s, f.zero), f.mul(c, f.of(n)))
        return ExteriorElement(f, self.degree, terms)

    def coordinates(self, x: ExteriorElement):
        """Coefficients of reduce(x) on self.nbc, in basis order."""
        red = self.reduce(x)
        return [red.terms.get(s, self.field.zero) for s in self.nbc]


def _straightener(M):
    """Memoized integer normal forms on M: sorted S -> {nbc subset: int}.

    A dependent e_S is 0. If S holds the broken circuit B = C - c0 of the
    first circuit C (in M.circuits() order) with c0 = min C, then c0 is not
    in S (S would be dependent), and the boundary relation of C, wedged
    with e_(S - B), gives e_S as the sum over b in B of
    (-1)^(pos of b in S + pos of c0 in T) e_T with T = (S - b) + c0.
    Each T is lexicographically smaller than S, so the recursion ends. A set
    with no broken circuit is nbc and its own normal form.
    """
    straighten = getattr(M, "_os_straighten", None)
    if straighten is not None:
        return straighten
    rules = [(c[0], c[1:], frozenset(c[1:])) for c in M.circuits()]
    memo = {}

    def straighten(S):
        out = memo.get(S)
        if out is not None:
            return out
        out = {}
        if M.rank(S) == len(S):
            ss = frozenset(S)
            rule = next((r for r in rules if r[2] <= ss), None)
            if rule is None:
                out[S] = 1
            else:
                c0, broken, _ = rule
                for b in broken:
                    T = tuple(sorted((ss - {b}) | {c0}))
                    sign = -1 if (S.index(b) + T.index(c0)) % 2 else 1
                    for u, n in straighten(T).items():
                        out[u] = out.get(u, 0) + sign * n
                out = {u: n for u, n in out.items() if n}
        memo[S] = out
        return out

    M._os_straighten = straighten
    return straighten


def _whitney_numbers(M):
    """[|coefficient of u^(r-k)| in chi_M for k = 0..#E], from tutte_sum."""
    w = getattr(M, "_os_whitney", None)
    if w is None:
        chi = tutte.char_poly(M)
        w = M._os_whitney = [abs(chi.coeff(M.r - k)) for k in range(M.size + 1)]
    return w


def os_space(M: Matroid, k, field=QQ) -> OSSpace:
    """The degree-k Orlik-Solomon space over `field`.

    Its dimension is the nbc count, which must equal the k-th Whitney
    number |chi_M coefficient of u^(r-k)| (0 above the rank); a mismatch is
    an internal bug, not an input condition.
    """
    cache = getattr(M, "_os_nbc", None)
    if cache is None:
        cache = M._os_nbc = {}
    nbc = cache.get(k)
    if nbc is None:  # the nbc sets and their check do not depend on the field
        nbc = nbc_sets(M, k)
        expected = _whitney_numbers(M)[k]
        if len(nbc) != expected:
            raise InternalInvariantViolation(
                f"degree {k}: {len(nbc)} nbc sets != Whitney number {expected}"
            )
        cache[k] = nbc
    return OSSpace(M, k, field, nbc)


def os_dimensions(M: Matroid, field=QQ):
    """[dim OS^k for k = 0..r]; no nbc set is larger than the rank."""
    return [os_space(M, k, field).dimension for k in range(M.r + 1)]


def normal_form(M: Matroid, x: ExteriorElement):
    """Coordinates of x on the degree-matching nbc basis over x's field.

    Idempotent in the sense that an nbc monomial maps to a unit vector.
    The reduced element itself is available as os_space(...).reduce(x).
    """
    return os_space(M, x.degree, x.field).coordinates(x)


def os_multiply(M: Matroid, a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    """Product in the Orlik-Solomon algebra, reduced to nbc normal form."""
    if a.field != b.field:
        raise InvalidInput("operands live over different fields")
    w = a.wedge(b)
    if w.degree > M.size:
        return ExteriorElement(a.field, w.degree, {})
    return os_space(M, w.degree, a.field).reduce(w)


# -- reduced (projective) variant ------------------------------------------


def reduced_nbc_index_sets(M: Matroid, k):
    """k-subsets S avoiding 0 with S + {0} an nbc set, lex order."""
    if k < 0 or k + 1 > M.size:
        raise InvalidInput(f"reduced degree {k} out of range")
    if 0 not in M.elements:
        raise InvalidInput("reduced basis needs element 0 in the ground set")
    return [tuple(e for e in s if e != 0) for s in nbc_sets(M, k + 1) if 0 in s]


class ReducedOSBasis:
    def __init__(self, degree, field, index_sets, monomials):
        self.degree = degree
        self.field = field
        self.index_sets = index_sets
        self.monomials = monomials
        self.dimension = len(index_sets)


def reduced_nbc_basis(M: Matroid, k, field=QQ) -> ReducedOSBasis:
    """Monomials prod_{s in S} (e_s - e_0) for S in reduced_nbc_index_sets.

    Every term of such a product is a subset of the nbc set S + {0}, so the
    product is already in normal form. Its coordinates must be 1 at S and 0
    at every other nbc monomial avoiding 0: that identity minor certifies
    that the monomials are independent, and it is checked here rather than
    assumed.
    """
    idx = reduced_nbc_index_sets(M, k)
    space = os_space(M, k, field)
    e0 = ExteriorElement.monomial(field, (0,))
    monos = []
    for s in idx:
        acc = ExteriorElement.scalar(field, 1)
        for e in s:
            acc = acc.wedge(ExteriorElement.monomial(field, (e,)) - e0)
        away = {t: c for t, c in space.reduce(acc).terms.items() if 0 not in t}
        if away != {s: field.one}:
            raise InternalInvariantViolation(
                f"reduced degree-{k} product for {s} has coordinates {away} away from 0"
            )
        monos.append(acc)
    return ReducedOSBasis(k, field, idx, monos)


def reduced_os_dimensions(M: Matroid, field=QQ):
    """[dim of the reduced degree-k piece for k = 0..r-1]."""
    return [reduced_nbc_basis(M, k, field).dimension for k in range(max(M.r, 1))]
