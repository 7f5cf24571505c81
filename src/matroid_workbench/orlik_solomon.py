"""Orlik-Solomon algebras with no-broken-circuit monomial bases.

The algebra is the exterior algebra on e_0..e_(n-1) modulo the ideal
generated by the boundaries d e_S of dependent sets S, where d is the
Koszul boundary d e_S = sum_i (-1)^i e_(S minus its (i+1)-th largest
element). Over Z it is free on the nbc monomials: the sets containing no
broken circuit C - min C (Bjorner 1982; Orlik-Terao 3.5). The nbc sets,
and normal forms by straightening over Z, come from push/pop walks on the
rank oracle, with no list of circuits; one nbc walk serves every degree.
The integer coefficients are mapped into the field only at the end, which
the freeness over Z makes valid, so Q and every GF(p) share one code path
and one set of dimensions.

Cross-checks: in each degree the nbc count must equal the Whitney number
of the characteristic polynomial, and the reduced basis must carry an
identity minor on the nbc monomials avoiding 0. The characteristic
polynomial comes from tutte.py, which loads with the first Whitney check
(every OSSpace makes one), not with this module.
"""
from __future__ import annotations

from .errors import InternalInvariantViolation, InvalidInput, LooplessRequired, TooLarge
from .fields import QQ
from .matroids import Matroid

# rank-oracle pushes one nbc walk may make: it visits at most 2^#E sets and
# pushes at most #E elements at each, so every ground set of 20 elements fits
NBC_BUDGET = 20 << 20


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
    s = tuple(sorted(subset))
    if len(set(s)) != len(s):
        raise InvalidInput("boundary of a tuple with repeats")
    k, one = len(s), field.one  # s[j] is the (k - j)-th largest
    terms = {s[:j] + s[j + 1:]: field.neg(one) if (k - 1 - j) % 2 else one for j in range(k)}
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

    S is nbc iff it is independent and no e outside S lies in cl(S_{>e})
    (Bjorner 1992). One depth-first walk on M.incremental_rank() builds S in
    descending order, extends it below min S by each element up to the
    first in cl(S), and keeps S when no element below its minimum lies in
    cl(S). It makes at most NBC_BUDGET pushes, and M keeps the nbc sets of
    every size, so a caller reading several degrees asks for the top one
    first.
    """
    if k < 0 or k > M.size:
        raise InvalidInput(f"degree {k} out of range 0..{M.size}")
    _require_loopless(M)
    levels = vars(M).get("_os_nbc", ())
    if len(levels) <= min(k, M.r):
        elems, steps, pushes = M.elements, M.incremental_rank(), 0
        levels = [[] for _ in range(min(k, M.r) + 1)]

        def walk(top, S):
            nonlocal pushes
            for i in range(top - 1, -1, -1):
                pushes += 1
                if pushes > NBC_BUDGET:
                    raise TooLarge(f"nbc walk past {NBC_BUDGET} rank-oracle pushes (the budget)")
                spans = not steps.push(elems[i])
                if not spans and len(S) < k:
                    walk(i, S + (elems[i],))
                steps.pop()
                if spans:
                    return
            levels[len(S)].append(S[::-1])

        walk(M.size, ())
        M._os_nbc = levels = [sorted(level) for level in levels]
    return levels[k] if k < len(levels) else []


class OSSpace:
    """Degree-k piece of the Orlik-Solomon algebra: the monomial basis `nbc`
    and `reduce`, the normal form of any degree-k element on it."""

    def __init__(self, matroid, k, field, nbc):
        self.matroid = matroid
        self.degree = k
        self.field = field
        self.nbc = nbc
        self.dimension = len(nbc)

    def reduce(self, x: ExteriorElement) -> ExteriorElement:
        """Normal form of x on the nbc basis."""
        if x.degree != self.degree:
            raise InvalidInput(f"element degree {x.degree} != space degree {self.degree}")
        if x.field != self.field:
            raise InvalidInput(f"element over {x.field} read in a space over {self.field}")
        f, straighten, terms = self.field, _straightener(self.matroid), {}
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


def _whitney_numbers(M):
    """[|coefficient of u^(r-k)| in chi_M for k = 0..#E], chi_M from
    tutte.tutte_polynomial, held to check_tutte, imported here: at the first
    check, not with this module."""
    if "_os_whitney" not in vars(M):
        from . import tutte

        chi = tutte.char_poly(M)
        M._os_whitney = [abs(chi.coeff(M.r - k)) for k in range(M.size + 1)]
    return M._os_whitney


def os_space(M: Matroid, k, field=QQ) -> OSSpace:
    """The degree-k Orlik-Solomon space over `field`. Its dimension, the
    nbc count, must equal the k-th Whitney number |chi_M coefficient of
    u^(r-k)|; a mismatch is a bug in this package. Neither needs the field."""
    nbc, expected = nbc_sets(M, k), _whitney_numbers(M)[k]
    if len(nbc) != expected:
        raise InternalInvariantViolation(f"degree {k}: {len(nbc)} nbc sets != Whitney number {expected}")
    return OSSpace(M, k, field, nbc)


def os_dimensions(M: Matroid, field=QQ):
    """[dim OS^k for k = 0..r], top first; no nbc set is larger than r."""
    return [os_space(M, k, field).dimension for k in range(M.r, -1, -1)][::-1]


def normal_form(M: Matroid, x: ExteriorElement):
    """Coordinates of x on the degree-matching nbc basis over x's field; an
    nbc monomial maps to a unit vector."""
    return os_space(M, x.degree, x.field).coordinates(x)


def os_multiply(M: Matroid, a: ExteriorElement, b: ExteriorElement) -> ExteriorElement:
    """Product in the Orlik-Solomon algebra, reduced to nbc normal form."""
    if a.field != b.field:
        raise InvalidInput("operands live over different fields")
    w = a.wedge(b)
    if w.degree > M.size:  # no monomial has more than #E factors, so w is 0
        return w
    return os_space(M, w.degree, a.field).reduce(w)


# -- reduced (projective) variant ------------------------------------------


def reduced_nbc_index_sets(M: Matroid, k):
    """k-subsets S avoiding 0 with S + {0} an nbc set, lex order; os_space
    has held their count to the degree-(k+1) Whitney check."""
    if k < 0 or k + 1 > M.size:
        raise InvalidInput(f"reduced degree {k} out of range")
    if 0 not in M.elements:
        raise InvalidInput("reduced basis needs element 0 in the ground set")
    return [tuple(e for e in s if e != 0) for s in os_space(M, k + 1).nbc if 0 in s]


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
    idx = reduced_nbc_index_sets(M, k)
    space = os_space(M, k, field)
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
    return [reduced_nbc_basis(M, k, field).dimension for k in range(max(M.r, 1) - 1, -1, -1)][::-1]
