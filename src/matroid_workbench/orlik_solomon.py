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

This module counts: the nbc sets, the spaces they span and their
dimensions, all that `os-dims` and `os-basis` print. The arithmetic
(exterior elements, straightening, normal forms, products and the reduced
nbc basis of `reduced-os-basis`) is in os_algebra.py, which loads at the
first OSSpace.reduce or lookup of one of its names here (PEP 562).

Cross-checks: in each degree the nbc count must equal the Whitney number
of the characteristic polynomial, and the reduced basis must carry an
identity minor on the nbc monomials avoiding 0. The characteristic
polynomial comes from tutte.py, which loads with the first Whitney check
(every OSSpace makes one), not with this module.
"""
from __future__ import annotations

from .errors import InternalInvariantViolation, InvalidInput, LooplessRequired, TooLarge, require_int
from .fields import QQ, as_field
from .matroids import Matroid, require_matroid

# rank-oracle pushes one nbc walk may make: it visits at most 2^#E sets and
# pushes at most #E elements at each, so every ground set of 20 elements fits
NBC_BUDGET = 20 << 20

_ALGEBRA = ("ExteriorElement", "ReducedOSBasis", "koszul_boundary", "normal_form", "os_multiply",
            "reduced_nbc_basis", "reduced_os_dimensions")


def __getattr__(name):
    if name in _ALGEBRA:  # the algebra's arithmetic, in os_algebra.py (PEP 562)
        from . import os_algebra

        return getattr(os_algebra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    require_int(k, "degree")
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

    def reduce(self, x):
        """Normal form of x on the nbc basis (os_algebra.reduce)."""
        from .os_algebra import reduce

        return reduce(self, x)

    def coordinates(self, x):
        """Coefficients of reduce(x) on self.nbc, in basis order."""
        red = self.reduce(x)
        return [red.terms.get(s, self.field.zero) for s in self.nbc]


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
    """The degree-k Orlik-Solomon space over `field` (a fields.py object or
    name). Its dimension, the nbc count, must equal the k-th Whitney number
    |chi_M coefficient of u^(r-k)|; a mismatch is a bug in this package.
    Neither needs the field."""
    field = as_field(field)
    nbc, expected = nbc_sets(M, k), _whitney_numbers(M)[k]
    if len(nbc) != expected:
        raise InternalInvariantViolation(f"degree {k}: {len(nbc)} nbc sets != Whitney number {expected}")
    return OSSpace(M, k, field, nbc)


def os_dimensions(M: Matroid, field=QQ):
    """[dim OS^k for k = 0..r], top first; no nbc set is larger than r."""
    require_matroid(M)
    return [os_space(M, k, field).dimension for k in range(M.r, -1, -1)][::-1]


# -- reduced (projective) variant ------------------------------------------


def reduced_nbc_index_sets(M: Matroid, k):
    """k-subsets S avoiding 0 with S + {0} an nbc set, lex order; os_space
    has held their count to the degree-(k+1) Whitney check."""
    require_int(k, "reduced degree")
    if k < 0 or k + 1 > M.size:
        raise InvalidInput(f"reduced degree {k} out of range")
    if 0 not in M.elements:
        raise InvalidInput("reduced basis needs element 0 in the ground set")
    return [tuple(e for e in s if e != 0) for s in os_space(M, k + 1).nbc if 0 in s]
