"""Matroids given by an explicit basis list: the exchange-axiom validation
of the list, and its backing.

matroids.from_descriptor loads this module for a "bases" descriptor only,
so a graph, a matrix or a uniform matroid never compiles it;
matroids.from_bases and matroids.BasesBacking name what it defines
(PEP 562).
"""
from __future__ import annotations

from .errors import InvalidInput, TooLarge, quote
from .matroids import BASIS_VALIDATION_LIMIT, Matroid, _Backing, _check_ground_size


class _BasesSteps:
    """Push/pop rank oracle over an explicit basis list. It keeps the bases
    that contain the independent part I of the prefix (greedy, in push
    order); e raises the rank iff some of them contains e, i.e. iff I + e
    is independent."""

    def __init__(self, bases):
        self._holding = [bases]

    def push(self, e):
        holding = self._holding[-1]
        narrowed = [b for b in holding if e in b]
        self._holding.append(narrowed or holding)
        return bool(narrowed)

    def pop(self):
        self._holding.pop()


class BasesBacking(_Backing):
    kind = "bases"

    def __init__(self, bases):
        self.bases = bases  # list of frozensets, all the same size

    def rank(self, subset):
        return max(len(subset & b) for b in self.bases)

    def steps(self):
        return _BasesSteps(self.bases)

    def dual(self, M):
        return BasesBacking(sorted({M._eset - b for b in self.bases}, key=sorted))

    def basis_count(self, M):
        return len(self.bases)




def from_bases(n, bases):
    """Matroid on 0..n-1 from an explicit basis list.

    Validates the exchange axiom by the bases that hold each element: for a
    basis B1 and x in B1, let Y be the y outside B1 with B1 - x + y a
    basis. Every B2 without x has such a y in B2 - B1 iff every basis meets
    Y + x, i.e. iff the bitsets of the bases that hold the elements of
    Y + x cover all bases: b r (n - r) set lookups instead of b^2 r (n - r)
    pair checks for b bases of rank r. A failure names the first B1, then
    the first basis B2 it misses, then the least x missing B2, as the
    pairwise check in that order would. Lists whose b^2 exceeds
    BASIS_VALIDATION_LIMIT raise TooLarge.
    """
    if n < 1:
        raise InvalidInput("ground set must be nonempty")
    _check_ground_size(n)
    ground = frozenset(range(n))
    blist = []
    seen = set()
    for b in bases:
        fb = frozenset(b)
        if len(fb) != len(tuple(b)):
            raise InvalidInput(f"basis {quote(sorted(b))} has repeated elements")
        if not fb <= ground:
            raise InvalidInput(f"basis {quote(sorted(b))} outside ground set 0..{n - 1}")
        if fb not in seen:
            seen.add(fb)
            blist.append(fb)
    if not blist:
        raise InvalidInput("at least one basis is required")
    sizes = {len(b) for b in blist}
    if len(sizes) != 1:
        raise InvalidInput("bases must all have the same size")
    if len(blist) ** 2 > BASIS_VALIDATION_LIMIT:
        raise TooLarge(
            f"{len(blist)} bases need {len(blist) ** 2} pairwise exchange checks, "
            f"over the validation budget of {BASIS_VALIDATION_LIMIT}"
        )
    # B1 - x + y is the mask m1 ^ bit(x) | bit(y); bit i of holders[e] is
    # set when basis i holds e
    masks = [sum(1 << e for e in b) for b in blist]
    mset = set(masks)
    holders = [0] * n
    for i, b in enumerate(blist):
        for e in b:
            holders[e] |= 1 << i
    everyone = (1 << len(blist)) - 1
    support = [e for e in range(n) if holders[e]]  # no basis holds a loop
    for m1, b1 in zip(masks, blist):
        outside = [y for y in support if not m1 >> y & 1]
        missed = {}  # x -> the bases that miss Y + x
        for x in sorted(b1):
            cover = holders[x]
            for y in outside:
                if m1 ^ 1 << x | 1 << y in mset:
                    cover |= holders[y]
            if cover != everyone:
                missed[x] = everyone & ~cover
        if missed:
            first = min(m & -m for m in missed.values())
            x = next(x for x, m in missed.items() if m & first)
            raise InvalidInput(
                f"exchange axiom fails for bases {quote(sorted(b1))}, "
                f"{quote(sorted(blist[first.bit_length() - 1]))} at element {x}"
            )
    return Matroid(BasesBacking(sorted(blist, key=sorted)), range(n))
