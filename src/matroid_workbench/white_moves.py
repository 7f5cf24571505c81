"""The move split of white.toric_fibers, and the named views of a fiber.

white.toric_fibers closes stars while every degree-2 fiber and every fiber
below the degree is connected, and loads this module only where it splits
by moves: where the star closure cannot run, to confirm a split that it
reports and name the representatives of a witness, and for the named views
(vertices, adjacency, components) at their first access. So a check whose
fibers are all connected never compiles it.

A degree-d move replaces two factors of a monomial by a pair that one
double swap reaches from them, and fixes the other d - 2 factors. So a
breadth-first search over the monomials of one fiber gives its components,
and reads no lower degree. The double swaps of each basis pair are
computed once per toric_fibers call, into a table that the split and the
views share, and each must keep the pair's multidegree code.
"""
from __future__ import annotations

import itertools

from . import white
from .errors import InternalInvariantViolation


def _moves(masks, index, codes, d):
    """The function from a degree-d monomial to the set of monomials one
    move reaches from it. The double swaps of every basis pair are
    computed here, once, into a table row i, column j >= i."""
    n = len(masks)
    table = [
        [None] * i + [white._checked_swaps(masks, index, codes, i, j) for j in range(i, n)]
        for i in range(n if d > 1 else 0)
    ]
    positions = list(itertools.combinations(range(d), 2))

    def moves(v):
        out = set()
        for s, t in positions:
            found = table[v[s]][v[t]]
            if found:
                rest = v[:s] + v[s + 1:t] + v[t + 1:]
                for w in found:
                    out.add(tuple(sorted(rest + w)))
        return out

    return moves


def _search(fiber, moves):
    """The components of the monomials `fiber`, given in increasing order,
    under the function `moves`: breadth first from each monomial not yet
    reached, until every monomial is reached. So each component is a list
    whose first entry is its least monomial, and the components come in
    the order of those entries. Moves keep the multidegree, so no more
    monomials may be reached than the fiber holds."""
    seen, comps = set(), []
    for v in fiber:
        if v not in seen:
            seen.add(v)
            comp = [v]
            for u in comp:
                if len(seen) == len(fiber):
                    break
                new = moves(u) - seen
                seen |= new
                comp += new
            comps.append(comp)
    if len(seen) != len(fiber):
        # a move keeps the multidegree, so this module reached past the fiber
        raise InternalInvariantViolation(f"move left the fiber of {fiber[0]}: {len(seen)} monomials reached")
    return comps


def _split(codes, d, moves):
    """{multidegree code: components} of the degree-d fibers under the
    function `moves` (_search), the monomials bucketed by code in
    lexicographic order. Each bucket is dropped once it is searched, so
    the monomials that moves reach are not held twice."""
    fibers = {}
    for v in itertools.combinations_with_replacement(range(len(codes)), d):
        fibers.setdefault(sum(map(codes.__getitem__, v)), []).append(v)
    return {code: _search(fibers.pop(code), moves) for code in list(fibers)}


def _views(bases, moves, split):
    """{multidegree code: (vertices, adjacency, components)} with the
    bases themselves as names, from the components of the move split and
    the function `moves` that gave them."""
    views = {}
    for code, comps in split.items():
        names = {v: tuple(map(bases.__getitem__, v)) for v in sorted(itertools.chain.from_iterable(comps))}
        views[code] = (
            list(names.values()),
            {name: [names[w] for w in sorted(moves(v))] for v, name in names.items()},
            [[names[v] for v in sorted(comp)] for comp in comps],
        )
    return views
