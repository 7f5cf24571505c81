"""The move split of white.toric_fibers, and the named views of a fiber.

white.toric_fibers closes stars while every degree-2 fiber and every fiber
below the degree is connected, and loads this module only where it splits
by moves: where the star closure cannot run, to confirm a split that it
reports and name the representatives of a witness, and for the named views
(vertices, adjacency, components) at their first access. So a check whose
fibers are all connected never compiles it.

A degree-d move replaces two factors of a monomial by a pair that one
double swap reaches from them, and fixes the other d - 2 factors. So the
breadth-first search white._search, which checks degree 2 as well, gives
the components of one fiber from its moves, and reads no lower degree.
The double swaps of each basis pair are computed once per toric_fibers
call, into a table that the split and the views share, and each must
keep the pair's multidegree code.
"""
from __future__ import annotations

import itertools

from . import white


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


def _split(codes, d, moves):
    """{multidegree code: components} of the degree-d fibers (white._fibers)
    under the function `moves`, each searched by white._search. Each fiber
    is dropped once it is searched, so the monomials that moves reach are
    not held twice."""
    fibers = white._fibers(codes, d)
    return {code: white._search(fibers.pop(code), moves) for code in list(fibers)}


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
