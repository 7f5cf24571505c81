"""Quadric-generation checks for matroid toric ideals.

The degree-d fiber over a multidegree collects all d-multisets of bases
with that element-count vector. Two multisets are joined by a move when
one double swap relates them: replace bases B1, B2 in the multiset by
B1' = B1 - x + y, B2' = B2 - y + x (both must again be bases). Every fiber
being connected in degree d certifies that the toric ideal needs no
minimal generators in that degree beyond quadrics; a disconnected fiber
only yields candidate witnesses (the certificate is one-directional).

Moves are computed explicitly in degree 2 only, from the double swaps of
each pair of bases. For k >= 3 every degree-k move fixes a factor B and is
B times a degree-(k-1) move, and every degree-(k-1) path from m to m'
lifts to a path from B*m to B*m'. So the move components of degree k are
the components of the relation "v = B*m and w = B*m' with m, m' in one
degree-(k-1) component"; no exchange is computed above degree 2
(Sturmfels, Groebner Bases and Convex Polytopes, ch. 5). Monomials are
sorted tuples of indices into M.bases(), whose lexicographic order is that
of the bases themselves.

Star closure. While every lower fiber is connected, the monomials of a
degree-k fiber c that hold a basis B, B times the fiber c - B, lie in one
component, and two such stars meet exactly when one monomial holds both
bases. So the components of c are those of a graph on its node mask, the
bitmask of the bases that occur in it, in which B is joined to every basis
of the fiber c - B. Node masks are carried up from degree 1, each
degree's from the pairs (lower fiber, basis); each fiber's mask is split
by a bitmask closure that stops once a component covers it, and the fiber
sizes of degree d come from one count of the monomials' multidegree
codes. This is the route whenever every degree-2 fiber and every fiber
below degree d is connected; no monomial is labeled.

Lift. Otherwise each degree-k monomial gets one lift key per distinct
factor B, the label of its quotient by B and B, and one union-find over
the keys gives the components (white_lift.py, which loads only where the
lift runs). Degrees 1 and 2 are labeled here, by one union-find over the
positions of the degree-2 monomials and one labeling pass in
lexicographic order, which numbers the components and records for each
fiber its size and the least monomial of each component; every component
must lie in one fiber.

The report reads only the sizes and component counts. The
representatives and the named vertices, adjacency lists and components
come from the lift at their first access, and where the star closure
split the fibers the lift must give every fiber the same size and
component count.

Before a report leaves check_degree, the number of fibers must equal the
number of integer points of d*P_M, the sums of d bases (Edmonds; White
1977), and the fiber sizes must add up to C(#bases + d - 1, d). The points
are counted from the rank function and the cyclic flats alone, by a walk
over the coordinates that closes the last two by formula: their
completions of a prefix are the integers of an interval.
"""
from __future__ import annotations

import collections
import functools
import itertools
from math import comb

from .errors import InternalInvariantViolation, InvalidInput, TooLarge
from .matroids import Matroid

DEFAULT_BUDGET = 10_000_000


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _swaps(masks, index, i, j):
    """Sorted index pairs reachable from bases i, j by one double swap,
    without (i, j) itself; `masks` are the bases as position bitmasks and
    `index` inverts them."""
    a, b = masks[i], masks[j]
    out = set()
    for x in _bits(a & ~b):
        for y in _bits(b & ~a):
            i2, j2 = index.get(a ^ x ^ y), index.get(b ^ x ^ y)
            if i2 is not None and j2 is not None:
                out.add((i2, j2) if i2 <= j2 else (j2, i2))
    out.discard((i, j) if i <= j else (j, i))
    return out


def _masks(M, bases):
    pos = {e: p for p, e in enumerate(M.elements)}
    masks = [sum(1 << pos[e] for e in b) for b in bases]
    return masks, {m: i for i, m in enumerate(masks)}


def symmetric_exchange_neighbors(M: Matroid, pair):
    """All unordered basis pairs reachable from `pair` by one double swap.

    `pair` is two bases (tuples); the result is sorted and deduplicated,
    excluding the input pair itself.
    """
    bases = M.bases()
    where = {b: i for i, b in enumerate(bases)}
    i, j = (where.get(tuple(sorted(b))) for b in pair)
    if i is None or j is None:
        raise InvalidInput("pair must consist of bases")
    masks, index = _masks(M, bases)
    return [(bases[a], bases[b]) for a, b in sorted(_swaps(masks, index, i, j))]


class FiberGraph:
    """One toric fiber of degree d.

    `size` and `n_components` come from the route that split the fibers.
    The multidegree is decoded from the fiber's code when read. The rest is
    read from the lift, run at the first access for every fiber of the
    toric_fibers call that returned them: `representatives` are the least
    monomial of each component, as sorted d-tuples of indices into
    M.bases(), in increasing order; `vertices` are the sorted d-tuples of
    bases in lexicographic order, `adjacency` maps each vertex to its
    neighbours, and `components` are sorted lists of vertices, in order of
    their least vertex.
    """

    __slots__ = ("degree", "size", "n_components", "_n_elements", "_code", "_summary", "_views")

    def __init__(self, degree, n_elements, size, n_components, code, summary, views):
        self.degree = degree
        self.size = size
        self.n_components = n_components
        self._n_elements = n_elements
        self._code = code
        self._summary = summary
        self._views = views

    @property
    def multidegree(self):
        """The count of each element over the fiber's bases, in ground
        order: the base-(degree + 1) digits of its code."""
        digits, code = [], self._code
        for _ in range(self._n_elements):
            code, digit = divmod(code, self.degree + 1)
            digits.append(digit)
        return tuple(reversed(digits))

    @property
    def representatives(self):
        return self._summary()[self._code][1]

    @property
    def vertices(self):
        return self._views()[self._code][0]

    @property
    def adjacency(self):
        return self._views()[self._code][1]

    @property
    def components(self):
        return self._views()[self._code][2]


def _check_budget(n_bases, d, budget):
    """Refuse unless b * C(b + d, d - 1) <= budget: the basis factors of
    all monomials of degrees 1..d. Each factor gives at most one lift key,
    so this bounds the keys the lift joins and labels, and every list it
    holds is shorter; the pairs (lower fiber, basis) of the star closure
    and the monomial codes it counts are fewer too. The product is built
    one nondecreasing factor at a time and stops at the first partial
    product over the budget, so a huge degree costs a few steps."""
    k = min(d - 1, n_bases + 1)
    top = n_bases + d - k
    count = n_bases
    for i in range(1, k + 1):
        if count > budget:
            break
        count = count * (top + i) // i  # n_bases * C(top + i, i)
    if count > budget:
        raise TooLarge(
            f"at least {count} basis factors in the monomials of degrees 1..{d}"
            f" exceed the budget {budget}"
        )


def _monomials(n_bases, k):
    return itertools.combinations_with_replacement(range(n_bases), k)


def _row_offsets(n_bases, m):
    """{q: position of q + (l,) among the degree-(m + 1) monomials, minus l}
    for every degree-m monomial q. The monomials q + (l,) with l >= last(q)
    are contiguous in lexicographic order, so one offset serves them all."""
    offsets, pos = {}, 0
    for q in _monomials(n_bases, m):
        last = q[-1] if q else 0
        offsets[q] = pos - last
        pos += n_bases - last
    return offsets


def _join(n_items, pairs):
    """The union-find forest over items 0..n_items - 1 in which the two
    items of each pair are joined: a list in which each root is its own
    parent, with path halving."""
    parent = list(range(n_items))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[y] = x
    return parent


def _labels(parent, heads, n_bases, k, codes):
    """Component labels of the degree-k monomials, and a summary of their
    fibers.

    The monomials are walked in lexicographic order as p + (l,), for each
    degree-(k - 1) prefix p with its entry `head` of `heads` and each
    l >= last(p); item head + l of the forest `parent` lies in the
    component of p + (l,). Components are numbered in the order in which
    the walk first reaches them. Yields each monomial's label * n_bases,
    in lexicographic order, and then {multidegree code: [fiber size, first
    monomial of each component]}, so a caller that needs only the summary
    stores no labels. Every component must lie in one fiber.
    """
    comps = {}
    for p, head in zip(_monomials(n_bases, k - 1), heads):
        code = sum(map(codes.__getitem__, p))
        for l in range(p[-1] if p else 0, n_bases):
            x = head + l
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            comp = comps.get(x)
            if comp is None:
                comp = comps[x] = [len(comps) * n_bases, code + codes[l], 0, p + (l,)]
            elif comp[1] != code + codes[l]:
                # moves preserve the multidegree and a component is the closure
                # of its moves, so this module joined two fibers
                raise InternalInvariantViolation(
                    f"move left the fiber: {p + (l,)} joined to {comp[3]}"
                )
            comp[2] += 1
            yield comp[0]
    fibers = {}
    for _, code, size, first in comps.values():
        fiber = fibers.setdefault(code, [0, []])
        fiber[0] += size
        fiber[1].append(first)
    yield fibers


def _degree_two(masks, index, codes, heads):
    """Pairs of degree-2 monomials joined by one double swap, each (i, j)
    given by its lexicographic position heads[i] + j."""
    for i, j in _monomials(len(masks), 2):
        for w in _swaps(masks, index, i, j):
            if codes[w[0]] + codes[w[1]] != codes[i] + codes[j]:
                # double swaps preserve the multidegree; escaping the
                # fiber means this module miscomputed a move
                raise InternalInvariantViolation(
                    f"exchange move left the fiber: {w} from {(i, j)}"
                )
            yield heads[i] + j, heads[w[0]] + w[1]


def _labeling(k, masks, index, codes):
    """The labeling pass of degree 1 or 2: the bases themselves, then the
    double-swap moves (white_lift._labeling lifts the degrees above)."""
    n_bases = len(masks)
    if k == 1:
        n_items, heads, pairs = n_bases, [0], ()
    else:
        heads = list(_row_offsets(n_bases, 1).values())
        n_items, pairs = comb(n_bases + 1, 2), _degree_two(masks, index, codes, heads)
    return _labels(_join(n_items, pairs), heads, n_bases, k, codes)


def _node_masks(lower, codes):
    """{code: node mask} one degree up from the fibers `lower`: every
    monomial is a basis B times a monomial of the degree below, so the
    fiber c + code(B) holds B for each lower fiber c and each B."""
    nodes = {}
    get = nodes.get
    for b, code in enumerate(codes):
        bit = 1 << b
        for c in map(code.__add__, lower):
            nodes[c] = get(c, 0) | bit
    return nodes


def _components(nodes, lower, codes):
    """{code: number of components} of the fibers with node masks `nodes`,
    given the node masks `lower` of the degree below, all of whose fibers
    are connected: B is joined to every basis of the fiber c - code(B).
    Each component is closed from its least basis and stops once it covers
    what is left of the mask."""
    out = {}
    for c, mask in nodes.items():
        n, rest = 0, mask
        while rest:
            n += 1
            reach = todo = rest & -rest
            while todo:
                bit = todo & -todo
                near = lower.get(c - codes[bit.bit_length() - 1], -1)
                if near & ~mask:
                    raise InternalInvariantViolation(
                        f"star closure left the fiber: basis {bit.bit_length() - 1} in fiber {c}"
                    )
                todo = (todo ^ bit) | (near & ~reach)
                reach |= near
                if reach == rest:
                    break
            rest &= ~reach
        out[c] = n
    return out


def _star_components(codes, d):
    """{code: number of components} of the degree-d fibers by star closure
    from degree 3, the node masks carried up from degree 1; None at the
    first degree below d with a split fiber. Every degree-2 fiber must be
    connected."""
    nodes = {0: 0}
    for k in range(1, d + 1):
        lower, nodes = nodes, _node_masks(nodes, codes)
        if k > 2:
            counts = _components(nodes, lower, codes)
            if k < d and max(counts.values()) > 1:
                return None
    return counts


def _fiber_sizes(codes, d):
    """{code: size} of the degree-d fibers, by one count of the codes of
    all degree-d monomials p + (l,), l >= last(p), built from the codes of
    the monomials of each degree grouped by their last factor."""

    def up(by_last):
        return (
            map(code.__add__, itertools.chain.from_iterable(by_last[:l + 1]))
            for l, code in enumerate(codes)
        )

    # the codes of the monomials whose last factor is l, at index l; the
    # empty monomial, of code 0, precedes every factor
    by_last = [[0]] + [[]] * (len(codes) - 1)
    for _ in range(d - 1):
        by_last = list(map(list, up(by_last)))
    return collections.Counter(itertools.chain.from_iterable(up(by_last)))


def _tables(M, d):
    """The bases, their position bitmasks and its inverse, and each basis's
    multidegree as one integer: digit p in base d + 1 counts position p,
    the most significant digit first, so integer order is tuple order."""
    bases = M.bases()
    masks, index = _masks(M, bases)
    n = M.size
    codes = [sum((d + 1) ** (n - 1 - p) for p in range(n) if m >> p & 1) for m in masks]
    return bases, masks, index, codes


def toric_fibers(M: Matroid, d, budget=DEFAULT_BUDGET):
    """All degree-d fibers as FiberGraph objects, sorted by multidegree.

    From degree 3 on, while every fiber below degree d is connected, the
    star closure gives the component counts (_star_components) and one
    count of the monomial codes the sizes (_fiber_sizes), which must find
    the same fibers; otherwise the lift (white_lift._lift_route) gives
    both. The representatives and named views read the lift at their
    first access, held to those sizes and counts. All degrees together
    have at most b * C(b + d, d - 1) basis factors for b bases; above
    `budget` the construction refuses (TooLarge) before it enumerates any
    monomial.
    """
    if d < 1:
        raise InvalidInput(f"degree must be >= 1, got {d}")
    _check_budget(len(M.bases()), d, budget)
    bases, masks, index, codes = _tables(M, d)
    flat = lower = counts = None
    if d > 2:
        *flat, lower = _labeling(2, masks, index, codes)
        if all(len(reps) == 1 for _, reps in lower.values()):
            counts = _star_components(codes, d)

    @functools.cache
    def lift():
        from .white_lift import _lift_route

        return _lift_route(masks, index, codes, d, flat, lower)

    if counts is None:
        fibers = {code: (size, len(reps)) for code, (size, reps) in lift()[2].items()}
    else:
        sizes = _fiber_sizes(codes, d)
        if sizes.keys() != counts.keys():
            raise InternalInvariantViolation(
                f"{len(counts)} degree-{d} fibers by node masks, {len(sizes)} by monomials"
            )
        fibers = {code: (sizes[code], n) for code, n in counts.items()}

    @functools.cache
    def summary():
        lifted = lift()[2]
        if {code: (size, len(reps)) for code, (size, reps) in lifted.items()} != fibers:
            raise InternalInvariantViolation(
                f"the lift and the star closure split the degree-{d} fibers apart"
            )
        return lifted

    @functools.cache
    def views():
        from .white_lift import _views

        return _views(bases, masks, index, codes, d, lift())

    return [
        FiberGraph(d, M.size, size, n, code, summary, views)
        for code, (size, n) in sorted(fibers.items())
    ]


def _closure(M, A):
    rank = M.rank(A)
    return A.union(e for e in M.elements if e not in A and M.rank(A | {e}) == rank)


def _cyclic_flats(M):
    """The flats that are unions of circuits, by closure from cl(empty):
    the closure of a cyclic set is a cyclic flat, and every cyclic flat is
    reached as cl(Z + C) from a smaller one Z and a circuit C."""
    closed = {_closure(M, frozenset(c)) for c in M.circuits()}
    start = _closure(M, frozenset())
    flats, todo = {start}, [start]
    while todo:
        z = todo.pop()
        for c in closed:
            if not c <= z:
                joined = _closure(M, z | c)
                if joined not in flats:
                    flats.add(joined)
                    todo.append(joined)
    return flats


def _lattice_points(M, d):
    """The number of integer x >= 0 with x(E) = d*r, x_e <= d*r(e) and
    x(Z) <= d*r(Z) for every cyclic flat Z.

    These inequalities imply x(F) <= d*r(F) for every flat F, which is a
    cyclic flat plus the coloops of M|F, so they cut out d*P_M; its integer
    points are the sums of d bases, one per degree-d fiber. A depth-first
    walk over the coordinates in ground order keeps a running slack per
    cyclic flat, and prunes a prefix whose remaining total cannot be placed
    inside one flat's slack plus the room outside it. The walk stops two
    coordinates short of the end: once x_{n-2} = x is chosen the last
    coordinate is the remaining total minus x, so every bound on the pair
    is a bound on x, and a prefix has as many completions as an interval
    has integers.
    """
    flats = list(_cyclic_flats(M))
    elems = M.elements
    n = len(elems)
    if n < 2:
        return 1  # a single basis, so d*P_M is one point
    cap = [d * M.rank({e}) for e in elems]
    slack = [d * M.rank(z) for z in flats]
    member = [[i for i, z in enumerate(flats) if e in z] for e in elems]
    room = [sum(cap[k:]) for k in range(n + 1)]
    # (flat, room outside it) for the flats that still hold a position at or
    # after k; for the others the room outside is all the room, which never
    # prunes since need <= room[k] throughout
    checks = [
        [
            (i, sum(cap[p] for p in range(k, n) if elems[p] not in z))
            for i, z in enumerate(flats)
            if any(elems[p] in z for p in range(k, n))
        ]
        for k in range(n - 2)
    ]
    # a flat holding e_{n-2} bounds x from above; one holding e_{n-1} but not
    # e_{n-2} bounds the last coordinate need - x, so x from below; one
    # holding both bounds need alone
    upper = member[n - 2]
    lower = [i for i in member[n - 1] if i not in upper]
    both = [i for i in member[n - 1] if i in upper]

    def pair(need):
        """The completions x_{n-2} = x, x_{n-1} = need - x under the slacks."""
        for i in both:
            if need > slack[i]:
                return 0
        top = min(cap[n - 2], need)
        for i in upper:
            if slack[i] < top:
                top = slack[i]
        low = max(0, need - cap[n - 1])
        for i in lower:
            if need - slack[i] > low:
                low = need - slack[i]
        return max(0, top - low + 1)

    def walk(k, need):
        for i, outside in checks[k]:
            if need > slack[i] + outside:
                return 0
        inside = member[k]
        top = min(cap[k], need)
        for i in inside:
            if slack[i] < top:
                top = slack[i]
        count = 0
        for x in range(max(0, need - room[k + 1]), top + 1):
            for i in inside:
                slack[i] -= x
            count += walk(k + 1, need - x) if k < n - 3 else pair(need - x)
            for i in inside:
                slack[i] += x
        return count

    return pair(d * M.r) if n == 2 else walk(0, d * M.r)


def check_degree(M: Matroid, d, budget=DEFAULT_BUDGET):
    """Connectivity report for all degree-d fibers.

    d >= 3: degrees 1 and 2 say nothing about generators beyond quadrics.
    The verdict is one-directional: all fibers connected certifies no
    degree-d minimal generators; a disconnected fiber is only a candidate
    witness (reported with the lex-least vertex of each component). Before
    the report is returned, the fiber sizes must add up to
    C(#bases + d - 1, d) and the fiber count must equal the number of
    integer points of d*P_M.
    """
    if not isinstance(d, int) or d < 3:
        raise InvalidInput(f"degree must be an integer >= 3, got {d}")
    fibers = toric_fibers(M, d, budget)
    bases = M.bases()
    n_bases = len(bases)
    witnesses = []
    max_fiber = 0
    total = 0
    for fg in fibers:
        total += fg.size
        max_fiber = max(max_fiber, fg.size)
        if fg.n_components > 1:
            witnesses.append(
                {
                    "multidegree": list(fg.multidegree),
                    "n_components": fg.n_components,
                    "component_representatives": [
                        [list(bases[i]) for i in v] for v in fg.representatives
                    ],
                }
            )
    if total != comb(n_bases + d - 1, d):
        raise InternalInvariantViolation(
            f"fiber sizes add up to {total}, not C({n_bases} + {d} - 1, {d})"
        )
    points = _lattice_points(M, d)
    if points != len(fibers):
        raise InternalInvariantViolation(
            f"{len(fibers)} degree-{d} fibers but {points} integer points of {d}*P_M"
        )
    all_connected = not witnesses
    return {
        "degree": d,
        "n_bases": n_bases,
        "n_fibers": len(fibers),
        "n_monomials": total,
        "max_fiber_size": max_fiber,
        "all_connected": all_connected,
        "verdict": (
            f"no minimal generators in degree {d}"
            if all_connected
            else f"candidate witness: disconnected degree-{d} fiber"
        ),
        "witnesses": witnesses,
    }
