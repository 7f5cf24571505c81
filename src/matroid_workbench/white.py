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
degree-(k-1) component", whether or not the lower fibers are connected.
Each degree-k monomial v therefore gets one lift key per distinct factor
B, (component of v/B, B), and one union-find over the keys gives the
components; no exchange is computed above degree 2 (Sturmfels, Groebner
Bases and Convex Polytopes, ch. 5). Monomials are sorted tuples of indices
into M.bases(), whose lexicographic order is that of the bases themselves.

One labeling pass per degree, in lexicographic order, numbers the
components and records for each fiber its size and the least monomial of
each component; every component must lie in one fiber. The report reads
only this summary. Named vertices, adjacency lists and components, which
only tests and tracing read, are built from the same key enumeration at
their first access.

Before a report leaves check_degree, the number of fibers must equal the
number of integer points of d*P_M, the sums of d bases (Edmonds; White
1977), counted from the rank function alone, and the fiber sizes must add
up to C(#bases + d - 1, d).
"""
from __future__ import annotations

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

    `size`, `n_components` and `representatives` come from the labeling
    pass; the representatives are the least monomial of each component, as
    sorted d-tuples of indices into M.bases(), in increasing order. The
    named views are built at first access, in one pass for every fiber of
    the toric_fibers call that returned them: `vertices` are the sorted
    d-tuples of bases in lexicographic order, `adjacency` maps each vertex
    to its neighbours, and `components` are sorted lists of vertices, in
    order of their least vertex.
    """

    def __init__(self, degree, multidegree, size, representatives, code, views):
        self.degree = degree
        self.multidegree = multidegree
        self.size = size
        self.representatives = representatives
        self._code = code
        self._views = views

    @property
    def n_components(self):
        return len(self.representatives)

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
    all monomials of degrees 1..d, which the lifting passes hold. The
    product is built one nondecreasing factor at a time and stops at the
    first partial product over the budget, so a huge degree costs a few
    steps."""
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


def _labels(groups, monomials, codes):
    """Component numbers of `monomials`, and a summary of their fibers.

    `groups` lists, for each monomial in turn, the items it joins (any
    hashables); monomials that share an item are in one component. A
    union-find over the items runs first. Then one labeling pass numbers
    the components in the order in which `monomials` first reach them, and
    records {multidegree code: [fiber size, first monomial of each
    component]}. Every component must lie in one fiber.
    """
    parent = {}

    def find(x):
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    heads = []
    for items in groups:
        root = find(items[0])
        for x in items[1:]:
            other = find(x)
            if other != root:
                parent[other] = root
        heads.append(root)
    roots, firsts, labels, fibers = {}, [], [], {}
    for v, head in zip(monomials, heads):
        code = sum(map(codes.__getitem__, v))
        fiber = fibers.get(code)
        if fiber is None:
            fiber = fibers[code] = [0, []]
        fiber[0] += 1
        label = roots.setdefault(find(head), len(roots))
        if label == len(firsts):
            firsts.append((code, v))
            fiber[1].append(v)
        elif firsts[label][0] != code:
            # moves preserve the multidegree and a component is the closure
            # of its moves, so this module joined two fibers
            raise InternalInvariantViolation(
                f"move left the fiber: {v} joined to {firsts[label][1]}"
            )
        labels.append(label)
    return labels, fibers


def _degree_two(masks, index, codes):
    """For each degree-2 monomial, in lexicographic order, the monomial
    itself followed by its double-swap moves."""
    for v in itertools.combinations_with_replacement(range(len(masks)), 2):
        items = [v]
        for w in _swaps(masks, index, *v):
            if codes[w[0]] + codes[w[1]] != codes[v[0]] + codes[v[1]]:
                # double swaps preserve the multidegree; escaping the
                # fiber means this module miscomputed a move
                raise InternalInvariantViolation(f"exchange move left the fiber: {w} from {v}")
            items.append(w)
        yield items


def _lift(labels, n_bases, k):
    """For each degree-k monomial v, in lexicographic order, its lift keys
    label(v / B) * b + B, one per distinct factor B, from a component
    number of every degree-(k-1) monomial. Monomials that share a key are
    B*m and B*m' with m, m' in one component: one move component.
    """
    for v in itertools.combinations_with_replacement(range(n_bases), k):
        keys = []
        prev = -1
        for t, factor in enumerate(v):
            if factor != prev:
                prev = factor
                keys.append(labels[v[:t] + v[t + 1:]] * n_bases + factor)
        yield keys


def _named_views(bases, d, codes, groups, labels):
    """{multidegree code: (vertices, adjacency, components)} with the
    bases themselves as names, from the same groups and labels as the
    summary.

    In degree 2 the adjacency holds the double-swap moves. Above it holds
    star edges: each monomial is joined to the first monomial that listed
    each of its lift keys, which gives the same components.
    """
    views, names, members, first = {}, {}, [], {}
    monomials = itertools.combinations_with_replacement(range(len(bases)), d)
    for v, items, label in zip(monomials, groups, labels):
        names[v] = name = tuple(map(bases.__getitem__, v))
        code = sum(map(codes.__getitem__, v))
        view = views.get(code)
        if view is None:
            view = views[code] = [], {}, []
        vertices, adjacency, components = view
        vertices.append(name)
        adjacency[name] = nbrs = []
        if label == len(members):
            members.append([])
            components.append(members[label])
        members[label].append(name)
        if d == 2:
            joined = [w for w in items[1:] if w < v]
        else:
            joined = []
            for key in items:
                w = first.setdefault(key, v)
                if w is not v and w not in joined:
                    joined.append(w)
        for w in joined:
            nbrs.append(names[w])
            adjacency[names[w]].append(name)
    return views


def toric_fibers(M: Matroid, d, budget=DEFAULT_BUDGET):
    """All degree-d fibers as FiberGraph objects, sorted by multidegree.

    Components come from one union-find per degree: over the double-swap
    moves in degree 2 and over the lift keys (_lift) above it. The
    labeling pass of the last degree gives each fiber's size and the least
    monomial of each component, which is all check_degree reads; the named
    vertices, adjacency and components are built from the same key
    enumeration only when one of them is first read. The lifting passes
    hold b * C(b + d, d - 1) basis factors for b bases, all degrees
    together; above `budget` the construction refuses (TooLarge) before it
    enumerates any monomial.
    """
    if d < 1:
        raise InvalidInput(f"degree must be >= 1, got {d}")
    bases = M.bases()
    n_bases = len(bases)
    _check_budget(n_bases, d, budget)
    masks, index = _masks(M, bases)
    # multidegree as one integer: digit p in base d + 1 counts position p,
    # the most significant digit first, so integer order is tuple order
    n = M.size
    codes = [sum((d + 1) ** (n - 1 - p) for p in range(n) if m >> p & 1) for m in masks]

    def monomials(k):
        return itertools.combinations_with_replacement(range(n_bases), k)

    def groups(k, lower):
        if k == 1:
            return ([i] for i in range(n_bases))
        if k == 2:
            return _degree_two(masks, index, codes)
        return _lift(lower, n_bases, k)

    lower = None
    for k in range(min(d, 2), d + 1):
        labels, summary = _labels(groups(k, lower), monomials(k), codes)
        if k < d:
            lower = dict(zip(monomials(k), labels))

    counts = [[m >> p & 1 for p in range(n)] for m in masks]
    views = functools.cache(lambda: _named_views(bases, d, codes, groups(d, lower), labels))
    return [
        FiberGraph(d, tuple(map(sum, zip(*map(counts.__getitem__, reps[0])))), size, reps, code, views)
        for code, (size, reps) in sorted(summary.items())
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
    inside one flat's slack plus the room outside it.
    """
    flats = list(_cyclic_flats(M))
    elems = M.elements
    n = len(elems)
    cap = [d * M.rank({e}) for e in elems]
    slack = [d * M.rank(z) for z in flats]
    member = [[i for i, z in enumerate(flats) if e in z] for e in elems]
    room = [sum(cap[k:]) for k in range(n + 1)]
    outside = [
        [sum(cap[p] for p in range(k, n) if elems[p] not in z) for z in flats]
        for k in range(n + 1)
    ]

    def walk(k, need):
        if k == n:
            return 1 if need == 0 else 0
        if any(need > s + o for s, o in zip(slack, outside[k])):
            return 0
        inside = member[k]
        top = min([cap[k], need] + [slack[i] for i in inside])
        count = 0
        for x in range(max(0, need - room[k + 1]), top + 1):
            for i in inside:
                slack[i] -= x
            count += walk(k + 1, need - x)
            for i in inside:
                slack[i] += x
        return count

    return walk(0, d * M.r)


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
