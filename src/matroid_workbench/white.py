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
degree-(k-1) component", whether or not the lower fibers are connected;
one lifting pass per degree builds them as star edges, and no exchange is
computed above degree 2 (Sturmfels, Groebner Bases and Convex Polytopes,
ch. 5). Monomials are sorted tuples of indices into M.bases(), whose
lexicographic order is that of the bases themselves.

Before a report leaves check_degree, the number of fibers must equal the
number of integer points of d*P_M, the sums of d bases (Edmonds; White
1977), counted from the rank function alone, and the fiber sizes must add
up to C(#bases + d - 1, d).
"""
from __future__ import annotations

import itertools
from collections import deque
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
    """One toric fiber: vertices are sorted d-tuples of bases."""

    def __init__(self, degree, multidegree, vertices, adjacency):
        self.degree = degree
        self.multidegree = multidegree
        self.vertices = vertices
        self.adjacency = adjacency
        self.components = _components(vertices, adjacency)

    @property
    def n_components(self):
        return len(self.components)


def _components(vertices, adjacency):
    # breadth-first from each unvisited vertex, one visited set per fiber
    seen = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        comp = []
        queue = deque([v])
        seen.add(v)
        while queue:
            cur = queue.popleft()
            comp.append(cur)
            for nb in adjacency[cur]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        comps.append(sorted(comp))
    return comps


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


def _labels(monomials, edges):
    """Component number of every monomial under `edges`, by union-find."""
    parent = {}

    def find(v):
        root = v
        while root in parent:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    for v, w in edges:
        rv, rw = find(v), find(w)
        if rv != rw:
            parent[rv] = rw
    roots = {}
    return {v: roots.setdefault(find(v), len(roots)) for v in monomials}


def _degree_two(masks, index, codes):
    """Degree-2 monomials and their explicit double-swap moves."""
    monomials = list(itertools.combinations_with_replacement(range(len(masks)), 2))
    edges = []
    for v in monomials:
        for w in _swaps(masks, index, *v):
            if codes[w[0]] + codes[w[1]] != codes[v[0]] + codes[v[1]]:
                # double swaps preserve the multidegree; escaping the
                # fiber means this module miscomputed a move
                raise InternalInvariantViolation(f"exchange move left the fiber: {w} from {v}")
            if v < w:
                edges.append((v, w))
    return monomials, edges


def _lift(labels, n_bases, k):
    """Degree-k monomials and the star edges that give their move
    components, from a component number of every degree-(k-1) monomial.

    For each distinct factor B of v, v is joined to the first monomial seen
    with key (B, component of v / B); each edge is listed once.
    """
    first = {}
    monomials, edges = [], []
    for v in itertools.combinations_with_replacement(range(n_bases), k):
        monomials.append(v)
        joined = []
        prev = -1
        for t, factor in enumerate(v):
            if factor != prev:
                prev = factor
                w = first.setdefault(labels[v[:t] + v[t + 1:]] * n_bases + factor, v)
                if w is not v and w not in joined:
                    joined.append(w)
                    edges.append((v, w))
    return monomials, edges


def toric_fibers(M: Matroid, d, budget=DEFAULT_BUDGET):
    """All degree-d fibers as FiberGraph objects, sorted by multidegree.

    In degree 2 the adjacency holds the double-swap moves; from degree 3 on
    it holds the star edges of the lift, which have the same components.
    The lifting passes hold b * C(b + d, d - 1) basis factors for b bases,
    all degrees together; above `budget` the construction refuses
    (TooLarge) before it enumerates any monomial.
    """
    if d < 1:
        raise InvalidInput(f"degree must be >= 1, got {d}")
    bases = M.bases()
    _check_budget(len(bases), d, budget)
    masks, index = _masks(M, bases)
    # multidegree as one integer: digit p in base d + 1 counts position p,
    # the most significant digit first, so integer order is tuple order
    n = M.size
    codes = [sum((d + 1) ** (n - 1 - p) for p in range(n) if m >> p & 1) for m in masks]
    if d == 1:
        monomials, edges = [(i,) for i in range(len(bases))], []
    else:
        monomials, edges = _degree_two(masks, index, codes)
    for k in range(3, d + 1):
        monomials, edges = _lift(_labels(monomials, edges), len(bases), k)

    groups, info = {}, {}
    for v in monomials:  # lexicographic, so each fiber's vertices are sorted
        code = sum(map(codes.__getitem__, v))
        name = tuple(map(bases.__getitem__, v))
        adjacency = groups.get(code)
        if adjacency is None:
            adjacency = groups[code] = {}
        adjacency[name] = nbrs = []
        info[v] = code, name, nbrs
    for v, w in edges:
        code_v, name_v, nbrs_v = info[v]
        code_w, name_w, nbrs_w = info[w]
        if code_v != code_w:
            raise InternalInvariantViolation(f"move left the fiber: {w} from {v}")
        nbrs_v.append(name_w)
        nbrs_w.append(name_v)
    fibers = []
    for code in sorted(groups):
        adjacency = groups[code]
        mdeg = []
        for _ in range(n):
            code, digit = divmod(code, d + 1)
            mdeg.append(digit)
        fibers.append(FiberGraph(d, tuple(reversed(mdeg)), list(adjacency), adjacency))
    return fibers


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
    n_bases = len(M.bases())
    witnesses = []
    max_fiber = 0
    total = 0
    for fg in fibers:
        total += len(fg.vertices)
        max_fiber = max(max_fiber, len(fg.vertices))
        if fg.n_components > 1:
            witnesses.append(
                {
                    "multidegree": list(fg.multidegree),
                    "n_components": fg.n_components,
                    "component_representatives": [
                        [list(b) for b in comp[0]] for comp in fg.components
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
