"""Quadric-generation checks for matroid toric ideals.

The degree-d fiber over a multidegree collects all d-multisets of bases
with that element-count vector. Two multisets are joined by a move when
one double swap relates them: replace bases B1, B2 in the multiset by
B1' = B1 - x + y, B2' = B2 - y + x (both must again be bases). Every fiber
being connected in degree d certifies that the toric ideal needs no
minimal generators in that degree beyond quadrics; a disconnected fiber
only yields candidate witnesses (the certificate is one-directional).

A degree-d move replaces two factors of a monomial by a pair that one
double swap reaches from them and fixes the other d - 2 factors. For
k >= 3 every degree-k move is thus B times a degree-(k-1) move for a fixed
factor B, and every degree-(k-1) path from m to m' lifts to a path from
B*m to B*m' (Sturmfels, Groebner Bases and Convex Polytopes, ch. 5).
Monomials are sorted tuples of indices into M.bases(), whose
lexicographic order is that of the bases themselves.

Star closure. While every lower fiber is connected, the monomials of a
degree-k fiber c that hold a basis B, B times the fiber c - B, lie in one
component, and two such stars meet exactly when one monomial holds both
bases. So each degree is one pass over the pairs (lower fiber, basis):
the star's bases, B and the lower fiber's node mask (the bitmask of the
bases that occur in it), are merged into the component masks of the
fiber they reach, and a degree's components must hold one basis per
pair. The passes start at degree 3: the node mask of a degree-2 fiber is
the OR of the bases of its monomials, whose buckets the degree-2 check
has just searched. The sizes of degree d come from one count of the
monomials' multidegree codes. This is the route whenever every degree-2
fiber and every fiber below degree d is connected; no monomial is listed
of a degree above 2. Degree 2 is checked by the search of the move split
(_search), one fiber at a time, whose moves are the double swaps; it
stops at the first split fiber.

Move split. Otherwise each degree-d fiber is searched breadth first by
_search under its moves (white_moves.py, which loads only where the
split runs), and no lower degree is read. toric_fibers returns the
route's sizes and component counts in a sequence (Fibers) that makes a
FiberGraph only when one is read, and the report reads the counts alone
and makes a FiberGraph for each witness only. The representatives and
the named vertices, adjacency lists and components come from the move
split at their first access, and where the star closure split the fibers
the moves must give every fiber the same size and component count.

Before a report leaves check_degree, the number of fibers must equal the
number of integer points of d*P_M, the sums of d bases (Edmonds; White
1977), and the fiber sizes must add up to C(#bases + d - 1, d). The points
are counted from the rank function and the cyclic flats alone, by a walk
over the coordinates that closes the last three by formula: the
completions of a prefix are, for each value x of the third last, the
integers of an interval whose ends are constants or constants minus x,
so their number summed over x is three arithmetic series.
"""
from __future__ import annotations

import collections
import functools
import itertools
from math import comb

from .errors import InternalInvariantViolation, InvalidInput, TooLarge, quote, require_int
from .matroids import Matroid, require_matroid

DEFAULT_BUDGET = 10_000_000


@functools.lru_cache(maxsize=1 << 12)
def _bits(mask):
    """The one-bit masks of `mask`, lowest first, cached per mask."""
    out = []
    while mask:
        out.append(mask & -mask)
        mask &= mask - 1
    return tuple(out)


def _swaps(masks, index, i, j):
    """Sorted index pairs reachable from bases i, j by one double swap,
    without (i, j) itself; `masks` are the bases as position bitmasks and
    `index` inverts them."""
    a, b = masks[i], masks[j]
    ys = _bits(b & ~a)
    get = index.get
    out = set()
    for x in _bits(a & ~b):
        ax, bx = a ^ x, b ^ x
        for y in ys:
            i2 = get(ax ^ y)
            if i2 is not None:
                j2 = get(bx ^ y)
                if j2 is not None:
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
    try:
        i, j = (where.get(tuple(sorted(b))) for b in pair)
    except (TypeError, ValueError):  # not two sortable, hashable bases
        raise InvalidInput(f"pair must be two bases, got {quote(pair)}") from None
    if i is None or j is None:
        raise InvalidInput("pair must consist of bases")
    masks, index = _masks(M, bases)
    return [(bases[a], bases[b]) for a, b in sorted(_swaps(masks, index, i, j))]


class FiberGraph:
    """One toric fiber of degree d.

    `size` and `n_components` come from the route that split the fibers.
    The multidegree is decoded from the fiber's code when read. The rest is
    read from the move split, run at the first access for every fiber of
    the toric_fibers call that returned them: `representatives` are the
    least monomial of each component, as sorted d-tuples of indices into
    M.bases(), in increasing order; `vertices` are the sorted d-tuples of
    bases in lexicographic order, `adjacency` maps each vertex to the
    sorted vertices that one move reaches from it, and `components` are
    sorted lists of vertices, in order of their least vertex.
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
        return [comp[0] for comp in self._summary()[self._code]]

    @property
    def vertices(self):
        return self._views()[self._code][0]

    @property
    def adjacency(self):
        return self._views()[self._code][1]

    @property
    def components(self):
        return self._views()[self._code][2]


class Fibers:
    """The degree-d fibers of one toric_fibers call, in code order (that is,
    by multidegree), as a read-only sequence: len, indexing, slicing and
    iteration make each FiberGraph when it is read. `sizes` and `counts`
    are the route's own {code: size} and {code: number of components}."""

    def __init__(self, degree, n_elements, sizes, counts, summary, views):
        self.degree = degree
        self.sizes = sizes
        self.counts = counts
        self._n_elements = n_elements
        self._summary = summary
        self._views = views

    def fiber(self, code):
        """The FiberGraph of the fiber whose multidegree code is `code`."""
        return FiberGraph(
            self.degree, self._n_elements, self.sizes[code], self.counts[code], code, self._summary, self._views
        )

    @functools.cached_property
    def _codes(self):
        return sorted(self.counts)

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, i):
        if i.__class__ is slice:
            return list(map(self.fiber, self._codes[i]))
        return self.fiber(self._codes[i])

    def __iter__(self):
        return map(self.fiber, self._codes)


def _check_budget(n_bases, d, budget):
    """Refuse unless b * C(b + d, d - 1) <= budget: the basis factors of
    all monomials of degrees 1..d. This bounds the C(b + d - 1, d)
    monomials that the move split lists, and the pairs (lower fiber,
    basis) that the star closure forms and the monomial codes it counts
    are fewer too. The product is built one nondecreasing factor at a
    time and stops at the first partial product over the budget, so a
    huge degree costs a few steps."""
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


def _checked_swaps(masks, index, codes, i, j):
    """_swaps of bases i and j, each of which must keep their multidegree
    code."""
    out = _swaps(masks, index, i, j)
    for w in out:
        if codes[w[0]] + codes[w[1]] != codes[i] + codes[j]:
            # double swaps preserve the multidegree; escaping the fiber
            # means this module miscomputed a move
            raise InternalInvariantViolation(f"exchange move left the fiber: {w} from {(i, j)}")
    return out


def _fibers(codes, d):
    """{multidegree code: monomials} of the degree-d fibers, each a list of
    sorted d-tuples of basis indices in lexicographic order."""
    fibers = {}
    for v in itertools.combinations_with_replacement(range(len(codes)), d):
        fibers.setdefault(sum(map(codes.__getitem__, v)), []).append(v)
    return fibers


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
        # a move keeps the multidegree, so `moves` reached past the fiber
        raise InternalInvariantViolation(f"move left the fiber of {fiber[0]}: {len(seen)} monomials reached")
    return comps


def _degree_two_nodes(masks, index, codes):
    """{code: node mask, the OR of the bases i and j} of the degree-2
    fibers when each, searched (_search) under the double swaps of its
    monomials (i, j), i <= j, which are its moves, is connected; None at
    the first split fiber."""
    moves = lambda v: _checked_swaps(masks, index, codes, *v)
    nodes = {}
    for c, fiber in _fibers(codes, 2).items():
        if len(_search(fiber, moves)) > 1:
            return None
        mask = 0
        for i, j in fiber:
            mask |= 1 << i | 1 << j
        nodes[c] = mask
    return nodes


def _star_split(lower, codes):
    """{code: component masks} one degree up from the connected fibers
    `lower`, {code: node mask}: B times the fiber c is connected, so the
    star mask | bit(B) is merged into the disjoint component masks of the
    fiber c + code(B), one int while they are one and a list otherwise."""
    out = {}
    get = out.get
    lower = list(lower.items())
    for b, code in enumerate(codes):
        bit = 1 << b
        for c, mask in lower:
            c += code
            star = mask | bit
            comps = get(c)
            if comps is None:
                out[c] = star
            elif comps.__class__ is int:
                out[c] = comps | star if comps & star else [comps, star]
            else:
                apart = [m for m in comps if not m & star]
                star |= sum(comps) - sum(apart)  # the disjoint masks it meets
                out[c] = apart + [star] if apart else star
    return out


def _star_components(nodes, codes, d):
    """{code: number of components} of the degree-d fibers, d >= 3, by star
    closure from degree 3 on the node masks `nodes` of the connected
    degree-2 fibers (_degree_two_nodes); None at the first degree below d
    with a split fiber. Each pair (lower fiber, basis) puts one basis in a
    degree's components, and a star that left its fiber puts in more."""
    for k in range(3, d + 1):
        split = _star_split(nodes, codes)
        held = sum(m.bit_count() if m.__class__ is int else sum(map(int.bit_count, m)) for m in split.values())
        if held != len(codes) * len(nodes):
            raise InternalInvariantViolation(
                f"star closure left the fiber: {held} bases in the degree-{k} components"
                f" of {len(codes) * len(nodes)} stars"
            )
        if k < d and any(m.__class__ is list for m in split.values()):
            return None
        nodes = split
    return {c: 1 if m.__class__ is int else len(m) for c, m in split.items()}


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
    """All degree-d fibers, sorted by multidegree, as a Fibers sequence,
    which makes each FiberGraph when it is read.

    From degree 3 on, while every degree-2 fiber and every fiber below
    degree d is connected, the star closure gives the component counts
    (_star_components) and one count of the monomial codes the sizes
    (_fiber_sizes), which must find the same fibers; otherwise the move
    split (white_moves._split) gives both. The representatives and named
    views read the move split at their first access, held to those sizes
    and counts. All degrees together have at most b * C(b + d, d - 1) basis
    factors for b bases; above `budget` the construction refuses
    (TooLarge) before it enumerates any monomial.
    """
    require_matroid(M)
    require_int(d, "degree")
    if d < 1:
        raise InvalidInput(f"degree must be >= 1, got {d}")
    require_int(budget, "budget")
    _check_budget(len(M.bases()), d, budget)
    bases, masks, index, codes = _tables(M, d)
    nodes = _degree_two_nodes(masks, index, codes) if d > 2 else None
    star = None if nodes is None else _star_components(nodes, codes, d)

    @functools.cache
    def moves():
        from .white_moves import _moves

        return _moves(masks, index, codes, d)

    def shape(components):
        return {c: len(comps) for c, comps in components.items()}, {
            c: sum(map(len, comps)) for c, comps in components.items()
        }

    @functools.cache
    def summary():
        """The move split, held to the star closure's sizes and counts where
        those gave the fibers."""
        from .white_moves import _split

        components = _split(codes, d, moves())
        if star is not None and shape(components) != (counts, sizes):
            raise InternalInvariantViolation(
                f"the moves and the star closure split the degree-{d} fibers apart"
            )
        return components

    if star is None:
        counts, sizes = shape(summary())
    else:
        counts, sizes = star, _fiber_sizes(codes, d)
        if sizes.keys() != counts.keys():
            raise InternalInvariantViolation(
                f"{len(counts)} degree-{d} fibers by node masks, {len(sizes)} by monomials"
            )

    @functools.cache
    def views():
        from .white_moves import _views

        return _views(bases, moves(), summary())

    return Fibers(d, M.size, sizes, counts, summary, views)


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
    inside one flat's slack plus the room outside it. The walk stops three
    coordinates short of the end. Once x_{n-3} = x is chosen, with N left
    for the last three, x_{n-1} is N - x - x_{n-2}, so every bound on the
    last two is a bound on y = x_{n-2}, and the completions are the
    integers y of [max(A', B' - x), min(A, B - x)] for constants A, B, A',
    B' of the prefix (a flat holding both bounds N - x alone, so x from
    below). Their number is min(a, b + x, c - x) where that is positive,
    and its sum over an interval of x is three arithmetic series.
    """
    flats = list(_cyclic_flats(M))
    elems = M.elements
    n = len(elems)
    cap = [d * M.rank({e}) for e in elems]
    if n < 3:  # a single basis, one point, unless two parallel elements share d
        return d + 1 if n == 2 and M.r == 1 and cap == [d, d] else 1
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
    # a flat holding e_{n-2} but not e_{n-1} bounds y from above, one holding
    # e_{n-1} but not e_{n-2} bounds x_{n-1}, so y from below, and one
    # holding both bounds x_{n-2} + x_{n-1}; each is split by whether it
    # holds e_{n-3} too, where its slack falls with x
    held = member[n - 3]
    upper = [i for i in member[n - 2] if i not in member[n - 1]]
    lower = [i for i in member[n - 1] if i not in member[n - 2]]
    both = [i for i in member[n - 1] if i in member[n - 2]]
    upper_in, upper_out = [i for i in upper if i in held], [i for i in upper if i not in held]
    lower_in, lower_out = [i for i in lower if i in held], [i for i in lower if i not in held]
    both_in, both_out = [i for i in both if i in held], [i for i in both if i not in held]
    cap_y, cap_z = cap[n - 2], cap[n - 1]

    def last(need, lo, hi):
        """The points with x_{n-3} = x in [lo, hi] and `need` left for the
        last three coordinates: y runs over [max(low_a, low_b - x),
        min(high_a, high_b - x)], so there are min(a, b + x, c - x) of them
        where that is positive, b + x up to x = rise, c - x from x = fall,
        and a in between."""
        for i in both_in:
            if need > slack[i]:
                return 0
        for i in both_out:
            if need - slack[i] > lo:
                lo = need - slack[i]
        high_a, high_b, low_a, low_b = cap_y, need, 0, need - cap_z
        for i in upper_out:
            if slack[i] < high_a:
                high_a = slack[i]
        for i in upper_in:
            if slack[i] < high_b:
                high_b = slack[i]
        for i in lower_in:
            if need - slack[i] > low_a:
                low_a = need - slack[i]
        for i in lower_out:
            if need - slack[i] > low_b:
                low_b = need - slack[i]
        a = min(high_a - low_a, high_b - low_b) + 1
        b, c = high_a - low_b + 1, high_b - low_a + 1
        lo, hi = max(lo, 1 - b), min(hi, c - 1)
        if a < 1 or lo > hi:
            return 0
        rise = min(a - b, (c - b) // 2)
        fall = max(c - a, (c - b) // 2 + 1)
        count = 0
        if lo <= rise:
            v = min(hi, rise)
            count += (v - lo + 1) * (2 * b + lo + v) // 2
        if fall <= hi:
            u = max(lo, fall)
            count += (hi - u + 1) * (2 * c - u - hi) // 2
        u, v = max(lo, rise + 1), min(hi, fall - 1)
        if u <= v:
            count += (v - u + 1) * a
        return count

    def walk(k, need):
        for i, outside in checks[k]:
            if need > slack[i] + outside:
                return 0
        inside = member[k]
        top = min(cap[k], need)
        for i in inside:
            if slack[i] < top:
                top = slack[i]
        start = max(0, need - room[k + 1])
        if k == n - 3:
            return last(need, start, top)
        count = 0
        for x in range(start, top + 1):
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
    for code in sorted(c for c, n in fibers.counts.items() if n > 1):
        fg = fibers.fiber(code)
        witnesses.append(
            {
                "multidegree": list(fg.multidegree),
                "n_components": fg.n_components,
                "component_representatives": [[list(bases[i]) for i in v] for v in fg.representatives],
            }
        )
    total = sum(fibers.sizes.values())
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
        "max_fiber_size": max(fibers.sizes.values()),
        "all_connected": all_connected,
        "verdict": (
            f"no minimal generators in degree {d}"
            if all_connected
            else f"candidate witness: disconnected degree-{d} fiber"
        ),
        "witnesses": witnesses,
    }
