"""Matroids with exact rank oracles over a fixed ordered ground set.

A Matroid wraps one of several backings:

  * LinearBacking   -- column matroid of a matrix over Q or GF(p)
  * UniformBacking  -- U_{r,n}
  * GraphicBacking  -- cycle matroid of a multigraph
  * BasesBacking    -- explicit basis list (validated against exchange)
  * DerivedBacking  -- rank function closure (generic minors / duals)

Ground elements are integers 0..n-1 in a fixed order; that order is part of
the matroid's identity (broken circuits, canonical keys, and fixed-point
flags all read it). Rank values are cached per frozenset. Every backing
also has one push/pop rank oracle, steps(), which owns its label map: a
linear echelon its columns, the rollback union-find its edges, the
explicit-basis oracle the bases that hold the prefix's independent part,
and uniform matroids and derived minors and duals rank each prefix with
their own rank function.
Matroid.incremental_rank() hands it to every walk over prefixes (bases
here, the corank-nullity counts in tutte.py, the fixed points in
localization.py); a walk's linear echelon shares column residuals across
the walk. A linear matroid is stored as its RREF: its rank, memo key,
loops, coloops and dual read the rows, and its minors are row operations
on them, so only a matrix and a dual run an elimination. A graph reads
its loops and coloops (bridges) off its edges, and its memo key is its
canonical form up to isomorphism, both from graphs.py, loaded on first use.
Matroid.basis_count() counts bases by a theorem where the backing has one.
"""
from __future__ import annotations

from math import comb, gcd

from . import linalg
from .errors import InvalidInput, TooLarge, quote
from .fields import RationalField, field_from_name

# Caps keeping exhaustive walks at desk scale.
ENUMERATION_LIMIT = 20
BASIS_VALIDATION_LIMIT = 100_000
SUBSET_SUM_LIMIT = 24
# Checked before the ground set is built: every pipeline enumerates subsets,
# bases or orderings of far fewer elements than this.
GROUND_SET_LIMIT = 10_000


def _check_ground_size(n):
    if n > GROUND_SET_LIMIT:
        raise TooLarge(f"{n} ground elements exceed the limit of {GROUND_SET_LIMIT}")


def _clear_column(col):
    """Scale a rational column to coprime integers (kills denominators).

    Column scaling by a nonzero rational does not change the column matroid,
    so ranks can be computed fraction-free afterwards.
    """
    dens = [c.denominator for c in col]
    lcm = 1
    for d in dens:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(c * lcm) for c in col]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _store_column(field, col):
    """A column of field scalars in the integer column convention."""
    if isinstance(field, RationalField):
        return _clear_column(col)
    return tuple(int(x) % field.p for x in col)


def _echelon(field, columns):
    """The push/pop rank oracle of integer-convention columns over `field`."""
    if isinstance(field, RationalField):
        return linalg.IntEchelon(columns)
    return linalg.ModEchelon(field.p, columns)


def _rref(field, vectors):
    """The RREF of integer-convention `vectors` over `field`, as (pivot,
    row) pairs sorted by pivot: the vectors pushed into an echelon, and its
    rows pushed into a fresh one in descending pivot order, which clears
    each at the larger pivots."""
    ech = _echelon(field, dict(enumerate(vectors)))
    for i in ech.columns:
        ech.push(i)
    back = _echelon(field, dict(ech.rows))
    for j in sorted(back.columns, reverse=True):
        back.push(j)
    return sorted(back.rows)


class LinearBacking:
    """A linear matroid stored as its RREF: (pivot, row) pairs over the
    positions of its elements, each row zero before its pivot and at the
    other pivots, in its field's echelon convention. Walks and rank calls
    push `columns` ({label: tuple of ints}, denominator-cleared over Q,
    residues over GF(p)): a matrix's own, and for minors and duals the
    columns of the rows, derived at first use."""

    kind = "linear"
    key_prefix = b"mw3:l:"

    def __init__(self, field, elements, rows, columns=None):
        self.field = field
        self.elements = tuple(elements)
        self.rows = rows
        self._columns = columns

    @property
    def columns(self):
        if self._columns is None:
            self._columns = {e: tuple(row[f] for _, row in self.rows) for f, e in enumerate(self.elements)}
        return self._columns

    def rank(self, subset):
        return sum(map(_echelon(self.field, self.columns).push, subset))

    def steps(self):
        return _echelon(self.field, self.columns)

    def minor(self, contracted, kept):
        """Native minor by row operations on the RREF, one element at a
        time, whose column is then dropped. Contracting an element that
        rows meet pivots the row with the largest such pivot onto it,
        clears it from the other rows and drops that row; the others keep
        their pivots, as no row with a larger pivot meets the element.
        Deleting a pivot moves the pivot to the next nonzero entry of its
        row and clears that column from the others, or drops the row when
        there is none (a coloop). Deletion-contraction branches on the last
        element of a core, never a pivot."""
        ops = _echelon(self.field, {})
        contracted, kept = set(contracted), set(kept)
        elements, rows = list(self.elements), dict(self.rows)
        for e in self.elements:
            if e in kept:
                continue
            f = elements.index(e)
            if e in contracted:
                meet = sorted(j for j, row in rows.items() if row[f])
                if meet:
                    top = ops._scaled(rows.pop(meet.pop()), f)
                    for j in meet:
                        rows[j] = ops._eliminate(rows[j], f, top)
            elif f in rows:
                row = rows.pop(f)
                row = row[:f] + [0] + row[f + 1:]
                g = next((g for g, x in enumerate(row) if x), None)
                if g is not None:
                    top = ops._scaled(row, g)
                    for j, other in list(rows.items()):
                        if other[g]:
                            rows[j] = ops._eliminate(other, g, top)
                    rows[g] = top
            del elements[f]
            rows = {j - (j > f): row[:f] + row[f + 1:] for j, row in rows.items()}
        return LinearBacking(self.field, elements, sorted(rows.items()))

    def loops(self, elements):
        """The zero columns of the RREF."""
        return frozenset(e for f, e in enumerate(elements) if not any(row[f] for _, row in self.rows))

    def coloops(self, elements):
        """The pivots whose row is zero at every non-pivot column: no
        fundamental circuit of the lexicographically first basis meets
        them."""
        pivots = {j for j, _ in self.rows}
        free = [f for f in range(len(elements)) if f not in pivots]
        return frozenset(elements[j] for j, row in self.rows if not any(row[f] for f in free))

    def memo_payload(self, elements):
        """(elements, (field name, RREF rows in their normal form under row
        and column scaling)): matrices that differ by row operations and
        column scaling get one key."""
        rows = _scaling_normal_form(self.field, self.rows)
        return (elements, (self.field.name, tuple(tuple(map(str, row)) for row in rows)))

    def dual(self, elements):
        """Column matroid of the null space, read off the RREF rows R: one
        vector per free position f, 1 at f and -R[j][f] at each pivot j
        (the null space with pivot column j scaled by R[j][j], which keeps
        the matroid), put in RREF by one elimination."""
        n, rows = len(elements), dict(self.rows)
        free = [f for f in range(n) if f not in rows]
        kernel = [[-rows[j][f] if j in rows else int(j == f) for j in range(n)] for f in free]
        return LinearBacking(self.field, elements, _rref(self.field, kernel))

    def basis_count(self, elements):
        return None  # no closed form; enumerate


def _scaling_normal_form(field, rows):
    """The normal form of RREF rows, given as (pivot, row) pairs, under row
    and column scaling (Brylawski-Lucas 1976; Oxley, Matroid Theory,
    section 6.4), as lists of field elements.

    Divide each row by its pivot entry. Then scaling row i by a_i and each
    non-pivot column f by b_f, with pivot column i rescaled by 1/a_i so that
    its pivot stays 1, keeps an RREF of the same matroid and multiplies
    entry (i, f) by a_i b_f. Take the bipartite graph of rows against
    non-pivot columns, with an edge at each nonzero entry, and walk it
    breadth-first from the least position of each component (a row sits at
    its pivot), neighbours in increasing position. The scalars are chosen so
    that every tree edge reads 1 (a row's scalar below includes the division
    by its pivot entry). Each component keeps one free scalar, and it
    changes no entry, so every RREF in the scaling class gives the same
    rows."""
    mul, inv = field.mul, field.inv
    by_pivot = dict(rows)
    n = len(rows[0][1]) if rows else 0
    scale = {}  # position -> a_i / pivot entry at row i's pivot, b_f at a non-pivot column f
    for start in range(n):
        if start in scale:
            continue
        row = by_pivot.get(start)
        scale[start] = field.one if row is None else inv(field.of(row[start]))
        queue = [start]
        for node in queue:
            s = scale[node]
            row = by_pivot.get(node)
            # a row meets the non-pivot columns where it is nonzero (its
            # only nonzero pivot entry is its own, already scaled)
            edges = enumerate(row) if row is not None else ((j, r[node]) for j, r in rows)
            for other, x in edges:
                if x and other not in scale:
                    scale[other] = inv(mul(s, x))
                    queue.append(other)
    return [
        [field.one if f == j else x if not x or f in by_pivot else mul(mul(scale[j], x), scale[f])
         for f, x in enumerate(row)]
        for j, row in rows
    ]


class _PrefixSteps:
    """Push/pop rank oracle that ranks each pushed prefix, as a frozenset,
    with a rank function."""

    def __init__(self, rank_fn):
        self._rank = rank_fn
        self._stack = [(frozenset(), 0)]

    def push(self, e):
        prefix, rk = self._stack[-1]
        prefix = prefix | {e}
        rank = self._rank(prefix)
        self._stack.append((prefix, rank))
        return rank > rk

    def pop(self):
        self._stack.pop()


class UniformBacking:
    kind = "uniform"
    key_prefix = b"mw2:u:"

    def __init__(self, r):
        self.r = r

    def rank(self, subset):
        return min(len(subset), self.r)

    def steps(self):
        return _PrefixSteps(self.rank)

    def minor(self, contracted, kept):
        return UniformBacking(self.r - min(len(contracted), self.r))

    def memo_payload(self, elements):
        """(elements, rank)."""
        return (elements, self.r)

    def dual(self, elements):
        return UniformBacking(len(elements) - self.r)

    def basis_count(self, elements):
        return comb(len(elements), self.r)


class GraphicBacking:
    kind = "graphic"
    key_prefix = b"mw3:g:"

    def __init__(self, edges):
        # edges: {label: (u, v)}; vertices may be any hashables.
        self.edges = edges

    def rank(self, subset):
        return sum(map(self.steps().push, subset))

    def steps(self):
        return linalg.RollbackUnionFind(self.edges)

    def minor(self, contracted, kept):
        edges = {e: self.edges[e] for e in (*contracted, *kept)}
        # Contract edges one at a time: merge endpoints into one vertex.
        for e in contracted:
            u, v = edges.pop(e)
            edges = {k: (u if a == v else a, u if b == v else b) for k, (a, b) in edges.items()}
        return GraphicBacking({e: edges[e] for e in kept})

    def memo_payload(self, elements):
        """The canonical edge list of the multigraph (graphs.py), with no
        element labels: isomorphic graphs get one key."""
        from .graphs import canonical_edges

        return canonical_edges(self.edges[e] for e in elements)

    def loops(self, elements):
        """The self-loops."""
        return frozenset(e for e in elements if self.edges[e][0] == self.edges[e][1])

    def coloops(self, elements):
        """The bridges."""
        from .graphs import bridges

        return frozenset(bridges((e, self.edges[e]) for e in elements))

    def dual(self, elements):
        return None  # not graphic in general; use the generic rank formula

    def basis_count(self, elements):
        """Kirchhoff's matrix-tree theorem: a basis is a spanning tree of
        every component, and a component has as many spanning trees as the
        determinant of its Laplacian with one vertex's row and column
        removed. Parallel edges add up in the Laplacian; self-loops lie in
        no tree and are left out."""
        uf = linalg.RollbackUnionFind(self.edges)
        degree, weight = {}, {}
        for e in elements:
            u, v = self.edges[e]
            if u != v:
                uf.push(e)
                for a, b in ((u, v), (v, u)):
                    degree[a] = degree.get(a, 0) + 1
                    weight[a, b] = weight.get((a, b), 0) + 1
        components = {}
        for x in degree:
            components.setdefault(uf.find(x), []).append(x)
        count = 1
        for _, *rest in components.values():
            count *= linalg.int_determinant(
                [[degree[a] if a == b else -weight.get((a, b), 0) for b in rest] for a in rest]
            )
        return count


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


class BasesBacking:
    kind = "bases"

    def __init__(self, bases):
        self.bases = bases  # list of frozensets, all the same size

    def rank(self, subset):
        return max(len(subset & b) for b in self.bases)

    def steps(self):
        return _BasesSteps(self.bases)

    def minor(self, contracted, kept):
        return None

    def memo_payload(self, elements):
        return None

    def dual(self, elements):
        full = frozenset(elements)
        return BasesBacking(sorted({full - b for b in self.bases}, key=sorted))

    def basis_count(self, elements):
        return len(self.bases)


class DerivedBacking:
    kind = "derived"

    def __init__(self, rank_fn):
        self._rank_fn = rank_fn

    def rank(self, subset):
        return self._rank_fn(subset)

    def steps(self):
        return _PrefixSteps(self._rank_fn)

    def minor(self, contracted, kept):
        return None

    def memo_payload(self, elements):
        return None

    def dual(self, elements):
        return None

    def basis_count(self, elements):
        return None


class Matroid:
    """Immutable matroid facade with a cached exact rank oracle."""

    def __init__(self, backing, elements):
        """`elements` is a sized sequence; its length is checked against
        GROUND_SET_LIMIT before it is copied."""
        _check_ground_size(len(elements))
        self._backing = backing
        self.elements = tuple(elements)
        self._eset = frozenset(self.elements)
        self._rank_cache = {}
        self._bases = None
        self._circuits = None
        self._key = None
        if backing.kind == "linear":  # the row count of its RREF
            self._rank_cache[self._eset] = len(backing.rows)
        self.r = self.rank(self._eset)

    # -- rank oracle ----------------------------------------------------

    def rank(self, subset):
        s = frozenset(subset)
        if not s <= self._eset:
            raise InvalidInput(f"subset {sorted(s - self._eset)} outside ground set")
        got = self._rank_cache.get(s)
        if got is None:
            got = self._backing.rank(s)
            self._rank_cache[s] = got
        return got

    def incremental_rank(self):
        """A fresh push/pop rank oracle: push(e) says whether e raises the
        rank of the pushed prefix, and pop() undoes the last push."""
        return self._backing.steps()

    @property
    def size(self):
        return len(self.elements)

    @property
    def corank(self):
        return self.size - self.r

    def loops(self):
        if self._backing.kind in ("linear", "graphic"):
            return self._backing.loops(self.elements)
        return frozenset(e for e in self.elements if self.rank({e}) == 0)

    def coloops(self):
        """A linear matroid reads its coloops off its RREF, and a graph
        finds its bridges. Otherwise only the elements of the greedy basis
        are tested, since a coloop lies in every basis: r rank calls
        instead of #E."""
        if self._backing.kind in ("linear", "graphic"):
            return self._backing.coloops(self.elements)
        steps = self.incremental_rank()
        basis = [e for e in self.elements if steps.push(e)]
        return frozenset(e for e in basis if self.rank(self._eset - {e}) == self.r - 1)

    def parallel_classes(self):
        """The parallel classes of the non-loop elements, each a list in
        element order, ordered by their least elements, from the rank
        oracle with nothing pushed (linalg.parallel_classes): a linear
        matroid groups its columns by direction, a graph its edges by their
        ends, and any other backing pushes pairs."""
        return linalg.parallel_classes(self.incremental_rank(), self.elements)

    def is_loopless(self):
        return not self.loops()

    def graph_edges(self):
        """The (u, v) ends of each element in order for a graph, else None."""
        if self._backing.kind != "graphic":
            return None
        return [self._backing.edges[e] for e in self.elements]

    # -- minors and duals -------------------------------------------------

    def minor(self, deleted=(), contracted=()):
        dset, cset = frozenset(deleted), frozenset(contracted)
        if not dset <= self._eset or not cset <= self._eset:
            raise InvalidInput("minor sets must lie in the ground set")
        if dset & cset:
            raise InvalidInput("delete and contract sets overlap")
        kept = [e for e in self.elements if e not in dset and e not in cset]
        backing = self._backing.minor(sorted(cset), kept)
        if backing is None:
            parent, base = self, self.rank(cset)
            backing = DerivedBacking(lambda a, _p=parent, _c=cset, _b=base: _p.rank(a | _c) - _b)
        return Matroid(backing, kept)

    def delete(self, deleted):
        return self.minor(deleted=deleted)

    def contract(self, contracted):
        return self.minor(contracted=contracted)

    def dual(self):
        native = self._backing.dual(self.elements)
        if native is not None:
            return Matroid(native, self.elements)
        parent, full, r = self, self._eset, self.r

        def corank_fn(a):
            return len(a) + parent.rank(full - a) - r

        return Matroid(DerivedBacking(corank_fn), self.elements)

    # -- enumeration ------------------------------------------------------

    def bases(self, limit=ENUMERATION_LIMIT):
        """All bases as sorted tuples, lexicographic. Guarded by `limit`
        on the ground set size (pass limit=0 to lift the cap).

        A depth-first walk over independent prefixes: it descends only when
        a push raises the rank, and only while enough elements are left to
        reach rank r, so dependent sets are never extended."""
        if limit and self.size > limit:
            raise TooLarge(f"basis enumeration over {self.size} > {limit} elements")
        if self._bases is None:
            elems, n, r = self.elements, self.size, self.r
            steps = self.incremental_rank()
            prefix, found = [], []

            def walk(start):
                if len(prefix) == r:
                    found.append(tuple(prefix))
                    return
                for i in range(start, n - (r - len(prefix)) + 1):
                    if steps.push(elems[i]):
                        prefix.append(elems[i])
                        walk(i + 1)
                        prefix.pop()
                    steps.pop()

            walk(0)
            self._bases = found
        return self._bases

    def basis_count(self):
        """The number of bases, from a theorem where the backing has one
        (the matrix-tree theorem for a graph, C(n, r) for U(r, n), the
        length of an explicit list) and by enumeration otherwise."""
        count = self._backing.basis_count(self.elements)
        return len(self.bases(limit=0)) if count is None else count

    def circuits(self, limit=ENUMERATION_LIMIT):
        """All circuits (minimal dependent sets) as sorted tuples.

        Every circuit C is the fundamental circuit of e in C over a basis B
        that extends C - e: e together with the f in B for which B - f + e
        is again a basis."""
        if limit and self.size > limit:
            raise TooLarge(f"circuit enumeration over {self.size} > {limit} elements")
        if self._circuits is None:
            bases = self.bases(limit=0)
            bset = set(map(frozenset, bases))
            found = set()
            for b in bases:
                base = frozenset(b)
                for e in self.elements:
                    if e not in base:
                        circuit = [f for f in b if base - {f} | {e} in bset]
                        found.add(tuple(sorted(circuit + [e])))
            self._circuits = sorted(found)
        return self._circuits

    def canonical_key(self):
        """Bytes key determined by (ground order, basis list).

        Two matroids get equal keys iff they have the same labeled bases, so
        the key is safe for memoizing label-sensitive invariants.
        """
        if self._key is None:
            payload = (self.elements, tuple(self.bases(limit=0)))
            self._key = b"mw1:" + repr(payload).encode()
        return self._key

    def memo_key(self):
        """Bytes key for the deletion-contraction memo, built from the
        backing's own data without enumerating bases: the prefix and the
        repr of the backing's memo payload.

        Equal keys imply equal labeled matroids, and for graphs isomorphic
        ones; the converse need not hold (a matrix and a graph with the
        same bases get different keys). A linear key is invariant under row
        operations and column scaling, and a graphic key is the canonical
        form of the multigraph, blind to element labels and vertex names,
        so one minor reached along several deletion-contraction paths, or
        for graphs any isomorphic minor, is expanded once. The prefix names
        the version and the backing kind, so keys of different kinds never
        collide: "mw3:l:" for Q and GF(p) and "mw3:g:" for graphs, which
        leave the caches that earlier versions wrote for them cold, and
        "mw2:u:" for uniform keys. Explicit-basis and derived backings fall
        back to canonical_key(), whose "mw1:" prefix is disjoint from all.
        """
        payload = self._backing.memo_payload(self.elements)
        if payload is None:
            return self.canonical_key()
        return self._backing.key_prefix + repr(payload).encode()

    def __repr__(self):
        return f"Matroid({self._backing.kind}, n={self.size}, r={self.r})"


# -- constructors ---------------------------------------------------------


def from_matrix(field, matrix):
    """Column matroid of `matrix` over `field` (a fields.py object or name).

    Elements are column indices 0..n-1.
    """
    if isinstance(field, str):
        field = field_from_name(field)
    if not matrix or not matrix[0]:
        raise InvalidInput("matrix must have at least one row and one column")
    width = len(matrix[0])
    _check_ground_size(width)
    if any(len(row) != width for row in matrix):
        raise InvalidInput("matrix rows must all have the same length")
    columns = {j: _store_column(field, [field.of(row[j]) for row in matrix]) for j in range(width)}
    rows = _rref(field, zip(*columns.values()))
    return Matroid(LinearBacking(field, range(width), rows, columns), range(width))


def uniform(r, n):
    if not (0 <= r <= n) or n < 1:
        raise InvalidInput(f"uniform matroid needs 0 <= r <= n, n >= 1; got r={r} n={n}")
    return Matroid(UniformBacking(r), range(n))


def from_graph(edges):
    """Cycle matroid; `edges` is a sequence of (u, v) pairs, elements are
    edge indices in the given order. Loops and parallel edges allowed."""
    edges = list(edges)
    if not edges:
        raise InvalidInput("graph needs at least one edge")
    _check_ground_size(len(edges))
    emap = {}
    for i, uv in enumerate(edges):
        if len(tuple(uv)) != 2:
            raise InvalidInput(f"edge {i} is not a pair")
        u, v = uv
        emap[i] = (u, v)
    return Matroid(GraphicBacking(emap), range(len(edges)))


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


# -- JSON descriptors ------------------------------------------------------


def _parse_matrix_entry(x):
    if isinstance(x, bool):
        raise InvalidInput("matrix entries must be numbers or 'a/b' strings")
    if isinstance(x, (int, str)):
        return x
    raise InvalidInput(f"bad matrix entry {quote(x)}")


def from_descriptor(obj):
    """Build a matroid from a JSON-style descriptor dict, type-checking
    every field so that malformed input raises InvalidInput."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidInput("descriptor must be an object with a 'type' field")
    kind = obj["type"]
    if kind == "linear":
        if "field" not in obj or "matrix" not in obj:
            raise InvalidInput("linear descriptor needs 'field' and 'matrix'")
        matrix = obj["matrix"]
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise InvalidInput("'matrix' must be a list of rows")
        if matrix:
            _check_ground_size(len(matrix[0]))
        matrix = [[_parse_matrix_entry(x) for x in row] for row in matrix]
        return from_matrix(field_from_name(obj["field"]), matrix)
    if kind == "uniform":
        if type(obj.get("r")) is not int or type(obj.get("n")) is not int:
            raise InvalidInput("uniform descriptor needs integer 'r' and 'n'")
        return uniform(obj["r"], obj["n"])
    if kind == "graphic":
        edges = obj.get("edges")
        if isinstance(edges, list):
            _check_ground_size(len(edges))
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(v) in (int, str) for v in e)
            for e in edges
        ):
            raise InvalidInput(
                "graphic descriptor needs an 'edges' list of [u, v] pairs "
                "with integer or string vertices"
            )
        return from_graph([tuple(e) for e in edges])
    if kind == "bases":
        bases = obj.get("bases")
        if type(obj.get("n")) is not int or not isinstance(bases, list) or not all(
            isinstance(b, list) and all(type(e) is int for e in b) for b in bases
        ):
            raise InvalidInput("bases descriptor needs integer 'n' and integer-list 'bases'")
        return from_bases(obj["n"], [tuple(b) for b in bases])
    raise InvalidInput(f"unknown descriptor type {quote(kind)}")
