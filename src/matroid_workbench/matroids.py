"""Matroids with exact rank oracles over a fixed ordered ground set.

A Matroid wraps one of several backings:

  * LinearBacking   -- column matroid of a matrix over Q or GF(p)
                       (in linalg.py)
  * UniformBacking  -- U_{r,n}
  * GraphicBacking  -- cycle matroid of a multigraph
  * BasesBacking    -- explicit basis list (validated against exchange)
                       (in basis_list.py)
  * DerivedBacking  -- rank function closure (generic minors / duals)

The linear backing, with the echelon forms and fields.py, loads with the
first matrix (from_matrix), and the basis-list backing with its exchange
check with the first basis list (from_bases), so no other input compiles
them; matroids.LinearBacking, matroids.BasesBacking and
matroids.from_bases still name them (PEP 562).

Ground elements are integers 0..n-1 in a fixed order; that order is part of
the matroid's identity (broken circuits, canonical keys, and fixed-point
flags all read it). Rank values are cached per frozenset. Every backing
also has one push/pop rank oracle, steps(), which owns its label map: a
linear echelon its columns, the rollback union-find its edges, the
explicit-basis oracle the bases that hold the prefix's independent part,
a uniform matroid its rank, and derived minors and duals rank each prefix
with their own rank function.
Matroid.incremental_rank() hands it to every walk over prefixes (bases
here, the corank-nullity counts in tutte.py, the fixed points in
localization.py); a walk's linear echelon shares column residuals across
the walk. An echelon, the union-find and the uniform oracle name the
parallel classes of the contraction by a pushed prefix with no push
(parallel_classes); any other oracle pushes pairs.

Every backing subclasses _Backing, which works out each answer from the
Matroid's rank function: loops by rank({e}), coloops among one greedy
basis, minors and duals as DerivedBacking rank functions, the basis count
by enumeration and the memo key from canonical_key(); a backing overrides
what it answers natively. A linear matroid, stored as its RREF, reads its
ground-set rank, loops, coloops, dual and memo key off the rows and makes
its minors by row operations on them, so only a matrix and a dual run an
elimination. A graph gives its self-loops, contraction, and its bridges,
canonical key and Kirchhoff basis count (graphs.py, loaded on first use).
A uniform matroid answers in closed form, a basis list gives its dual and
basis count, and a derived rank function answers nothing natively.
"""
from __future__ import annotations

from math import comb

from .errors import InvalidInput, TooLarge, quote, require_int

# Caps keeping exhaustive walks at desk scale.
ENUMERATION_LIMIT = 20
# Checked before the ground set is built: every pipeline enumerates subsets,
# bases or orderings of far fewer elements than this.
GROUND_SET_LIMIT = 10_000


def _check_ground_size(n):
    if n > GROUND_SET_LIMIT:
        raise TooLarge(f"{n} ground elements exceed the limit of {GROUND_SET_LIMIT}")


def __getattr__(name):
    # defined where their inputs are read, loaded on first use (PEP 562)
    if name == "LinearBacking":
        from .linalg import LinearBacking

        return LinearBacking
    if name in ("BasesBacking", "from_bases"):
        from . import basis_list

        return getattr(basis_list, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


class _UniformSteps:
    """Push/pop rank oracle of U_{r,n}: a push raises the rank while it is
    below r. It names the parallel classes of elements outside the prefix
    with no push: none at rank r, one class at rank r - 1, singletons below."""

    def __init__(self, r):
        self._r = r
        self._ranks = [0]

    def push(self, e):
        rk = self._ranks[-1]
        self._ranks.append(min(rk + 1, self._r))
        return rk < self._r

    def pop(self):
        self._ranks.pop()

    def classes(self, elements):
        slack = self._r - self._ranks[-1]
        if slack > 1:
            return [[e] for e in elements]
        return [list(elements)] if slack and elements else []


class _Backing:
    """The protocol of a backing, with every answer worked out from the
    Matroid's rank function. A backing supplies `kind`, rank(subset) and
    steps() (its push/pop rank oracle), and overrides the methods below
    that it answers natively; each takes the Matroid M it backs."""

    def loops(self, M):
        return frozenset(e for e in M.elements if M.rank({e}) == 0)

    def coloops(self, M):
        """Only the elements of the greedy basis are tested, since a coloop
        lies in every basis: r rank calls instead of #E."""
        steps = M.incremental_rank()
        basis = [e for e in M.elements if steps.push(e)]
        return frozenset(e for e in basis if M.rank(M._eset - {e}) == M.r - 1)

    def minor(self, M, contracted, kept):
        """The rank function r(A + C) - r(C) of M / C restricted to kept."""
        cset = frozenset(contracted)
        base = M.rank(cset)
        return DerivedBacking(lambda a: M.rank(a | cset) - base)

    def dual(self, M):
        """The rank function #A + r(E - A) - r."""
        full, r = M._eset, M.r
        return DerivedBacking(lambda a: len(a) + M.rank(full - a) - r)

    def basis_count(self, M):
        return len(M.bases(limit=0))

    def memo_key(self, M):
        return M.canonical_key()


class UniformBacking(_Backing):
    kind = "uniform"

    def __init__(self, r):
        self.r = r

    def rank(self, subset):
        return min(len(subset), self.r)

    def steps(self):
        return _UniformSteps(self.r)

    def minor(self, M, contracted, kept):
        return UniformBacking(min(self.r - min(len(contracted), self.r), len(kept)))

    def memo_key(self, M):
        """The elements and the rank."""
        return b"mw2:u:" + repr((M.elements, self.r)).encode()

    def dual(self, M):
        return UniformBacking(M.size - self.r)

    def basis_count(self, M):
        return comb(M.size, self.r)


class RollbackUnionFind:
    """Union-find with LIFO rollback (union by size, no path compression);
    the push/pop rank oracle of a multigraph.

    `edges` maps each label to its endpoints. Vertices enter on first use:
    `parent` holds only the vertices that are not roots, and `size` the
    roots that have absorbed another vertex.
    """

    def __init__(self, edges):
        self.edges = edges
        self.parent = {}
        self.size = {}
        self._hist = []

    def find(self, x):
        parent = self.parent
        while x in parent:
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self._hist.append(None)
            return False
        size = self.size
        sa, sb = size.get(ra, 1), size.get(rb, 1)
        if sa < sb:
            ra, rb, sa, sb = rb, ra, sb, sa
        self.parent[rb] = ra
        size[ra] = sa + sb
        self._hist.append((rb, ra, sa))
        return True

    def push(self, e):
        """Push edge `e`; True when it joins two components (a self-loop
        never does)."""
        return self.union(*self.edges[e])

    def classes(self, elements):
        """The parallel classes of the edges `elements` that join two
        components, in the contraction by the pushed edges: edges grouped
        by the roots of their ends."""
        groups, find = {}, self.find
        for e in elements:
            a, b = map(find, self.edges[e])
            if a != b:
                groups.setdefault(frozenset((a, b)), []).append(e)
        return list(groups.values())

    def pop(self):
        h = self._hist.pop()
        if h:
            rb, ra, sa = h
            del self.parent[rb]
            self.size[ra] = sa


class GraphicBacking(_Backing):
    kind = "graphic"

    def __init__(self, edges):
        # edges: {label: (u, v)}; vertices may be any hashables.
        self.edges = edges

    def rank(self, subset):
        return sum(map(self.steps().push, subset))

    def steps(self):
        return RollbackUnionFind(self.edges)

    def minor(self, M, contracted, kept):
        edges = {e: self.edges[e] for e in (*contracted, *kept)}
        # Contract edges one at a time: merge endpoints into one vertex.
        for e in contracted:
            u, v = edges.pop(e)
            edges = {k: (u if a == v else a, u if b == v else b) for k, (a, b) in edges.items()}
        return GraphicBacking({e: edges[e] for e in kept})

    def memo_key(self, M):
        """The canonical edge list of the multigraph (graphs.py), with no
        element labels: isomorphic graphs get one key."""
        from .graphs import canonical_edges

        return b"mw3:g:" + repr(canonical_edges(self.edges[e] for e in M.elements)).encode()

    def loops(self, M):
        """The self-loops."""
        return frozenset(e for e in M.elements if self.edges[e][0] == self.edges[e][1])

    def coloops(self, M):
        """The bridges."""
        from .graphs import bridges

        return frozenset(bridges((e, self.edges[e]) for e in M.elements))

    def basis_count(self, M):
        """The spanning forests, by Kirchhoff's matrix-tree theorem
        (graphs.spanning_forest_count)."""
        from .graphs import spanning_forest_count

        return spanning_forest_count(self.edges[e] for e in M.elements)


class DerivedBacking(_Backing):
    kind = "derived"

    def __init__(self, rank_fn):
        self._rank_fn = rank_fn

    def rank(self, subset):
        return self._rank_fn(subset)

    def steps(self):
        return _PrefixSteps(self._rank_fn)


def parallel_classes(steps, elements):
    """The parallel classes, in the contraction by the prefix pushed on the
    rank oracle `steps`, of those `elements` outside its closure: lists in
    the order of `elements`, ordered by their first elements. An echelon, a
    union-find or a uniform oracle reads them off its state (`classes`); any
    other oracle pushes each element after the prefix, and then each class
    representative after it until one does not raise the rank."""
    own = getattr(steps, "classes", None)
    if own is not None:
        return own(elements)
    classes = []
    for e in elements:
        if steps.push(e):
            for cls in classes:
                parallel = not steps.push(cls[0])
                steps.pop()
                if parallel:
                    cls.append(e)
                    break
            else:
                classes.append([e])
        steps.pop()
    return classes


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
        self.r = self.rank(self._eset)

    # -- rank oracle ----------------------------------------------------

    def rank(self, subset):
        try:
            s = frozenset(subset)
        except TypeError:  # not iterable, or an element not hashable
            raise InvalidInput(f"subset must be an iterable of elements, got {quote(subset)}") from None
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
        return self._backing.loops(self)

    def coloops(self):
        return self._backing.coloops(self)

    def parallel_classes(self):
        """The parallel classes of the non-loop elements, each a list in
        element order, ordered by their least elements, from the rank
        oracle with nothing pushed (parallel_classes): a linear
        matroid groups its columns by direction, a graph its edges by their
        ends, a uniform matroid reads them off its rank, and any other
        backing pushes pairs."""
        return parallel_classes(self.incremental_rank(), self.elements)

    def is_loopless(self):
        return not self.loops()

    @property
    def kind(self):
        """The backing's kind: "linear", "uniform", "graphic", "bases" or
        "derived"."""
        return self._backing.kind

    def graph_edges(self):
        """The (u, v) ends of each element in order for a graph, else None."""
        if self.kind != "graphic":
            return None
        return [self._backing.edges[e] for e in self.elements]

    # -- minors and duals -------------------------------------------------

    def minor(self, deleted=(), contracted=()):
        try:
            dset, cset = frozenset(deleted), frozenset(contracted)
        except TypeError:  # not iterable, or an element not hashable
            raise InvalidInput(
                f"minor sets must be iterables of elements, got {quote(deleted)} and {quote(contracted)}"
            ) from None
        if not dset <= self._eset or not cset <= self._eset:
            raise InvalidInput("minor sets must lie in the ground set")
        if dset & cset:
            raise InvalidInput("delete and contract sets overlap")
        kept = [e for e in self.elements if e not in dset and e not in cset]
        return Matroid(self._backing.minor(self, sorted(cset), kept), kept)

    def delete(self, deleted):
        return self.minor(deleted=deleted)

    def contract(self, contracted):
        return self.minor(contracted=contracted)

    def dual(self):
        return Matroid(self._backing.dual(self), self.elements)

    # -- enumeration ------------------------------------------------------

    def bases(self, limit=ENUMERATION_LIMIT):
        """All bases as sorted tuples, lexicographic. Guarded by `limit`
        on the ground set size (pass limit=0 to lift the cap).

        A depth-first walk over independent prefixes: it descends only when
        a push raises the rank, and only while enough elements are left to
        reach rank r, so dependent sets are never extended."""
        require_int(limit, "limit")
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
        return self._backing.basis_count(self)

    def circuits(self, limit=ENUMERATION_LIMIT):
        """All circuits (minimal dependent sets) as sorted tuples.

        Every circuit C is the fundamental circuit of e in C over a basis B
        that extends C - e: e together with the f in B for which B - f + e
        is again a basis."""
        require_int(limit, "limit")
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
        """Bytes key for the deletion-contraction memo: a prefix that names
        the version and the backing kind, then the repr of what the backing
        reads off its own data. A linear key is the RREF in its normal form
        under row and column scaling ("mw3:l:", Q and GF(p)), a graphic key
        the canonical form of the multigraph, blind to element labels and
        vertex names ("mw3:g:"), and a uniform key the elements and the rank
        ("mw2:u:"); none enumerates bases, so one minor reached along
        several deletion-contraction paths, or for graphs any isomorphic
        minor, is expanded once. A basis list and a derived rank function
        have no data of their own to read, and _Backing keys them by
        canonical_key(), whose "mw1:" prefix is disjoint from all others.

        Equal keys imply equal labeled matroids, and for graphs isomorphic
        ones; the converse need not hold (a matrix and a graph with the
        same bases get different keys). The "mw3:" prefixes leave the caches
        that earlier versions wrote for matrices and graphs cold.
        """
        return self._backing.memo_key(self)

    def __repr__(self):
        return f"Matroid({self.kind}, n={self.size}, r={self.r})"


# -- constructors ---------------------------------------------------------


def from_matrix(field, matrix):
    """Column matroid of `matrix` over `field` (a fields.py object or name).

    Elements are column indices 0..n-1.
    """
    from .linalg import matrix_backing

    backing = matrix_backing(field, matrix)
    return Matroid(backing, backing.elements)


def uniform(r, n):
    require_int(r, "uniform rank r")
    require_int(n, "uniform size n")
    if not (0 <= r <= n) or n < 1:
        raise InvalidInput(f"uniform matroid needs 0 <= r <= n, n >= 1; got r={r} n={n}")
    return Matroid(UniformBacking(r), range(n))


def from_graph(edges):
    """Cycle matroid; `edges` is a sequence of (u, v) pairs, elements are
    edge indices in the given order. Loops and parallel edges allowed."""
    try:
        edges = list(edges)
    except TypeError:
        raise InvalidInput(f"graph edges must be an iterable of (u, v) pairs, got {quote(edges)}") from None
    if not edges:
        raise InvalidInput("graph needs at least one edge")
    _check_ground_size(len(edges))
    emap = {}
    for i, uv in enumerate(edges):
        try:
            u, v = uv
            hash((u, v))
        except (TypeError, ValueError):  # not a sequence, not of two, or a vertex not hashable
            raise InvalidInput(f"edge {i} is not a pair of hashable vertices") from None
        emap[i] = (u, v)
    return Matroid(GraphicBacking(emap), range(len(edges)))


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
        from .fields import field_from_name

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
        from .basis_list import from_bases

        return from_bases(obj["n"], [tuple(b) for b in bases])
    raise InvalidInput(f"unknown descriptor type {quote(kind)}")
