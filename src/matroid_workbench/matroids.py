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
localization.py). Linear minors, memo keys and duals use the same echelon.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg
from .errors import InvalidInput, TooLarge, quote
from .fields import QQ, PrimeField, RationalField, field_from_name

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


class LinearBacking:
    kind = "linear"

    def __init__(self, field, columns):
        # columns: {label: tuple of ints}; over Q the ints are denominator-
        # cleared exact coordinates, over GF(p) they are reduced residues.
        self.field = field
        self.columns = columns

    def rank(self, subset):
        return sum(map(self.steps().push, subset))

    def steps(self):
        return _echelon(self.field, self.columns)

    def minor(self, contracted, kept):
        """Native minor: push the contracted columns into one echelon and
        keep the residual of every kept column. The residuals span the
        quotient by the contracted columns, so a set A of them has rank
        r(A + C) - r(C); the coordinates at the echelon's pivots are zero
        in every residual and are dropped."""
        ech = self.steps()
        for e in contracted:
            ech.push(e)
        pivots = {j for j, _ in ech.rows}
        columns = {}
        for e in kept:
            v = ech.reduce(self.columns[e])
            columns[e] = tuple(x for i, x in enumerate(v) if i not in pivots)
        return LinearBacking(self.field, columns)

    def _reduced_rows(self, elements):
        """The RREF of the submatrix on `elements` as (pivot, row) pairs:
        its rows pushed into an echelon and read out."""
        ech = _echelon(self.field, dict(enumerate(zip(*(self.columns[e] for e in elements)))))
        for i in ech.columns:
            ech.push(i)
        return ech.reduced_rows()

    def memo_payload(self, elements):
        """(field name, RREF rows): the row space fixes the column matroid.
        Q rows are divided by their pivot entry and written as fractions."""
        rows = self._reduced_rows(elements)
        if isinstance(self.field, RationalField):
            rows = [(j, [Fraction(x, row[j]) for x in row]) for j, row in rows]
        return (self.field.name, tuple(tuple(map(str, row)) for _, row in rows))

    def dual(self, elements):
        """Column matroid of the null space of the submatrix on `elements`,
        read off its RREF rows R: a free position's column is its unit
        vector, and pivot j's column is (-R[j][f] for free f), scaled by the
        pivot entry R[j][j] (scaling a column keeps the matroid)."""
        rows = dict(self._reduced_rows(elements))
        free = [f for f in range(len(elements)) if f not in rows]
        columns = [[int(f == g) for g in free] for f in range(len(elements))]
        for j, row in rows.items():
            columns[j] = [-row[f] * row[j] for f in free]
        return LinearBacking(
            self.field, {e: _store_column(self.field, col) for e, col in zip(elements, columns)}
        )


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

    def __init__(self, r):
        self.r = r

    def rank(self, subset):
        return min(len(subset), self.r)

    def steps(self):
        return _PrefixSteps(self.rank)

    def minor(self, contracted, kept):
        return UniformBacking(self.r - min(len(contracted), self.r))

    def memo_payload(self, elements):
        return self.r

    def dual(self, elements):
        return UniformBacking(len(elements) - self.r)


class GraphicBacking:
    kind = "graphic"

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
        """Edge list with the vertices renamed 0, 1, ... by first appearance."""
        names = {}
        return tuple(
            tuple(names.setdefault(v, len(names)) for v in self.edges[e]) for e in elements
        )

    def dual(self, elements):
        return None  # not graphic in general; use the generic rank formula


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
        return frozenset(e for e in self.elements if self.rank({e}) == 0)

    def coloops(self):
        return frozenset(
            e for e in self.elements if self.rank(self._eset - {e}) == self.r - 1
        )

    def is_loopless(self):
        return not self.loops()

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
        backing's own data without enumerating bases.

        Equal keys imply equal labeled matroids; the converse need not hold
        (a matrix and a graph with the same bases get different keys). The
        prefix names the version and the backing kind, so keys of different
        kinds never collide; explicit-basis and derived backings fall back to
        canonical_key(), whose "mw1:" prefix is disjoint from "mw2:".
        """
        payload = self._backing.memo_payload(self.elements)
        if payload is None:
            return self.canonical_key()
        tag = self._backing.kind[0]  # u, g or l
        return f"mw2:{tag}:".encode() + repr((self.elements, payload)).encode()

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
    if any(len(row) != width for row in matrix):
        raise InvalidInput("matrix rows must all have the same length")
    columns = {j: _store_column(field, [field.of(row[j]) for row in matrix]) for j in range(width)}
    return Matroid(LinearBacking(field, columns), range(width))


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
    emap = {}
    for i, uv in enumerate(edges):
        if len(tuple(uv)) != 2:
            raise InvalidInput(f"edge {i} is not a pair")
        u, v = uv
        emap[i] = (u, v)
    return Matroid(GraphicBacking(emap), range(len(edges)))


def from_bases(n, bases):
    """Matroid on 0..n-1 from an explicit basis list.

    Validates the exchange axiom pairwise; lists whose pairs exceed
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
    bset = set(blist)
    for b1 in blist:
        for b2 in blist:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in bset for y in b2 - b1):
                    raise InvalidInput(
                        f"exchange axiom fails for bases {quote(sorted(b1))}, "
                        f"{quote(sorted(b2))} at element {x}"
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
        matrix = [[_parse_matrix_entry(x) for x in row] for row in matrix]
        return from_matrix(field_from_name(obj["field"]), matrix)
    if kind == "uniform":
        if type(obj.get("r")) is not int or type(obj.get("n")) is not int:
            raise InvalidInput("uniform descriptor needs integer 'r' and 'n'")
        return uniform(obj["r"], obj["n"])
    if kind == "graphic":
        edges = obj.get("edges")
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
