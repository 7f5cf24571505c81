"""Exact push/pop rank oracles: echelon forms and a rollback union-find.

Fraction-free integer echelon forms (rational matrices are stored with
denominator-cleared integer columns, so all rank arithmetic stays in Z) and
GF(p) echelon forms rank labeled columns; their `reduce` also gives the
residual columns of a contraction, and `reduced_rows` the reduced row
echelon form that keys and dualizes a linear matroid. A rollback
union-find ranks the edges of a multigraph. `rref`, over a field object,
is the dense reference the tests hold the echelon forms to.

The oracles support push/pop in LIFO order only; that is what depth-first
subset enumeration and flag walks need, and it keeps rollback trivial (a
push appends at most one row or one union).
"""
from __future__ import annotations

import copy
from math import gcd


def _reduce_int_row(row):
    """Divide by the gcd and make the first nonzero entry positive; a zero
    row comes back as it is."""
    g = 0
    lead = 0
    for x in row:
        g = gcd(g, x)
        if lead == 0 and x != 0:
            lead = x
    if g == 0:
        return row
    if lead < 0:
        g = -g
    return [x // g for x in row]


class _Echelon:
    """Append-only echelon form over labeled columns, the push/pop rank
    oracle of a matrix. Stored rows have pairwise distinct pivot positions,
    and each row was reduced against all rows stored before it, so
    eliminating an incoming vector in insertion order never reintroduces a
    cleared pivot."""

    def __init__(self, columns):
        self.columns = columns
        self.rows = []  # (pivot index, row)
        self._added = []

    @property
    def rank(self):
        return len(self.rows)

    def pop(self):
        if self._added.pop():
            self.rows.pop()

    def reduced_rows(self):
        """The reduced row echelon form of the pushed span, up to the class's
        row scaling: (pivot, row) pairs sorted by pivot, each row zero at
        the other pivots. Pushing the stored rows into a fresh echelon in
        descending pivot order clears each at the larger pivots."""
        fresh = copy.copy(self)
        fresh.columns, fresh.rows, fresh._added = dict(self.rows), [], []
        for j in sorted(fresh.columns, reverse=True):
            fresh.push(j)
        return sorted(fresh.rows)


class IntEchelon(_Echelon):
    """Echelon form over Q on denominator-cleared integer columns."""

    def reduce(self, vec):
        """The residual of `vec` modulo the span of the stored rows: zero at
        every stored pivot, primitive with a positive leading entry once an
        elimination has run, and all zero when vec lies in the span."""
        v = list(vec)
        for j, row in self.rows:
            b = v[j]
            if b:
                a = row[j]
                v = _reduce_int_row([a * x - b * y for x, y in zip(v, row)])
        return v

    def push(self, e):
        """Push column `e`; True when it raises the rank."""
        v = self.reduce(self.columns[e])
        pivot = next((i for i, x in enumerate(v) if x), None)
        self._added.append(pivot is not None)
        if pivot is None:
            return False
        self.rows.append((pivot, v))
        return True


class ModEchelon(_Echelon):
    """Echelon form over GF(p) on columns of residues; stored rows are monic
    at their pivot."""

    def __init__(self, p, columns):
        super().__init__(columns)
        self.p = p

    def reduce(self, vec):
        """The residual of `vec` modulo the span of the stored rows: zero at
        every stored pivot, and vec minus a combination of the pushed
        columns (rows are subtracted from vec, never scaled into it)."""
        p = self.p
        v = [x % p for x in vec]
        for j, row in self.rows:
            c = v[j]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return v

    def push(self, e):
        """Push column `e`; True when it raises the rank."""
        p = self.p
        v = self.reduce(self.columns[e])
        pivot = next((i for i, x in enumerate(v) if x), None)
        self._added.append(pivot is not None)
        if pivot is None:
            return False
        inv = pow(v[pivot], p - 2, p)
        self.rows.append((pivot, [(x * inv) % p for x in v]))
        return True


def rref(rows, field):
    """Reduced row echelon form over a field object (the dense reference).

    Returns (reduced nonzero rows, pivot column indices). Input rows are not
    mutated. Deterministic: first row with a nonzero entry wins each pivot.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    top = 0
    for col in range(ncols):
        src = next((i for i in range(top, len(work)) if not field.is_zero(work[i][col])), None)
        if src is None:
            continue
        work[top], work[src] = work[src], work[top]
        inv = field.inv(work[top][col])
        work[top] = [field.mul(inv, x) for x in work[top]]
        for i in range(len(work)):
            if i != top and not field.is_zero(work[i][col]):
                c = work[i][col]
                work[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(work[i], work[top])]
        pivots.append(col)
        top += 1
    return work[:top], pivots


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

    def pop(self):
        h = self._hist.pop()
        if h:
            rb, ra, sa = h
            del self.parent[rb]
            self.size[ra] = sa
