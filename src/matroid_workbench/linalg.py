"""Exact push/pop rank oracles: echelon forms and a rollback union-find.

Fraction-free integer echelon forms (rational matrices are stored with
denominator-cleared integer columns, so all rank arithmetic stays in Z) and
GF(p) echelon forms rank labeled columns; two passes give the reduced row
echelon form (RREF) that a linear matroid stores, and their elimination
steps are the row operations of its minors. A rollback union-find ranks
the edges of a multigraph. `rref`, over a field object, is the dense
reference the tests hold the echelon forms to, and `int_determinant`
(Bareiss) counts the spanning trees of a graph.

The oracles support push/pop in LIFO order only; that is what depth-first
subset enumeration and flag walks need, and it keeps rollback trivial (a
push appends at most one row or one union). Every push goes through one
memo that keeps the residual of each column pushed at every rank level, so
a push resumes where an ancestor or sibling left its column: a walk pays
one row elimination per (rank-raising node, later column) instead of up to
`rank` per pushed subset. Both kinds of oracle also give the parallel
classes of the contraction by the pushed prefix without a push
(`classes`): the echelon groups the residuals of the later columns, and
the union-find groups edges by the roots of their ends. The corank-nullity
walk, which closes every node of corank 2 by those classes, makes 4,047
pushes and 12,597 row eliminations on the 6 x 18 Vandermonde matrix over
Q (31,179 and 31,161 when it pushed to the closure at corank 1; 138,057
eliminations when every push reduced from scratch), and 3,240 pushes and
8,038 eliminations on the 6 x 17 GF(7) benchmark matrix (22,733 and
19,457). `parallel_classes` takes the push route for any other oracle.
"""
from __future__ import annotations

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
    cleared pivot.

    Every push goes through one memo, a dict per stored-row count k:
    _res[k][e] is the residual of column e modulo rows[:k]. Level 0 holds a
    column in the class's convention (_start) and is filled at its first
    push. A push resumes from the deepest level that holds its column and
    caches every level it passes, so in a walk the siblings and descendants
    of a node share the residuals of its later columns. A push that adds a
    row opens a level and its pop drops it; a dependent push leaves the
    span, and so the levels, as they are."""

    def __init__(self, columns):
        self.columns = columns
        self.rows = []  # (pivot index, row)
        self._added = []
        self._res = [{}]

    @property
    def rank(self):
        return len(self.rows)

    def _residual(self, e):
        """The residual of column `e` from the level memo: resumed at the
        deepest level that holds it, the later rows applied one at a time
        (_eliminate), and every level passed cached."""
        res, rows = self._res, self.rows
        k = len(rows)
        while e not in res[k]:
            if not k:
                res[0][e] = self._start(self.columns[e])
                break
            k -= 1
        v = res[k][e]
        for k in range(k, len(rows)):
            j, row = rows[k]
            if v[j]:
                v = self._eliminate(v, j, row)
            res[k + 1][e] = v
        return v

    def push(self, e):
        """Push column `e`; True when it raises the rank."""
        v = self._residual(e)
        for pivot, x in enumerate(v):
            if x:
                break
        else:
            self._added.append(False)
            return False
        self._added.append(True)
        self.rows.append((pivot, self._scaled(v, pivot)))
        self._res.append({})  # a new row opens a level
        return True

    def pop(self):
        if self._added.pop():
            self.rows.pop()
            self._res.pop()

    def classes(self, elements):
        """The parallel classes of `elements` outside the span, in the
        contraction by it: columns whose residuals (from the level memo,
        with no push) are nonzero multiples of one another, grouped by the
        residual scaled at its first nonzero entry."""
        groups = {}
        for e in elements:
            v = self._residual(e)
            lead = next((j for j, x in enumerate(v) if x), None)
            if lead is not None:
                groups.setdefault(tuple(self._scaled(v, lead)), []).append(e)
        return list(groups.values())


class IntEchelon(_Echelon):
    """Echelon form over Q on denominator-cleared integer columns. A
    residual is primitive with a positive leading entry, from its first
    level on, and all zero when its column lies in the span, so two
    residuals are parallel exactly when they are equal."""

    @staticmethod
    def _start(vec):
        return _reduce_int_row(list(vec))

    @staticmethod
    def _eliminate(v, j, row):
        """Clear v at j with row (nonzero at j): row[j] v - v[j] row, made
        primitive."""
        a, b = row[j], v[j]
        return _reduce_int_row([a * x - b * y for x, y in zip(v, row)])

    @staticmethod
    def _scaled(v, j):
        """v ready to eliminate at its nonzero entry j: _eliminate
        cross-multiplies, so integer rows stay as they are (and a residual
        is already its own projective normal form)."""
        return v

    push = _Echelon.push  # each class binds push, so a tracer can wrap one class


class ModEchelon(_Echelon):
    """Echelon form over GF(p) on columns of residues; stored rows are monic
    at their pivot, and a residual is its column minus a combination of the
    stored rows (rows are subtracted from it, never scaled into it)."""

    def __init__(self, p, columns):
        super().__init__(columns)
        self.p = p

    def _start(self, vec):
        return [x % self.p for x in vec]

    def _eliminate(self, v, j, row):
        """Clear v at pivot j with the row, monic there."""
        p, c = self.p, v[j]
        return [(x - c * y) % p for x, y in zip(v, row)]

    def _scaled(self, v, j):
        """v scaled to be monic at its nonzero entry j."""
        p = self.p
        inv = pow(v[j], p - 2, p)
        return [(x * inv) % p for x in v]

    push = _Echelon.push


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


def int_determinant(matrix):
    """The determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, so all entries stay integers
    (each is a minor of the input). The empty matrix has determinant 1."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row, c = m[i], m[i][k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - c * m[k][j]) // prev
        prev = pivot
    return sign * prev


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


def parallel_classes(steps, elements):
    """The parallel classes, in the contraction by the prefix pushed on the
    rank oracle `steps`, of those `elements` outside its closure: lists in
    the order of `elements`, ordered by their first elements. An echelon or
    a union-find reads them off its state (`classes`); any other oracle
    pushes each element after the prefix, and then each class
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
