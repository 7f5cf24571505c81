"""Exact linear algebra kernels.

Two flavors live here: fraction-free integer echelon forms used by the hot
rank oracles (rational matrices are stored with denominator-cleared integer
columns, so all rank arithmetic stays in Z), and field-generic reduced row
echelon / kernel routines used for minors and duals, where the scalar work
goes through a field object from fields.py.

The incremental echelons support push/pop in LIFO order only; that is what
depth-first subset enumeration and flag walks need, and it keeps rollback
trivial (a push appends at most one reduced row).
"""
from __future__ import annotations

from math import gcd


def _reduce_int_row(row):
    """Divide by the gcd and make the first nonzero entry positive."""
    g = 0
    lead = 0
    for x in row:
        g = gcd(g, x)
        if lead == 0 and x != 0:
            lead = x
    if g == 0:
        return None
    if lead < 0:
        g = -g
    return [x // g for x in row]


class IntEchelon:
    """Append-only integer echelon form; rank oracle for rational columns.

    Stored rows have pairwise distinct pivot positions, and each row was
    reduced against all rows stored before it, so eliminating an incoming
    vector in insertion order never reintroduces a cleared pivot.
    """

    def __init__(self):
        self.rows = []  # (pivot index, normalized integer row)
        self._added = []

    @property
    def rank(self):
        return len(self.rows)

    def push(self, vec):
        v = list(vec)
        for j, row in self.rows:
            if v[j]:
                a, b = row[j], v[j]
                v = [a * x - b * y for x, y in zip(v, row)]
                v = _reduce_int_row(v) or [0] * len(v)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            self._added.append(False)
            return False
        self.rows.append((pivot, _reduce_int_row(v)))
        self._added.append(True)
        return True

    def pop(self):
        if self._added.pop():
            self.rows.pop()


class ModEchelon:
    """Append-only echelon form over GF(p); rows are monic at their pivot."""

    def __init__(self, p):
        self.p = p
        self.rows = []
        self._added = []

    @property
    def rank(self):
        return len(self.rows)

    def push(self, vec):
        p = self.p
        v = [x % p for x in vec]
        for j, row in self.rows:
            c = v[j]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            self._added.append(False)
            return False
        inv = pow(v[pivot], p - 2, p)
        self.rows.append((pivot, [(x * inv) % p for x in v]))
        self._added.append(True)
        return True

    def pop(self):
        if self._added.pop():
            self.rows.pop()


def rref(rows, field):
    """Reduced row echelon form over a field object.

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


def kernel(rows, ncols, field):
    """Basis of {x : A x = 0} for the matrix with the given rows.

    One vector per free column, unit at the free column; deterministic order.
    """
    if not rows:
        basis = []
        for f in range(ncols):
            v = [field.zero] * ncols
            v[f] = field.one
            basis.append(v)
        return basis
    red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i][f])
        basis.append(v)
    return basis


class RollbackUnionFind:
    """Union-find with LIFO rollback (union by size, no path compression)."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in items}
        self._hist = []

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self._hist.append(None)
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self._hist.append((rb, ra))
        return True

    def pop(self):
        h = self._hist.pop()
        if h:
            rb, ra = h
            self.parent[rb] = rb
            self.size[ra] -= self.size[rb]
