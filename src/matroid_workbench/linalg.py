"""Linear matroids: push/pop echelon forms and the linear backing.

Fraction-free integer echelon forms (rational matrices are stored with
denominator-cleared integer columns, so all rank arithmetic stays in Z) and
GF(p) echelon forms rank labeled columns; two passes give the reduced row
echelon form (RREF) that a linear matroid stores (LinearBacking, with its
dual), and their elimination steps are the row operations of its minors.
The minors themselves, the memo-key normal form under scaling and `rref`,
the dense reference over a field object that the tests hold the echelon
forms to, are in linear_minors.py, which only deletion-contraction loads.
This module, with fields.py, loads with the first matrix
(matroids.from_matrix), so a graph, a uniform matroid or a basis list
never compiles it: the rollback union-find and `parallel_classes`, which
every backing uses, live in matroids.py.

The oracles support push/pop in LIFO order only; that is what depth-first
subset enumeration and flag walks need, and it keeps rollback trivial (a
push appends at most one row). Every push goes through one memo that
keeps the residual of each column pushed at every rank level, so a push
resumes where an ancestor or sibling left its column: a walk pays one row
elimination per (rank-raising node, later column) instead of up to `rank`
per pushed subset. A residual at level k is zero at the pivots of the
first k rows, so the memo keeps it on the other coordinates only, k fewer
than the column has, and each elimination drops the coordinate it clears:
the deeper the walk, the shorter the vectors it eliminates. An echelon
also gives the parallel classes of the contraction by the pushed prefix
without a push (`classes`), grouping the residuals of the later columns.
The corank-nullity walk, which closes every node of corank 2 by those
classes, makes 4,047 pushes and 12,597 row eliminations on the 6 x 18
Vandermonde matrix over Q (31,179 and 31,161 when it pushed to the
closure at corank 1; 138,057 eliminations when every push reduced from
scratch), and 3,240 pushes and 8,038 eliminations on the 6 x 17 GF(7)
benchmark matrix (22,733 and 19,457). In process the walk takes 17 ms on
the Vandermonde matrix and 13 ms on the GF(7) one, and basis enumeration
37 and 22 ms (23, 16, 46 and 25 ms with residuals on every coordinate;
medians, 2 cores, Python 3.11.7).
"""
from __future__ import annotations

from math import gcd, lcm

from .errors import InvalidInput
from .fields import RationalField, as_field
from .matroids import _Backing, _check_ground_size


def __getattr__(name):
    if name == "rref":  # the dense reference, in linear_minors.py (PEP 562)
        from .linear_minors import rref

        return rref
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _reduce_int_row(row):
    """Divide by the gcd and make the first nonzero entry positive; a zero
    or already primitive row comes back as it is."""
    g = gcd(*row)
    if next(filter(None, row), 0) < 0:
        g = -g
    if g == 1 or not g:
        return row
    return [x // g for x in row]


class _Echelon:
    """Append-only echelon form over labeled columns, the push/pop rank
    oracle of a matrix. Stored rows have pairwise distinct pivot positions,
    and each row was reduced against all rows stored before it, so it is
    zero at their pivots, and eliminating an incoming vector in insertion
    order never reintroduces a cleared pivot.

    The free coordinates of level k are those that are not pivots of the
    first k rows, in increasing order. Row k is kept on them (_short[k],
    with the index of its pivot among them), and `rows` puts the rows back
    in full coordinates. Every push goes through one memo, a dict per
    stored-row count k: _res[k][e] is the residual of column e modulo the
    first k rows on the free coordinates of level k (it is zero at the
    others), len(column) - k entries. Level 0 holds a column in the class's
    convention (_start) and is filled at its first push. A push resumes
    from the deepest level that holds its column and caches every level it
    passes, each one coordinate shorter, so in a walk the siblings and
    descendants of a node share the residuals of its later columns. A push
    that adds a row opens a level and its pop drops it; a dependent push
    leaves the span, and so the levels, as they are."""

    def __init__(self, columns):
        self.columns = columns
        self._n = len(next(iter(columns.values()), ()))
        self._short = []  # (pivot index among the free coordinates, row on them) per stored row
        self._added = []
        self._res = [{}]

    @property
    def rank(self):
        return len(self._short)

    @property
    def rows(self):
        """The stored rows as (pivot index, row) pairs in full coordinates,
        each put back with zeros at the pivots of the rows before it."""
        free, rows = list(range(self._n)), []
        for t, v in self._short:
            row = [0] * self._n
            for f, x in zip(free, v):
                row[f] = x
            rows.append((free.pop(t), row))
        return rows

    def _residual(self, e):
        """The residual of column `e` on the free coordinates, from the
        level memo: resumed at the deepest level that holds it, the later
        rows applied one at a time (_eliminate, then the cleared coordinate
        dropped), and every level passed cached."""
        res, short = self._res, self._short
        k = len(short)
        while e not in res[k]:
            if not k:
                res[0][e] = self._start(self.columns[e])
                break
            k -= 1
        v = res[k][e]
        for k in range(k, len(short)):
            t, row = short[k]
            if v[t]:
                v = self._eliminate(v, t, row)
                del v[t]
            else:
                v = v[:t] + v[t + 1:]
            res[k + 1][e] = v
        return v

    def push(self, e):
        """Push column `e`; True when it raises the rank."""
        v = self._residual(e)
        lead = next(filter(None, v), 0)
        if not lead:
            self._added.append(False)
            return False
        t = v.index(lead)
        self._added.append(True)
        self._short.append((t, self._scaled(v, t)))
        self._res.append({})  # a new row opens a level
        return True

    def pop(self):
        if self._added.pop():
            self._short.pop()
            self._res.pop()

    def classes(self, elements):
        """The parallel classes of `elements` outside the span, in the
        contraction by it: columns whose residuals (from the level memo,
        with no push) are nonzero multiples of one another, grouped by the
        residual scaled at its first nonzero entry."""
        groups = {}
        for e in elements:
            v = self._residual(e)
            lead = next(filter(None, v), 0)
            if lead:
                groups.setdefault(tuple(self._scaled(v, v.index(lead))), []).append(e)
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


# -- the linear backing of a matroid ---------------------------------------


def _clear_column(col):
    """Scale a rational column to coprime integers (kills denominators).

    Column scaling by a nonzero rational does not change the column matroid,
    so ranks can be computed fraction-free afterwards. Read through
    numerator and denominator, which an int has too, so an integer column
    makes no Fraction.
    """
    m = lcm(*(c.denominator for c in col))
    ints = [c.numerator * (m // c.denominator) for c in col]
    g = gcd(*ints)
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
        return IntEchelon(columns)
    return ModEchelon(field.p, columns)


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


class LinearBacking(_Backing):
    """A linear matroid stored as its RREF: (pivot, row) pairs over the
    positions of its elements, each row zero before its pivot and at the
    other pivots, in its field's echelon convention. Walks and rank calls
    push `columns` ({label: tuple of ints}, denominator-cleared over Q,
    residues over GF(p)): a matrix's own, and for minors and duals the
    columns of the rows, derived at first use."""

    kind = "linear"

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
        if len(subset) == len(self.elements):  # the ground set: the row count
            return len(self.rows)
        return sum(map(_echelon(self.field, self.columns).push, subset))

    def steps(self):
        return _echelon(self.field, self.columns)

    def minor(self, M, contracted, kept):
        """Native minor by row operations on the RREF
        (linear_minors.minor)."""
        from .linear_minors import minor

        return minor(self, contracted, kept)

    def loops(self, M):
        """The zero columns of the RREF."""
        return frozenset(e for f, e in enumerate(M.elements) if not any(row[f] for _, row in self.rows))

    def coloops(self, M):
        """The pivots whose row is zero at every non-pivot column: no
        fundamental circuit of the lexicographically first basis meets
        them."""
        pivots = {j for j, _ in self.rows}
        free = [f for f in range(M.size) if f not in pivots]
        return frozenset(M.elements[j] for j, row in self.rows if not any(row[f] for f in free))

    def memo_key(self, M):
        """The elements, the field name and the RREF rows in their normal
        form under row and column scaling: matrices that differ by row
        operations and column scaling get one key."""
        from .linear_minors import _scaling_normal_form

        payload = (M.elements, (self.field.name, _scaling_normal_form(self.field, self.rows)))
        return b"mw3:l:" + repr(payload).encode()

    def dual(self, M):
        """Column matroid of the null space, read off the RREF rows R: one
        vector per free position f, 1 at f and -R[j][f] at each pivot j
        (the null space with pivot column j scaled by R[j][j], which keeps
        the matroid), put in RREF by one elimination."""
        n, rows = M.size, dict(self.rows)
        free = [f for f in range(n) if f not in rows]
        kernel = [[-rows[j][f] if j in rows else int(j == f) for j in range(n)] for f in free]
        return LinearBacking(self.field, M.elements, _rref(self.field, kernel))


def matrix_backing(field, matrix):
    """The linear backing of `matrix` over `field` (a fields.py object or
    name), on the column indices 0..n-1: its columns in the integer
    convention and its RREF (matroids.from_matrix)."""
    field = as_field(field)
    if not matrix or not matrix[0]:
        raise InvalidInput("matrix must have at least one row and one column")
    width = len(matrix[0])
    _check_ground_size(width)
    if any(len(row) != width for row in matrix):
        raise InvalidInput("matrix rows must all have the same length")
    columns = {j: _store_column(field, [field.of(row[j]) for row in matrix]) for j in range(width)}
    rows = _rref(field, zip(*columns.values()))
    return LinearBacking(field, range(width), rows, columns)
