"""Linear matroids: push/pop echelon forms and the linear backing.

Fraction-free integer echelon forms (rational matrices are stored with
denominator-cleared integer columns, so all rank arithmetic stays in Z) and
GF(p) echelon forms rank labeled columns; two passes give the reduced row
echelon form (RREF) that a linear matroid stores (LinearBacking, with its
memo-key normal form, its minors and its dual), and their elimination
steps are the row operations of its minors. `rref`, over a field object,
is the dense reference the tests hold the echelon forms to. This module,
with fields.py, loads with the first matrix (matroids.from_matrix), so a
graph, a uniform matroid or a basis list never compiles it: the rollback
union-find, Bareiss's determinant and `parallel_classes`, which every
backing uses, live in matroids.py.

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
from .fields import RationalField, field_from_name
from .matroids import _check_ground_size


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
        return (elements, (self.field.name, _scaling_normal_form(self.field, self.rows)))

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
    section 6.4), as tuples of entry strings.

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
    rows.

    The rows hold integers in their field's echelon convention, and so does
    the arithmetic: over GF(p) residues, over Q reduced (numerator,
    denominator) pairs with a positive denominator, one gcd per scalar and
    per printed entry, an entry printed as str() prints that Fraction."""
    if isinstance(field, RationalField):
        one = (1, 1)

        def reduced(num, den):
            g = gcd(num, den)
            if den < 0:
                g = -g
            return num // g, den // g

        def recip(s, x):  # 1 / (s x)
            return reduced(s[1], s[0] * x)

        def show(a, x, b):  # a x b
            num, den = reduced(a[0] * x * b[0], a[1] * b[1])
            return str(num) if den == 1 else f"{num}/{den}"

    else:
        p, one = field.p, 1

        def recip(s, x):
            return pow(s * x % p, p - 2, p)

        def show(a, x, b):
            return str(a * x % p * b % p)

    by_pivot = dict(rows)
    n = len(rows[0][1]) if rows else 0
    scale = {}  # position -> a_i / pivot entry at row i's pivot, b_f at a non-pivot column f
    for start in range(n):
        if start in scale:
            continue
        row = by_pivot.get(start)
        scale[start] = one if row is None else recip(one, row[start])
        queue = [start]
        for node in queue:
            s = scale[node]
            row = by_pivot.get(node)
            # a row meets the non-pivot columns where it is nonzero (its
            # only nonzero pivot entry is its own, already scaled)
            edges = enumerate(row) if row is not None else ((j, r[node]) for j, r in rows)
            for other, x in edges:
                if x and other not in scale:
                    scale[other] = recip(s, x)
                    queue.append(other)
    return tuple(
        tuple("1" if f == j else str(x) if not x or f in by_pivot else show(scale[j], x, scale[f])
              for f, x in enumerate(row))
        for j, row in rows
    )


def matrix_backing(field, matrix):
    """The linear backing of `matrix` over `field` (a fields.py object or
    name), on the column indices 0..n-1: its columns in the integer
    convention and its RREF (matroids.from_matrix)."""
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
    return LinearBacking(field, range(width), rows, columns)
