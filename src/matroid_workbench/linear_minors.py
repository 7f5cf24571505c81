"""What deletion-contraction asks of a linear matroid beyond its rank
oracle: minors by row operations on the RREF, and the memo key's normal
form of the RREF under row and column scaling. With them sits `rref`, the
dense reference over a field object that the tests hold the echelon forms
to, which no command runs.

The subset walk, basis enumeration and the fixed-point sums push columns
and never make a minor or a key, so a command on a matrix compiles this
module only when it runs deletion-contraction (or deletes the zero
columns of its input). LinearBacking.minor and LinearBacking.memo_key
load it at their first call, and linalg.rref names its `rref` (PEP 562).
"""
from __future__ import annotations

from math import gcd

from .fields import RationalField
from .linalg import LinearBacking, _echelon


def minor(backing, contracted, kept):
    """The LinearBacking of the minor of `backing` that contracts
    `contracted` and keeps `kept`, by row operations on its RREF, one
    element at a time, whose column is then dropped. Contracting an
    element that rows meet pivots the row with the largest such pivot onto
    it, clears it from the other rows and drops that row; the others keep
    their pivots, as no row with a larger pivot meets the element.
    Deleting a pivot moves the pivot to the next nonzero entry of its row
    and clears that column from the others, or drops the row when there is
    none (a coloop). Deletion-contraction branches on the last element of
    a core, never a pivot."""
    ops = _echelon(backing.field, {})
    contracted, kept = set(contracted), set(kept)
    elements, rows = list(backing.elements), dict(backing.rows)
    for e in backing.elements:
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
    return LinearBacking(backing.field, elements, sorted(rows.items()))


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
