"""Shared brute-force reference computations used across the test suite.

Everything here recomputes invariants by direct subset enumeration, with no
shared code paths beyond the rank oracle itself, so the fast implementations
are checked against independent definitions. The inputs and the hypothesis
strategy that several test modules draw from are kept here too.
"""

import re
from collections import deque
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, permutations
from math import comb, lcm

from hypothesis import strategies as st

from matroid_workbench import (
    QQ,
    BivariatePoly,
    ExteriorElement,
    InvalidField,
    PrimeField,
    UnivariatePoly,
    broken_circuits,
    from_bases,
    from_graph,
    from_matrix,
    koszul_boundary,
    uniform,
)
from matroid_workbench.errors import InternalInvariantViolation, quote
from matroid_workbench.localization import FIBER_SIGN, TANGENT_SIGN, _pair_lcm
from matroid_workbench.linalg import LinearBacking, _rref, _store_column, rref
from matroid_workbench.matroids import Matroid
from matroid_workbench.series import TruncatedSeries


# a 6x17 GF(7) matrix of rank 6 (the benchmark's seeded input at seed 1)
GF7_6X17 = [
    [5, 1, 2, 2, 6, 4, 0, 0, 4, 1, 3, 5, 4, 2, 5, 6, 3],
    [5, 5, 5, 3, 1, 5, 1, 0, 5, 5, 1, 3, 6, 6, 2, 6, 4],
    [4, 1, 0, 0, 4, 2, 6, 4, 1, 4, 1, 3, 2, 1, 4, 1, 2],
    [0, 0, 0, 6, 6, 5, 6, 6, 5, 0, 2, 4, 1, 5, 3, 5, 2],
    [5, 3, 3, 4, 6, 1, 3, 0, 2, 2, 5, 4, 0, 4, 6, 4, 6],
    [6, 4, 1, 5, 0, 3, 4, 4, 0, 4, 0, 6, 5, 1, 1, 6, 5],
]

# The Vamos matroid (Oxley, Matroid Theory, 2nd ed., section 2.1): rank 4 on
# 8 elements, every 4-set a basis except five circuit-hyperplanes; it is
# representable over no field
VAMOS_CIRCUIT_HYPERPLANES = [{0, 1, 2, 3}, {0, 1, 4, 5}, {0, 1, 6, 7}, {2, 3, 4, 5}, {2, 3, 6, 7}]
VAMOS_BASES = [b for b in combinations(range(8), 4) if set(b) not in VAMOS_CIRCUIT_HYPERPLANES]

PETERSEN = [(0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4), (3, 8), (4, 9),
            (5, 7), (5, 8), (6, 8), (6, 9), (7, 9)]


@st.composite
def matrices_and_graphs(draw):
    """A matrix over Q or GF(p) with up to 4 rows and 7 columns, the basis
    list of such a matrix over Q or GF(3), a multigraph on up to 4 vertices
    with loops and parallel edges, or U(r, n) with n up to 7."""
    kind = draw(st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(5)", "GF(7)", "graph", "uniform", "bases"]))
    if kind == "graph":
        vertex = st.integers(0, 3)
        return from_graph(draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7)))
    if kind == "uniform":
        n = draw(st.integers(1, 7))
        return uniform(draw(st.integers(0, n)), n)
    field = draw(st.sampled_from(["Q", "GF(3)"])) if kind == "bases" else kind
    entry = st.integers(0, 6) if field != "Q" else st.sampled_from([0, 0, 1, -1, 3, "1/2", "-2/3"])
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    row = st.lists(entry, min_size=cols, max_size=cols)
    M = from_matrix(field, draw(st.lists(row, min_size=rows, max_size=rows)))
    return from_bases(M.size, M.bases()) if kind == "bases" else M


def powerset(elements):
    elems = list(elements)
    return chain.from_iterable(combinations(elems, k) for k in range(len(elems) + 1))


def brute_tutte(M):
    """Corank-nullity sum computed subset by subset with plain rank calls."""
    terms = {}
    r = M.r
    for A in powerset(M.elements):
        rk = M.rank(A)
        c, nu = r - rk, len(A) - rk
        # expand (x-1)^c (y-1)^nu directly
        part = BivariatePoly.monomial(0, 0, 1)
        for _ in range(c):
            part = part * BivariatePoly({(1, 0): 1, (0, 0): -1})
        for _ in range(nu):
            part = part * BivariatePoly({(0, 1): 1, (0, 0): -1})
        for key, val in part.terms():
            terms[key] = terms.get(key, 0) + val
    return BivariatePoly({k: v for k, v in terms.items() if v})


def brute_rank_size_counts(M):
    """{(corank, nullity): count}, ranking every subset with M.rank."""
    counts = {}
    r = M.r
    for A in powerset(M.elements):
        rk = M.rank(A)
        key = (r - rk, len(A) - rk)
        counts[key] = counts.get(key, 0) + 1
    return counts


def h_from_counts(counts, size, r):
    """The h polynomial read off rank_size_counts: the u-exponent is the
    corank c, and the v-exponent #E - #A - c collapses to (#E - r) - nu
    because #A = (r - c) + nu."""
    m = size - r
    t = {}
    for (c, nu), n in counts.items():
        t[c, m - nu] = t.get((c, m - nu), 0) + n
    return BivariatePoly(t)


def brute_bases(M):
    """The r-subsets of rank r, in itertools.combinations order."""
    return [b for b in combinations(M.elements, M.r) if M.rank(b) == M.r]


def elimination_rank(vectors, p):
    """The rank of `vectors` by elimination on lists of Fractions (p = 0)
    or residues mod p, sharing no code with the package's echelon forms."""
    basis = []
    for v in vectors:
        for j, b in basis:
            if v[j]:
                c = v[j] / b[j] if p == 0 else v[j] * pow(b[j], p - 2, p)
                v = [(x - c * y) % p if p else x - c * y for x, y in zip(v, b)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is not None:
            basis.append((j, v))
    return len(basis)


def elimination_bases(matrix, p):
    """The bases of the column matroid of an integer `matrix` over GF(p),
    p prime, as sorted tuples of column indices in combinations order,
    ranked by elimination_rank."""
    cols = [[x % p for x in col] for col in zip(*matrix)]
    r = elimination_rank(cols, p)
    return [b for b in combinations(range(len(cols)), r) if elimination_rank([cols[j] for j in b], p) == r]


def tutte_specializations(T, size, r):
    """(h, chi) of the Tutte polynomial T of a matroid of rank r on `size`
    elements, expanded term by term in binomials: h(u, v) = v^(size - r)
    T(u + 1, 1/v + 1) and chi(u) = (-1)^r T(1 - u, 0)."""
    h, chi = {}, {}
    for (x, y), c in T.terms():
        for i in range(x + 1):
            for j in range(y + 1):
                h[i, size - r - y + j] = h.get((i, size - r - y + j), 0) + c * comb(x, i) * comb(y, j)
            if y == 0:
                chi[i] = chi.get(i, 0) + (-1) ** (r + i) * c * comb(x, i)
    return BivariatePoly({k: c for k, c in h.items() if c}), UnivariatePoly({k: c for k, c in chi.items() if c})


def brute_isomorphism(A, B):
    """A bijection {element of A: element of B} that maps the bases of A
    onto those of B, found by trying every permutation, or None."""
    if (A.size, A.r) != (B.size, B.r):
        return None
    bases_a, bases_b = brute_bases(A), {frozenset(b) for b in brute_bases(B)}
    if len(bases_a) != len(bases_b):
        return None
    for image in permutations(B.elements):
        phi = dict(zip(A.elements, image))
        if all(frozenset(phi[e] for e in b) in bases_b for b in bases_a):
            return phi
    return None


def labeled_graph_dc(M):
    """Deletion-contraction on a graph memoized under a labeled key (the
    element labels and the edge list with vertices renamed by first
    appearance), which merges only equal labeled graphs: an oracle for
    graphs whose subset sum is too slow."""
    memo = {}

    def dc(N):
        loops, coloops = N.loops(), N.coloops()
        if loops or coloops:
            return dc(N.minor(deleted=loops, contracted=coloops)).shift(len(coloops), len(loops))
        if not N.size:
            return BivariatePoly.monomial(0, 0)
        names = {}
        key = (N.elements, tuple(tuple(names.setdefault(v, len(names)) for v in uv) for uv in N.graph_edges()))
        if key not in memo:
            e = max(N.elements)
            memo[key] = dc(N.delete({e})) + dc(N.contract({e}))
        return memo[key]

    return dc(M)


def frozenset_exchange_holds(bases):
    """The basis exchange axiom, checked pairwise on frozensets: for bases
    B1, B2 and each x in B1 - B2, some y in B2 - B1 makes B1 - x + y a
    basis."""
    bset = set(map(frozenset, bases))
    return all(
        any((b1 - {x}) | {y} in bset for y in b2 - b1)
        for b1 in bset
        for b2 in bset
        for x in b1 - b2
    )


def pairwise_exchange_failure(bases):
    """The error text of the pairwise exchange check on bitmasks that
    from_bases ran before it checked by holder bitsets, or None when the
    axiom holds: for each pair (B1, B2) of the list in order, the least x
    in B1 - B2 that no y in B2 - B1 exchanges for."""
    bits = [[1 << e for e in sorted(b)] for b in bases]
    masks = [sum(bs) for bs in bits]
    mset = set(masks)
    for m1, xs, b1 in zip(masks, bits, bases):
        for m2, b2_bits, b2 in zip(masks, bits, bases):
            ys = [y for y in b2_bits if not m1 & y]
            for x in xs:
                if x & m2:
                    continue
                if not any(m1 ^ x | y in mset for y in ys):
                    return (
                        f"exchange axiom fails for bases {quote(sorted(b1))}, "
                        f"{quote(sorted(b2))} at element {x.bit_length() - 1}"
                    )
    return None


def brute_circuits(M):
    """Minimal dependent sets by a scan over subsets in order of size that
    skips the supersets of circuits already found."""
    found = []
    for k in range(1, min(M.size, M.r + 1) + 1):
        for s in combinations(M.elements, k):
            ss = frozenset(s)
            if not any(c <= ss for c in found) and M.rank(ss) < k:
                found.append(ss)
    return sorted(tuple(sorted(c)) for c in found)


def column_matroid(field, columns):
    """The linear matroid of integer-convention columns {label: column} on
    its labels in dict order, built as from_matrix builds one: its RREF,
    and the columns cut to the rows that _rref found to be a row basis."""
    labels = tuple(columns)
    rows, basis = _rref(field, zip(*columns.values()))
    on_basis = {e: tuple(col[i] for i in basis) for e, col in columns.items()}
    return Matroid(LinearBacking(field, labels, rows, on_basis), labels)


def rref_minor_rows(M, deleted=(), contracted=()):
    """(kept labels, RREF rows) of M \\ D / C for M over Q or GF(p), by dense
    reduction over the field: the RREF of the columns [C | kept], cut to
    the rows that pivot outside the C block and to the kept columns."""
    field, columns = M._backing.field, M._backing.columns
    kept = [e for e in M.elements if e not in deleted and e not in contracted]
    labels = sorted(contracted) + kept
    nrows = len(columns[labels[0]]) if labels else 0
    red, pivots = rref([[field.of(columns[e][i]) for e in labels] for i in range(nrows)], field)
    nc = len(contracted)
    return kept, [red[i][nc:] for i, pc in enumerate(pivots) if pc >= nc]


def rref_minor(M, deleted=(), contracted=()):
    """M \\ D / C as the column matroid of its dense RREF rows."""
    field = M._backing.field
    kept, red = rref_minor_rows(M, deleted, contracted)
    columns = {e: _store_column(field, [row[j] for row in red]) for j, e in enumerate(kept)}
    return column_matroid(field, columns)


def rref_rows(M):
    """(RREF rows, pivots) of a linear matroid's matrix, by dense reduction
    over its field object."""
    field, columns = M._backing.field, M._backing.columns
    nrows = len(columns[M.elements[0]]) if M.elements else 0
    return rref([[field.of(columns[e][i]) for e in M.elements] for i in range(nrows)], field)


def scaled_rref(field, red, pivots):
    """Dense RREF rows over the field scaled to their normal form: every entry
    on a breadth-first spanning forest of the support graph becomes one.

    The support graph joins row i (at position pivots[i]) to each non-pivot
    column f where red[i][f] is nonzero. Each component is walked from its
    least position, neighbours in increasing position. Reaching a column f
    from row i sets its factor c_f with r_i * red[i][f] * c_f = 1, and
    reaching a row from a column likewise sets r_i. Then row i is multiplied
    by r_i, column f by c_f, and pivot column pivots[i] by 1 / r_i."""
    n = len(red[0]) if red else 0
    free = [f for f in range(n) if f not in pivots]
    neighbours = {p: [] for p in range(n)}
    for i, pc in enumerate(pivots):
        for f in free:
            if not field.is_zero(red[i][f]):
                neighbours[pc].append(f)
                neighbours[f].append(pc)
    row_at = {pc: i for i, pc in enumerate(pivots)}
    factor = {}
    for root in range(n):
        if root in factor:
            continue
        factor[root] = field.one
        todo = deque([root])
        while todo:
            u = todo.popleft()
            for v in sorted(neighbours[u]):
                if v not in factor:
                    i, f = (row_at[u], v) if u in row_at else (row_at[v], u)
                    factor[v] = field.inv(field.mul(factor[u], red[i][f]))
                    todo.append(v)
    out = [[field.mul(factor[pc], x) for x in row] for row, pc in zip(red, pivots)]
    for row in out:
        for f in free:
            row[f] = field.mul(row[f], factor[f])
        for pc in pivots:
            row[pc] = field.mul(row[pc], field.inv(factor[pc]))
    return out


def rref_memo_key(M):
    """The memo key of a linear matroid, written from the dense RREF: the
    rows in their scaling normal form (scaled_rref) under "mw3:l:"."""
    field = M._backing.field
    red, pivots = rref_rows(M)
    rows = scaled_rref(field, red, pivots)
    payload = (field.name, tuple(tuple(field.to_str(x) for x in row) for row in rows))
    return b"mw3:l:" + repr((M.elements, payload)).encode()


def fraction_scaling_normal_form(rows):
    """The Q memo-key normal form of RREF rows, (pivot, row) pairs of
    integers, on Fractions: the breadth-first scaling that
    linear_minors._scaling_normal_form runs on integer pairs, each scalar a
    Fraction and each entry printed by str(Fraction)."""
    by_pivot = dict(rows)
    n = len(rows[0][1]) if rows else 0
    scale = {}
    for start in range(n):
        if start in scale:
            continue
        row = by_pivot.get(start)
        scale[start] = Fraction(1) if row is None else 1 / Fraction(row[start])
        queue = [start]
        for node in queue:
            s = scale[node]
            row = by_pivot.get(node)
            edges = enumerate(row) if row is not None else ((j, r[node]) for j, r in rows)
            for other, x in edges:
                if x and other not in scale:
                    scale[other] = 1 / (s * x)
                    queue.append(other)
    return tuple(
        tuple(str(Fraction(1) if f == j else x if not x or f in by_pivot else scale[j] * x * scale[f])
              for f, x in enumerate(row))
        for j, row in rows
    )


# ASCII only: \d would take other scripts' digits ("GF(\u0667)" as GF(7)). 20
# digits reach past 2^64, so int() never sees a longer string.
_FIELD_RE = re.compile(r"Q|GF\(([0-9]{1,20})\)")


def regex_field_from_name(name):
    """fields.field_from_name as a regular expression reads it: 'Q' or
    'GF(p)', surrounding ASCII whitespace ignored, else InvalidField."""
    m = _FIELD_RE.fullmatch(name.strip(" \t\n\r\f\v")) if isinstance(name, str) else None
    if m:
        return QQ if m.group(1) is None else PrimeField(int(m.group(1)))
    raise InvalidField(f"unknown field {quote(name)} (expected 'Q' or 'GF(p)', p < 2^64)")


def rref_dual(M):
    """The dual of a linear matroid by dense reduction: the matrix whose
    rows are a kernel basis, one vector per free column, unit there and
    -RREF[i][f] at the pivot of row i."""
    field = M._backing.field
    red, pivots = rref_rows(M)
    kernel = []
    for f in range(M.size):
        if f not in pivots:
            v = [field.zero] * M.size
            v[f] = field.one
            for i, pc in enumerate(pivots):
                v[pc] = field.neg(red[i][f])
            kernel.append(v)
    columns = {e: _store_column(field, [v[i] for v in kernel]) for i, e in enumerate(M.elements)}
    return column_matroid(field, columns)


def brute_h(M):
    """h(u, v) = sum over subsets of u^(r - rk) v^(m - nullity)."""
    terms = {}
    r, m = M.r, M.size - M.r
    for A in powerset(M.elements):
        rk = M.rank(A)
        key = (r - rk, m - (len(A) - rk))
        terms[key] = terms.get(key, 0) + 1
    return BivariatePoly(terms)


def brute_dual_h(M):
    """h of the dual matroid, written as a sum over subsets of M itself:

    h_{M*}(u, v) = sum over A of u^(nullity_M(A)) v^(rank_M(A)).
    """
    terms = {}
    for A in powerset(M.elements):
        rk = M.rank(A)
        key = (len(A) - rk, rk)
        terms[key] = terms.get(key, 0) + 1
    return BivariatePoly(terms)


def spanning_poly(M):
    """sum over spanning subsets A of v^(#E - #A)."""
    terms = {}
    n, r = M.size, M.r
    for A in powerset(M.elements):
        if M.rank(A) == r:
            d = n - len(A)
            terms[(0, d)] = terms.get((0, d), 0) + 1
    return BivariatePoly(terms)


def swap_xy(p):
    return BivariatePoly({(j, i): c for (i, j), c in p.terms()})


def upoly(*coeffs_desc):
    """UnivariatePoly from coefficients listed highest degree first."""
    n = len(coeffs_desc)
    return UnivariatePoly({n - 1 - i: c for i, c in enumerate(coeffs_desc) if c})


def bin_power(a, b, n):
    """(a*x + b)^n as a UnivariatePoly in x."""
    out = UnivariatePoly({0: 1})
    for _ in range(n):
        out = out * UnivariatePoly({1: a, 0: b})
    return out


def abs_coeff_row(p: UnivariatePoly):
    """[|coeff of u^(d-k)|] for k = 0..d — Whitney-number reading order."""
    d = p.degree()
    return [abs(p.coeff(d - k)) for k in range(d + 1)]


def dense_os_reducer(M, k, field, circuits_only=False):
    """Orlik-Solomon normal form in degree k by dense row reduction.

    The degree-k relation space is spanned by

        (d e_S) ^ e_T   for S dependent, T disjoint from S, #S - 1 + #T = k
        e_W             for W dependent with #W = k

    or, with circuits_only, by the first family restricted to circuits S
    plus the second family; both span the same space. Row reduction pivots
    on the lexicographically largest subset first, so the non-pivot columns
    are the nbc monomials. Returns (non-pivot subsets, reduce function).
    """
    cols = list(combinations(M.elements, k))
    rcols = cols[::-1]
    rpos = {s: i for i, s in enumerate(rcols)}

    def dependent(size):
        return [s for s in combinations(M.elements, size) if M.rank(s) < size]

    raw = []

    def add_row(x):
        if not x.is_zero():
            v = [field.zero] * len(rcols)
            for key, c in x.terms.items():
                v[rpos[key]] = c
            raw.append(v)

    if circuits_only:
        sources = [c for c in M.circuits() if len(c) <= k + 1]
    else:
        sources = [dep for size in range(1, k + 2) for dep in dependent(size)]
    for dep in sources:
        bd = koszul_boundary(dep, field)
        rest = [e for e in M.elements if e not in dep]
        for t in combinations(rest, k + 1 - len(dep)):
            add_row(bd.wedge(ExteriorElement.monomial(field, t)))
    for w in dependent(k):
        add_row(ExteriorElement.monomial(field, w))
    rows, pivots = rref(raw, field) if raw else ([], [])
    pivot_subsets = {rcols[p] for p in pivots}

    def reduce(x):
        v = [field.zero] * len(rcols)
        for key, c in x.terms.items():
            v[rpos[key]] = c
        for row, piv in zip(rows, pivots):
            c = v[piv]
            if not field.is_zero(c):
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
        terms = {rcols[i]: c for i, c in enumerate(v) if not field.is_zero(c)}
        return ExteriorElement(field, k, terms)

    return sorted(s for s in cols if s not in pivot_subsets), reduce


def circuit_nbc_sets(M, k):
    """The k-subsets holding no broken circuit C - min C, tested against the
    list of every circuit (read off the bases): the oracle for the walk of
    orlik_solomon.nbc_sets on the rank oracle."""
    bcs = [frozenset(b) for b in broken_circuits(M)]
    return [s for s in combinations(M.elements, k) if not any(b <= frozenset(s) for b in bcs)]


def fixed_point_pairings(M, w, a):
    """(step weights, non-step weights, tangent pairings) at the ordering w.

    The fiber character of x is FIBER_SIGN * e_x, on the step side where a
    push of x raises the rank; the tangent characters are TANGENT_SIGN *
    (e_{w_i} - e_{w_{i+1}}). Each is paired with the weights a, which are
    indexed by position in M.elements.
    """
    weight = dict(zip(M.elements, a))
    inc = M.incremental_rank()
    steps = [inc.push(x) for x in w]
    assert sum(map(bool, steps)) == M.r, (w, steps)
    return (
        [FIBER_SIGN * weight[x] for x, step in zip(w, steps) if step],
        [FIBER_SIGN * weight[x] for x, step in zip(w, steps) if not step],
        [TANGENT_SIGN * (weight[x] - weight[y]) for x, y in zip(w, w[1:])],
    )


def per_point_euler_table(M, one_ps=None):
    """Euler table by localization, one fixed point at a time in Fractions.

    For each ordering w, the characters of the fixed point are paired with
    the weights a (fixed_point_pairings); the tangent units
    (1 - (1+eps)^(-tau)) / eps are multiplied and inverted as one Fraction
    series, whose denominators are cleared by their lcm, and the fiber
    numerator of every cell is expanded subset by subset and multiplied by
    it in integers; each cell slot gains one Fraction per point. Series run
    to eps^(n+1). The pole slots of every cell's sum must vanish and its
    eps^0 slot be an integer. No code is shared with the prefix-state sum
    beyond the series type, the rank oracle and the sign constants.
    """
    a = tuple(one_ps) if one_ps is not None else tuple(range(M.size))
    n = M.size - 1
    order = n + 2
    r, m = M.r, M.size - M.r

    def power(c, k=order):
        return TruncatedSeries.one_plus_eps_power(c, k)

    sums = {(p, q): [Fraction(0)] * order for p in range(r + 1) for q in range(m + 1)}
    for w in permutations(M.elements):
        s_exps, q_exps, taus = fixed_point_pairings(M, w, a)
        denom = TruncatedSeries([1], order)
        for tau in taus:
            denom = denom * TruncatedSeries([-c for c in power(-tau, order + 1).coeffs[1:]], order)
        # clear the inverse's denominators once, so that the cell products
        # below run in integers
        inv = denom.inverse().coeffs
        scale = lcm(*(c.denominator for c in inv))
        inv = TruncatedSeries([c.numerator * (scale // c.denominator) for c in inv], order)
        for (p, q), slot in sums.items():
            numer = [0] * order
            for A in combinations(s_exps, p):
                for B in combinations(q_exps, q):
                    for j, c in enumerate(power(sum(A) + sum(B)).coeffs):
                        numer[j] += c
            for j, c in enumerate((TruncatedSeries(numer, order) * inv).coeffs):
                slot[j] += Fraction(c, scale)
    for cell, slot in sums.items():
        assert all(c == 0 for c in slot[:n]), (cell, slot)
        assert slot[n].denominator == 1, (cell, slot[n])
    return [[int(sums[(p, q)][n]) for q in range(m + 1)] for p in range(r + 1)]


def _subset_sum_polys(exps, upto):
    """polys[d] = {sum: multiplicity} over d-subsets of exps, d = 0..upto."""
    polys = [dict() for _ in range(upto + 1)]
    polys[0][0] = 1
    for x in exps:
        for d in range(min(upto, len(polys) - 1) - 1, -1, -1):
            tgt = polys[d + 1]
            for e, c in polys[d].items():
                tgt[e + x] = tgt.get(e + x, 0) + c
    return polys


def prefix_state_series(M, a, L):
    """The prefix-state sum of localization._accumulate_points, slot by
    slot on TruncatedSeries: the same table of L integers per cell, and the
    largest slot bit length (without sign) of any series it makes, as the
    pair (dynamic program, numerator phase).

    The dynamic program's series are the W_tau, every extension product,
    every merged state and every per-basis sum; the numerator phase's are
    every cell numerator (1 + T eta)^c summed over the subsets of a basis
    and its complement, expanded slot by slot, every numerator times its
    per-basis sum, and every running cell total.
    """
    widest = [0, 0]

    def seen(phase, s):
        widest[phase] = max(widest[phase], *(abs(c).bit_length() for c in s.coeffs))
        return s

    elements = M.elements
    weight = dict(zip(elements, a))
    bit = {e: 1 << e for e in elements}
    rank = {}
    for k in range(M.size + 1):
        for prefix in combinations(elements, k):
            inc = M.incremental_rank()
            rank[sum(bit[e] for e in prefix)] = sum(inc.push(e) for e in prefix)

    t = _pair_lcm(a)
    series = {}
    edge = {}
    for x in elements:
        for y in elements:
            if x == y:
                continue
            tau = TANGENT_SIGN * (weight[x] - weight[y])
            s = series.get(tau)
            if s is None:
                u = [-c for c in TruncatedSeries.one_plus_eps_power(-tau, L + 1).coeffs[1:]]
                w = [t // tau]
                for k in range(1, L):
                    w.append(-sum(u[i] * (t**i // tau) * w[k - i] for i in range(1, k + 1)))
                s = series[tau] = seen(0, TruncatedSeries(w, L))
            edge[x, y] = s

    one = TruncatedSeries([1], L)
    layer = {(bit[e], e, bit[e] if rank[bit[e]] else 0): one for e in elements}
    for _ in range(M.size - 1):
        merged = {}
        for (prefix, last, steps), s in layer.items():
            for e in elements:
                if prefix & bit[e]:
                    continue
                sub = prefix | bit[e]
                key = (sub, e, steps | bit[e] if rank[sub] > rank[prefix] else steps)
                prod = seen(0, s * edge[last, e])
                acc = merged.get(key)
                merged[key] = prod if acc is None else seen(0, acc + prod)
        layer = merged

    by_basis = {}
    for (_, _, steps), s in layer.items():
        acc = by_basis.get(steps)
        by_basis[steps] = s if acc is None else seen(0, acc + s)

    tpow = [t**j for j in range(L)]
    r, m = M.r, M.size - M.r
    total = [[TruncatedSeries([], L) for _ in range(m + 1)] for _ in range(r + 1)]
    for mask, acc in by_basis.items():
        spolys = _subset_sum_polys([FIBER_SIGN * weight[e] for e in elements if mask >> e & 1], r)
        qpolys = _subset_sum_polys([FIBER_SIGN * weight[e] for e in elements if not mask >> e & 1], m)
        for spoly, row in zip(spolys, total):
            for q, qpoly in enumerate(qpolys):
                numer = [0] * L
                for e1, c1 in spoly.items():
                    for e2, c2 in qpoly.items():
                        for j, c in enumerate(TruncatedSeries.one_plus_eps_power(e1 + e2, L).coeffs):
                            numer[j] += c1 * c2 * c
                numer = seen(1, TruncatedSeries([c * tp for c, tp in zip(numer, tpow)], L))
                row[q] = seen(1, row[q] + seen(1, numer * acc))
    return [[s.coeffs for s in row] for row in total], tuple(widest)


def node_masks(lower, codes):
    """{code: node mask} one degree up from the fibers `lower`: every
    monomial is a basis B times a monomial of the degree below, so the
    fiber c + code(B) holds B for each lower fiber c and each B."""
    nodes = {}
    for b, code in enumerate(codes):
        for c in lower:
            nodes[c + code] = nodes.get(c + code, 0) | 1 << b
    return nodes


def closure_components(nodes, lower, codes):
    """{code: number of components} of the fibers with node masks `nodes`,
    given the node masks `lower` of the degree below: B is joined to every
    basis of the fiber c - code(B). Each component is closed bit by bit
    from its least basis and stops once it covers what is left of the
    mask: the bitmask closure that white._star_split's merge of stars
    replaced. A neighbor outside the fiber's mask is an
    InternalInvariantViolation."""
    out = {}
    for c, mask in nodes.items():
        n, rest = 0, mask
        while rest:
            n += 1
            reach = todo = rest & -rest
            while todo:
                bit = todo & -todo
                near = lower.get(c - codes[bit.bit_length() - 1], -1)
                if near & ~mask:
                    raise InternalInvariantViolation(
                        f"star closure left the fiber: basis {bit.bit_length() - 1} in fiber {c}"
                    )
                todo = (todo ^ bit) | (near & ~reach)
                reach |= near
                if reach == rest:
                    break
            rest &= ~reach
        out[c] = n
    return out


def explicit_move_components(M, d, kept=None):
    """{multidegree: components} of the degree-d fibers under explicit
    double-swap moves, each component a sorted list of sorted d-tuples of
    bases, the components in order of their least monomial.

    Every pair of factors of every monomial is swapped by every x, y for
    which both results are bases, with frozensets and no table shared
    between monomials: the move builder that the lift replaced, with no
    table of double swaps. `kept`, if given, is a rule on (monomial,
    monomial it moves to) that a move must pass, and must be symmetric.
    """
    bases = M.bases()
    bset = {frozenset(b) for b in bases}
    pos = {e: p for p, e in enumerate(M.elements)}
    fibers = {}
    for ms in combinations_with_replacement(bases, d):
        mdeg = [0] * M.size
        for b in ms:
            for e in b:
                mdeg[pos[e]] += 1
        fibers.setdefault(tuple(mdeg), []).append(ms)

    def moves(v):
        for i, j in combinations(range(d), 2):
            s1, s2 = set(v[i]), set(v[j])
            for x in s1 - s2:
                for y in s2 - s1:
                    f1, f2 = frozenset(s1 - {x} | {y}), frozenset(s2 - {y} | {x})
                    if f1 in bset and f2 in bset:
                        rest = v[:i] + v[i + 1:j] + v[j + 1:]
                        w = tuple(sorted(rest + (tuple(sorted(f1)), tuple(sorted(f2)))))
                        if kept is None or kept(v, w):
                            yield w

    out = {}
    for mdeg, verts in fibers.items():
        seen, comps = set(), []
        for v in sorted(verts):
            if v in seen:
                continue
            seen.add(v)
            comp, todo = [], [v]
            while todo:
                cur = todo.pop()
                comp.append(cur)
                for w in moves(cur):
                    assert w in verts, (w, cur)
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            comps.append(sorted(comp))
        out[mdeg] = comps
    return out


def braid_random_cluster(n):
    """{(k, a): coefficient of q^k v^a} of Z_n = sum over the edge sets A
    of K_n of q^(components of A) v^#A, by the exponential formula in
    integers (Fortuin-Kasteleyn; Stanley, Enumerative Combinatorics 2,
    5.1): with G_m = (1 + v)^C(m, 2) the weight of all edge sets on m
    labeled vertices, the connected ones weigh
    C_m = G_m - sum_{k<m} C(m-1, k-1) C_k G_(m-k), and
    Z_m = sum_{k<=m} C(m-1, k-1) q C_k Z_(m-k), Z_0 = 1, by the component
    of the first vertex. No rank oracle, no matroid and no subset."""

    def times(p, q):
        out = {}
        for a, x in p.items():
            for b, y in q.items():
                out[a + b] = out.get(a + b, 0) + x * y
        return out

    G = [{a: comb(comb(m, 2), a) for a in range(comb(m, 2) + 1)} for m in range(n + 1)]
    C = [None]
    for m in range(1, n + 1):
        c = dict(G[m])
        for k in range(1, m):
            for a, x in times(C[k], G[m - k]).items():
                c[a] -= comb(m - 1, k - 1) * x
        C.append(c)
    Z = [{(0, 0): 1}]
    for m in range(1, n + 1):
        z = {}
        for k in range(1, m + 1):
            for (j, a), x in Z[m - k].items():
                for b, y in C[k].items():
                    z[j + 1, a + b] = z.get((j + 1, a + b), 0) + comb(m - 1, k - 1) * x * y
        Z.append(z)
    return {key: c for key, c in Z[n].items() if c}


def braid_tutte(n):
    """T(M(K_n)), n >= 1, from Z_n = (x - 1)(y - 1)^n T at q = (x - 1)(y - 1)
    and v = y - 1: each term c q^k v^a of braid_random_cluster is
    c (x - 1)^(k - 1) (y - 1)^(k + a - n), since an edge set with k
    components on n vertices has at least n - k edges."""
    t = {}
    for (k, a), c in braid_random_cluster(n).items():
        p, q = k - 1, k + a - n
        for i in range(p + 1):
            for j in range(q + 1):
                t[i, j] = t.get((i, j), 0) + c * comb(p, i) * comb(q, j) * (-1) ** (p - i + q - j)
    return BivariatePoly({key: c for key, c in t.items() if c})


def braid_h(n):
    """h(u, v) of M(K_n), n >= 1, read off braid_random_cluster: an edge
    set A with k components has corank r - rk(A) = k - 1, so its term
    q^k v^#A is u^(k - 1) v^(C(n, 2) - #A - (k - 1))."""
    size = comb(n, 2)
    return BivariatePoly({(k - 1, size - a - k + 1): c for (k, a), c in braid_random_cluster(n).items()})
