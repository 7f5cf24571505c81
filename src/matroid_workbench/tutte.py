"""Tutte, characteristic, and two-variable h polynomials.

Two independent routes to the Tutte polynomial are provided and cross-check
each other in tests: a corank-nullity subset sum (tutte_sum) and memoized
deletion-contraction (tutte_dc). The h polynomial

    h(u, v) = sum over subsets A of u^(r - rk(A)) * v^(#(E \\ A) - (r - rk(A)))

is computed both from that subset sum and by substituting into the Tutte
polynomial; the two must agree exactly or InternalInvariantViolation flies.

Counting route: the subset sum only needs, for each (corank, nullity)
pair, how many subsets hit it. One depth-first walk over the backing's
push/pop rank oracle, Matroid.incremental_rank() (one push per visited
subset), records every subset that does not span;
below a spanning subset every superset has rank r, so that whole subtree is
counted by binomials without being visited. Small binomial expansions then
turn the counts into polynomials.

Deletion-contraction route: each node peels all loops and coloops at once,
T(M) = x^#coloops y^#loops T(M \\ loops / coloops) (Haggard-Pearce-Royle,
"Computing Tutte polynomials", ACM TOMS 2010), then branches on the largest
element of the peeled core. Cores are memoized under Matroid.memo_key(),
which each backing builds from its own data without enumerating bases, and
the number of expanded cores is capped by a node budget. A linear key,
over Q or GF(p), does not change under row operations and column scaling,
so the minors that different paths reach as scaled copies of one matrix
are expanded once (the 6x17 GF(7) benchmark matrix: 1,430 cores, against
2,915 under plain RREF keys; a random 5x14 Q matrix: 514 against 723),
and a linear core's children are row operations on its RREF. A graph's
key is its canonical form up to isomorphism, so isomorphic minors share
one entry, as in Haggard-Pearce-Royle's cache (M(K7): 111 cores, against
884 under labeled keys; M(K8): 233 against 4,434). A budget that an
earlier version exceeded may now suffice, and linear and graphic --cache
directories written before are cold.

check_tutte holds a polynomial to its degree bounds and T(2,2) = 2^#E,
and on a graph to Greene's identity with the weight enumerator of its cut
space, before `tutte` prints it.
"""
from __future__ import annotations

from math import comb

from .errors import InternalInvariantViolation, TooLarge
from .matroids import SUBSET_SUM_LIMIT, Matroid
from .polynomials import BivariatePoly, UnivariatePoly

DEFAULT_DC_NODES = 100_000  # expanded deletion-contraction cores (memo misses)
GREENE_RANK_LIMIT = 18  # check_tutte walks at most 2^18 cuts of a graph


def rank_size_counts(M: Matroid):
    """{(corank, nullity): number of subsets A with r - rk(A) = corank,
    #A - rk(A) = nullity}, over all 2^#E subsets.

    A depth-first walk over subsets in increasing element order, one rank
    push per visited subset. A subset A that spans, reached with m elements
    left to add, is not extended: its 2^m supersets in the walk all have
    rank r, and C(m, j) of them have nullity #A + j - r. The counts must
    add up to 2^#E. On a linear matroid the echelon shares column residuals
    across the walk, one row elimination per (rank-raising node, later
    column): 31,161 on the 6 x 18 Vandermonde matrix, where reducing each
    of the 31,179 pushes from scratch takes 138,057.
    """
    if M.size > SUBSET_SUM_LIMIT:
        raise TooLarge(f"subset sum over {M.size} > {SUBSET_SUM_LIMIT} elements")
    elems = M.elements
    n, r = M.size, M.r
    steps = M.incremental_rank()
    counts = {}
    spanning = {}  # (#A, m) -> number of spanning subsets A reached with m left

    def walk(start, size, rk):
        if rk == r:
            key = (size, n - start)
            spanning[key] = spanning.get(key, 0) + 1
            return
        key = (r - rk, size - rk)
        counts[key] = counts.get(key, 0) + 1
        for i in range(start, n):
            walk(i + 1, size + 1, rk + 1 if steps.push(elems[i]) else rk)
            steps.pop()

    walk(0, 0, 0)
    for (size, m), k in spanning.items():
        for j in range(m + 1):
            key = (0, size + j - r)
            counts[key] = counts.get(key, 0) + k * comb(m, j)
    if sum(counts.values()) != 2**n:
        raise InternalInvariantViolation(
            f"corank-nullity counts add up to {sum(counts.values())}, not 2^{n}"
        )
    return counts


def tutte_from_counts(counts) -> BivariatePoly:
    """Sum of n (x-1)^c (y-1)^nu over rank_size_counts entries, expanded by
    binomials."""
    t = {}
    for (c, nu), n in counts.items():
        for i in range(c + 1):
            ci = comb(c, i) * (-1) ** (c - i)
            for j in range(nu + 1):
                coeff = n * ci * comb(nu, j) * (-1) ** (nu - j)
                if coeff:
                    t[(i, j)] = t.get((i, j), 0) + coeff
    return BivariatePoly(t)


def tutte_sum(M: Matroid) -> BivariatePoly:
    """Tutte polynomial via the corank-nullity sum."""
    return tutte_from_counts(rank_size_counts(M))


class TutteCache:
    """In-memory memo table for tutte_dc keyed by Matroid.memo_key().

    Subclasses may persist entries; see cli.FileTutteCache.
    """

    def __init__(self):
        self._mem = {}

    def get(self, key, matroid=None):
        """The memoized polynomial, or None. `matroid` is the matroid the
        key belongs to, so a persistent subclass can check what it reads."""
        return self._mem.get(key)

    def put(self, key, poly):
        self._mem[key] = poly


def tutte_dc(M: Matroid, cache: TutteCache | None = None, max_nodes=DEFAULT_DC_NODES) -> BivariatePoly:
    """Tutte polynomial by deletion-contraction.

    Every node first peels all its loops and coloops at once,

        T(M) = x^#coloops y^#loops T(M \\ loops / coloops),

    and memoizes the peeled core under core.memo_key(), which equal
    labeled matroids share, and for graphs isomorphic ones (the Tutte
    polynomial is an isomorphism invariant). A nonempty core has
    neither loops nor coloops; it branches on its largest element e, T(core)
    = T(core \\ e) + T(core / e). The choice is fixed, so the recursion tree
    and any persisted cache entries are reproducible. Deleting e from a core
    can make coloops but no loops, and contracting it loops but no coloops,
    so each child looks only for the kind it can have. More than `max_nodes`
    expanded cores (memo misses) raise TooLarge.
    """
    if cache is None:
        cache = TutteCache()
    expanded = 0

    def dc(N, may_loop=True, may_coloop=True):
        nonlocal expanded
        loops = N.loops() if may_loop else frozenset()
        coloops = N.coloops() if may_coloop else frozenset()
        core = N.minor(deleted=loops, contracted=coloops) if loops or coloops else N
        if not core.size:
            return BivariatePoly.monomial(len(coloops), len(loops))
        key = core.memo_key()
        poly = cache.get(key, core)
        if poly is None:
            expanded += 1
            if expanded > max_nodes:
                raise TooLarge(f"deletion-contraction needs more than {max_nodes} nodes (the budget)")
            e = max(core.elements)
            poly = dc(core.delete({e}), may_loop=False) + dc(core.contract({e}), may_coloop=False)
            cache.put(key, poly)
        return poly.shift(len(coloops), len(loops))

    return dc(M)


def check_tutte(M: Matroid, t: BivariatePoly):
    """Check the Tutte polynomial of M before output; a failure raises
    InternalInvariantViolation.

    Every matroid: the x-degree is at most r, the y-degree at most the
    corank, and T(2,2) = 2^#E. A graph of rank r <= GREENE_RANK_LIMIT:
    Greene's theorem (Greene 1976) on its cut space, a binary code of
    length #E and dimension r whose matroid is M,

        A(z) = (1-z)^r z^(#E-r) T((1+z)/(1-z), 1/z)
             = sum of t_ij (1+z)^i (1-z)^(r-i) z^(#E-r-j),

    with the weight enumerator A(z) counted by graphs.cut_weights. A wrong
    coefficient t_ij changes the sum by a nonzero multiple of its term, so
    every single-coefficient error is caught, also one that keeps T(1,1)
    and T(2,2). A larger graph: T(1,1) is its number of spanning forests,
    counted by Kirchhoff's theorem."""
    n, r = M.size, M.r
    if t.degree_x() > r or t.degree_y() > n - r:
        raise InternalInvariantViolation(
            f"Tutte polynomial has degrees ({t.degree_x()}, {t.degree_y()}) "
            f"over rank {r} and corank {n - r}"
        )
    if t.evaluate(2, 2) != 2**n:
        raise InternalInvariantViolation(f"Tutte polynomial has T(2,2) = {t.evaluate(2, 2)} != 2^{n}")
    edges = M.graph_edges()
    if edges is None:
        return
    if r > GREENE_RANK_LIMIT:
        if t.evaluate(1, 1) != M.basis_count():
            raise InternalInvariantViolation(
                f"Tutte polynomial has T(1,1) = {t.evaluate(1, 1)}, not the spanning forest count"
            )
        return
    # (1+z)^i (1-z)^(r-i) for i = 0..r, as coefficient lists
    products = [
        [sum(comb(i, a) * comb(r - i, d - a) * (-1) ** (d - a) for a in range(max(0, d - r + i), min(i, d) + 1))
         for d in range(r + 1)]
        for i in range(r + 1)
    ]
    greene = [0] * (n + 1)
    for (i, j), c in t.terms():
        for d, p in enumerate(products[i], n - r - j):
            greene[d] += c * p
    from .graphs import cut_weights

    cuts = cut_weights(edges)
    if greene != cuts:
        w = next(w for w, (a, b) in enumerate(zip(cuts, greene)) if a != b)
        raise InternalInvariantViolation(
            f"Tutte polynomial fails Greene's identity on the cut space: "
            f"{cuts[w]} cuts of weight {w}, T gives {greene[w]}"
        )


def char_poly(M: Matroid, tutte: BivariatePoly | None = None) -> UnivariatePoly:
    """Characteristic polynomial chi(u) = (-1)^r T(1 - u, 0).

    Identically zero when M has a loop.
    """
    t = tutte if tutte is not None else tutte_sum(M)
    sign = (-1) ** M.r
    out = {}
    for (a, b), c in t.terms():
        if b != 0:
            continue  # y = 0 kills terms with y-degree > 0
        # (1-u)^a = sum_i C(a, i) (-u)^i
        for i in range(a + 1):
            coeff = sign * c * comb(a, i) * (-1) ** i
            out[i] = out.get(i, 0) + coeff
    return UnivariatePoly(out)


def reduced_char_poly(M: Matroid, tutte: BivariatePoly | None = None) -> UnivariatePoly:
    """chi(u) / (u - 1), which is exact because chi(1) = 0.

    A nonzero remainder would mean the division identity broke, which is a
    bug in this package, never a property of the input.
    """
    chi = char_poly(M, tutte)
    q, rem = chi.divmod_linear(1)
    if rem != 0:
        raise InternalInvariantViolation(
            f"characteristic polynomial has chi(1) = {rem} != 0"
        )
    return q


def h_from_counts(counts, size, r) -> BivariatePoly:
    t = {}
    m = size - r
    for (c, nu), n in counts.items():
        # u-exponent is the corank c; the v-exponent #E - #A - c collapses
        # to m - nu because #A = (r - c) + nu.
        key = (c, m - nu)
        t[key] = t.get(key, 0) + n
    return BivariatePoly(t)


def h_from_tutte(tutte: BivariatePoly, size, r) -> BivariatePoly:
    """h(u, v) = v^(#E - r) T(u + 1, 1/v + 1), expanded exactly.

    Each Tutte term x^a y^b contributes C(a,i) C(b,j) u^i v^(m - b + j)
    with m = #E - r; the exponent m - b is nonnegative because y-degree
    in the Tutte polynomial is at most the corank.
    """
    m = size - r
    t = {}
    for (a, b), c in tutte.terms():
        if b > m:
            raise InternalInvariantViolation(
                f"Tutte term y-degree {b} exceeds corank {m}"
            )
        for i in range(a + 1):
            ca = comb(a, i)
            for j in range(b + 1):
                key = (i, m - b + j)
                t[key] = t.get(key, 0) + c * ca * comb(b, j)
    return BivariatePoly(t)


def h_polynomial(M: Matroid) -> BivariatePoly:
    """The lattice-point h polynomial, computed two ways and cross-checked.

    All coefficients are nonnegative (each counts subsets of the ground
    set), h(u, 0) = (u + 1)^(#coloops) and h(0, v) counts spanning subsets
    by the size of their complement; those specializations are exercised in
    tests, the route agreement is enforced here.
    """
    counts = rank_size_counts(M)
    h1 = h_from_counts(counts, M.size, M.r)
    # the same walk feeds route 2 through the Tutte polynomial
    h2 = h_from_tutte(tutte_from_counts(counts), M.size, M.r)
    if h1 != h2:
        raise InternalInvariantViolation(
            "h polynomial routes disagree: "
            f"subset sum {h1!r} vs Tutte substitution {h2!r}"
        )
    if any(c < 0 for _, c in h1.terms()):
        raise InternalInvariantViolation(f"negative h coefficient in {h1!r}")
    return h1


def h_matrix(M: Matroid):
    """h coefficients as a (r+1) x (#E-r+1) row-major table; rows index the
    u-exponent, columns the v-exponent."""
    h = h_polynomial(M)
    return [
        [h.coeff(p, q) for q in range(M.size - M.r + 1)]
        for p in range(M.r + 1)
    ]
