"""Tutte, characteristic, and two-variable h polynomials.

Two independent routes to the Tutte polynomial are provided and cross-check
each other in tests: a corank-nullity subset sum (tutte_sum) and memoized
deletion-contraction (tutte_dc). tutte_polynomial chooses between them for
char_poly, and so for `charpoly` and the Orlik-Solomon Whitney check: the
sum up to SUBSET_SUM_LIMIT elements, where it is the faster (in process,
20 against 41 ms on the 6x17 GF(7) benchmark matrix and 0.7 against 21 ms
on U(5,10) given by its bases), and deletion-contraction above that, held
to check_tutte. The h polynomial

    h(u, v) = sum over subsets A of u^(r - rk(A)) * v^(#(E \\ A) - (r - rk(A)))

is computed both from that subset sum and by substituting into the Tutte
polynomial; the two must agree exactly or InternalInvariantViolation flies.

Counting route: the subset sum only needs, for each (corank, nullity)
pair, how many subsets hit it. One depth-first walk over the push/pop rank
oracle, Matroid.incremental_rank(), stops at each subset of corank at most
2 and counts all its supersets by binomials from the parallel classes of
the contraction (rank_size_counts); small binomial expansions then turn
the counts into polynomials.

Deletion-contraction route: each node peels all loops and coloops at once,
T(M) = x^#coloops y^#loops T(M \\ loops / coloops) (Haggard-Pearce-Royle,
"Computing Tutte polynomials", ACM TOMS 2010), closes a core of rank at
most 2 by the sizes of its parallel classes, and branches on the largest
element of any other core. Those cores are memoized under
Matroid.memo_key(), blind to row operations and column scaling over Q and
GF(p) and, for a graph, to isomorphism, so scaled copies and isomorphic
minors are expanded once (tutte_dc). The closed form leaves every other
key as it was, so --cache directories written before stay warm.

check_tutte holds a polynomial to its degree bounds and T(2,2) = 2^#E,
and on a graph to Greene's identity with the weight enumerator of its cut
space, before `tutte` prints it.
"""
from __future__ import annotations

from math import comb

from .errors import InternalInvariantViolation, TooLarge
from .matroids import SUBSET_SUM_LIMIT, Matroid, parallel_classes
from .polynomials import BivariatePoly, UnivariatePoly

DEFAULT_DC_NODES = 100_000  # expanded deletion-contraction cores (memo misses)
GREENE_RANK_LIMIT = 18  # check_tutte walks at most 2^18 cuts of a graph


def rank_size_counts(M: Matroid):
    """{(corank, nullity): number of subsets A with r - rk(A) = corank,
    #A - rk(A) = nullity}, over all 2^#E subsets.

    A depth-first walk over subsets in increasing element order, one rank
    push per visited subset, that stops at the first subset A of corank
    c <= 2 (the root, when r <= 2). The contraction M/A on the m elements
    left to add has rank at most c, so its parallel classes fix the rank of
    every set J of them: with h of the m in cl(A) and classes of sizes p_i,
    C(h, j) of the j-sets have rank 0, sum C(h + p_i, j) - C(h, j) rank 1
    and the rest of C(m, j) rank 2 (_superset_counts). The classes come
    from matroids.parallel_classes, which an echelon or a union-find reads
    off its state with no push. The counts must add up to 2^#E, which holds
    for any classes, and each must be positive at a feasible corank (0 to
    r) and nullity (0 to #E - r), which wrong classes can break; classes
    that are wrong but keep every count feasible pass both checks. The
    6 x 18 Vandermonde matrix takes 4,047 pushes (31,179 when the walk
    stopped at corank 1), the GF(7) benchmark matrix 3,240 (22,733) and
    M(K7) 10,926 (160,758). On a linear matroid the echelon
    shares column residuals across the walk, one row elimination per
    (rank-raising node, later column): 12,597 on the Vandermonde matrix
    (31,161 at corank 1; 138,057 when each push reduces from scratch). It
    keeps each residual on the coordinates that are not yet pivots, so a
    node of corank 2 in a rank-6 walk groups 2-entry vectors: the walk takes
    17 ms in process on the Vandermonde matrix and 13 ms on the GF(7) one
    (23 and 16 ms on residuals of full length; medians, 2 cores, Python
    3.11.7).
    """
    if M.size > SUBSET_SUM_LIMIT:
        raise TooLarge(f"subset sum over {M.size} > {SUBSET_SUM_LIMIT} elements")
    elems = M.elements
    n, r = M.size, M.r
    steps = M.incremental_rank()
    counts = {}
    tails = {}  # (corank, nullity, m, sorted class sizes) of a node of corank <= 2 -> nodes

    def walk(start, size, rk):
        if rk >= r - 2:
            rest = elems[start:]
            sizes = tuple(sorted(map(len, parallel_classes(steps, rest))))
            key = (r - rk, size - rk, len(rest), sizes)
            tails[key] = tails.get(key, 0) + 1
            return
        key = (r - rk, size - rk)
        counts[key] = counts.get(key, 0) + 1
        for i in range(start, n):
            walk(i + 1, size + 1, rk + 1 if steps.push(elems[i]) else rk)
            steps.pop()

    walk(0, 0, 0)
    for (c, nu, m, sizes), k in tails.items():
        for key, count in _superset_counts(c, nu, m, sizes):
            if count:
                counts[key] = counts.get(key, 0) + k * count
    if sum(counts.values()) != 2**n:
        raise InternalInvariantViolation(
            f"corank-nullity counts add up to {sum(counts.values())}, not 2^{n}"
        )
    for (c, nu), count in counts.items():
        if count <= 0 or not (0 <= c <= r and 0 <= nu <= n - r):
            raise InternalInvariantViolation(
                f"impossible corank-nullity count {count} at corank {c}, nullity {nu} (r = {r}, #E = {n})"
            )
    return counts


def _superset_counts(c, nu, m, sizes):
    """((corank, nullity), count) over the supersets A + J of a subset A of
    corank c <= 2 and nullity nu, J among the m later elements, of which
    m - sum(sizes) lie in cl(A) and the others in parallel classes of M/A
    of the given sizes. A set J of j elements has rank 0 in M/A in C(h, j)
    ways, rank 1 in sum C(h + p, j) - C(h, j) ways, and rank 2 otherwise."""
    h = m - sum(sizes)
    for j in range(m + 1):
        none = comb(h, j)
        one = sum(comb(h + p, j) for p in sizes) - len(sizes) * none
        yield (c, nu + j), none
        yield (c - 1, nu + j - 1), one
        yield (c - 2, nu + j - 2), comb(m, j) - none - one


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


def _small_core_tutte(r, sizes) -> BivariatePoly:
    """T of a loopless, coloop-free matroid of rank r <= 2 whose parallel
    classes have the given sizes, with S(p) = 1 + y + ... + y^(p-1):
    x + S(n) - 1 in rank 1, and in rank 2 the corank-nullity sum grouped by
    closure (the empty set, one class, spanning sets),

        (x-1)^2 + (x-1) sum S(p_i) + (S(n) - sum S(p_i)) / (y-1),

    where the division is exact because the numerator vanishes at y = 1."""
    n = sum(sizes)
    if r == 1:
        return BivariatePoly({(1, 0): 1, **{(0, j): 1 for j in range(1, n)}})
    within = [sum(p > j for p in sizes) for j in range(n)]  # coefficients of sum S(p_i)
    q, rem = UnivariatePoly({j: 1 - w for j, w in enumerate(within)}).divmod_linear(1)
    if rem:
        raise InternalInvariantViolation(f"rank-2 Tutte numerator is {rem} at y = 1, not 0")
    t = {(2, 0): 1, (1, 0): -2, (0, 0): 1}
    for j, w in enumerate(within):
        t[1, j] = t.get((1, j), 0) + w
        t[0, j] = t.get((0, j), 0) - w + q.coeff(j)
    return BivariatePoly(t)


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

        T(M) = x^#coloops y^#loops T(M \\ loops / coloops).

    The peeled core, if nonempty, has neither loops nor coloops. A core of
    rank at most 2 takes its polynomial from the sizes of its parallel
    classes (_small_core_tutte, memoized by rank and sorted sizes for this
    call), with no memo key, no `cache` call and no count against
    `max_nodes`. Any other core is memoized under core.memo_key(), which
    equal labeled matroids share, and for graphs isomorphic ones (the Tutte
    polynomial is an isomorphism invariant), and branches on its largest
    element e, T(core) = T(core \\ e) + T(core / e). The choice is fixed,
    so the recursion tree and any persisted cache entries are reproducible.
    Deleting e from a core can make coloops but no loops, and contracting
    it loops but no coloops, so each child looks only for the kind it can
    have. More than `max_nodes` expanded cores (memo misses) raise
    TooLarge: 620 on the 6x17 GF(7) benchmark matrix, 48 on the 6 x 18
    Vandermonde matrix over Q, 80 on U(10,20), 81 on M(K7) and 187 on M(K8).
    """
    if cache is None:
        cache = TutteCache()
    expanded = 0
    small = {}  # (rank, sorted parallel-class sizes) -> T of a core of rank <= 2

    def dc(N, may_loop=True, may_coloop=True):
        nonlocal expanded
        loops = N.loops() if may_loop else frozenset()
        coloops = N.coloops() if may_coloop else frozenset()
        core = N.minor(deleted=loops, contracted=coloops) if loops or coloops else N
        if not core.size:
            return BivariatePoly.monomial(len(coloops), len(loops))
        if core.r <= 2:
            shape = (core.r, tuple(sorted(map(len, core.parallel_classes()))))
            if shape not in small:
                small[shape] = _small_core_tutte(*shape)
            return small[shape].shift(len(coloops), len(loops))
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


def tutte_polynomial(M: Matroid) -> BivariatePoly:
    """T by tutte_sum up to SUBSET_SUM_LIMIT elements, and above that by
    tutte_dc held to check_tutte: the route behind char_poly."""
    if M.size <= SUBSET_SUM_LIMIT:
        return tutte_sum(M)
    t = tutte_dc(M)
    check_tutte(M, t)
    return t


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
    t = tutte if tutte is not None else tutte_polynomial(M)
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
