"""Tutte, characteristic, and two-variable h polynomials.

Two routes to the Tutte polynomial are provided and cross-check each other
in tests: a corank-nullity subset sum (tutte_sum) and memoized
deletion-contraction (tutte_dc); both close a structure of rank at most 2
by one formula, _superset_counts. tutte_polynomial, the one place that
picks between them (its docstring gives the rule), gives T to `tutte`,
`hlv`, `charpoly`, the h matrix of `euler-table` and the Orlik-Solomon
Whitney check, held to check_tutte. The h polynomial

    h(u, v) = sum over subsets A of u^(r - rk(A)) * v^(#(E \\ A) - (r - rk(A)))

is that T substituted (h_from_tutte), then held to h(1,1) = 2^#E and to
nonnegative coefficients, since each coefficient counts subsets.

Counting route: the subset sum only needs, for each (corank, nullity)
pair, how many subsets hit it. One depth-first walk over the push/pop rank
oracle, Matroid.incremental_rank(), pushes the subsets of corank at least
3; at each of corank exactly 3 it closes all the children of corank 2 at
once, counting all their supersets by binomials from the parallel classes
of each contraction (rank_size_counts, with matroids.child_class_sizes);
small binomial expansions then turn the counts into polynomials.

Deletion-contraction route (deletion_contraction.py, which tutte_dc loads
at its first call and which also defines TutteCache and the CLI's
FileTutteCache, so a walked command never compiles it): each node peels
all loops and coloops at once,
T(M) = x^#coloops y^#loops T(M \\ loops / coloops) (Haggard-Pearce-Royle,
"Computing Tutte polynomials", ACM TOMS 2010), closes a core of rank at
most 2 by the sizes of its parallel classes, and branches on the largest
element of any other core. Those cores are memoized under
Matroid.memo_key(), blind to row operations and column scaling over Q and
GF(p) and, for a graph, to isomorphism, so scaled copies and isomorphic
minors are expanded once. The closed form leaves every other key as it
was, so --cache directories written before stay warm.

check_tutte holds a polynomial to its degree bounds and T(2,2) = 2^#E,
and on a graph to Greene's identity with the weight enumerator of its cut
space, before `tutte` prints it, before tutte_polynomial returns it and
before FileTutteCache uses an entry read from disk.
"""
from __future__ import annotations

from math import comb

from .errors import InternalInvariantViolation, TooLarge, require_int
from .matroids import Matroid, RollbackUnionFind, child_class_sizes, parallel_classes, require_matroid
from .polynomials import BivariatePoly, UnivariatePoly

DEFAULT_DC_NODES = 100_000  # expanded deletion-contraction cores (memo misses)
SUBSET_SUM_LIMIT = 24  # elements the subset walk takes at most
GREENE_RANK_LIMIT = 18  # check_tutte walks at most 2^18 cuts of a graph
# tutte_polynomial's route rule; its docstring gives the measurements
WALK_BOUND_LIMIT = 2**12  # walk_bound above which a graph or uniform matroid takes DC
WALK_CAP_FACTOR = 16  # the walk hands over to DC past this many times walk_bound nodes


def __getattr__(name):
    if name == "TutteCache":  # beside tutte_dc in deletion_contraction.py (PEP 562)
        from .deletion_contraction import TutteCache

        return TutteCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def walk_bound(n, r):
    """B(n, r) = sum of C(n, k) for k = 0..r-2 (1 when r <= 2): the nodes
    rank_size_counts charges on a matroid of rank r on n elements in which
    every set of at most r - 2 elements is independent, since the walk
    closes each subset of corank at most 2 that it meets and goes no
    further."""
    return sum(comb(n, k) for k in range(max(r - 1, 1)))


def rank_size_counts(M: Matroid, max_nodes=None):
    """{(corank, nullity): number of subsets A with r - rk(A) = corank,
    #A - rk(A) = nullity}, over all 2^#E subsets.

    A depth-first walk over subsets in increasing element order, one rank
    push per subset of corank at least 3, that closes each subset A of
    corank c <= 2 it meets. The contraction M/A on the m elements left to
    add has rank at most c, so its parallel classes fix the rank of every
    set J of them: with h of the m in cl(A) and classes of sizes p_i,
    C(h, j) of the j-sets have rank 0, sum C(h + p_i, j) - C(h, j) rank 1
    and the rest of C(m, j) rank 2 (_superset_counts). The walk meets such
    an A only as the root (r <= 2), closed by matroids.parallel_classes, or
    as a child A + e of a node A of corank 3, whose children are closed at
    once by matroids.child_class_sizes: for each later e, None when e lies
    in cl(A), and the child, still of corank 3, is walked with no push of
    e, which would change no answer of the oracle; otherwise the class
    sizes of M/(A + e) on the elements after e. An echelon reads them off
    cross products of its residuals; any other oracle pushes e and takes
    parallel_classes, which a union-find or a uniform oracle reads off its
    state. The counts must add up to 2^#E, which holds for any classes,
    and each must be positive at a feasible corank (0 to r) and nullity
    (0 to #E - r), which wrong classes can break; classes that are wrong
    but keep every count feasible pass both checks.

    Each closed child is charged as a node, as when the walk pushed it: the
    6 x 18 Vandermonde matrix takes 4,048 nodes, the GF(7) benchmark matrix
    3,241 and M(K7) 10,927, against walk_bound's 4,048, 3,214 and 7,547; a
    walk that would charge more than `max_nodes` nodes raises TooLarge.
    The Vandermonde matrix takes 987 pushes (4,047 when the walk pushed to
    corank 2, 31,179 to corank 1) and the GF(7) matrix 839 (3,240 and
    22,733); M(K7) takes the 10,926 pushes it took at corank 2 (160,758 at
    corank 1). On a linear matroid the echelon shares column residuals
    across the walk, one row elimination per (rank-raising node, later
    column), and closes the children of a node of corank 3 by one cross
    product per pair of later columns: 4,029 eliminations and 8,568 cross
    products on the Vandermonde matrix (12,597 eliminations at corank 2,
    31,161 at corank 1, 138,057 when each push reduces from scratch). The
    walk takes 18 ms in process on the Vandermonde matrix and 14 ms on the
    GF(7) one, against 35 and 26 ms when it pushed to corank 2 (medians,
    2 cores, Python 3.11.7). A matrix with more rows than its rank is
    walked on its columns cut to a row basis, so it too has 3 free
    coordinates at corank 3: the Vandermonde matrix with a seventh row, the
    sum of two others, takes the same 987 pushes and 16 ms (4,047 pushes
    and 33 ms when its echelon kept all seven rows and closed by pushes).
    """
    require_matroid(M)
    if max_nodes is not None:
        require_int(max_nodes, "max_nodes")
    if M.size > SUBSET_SUM_LIMIT:
        raise TooLarge(f"subset sum over {M.size} > {SUBSET_SUM_LIMIT} elements")
    elems = M.elements
    n, r = M.size, M.r
    steps = M.incremental_rank()
    counts = {}
    tails = {}  # (corank, nullity, m, sorted class sizes) of a node of corank <= 2 -> nodes
    left = max_nodes if max_nodes is not None else 2**n
    too_long = f"subset walk visits more than {max_nodes} nodes"

    def walk(start, size, rk):
        nonlocal left
        left -= 1
        if left < 0:
            raise TooLarge(too_long)
        if rk >= r - 2:
            rest = elems[start:]
            sizes = tuple(sorted(map(len, parallel_classes(steps, rest))))
            key = (r - rk, size - rk, len(rest), sizes)
            tails[key] = tails.get(key, 0) + 1
            return
        key = (r - rk, size - rk)
        counts[key] = counts.get(key, 0) + 1
        if rk == r - 3:
            nu = size - rk
            for i, sizes in enumerate(child_class_sizes(steps, elems[start:]), start + 1):
                if sizes is None:  # e in cl(A): pushing it would change no answer below
                    walk(i, size + 1, rk)
                else:
                    key = (2, nu, n - i, sizes)
                    tails[key] = tails.get(key, 0) + 1
                    left -= 1
            if left < 0:
                raise TooLarge(too_long)
            return
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
    ways, rank 1 in sum C(h + p, j) - C(h, j) ways, and rank 2 otherwise.
    No key repeats within one call, so the pairs make a dict; a count of 0
    (at corank -1 when c = 1, say) expands to nothing in tutte_from_counts.
    With A empty (c = r, nu = 0, m = #E) they are all the counts of a
    matroid of rank at most 2, which is how tutte_dc closes such a core."""
    h = m - sum(sizes)
    for j in range(m + 1):
        none = comb(h, j)
        one = sum(comb(h + p, j) for p in sizes) - len(sizes) * none
        yield (c, nu + j), none
        yield (c - 1, nu + j - 1), one
        yield (c - 2, nu + j - 2), comb(m, j) - none - one


def _shift(terms, a, b):
    """{(i, j): coefficient of x^i y^j} of the sum of c (x + a)^p (y + b)^q
    over the terms ((p, q), c), expanded by binomials: the one change of
    variables behind T, h, chi and Greene's sum."""
    out = {}
    for (p, q), c in terms:
        for i in range(p + 1):
            ci = c * comb(p, i) * a ** (p - i)
            for j in range(q + 1):
                out[i, j] = out.get((i, j), 0) + ci * comb(q, j) * b ** (q - j)
    return out


def tutte_from_counts(counts) -> BivariatePoly:
    """Sum of n (x-1)^c (y-1)^nu over rank_size_counts entries."""
    return BivariatePoly(_shift(counts.items(), -1, -1))


def tutte_sum(M: Matroid, max_nodes=None) -> BivariatePoly:
    """Tutte polynomial via the corank-nullity sum, its walk capped at
    `max_nodes` nodes like rank_size_counts."""
    return tutte_from_counts(rank_size_counts(M, max_nodes=max_nodes))


def tutte_dc(M: Matroid, cache=None, max_nodes=DEFAULT_DC_NODES) -> BivariatePoly:
    """Tutte polynomial by deletion-contraction, memoized in `cache` (a
    TutteCache) and capped at `max_nodes` expanded cores: see
    deletion_contraction.tutte_dc, which this loads at its first call."""
    require_matroid(M)
    require_int(max_nodes, "max_nodes")
    from .deletion_contraction import tutte_dc

    return tutte_dc(M, cache, max_nodes)


def _class_outgrows_cap(N: Matroid, cap):
    """Whether the walk on the loopless N surely passes `cap` nodes: at
    rank r >= 4 a subset of one parallel class has corank r - 1 > 2, so the
    walk visits all 2^p subsets of a class of p elements. A class has rank
    1, so p <= #E - r + 1, and the classes are read only when 2^(#E - r + 1)
    passes the cap (on none of the benchmark inputs)."""
    return N.r >= 4 and 2 ** (N.size - N.r + 1) > cap and 2 ** max(map(len, N.parallel_classes())) > cap


def tutte_polynomial(M: Matroid, max_nodes=DEFAULT_DC_NODES, cache=None) -> BivariatePoly:
    """T by the route that the walk's length picks, held to check_tutte:
    the one route rule behind `tutte`, h_polynomial, h_matrix and
    char_poly. `max_nodes` is the budget of tutte_dc, if it runs, and
    `cache` a TutteCache for its memo (`tutte --cache` passes a
    FileTutteCache).

    First the loops of M are deleted, T(M) = y^#loops T(M \\ loops), and
    the rule reads what is left. With a cache it runs tutte_dc, whose memo
    the cache holds and the walk would neither read nor fill; the loops
    are those tutte_dc's root would peel, so every core, memo key and cache
    entry is that of tutte_dc on M. Without one, up to SUBSET_SUM_LIMIT
    elements, tutte_sum runs on a matrix, a basis list or a derived rank
    function (Matroid.kind) whatever the walk bound B = walk_bound(#E, r),
    and on a graph or a uniform matroid when B is at most WALK_BOUND_LIMIT,
    under a cap of WALK_CAP_FACTOR * B nodes; a walk that passes the cap,
    and every other input, goes to tutte_dc. In process (best of 9, or of
    3 for U(8,16) and 1 for its DC and for the dual of M(K7); 2 cores,
    Python 3.11.7), walk against DC, each run on the whole input:

        input                      #E   r        B     walk       DC
        seeded GF(7) 6x17          17   6    3,214   13.1 ms  73.2 ms
        random Q 6x18              18   6    4,048   20.6 ms   159 ms
        random Q 7x18              18   7   12,616   54.8 ms   337 ms
        Q Vandermonde 6x18         18   6    4,048   16.6 ms   8.8 ms
        M(K6)                      15   5      576    2.4 ms   4.7 ms
        M(K7) minus a triangle     18   6    4,048   17.5 ms  10.9 ms
        M(K7)                      21   6    7,547   40.1 ms  14.2 ms
        Petersen graph             15   9   16,384   34.7 ms   9.8 ms
        U(10,20)                   20  10  263,950    338 ms   4.7 ms
        8 parallel pairs, bases    16   8   14,893   66.2 ms   215 ms
        U(8,16) as bases (*)       16   8   14,893    306 ms    101 s
        U(7,8) + 10 loops, bases   18   7   12,616    184 ms   1.1 ms (+)
        dual of M(K6), derived     15  10   22,819    232 ms   387 ms
        dual of M(K7), derived     21  15    1.9 M   25.4 s   25.2 s

    (*) 12,870 bases, built past from_bases's validation limit.
    (+) with its loops on, the walk charges 13.2 B nodes; tutte_polynomial
        walks the 8-element core (B = 219) and takes 0.3 ms.

    A matrix, a basis list and a derived rank function walk at any B
    because their memo keys merge few minors (a matrix's those equal up to
    row operations and column scaling, the others' equal labeled ones), so
    DC expands nearly every core: the walk wins on all of them but the
    Vandermonde matrix, whose contractions are column-scaled Vandermonde
    matrices that its keys merge, and ties on the dual of M(K7). A graph's
    key merges isomorphic minors and a uniform key every minor of one
    shape, so DC wins on them at large B; on graphs the routes cross
    between B = 576 and B = 4,048. The walk charges at most
    2.4 B nodes on the corpus, the benchmark inputs and the loopless inputs
    above (M(K7) 1.45 B, a parallel-rich Q 4x12 matrix 1.8 B, the 8
    parallel pairs 2.33 B), so the cap stops only walks that large parallel
    classes blow up: on C5 with one edge made 20 parallel ones, B is 301
    but the walk would meet all 2^20 subsets of that class. Such a walk is
    not started (_class_outgrows_cap): that graph and the Q matrix of 20
    copies of e1 with e2, e3, e4 and their sum took 27.5 and 31.1 ms end to
    end when they walked to the cap first, and 19.4 and 20.7 ms by DC alone.
    """
    require_matroid(M)
    require_int(max_nodes, "max_nodes")
    loops = M.loops()
    N = M.delete(loops) if loops else M
    t = None
    if cache is None and N.size <= SUBSET_SUM_LIMIT:
        bound = walk_bound(N.size, N.r)
        cap = WALK_CAP_FACTOR * bound
        walks = N.kind not in ("graphic", "uniform") or bound <= WALK_BOUND_LIMIT
        if walks and not _class_outgrows_cap(N, cap):
            try:
                t = tutte_sum(N, max_nodes=cap)
            except TooLarge:  # the walk outgrew its cap
                pass
    if t is None:
        t = tutte_dc(N, cache, max_nodes=max_nodes)
    t = t.shift(0, len(loops))
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

    with the weight enumerator A(z) counted by cut_weights. A wrong
    coefficient t_ij changes the sum by a nonzero multiple of its term, so
    every single-coefficient error is caught, also one that keeps T(1,1)
    and T(2,2). A larger graph: T(1,1) is its number of spanning forests,
    M.basis_count(), Kirchhoff's count on each block."""
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
    # T(1 + X, 1 + Y) = sum of k X^c Y^nu; at X = 2z/(1-z) and Y = (1-z)/z
    # each term gives k 2^c z^(#E-r+c-nu) (1-z)^(r-c+nu)
    greene = [0] * (n + 1)
    for (c, nu), k in _shift(t.terms(), 1, 1).items():
        e = r - c + nu
        for l in range(e + 1):
            greene[n - e + l] += k * 2**c * comb(e, l) * (-1) ** l
    cuts = cut_weights(edges)
    if greene != cuts:
        w = next(w for w, (a, b) in enumerate(zip(cuts, greene)) if a != b)
        raise InternalInvariantViolation(
            f"Tutte polynomial fails Greene's identity on the cut space: "
            f"{cuts[w]} cuts of weight {w}, T gives {greene[w]}"
        )


def cut_weights(edges):
    """counts[w]: how many cuts of weight w a multigraph with these (u, v)
    edges has, a cut being a vector of its GF(2) cut space (the row space
    of its incidence matrix): the edges with ends on two sides of a split
    of the vertices. One vertex per component stays on side 0, so each of
    the 2^r cuts is met once, in a Gray-code walk that moves one vertex
    across per step and updates the weight from that vertex's edges, read
    as bit masks of neighbours per multiplicity. Loops lie in no cut."""
    index = {}
    for u, v in edges:
        index.setdefault(u, len(index))
        index.setdefault(v, len(index))
    mult = {}
    for u, v in edges:
        a, b = sorted((index[u], index[v]))
        if a != b:
            mult[a, b] = mult.get((a, b), 0) + 1
    forest = RollbackUnionFind(dict(enumerate(mult)))
    for e in forest.edges:
        forest.push(e)
    masks = [{} for _ in index]  # vertex -> {multiplicity: neighbours}
    for (a, b), m in mult.items():
        masks[a][m] = masks[a].get(m, 0) | 1 << b
        masks[b][m] = masks[b].get(m, 0) | 1 << a
    moves = [(1 << v, [(m, nb, nb.bit_count()) for m, nb in masks[v].items()])
             for v in range(len(index)) if forest.find(v) != v]
    counts = [0] * (len(edges) + 1)
    counts[0] = 1
    side = weight = 0
    for step in range(1, 1 << len(moves)):
        bit, groups = moves[(step & -step).bit_length() - 1]
        same = side if side & bit else ~side
        for m, nb, degree in groups:
            weight += m * (2 * (nb & same).bit_count() - degree)
        side ^= bit
        counts[weight] += 1
    return counts


def char_poly(M: Matroid, tutte: BivariatePoly | None = None) -> UnivariatePoly:
    """Characteristic polynomial chi(u) = (-1)^r T(1 - u, 0), with T from
    tutte_polynomial unless `tutte` is given.

    Identically zero when M has a loop.
    """
    require_matroid(M)
    t = tutte if tutte is not None else tutte_polynomial(M)
    # y = 0 kills the terms of positive y-degree; T(1 + w, 0) at w = -u
    shifted = _shift(((key, c) for key, c in t.terms() if key[1] == 0), 1, 0)
    return UnivariatePoly({i: (-1) ** (M.r + i) * c for (i, _), c in shifted.items()})


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


def h_from_tutte(tutte: BivariatePoly, size, r) -> BivariatePoly:
    """h(u, v) = v^(#E - r) T(u + 1, 1/v + 1), expanded exactly.

    T(u + 1, w + 1) holds w^j for j at most the y-degree of T, and
    v^(#E - r) w^j = v^(m - j) with m = #E - r, nonnegative because the
    y-degree of the Tutte polynomial is at most the corank.
    """
    m = size - r
    terms = tutte.terms()
    for (_, b), _ in terms:
        if b > m:
            raise InternalInvariantViolation(
                f"Tutte term y-degree {b} exceeds corank {m}"
            )
    return BivariatePoly({(i, m - j): c for (i, j), c in _shift(terms, 1, 1).items()})


def h_polynomial(M: Matroid) -> BivariatePoly:
    """The lattice-point h polynomial, h_from_tutte of tutte_polynomial(M).

    Each coefficient counts subsets of the ground set, so h(1,1) must be
    2^#E and no coefficient may be negative; either failure raises
    InternalInvariantViolation. The specializations
    h(u, 0) = (u + 1)^(#coloops) and h(0, v), which counts spanning subsets
    by the size of their complement, are exercised in tests.
    """
    h = h_from_tutte(tutte_polynomial(M), M.size, M.r)
    if h.evaluate(1, 1) != 2**M.size:
        raise InternalInvariantViolation(f"h polynomial has h(1,1) = {h.evaluate(1, 1)} != 2^{M.size}")
    if any(c < 0 for _, c in h.terms()):
        raise InternalInvariantViolation(f"negative h coefficient in {h!r}")
    return h


def h_matrix(M: Matroid):
    """h coefficients as a (r+1) x (#E-r+1) row-major table; rows index the
    u-exponent, columns the v-exponent."""
    h = h_polynomial(M)
    return [
        [h.coeff(p, q) for q in range(M.size - M.r + 1)]
        for p in range(M.r + 1)
    ]
