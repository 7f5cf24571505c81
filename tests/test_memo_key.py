"""Matroid.memo_key(), the deletion-contraction memo key.

The key is built from each backing's own data (uniform rank, the canonical
edge list of a multigraph, RREF rows in their normal form under row and
column scaling) and only has to be sound: equal keys must mean equal
labeled matroids, or for graphs isomorphic ones, and keys of different
kinds must never meet. Generated matrices over GF(2), GF(3), GF(5), GF(7)
and Q, multigraphs with loops, parallel edges and string vertices, and
their minors check that, and that deletion-contraction on them agrees with
the corank-nullity sum. A linear key must not change under row operations
and column scaling, and a graphic key not under renaming vertices and
reordering edges.
"""
import hashlib
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import (
    CORPUS,
    QQ,
    PrimeField,
    TooLarge,
    corpus_matroid,
    from_bases,
    from_graph,
    from_matrix,
    tutte_dc,
    tutte_sum,
    uniform,
)
from matroid_workbench.linalg import _scaling_normal_form

from helpers import (
    GF7_6X17,
    PETERSEN,
    brute_isomorphism,
    fraction_scaling_normal_form,
    labeled_graph_dc,
    rref_dual,
    rref_memo_key,
    rref_minor,
    rref_minor_rows,
)


def key_kind(M):
    """Uniform, graphic and linear backings key themselves; explicit bases
    and derived minors and duals share the canonical key."""
    kind = M._backing.kind
    return kind if kind in ("uniform", "graphic", "linear") else "canonical"


vertex = st.sampled_from([0, 1, 2, 3, "a", "b"])
uniforms = st.integers(1, 6).flatmap(lambda n: st.integers(0, n).map(lambda r: uniform(r, n)))


@st.composite
def twins(draw):
    """A generated matrix (over GF(2), GF(3), GF(5), GF(7) or Q) or
    multigraph, and the same with its columns or edges in a drawn order:
    isomorphic, but often another labeled matroid. A uniform matroid comes
    with itself. GF(5) and GF(7) have scalars other than 1 and -1, so their
    minors reached along different paths differ by scaling and exercise
    the merges of the scaling normal form."""
    shape = draw(st.sampled_from(["GF(2)", "GF(3)", "GF(5)", "GF(7)", "Q", "graph", "uniform"]))
    if shape == "uniform":
        M = draw(uniforms)
        return M, M
    if shape == "graph":
        items = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
        build = from_graph
    else:
        entry = st.integers(0, 6)
        if shape == "Q":
            entry = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-2/3", "3/4"]))
        rows = draw(st.integers(1, 3))
        items = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows), min_size=1, max_size=6))

        def build(columns):
            return from_matrix(shape, [list(row) for row in zip(*columns)])

    return build(items), build(draw(st.permutations(items)))


matroids = twins().map(lambda pair: pair[0])


@st.composite
def matroid_families(draw):
    """Both twins and some of their minors M \\ D / C, next to M \\ C / D
    (same ground set, often the same rank, but another matroid); the first
    twin's minor is also reached one element at a time in a drawn order (the
    same matroid, so equal keys occur)."""
    M, twin = draw(twins())
    family = [M, twin]
    for _ in range(draw(st.integers(1, 4))):
        roles = draw(st.lists(st.sampled_from("dck"), min_size=M.size, max_size=M.size))
        dset = [e for e, x in zip(M.elements, roles) if x == "d"]
        cset = [e for e, x in zip(M.elements, roles) if x == "c"]
        for N in (M, twin):
            family.append(N.minor(deleted=dset, contracted=cset))
            family.append(N.minor(deleted=cset, contracted=dset))
        steps = draw(st.permutations([("d", e) for e in dset] + [("c", e) for e in cset]))
        N = M
        for how, e in steps:
            N = N.delete({e}) if how == "d" else N.contract({e})
        family.append(N)
    return family


@settings(max_examples=150, deadline=None)
@given(matroid_families())
def test_equal_memo_keys_mean_equal_matroids(family):
    """Equal keys mean equal labeled matroids, except that a graph's key
    forgets its labels: equal graphic keys mean isomorphic matroids."""
    for A, B in combinations(family, 2):
        if A.memo_key() == B.memo_key():
            if key_kind(A) == "graphic":
                assert brute_isomorphism(A, B) is not None, (A, B)
            else:
                assert A.canonical_key() == B.canonical_key(), (A, B)


@settings(max_examples=150, deadline=None)
@given(st.lists(matroids, min_size=1, max_size=3))
def test_memo_keys_of_different_kinds_never_meet(ms):
    """Each matroid comes with its dual (derived for a graph) and its basis
    list, so one labeled matroid meets itself under another kind."""
    keyed = [N for M in ms for N in (M, M.dual(), from_bases(M.size, M.bases()))]
    for A, B in combinations(keyed, 2):
        if key_kind(A) != key_kind(B):
            assert A.memo_key() != B.memo_key(), (A, B)


@settings(max_examples=60, deadline=None)
@given(matroid_families())
def test_dc_matches_subset_sum_on_generated_minors(family):
    for M in family:
        assert tutte_dc(M) == tutte_sum(M), M


def test_one_matroid_in_every_backing_gets_distinct_keys():
    """U(2,3) presented five ways: equal canonical keys, pairwise different
    memo keys (explicit bases and derived minors share the canonical key)."""
    presentations = [
        uniform(2, 3),
        from_matrix("Q", [[1, 0, 1], [0, 1, 1]]),
        from_matrix("GF(3)", [[1, 0, 1], [0, 1, 1]]),
        from_graph([(0, 1), (1, 2), (0, 2)]),
        from_bases(3, [(0, 1), (0, 2), (1, 2)]),
    ]
    assert len({M.canonical_key() for M in presentations}) == 1
    keys = [M.memo_key() for M in presentations]
    assert len(set(keys)) == len(keys)
    assert keys[-1] == presentations[-1].canonical_key()
    assert [k[:6] for k in keys[:4]] == [b"mw2:u:", b"mw3:l:", b"mw3:l:", b"mw3:g:"]


def test_graph_key_ignores_vertex_names():
    a = from_graph([("x", "y"), ("y", "z"), ("z", "x"), ("x", "x")])
    b = from_graph([(5, 7), (7, 0), (0, 5), (5, 5)])
    assert a.memo_key() == b.memo_key()


def test_memo_key_enumerates_no_bases():
    for M in (uniform(10, 20), from_graph(list(combinations(range(7), 2))),
              from_matrix("GF(7)", [[1, 2, 3, 4, 5, 6, 0, 1], [0, 1, 2, 3, 4, 5, 6, 1]])):
        M.memo_key()
        assert M._bases is None, M


def test_dc_on_uniform_10_20_is_fast():
    start = time.perf_counter()
    t = tutte_dc(uniform(10, 20))
    assert time.perf_counter() - start < 1
    assert t.evaluate(1, 1) == 184_756  # C(20, 10) bases


def monic_rows(N):
    """A linear matroid's stored RREF rows over its field, each divided by
    its pivot entry."""
    F = N._backing.field
    return [[F.mul(F.inv(F.of(row[j])), F.of(x)) for x in row] for j, row in N._backing.rows]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Q", 2, 3, 5, 7]), st.data())
def test_gfp_minor_keys_match_the_rref_minor(p, data):
    """Minors by row operations on the RREF, and minors of those minors,
    over Q and GF(p): their rows, divided by their pivots, are the dense
    RREF of the same minor of the input matrix, and their keys equal the
    keys of the dense route's minors (which over Q store its columns
    rescaled to coprime integers)."""
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 7))
    if p == "Q":
        field, entry = "Q", st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "5/4"]))
    else:
        field, entry = PrimeField(p), st.integers(0, p - 1)
    row = st.lists(entry, min_size=cols, max_size=cols)
    M = from_matrix(field, data.draw(st.lists(row, min_size=rows, max_size=rows)))
    N, R, deleted, contracted = M, M, set(), set()
    for _ in range(2):
        roles = data.draw(st.lists(st.sampled_from("dck"), min_size=N.size, max_size=N.size))
        dset = [e for e, x in zip(N.elements, roles) if x == "d"]
        cset = [e for e, x in zip(N.elements, roles) if x == "c"]
        deleted, contracted = deleted | set(dset), contracted | set(cset)
        N, R = N.minor(deleted=dset, contracted=cset), rref_minor(R, dset, cset)
        assert (list(N.elements), monic_rows(N)) == rref_minor_rows(M, deleted, contracted)
        assert N.memo_key() == R.memo_key() == rref_memo_key(R)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(7)", "GF(101)"]), st.data())
def test_linear_keys_and_duals_match_the_rref_route(field, data):
    """Keys written from the stored RREF rows equal keys written from the
    dense RREF over the field (each normalized under scaling by its own
    code), and duals read off those rows are the duals from a dense kernel
    basis up to column scaling: the same keys, and over GF(p), where
    neither route rescales a column, the same rows; for Q matrices with a/b
    entries and GF(p) matrices, their minors, and the duals of both."""
    if field == "Q":
        entry = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "3/4", "5/6"]))
    else:
        entry = st.integers(0, int(field[3:-1]) - 1)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 7))
    M = from_matrix(field, data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                              min_size=rows, max_size=rows)))
    roles = data.draw(st.lists(st.sampled_from("dck"), min_size=M.size, max_size=M.size))
    N = M.minor(deleted=[e for e, x in zip(M.elements, roles) if x == "d"],
                contracted=[e for e, x in zip(M.elements, roles) if x == "c"])
    for X in (M, N, M.dual()):
        D, R = X.dual(), rref_dual(X)
        assert D.memo_key() == R.memo_key(), X
        if field != "Q":
            assert D._backing.rows == R._backing.rows, X
        for Y in (X, D):
            assert Y.memo_key() == rref_memo_key(Y), Y


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Q", 3, 5, 7, 101]), st.data())
def test_gfp_keys_ignore_row_operations_and_column_scaling(p, data):
    """G A D, for an invertible G (unit lower triangular times upper
    triangular with a nonzero diagonal) and a nonzero diagonal D, gets the
    key of A, over GF(p) and over Q (where D holds fractions)."""
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 7))
    if p == "Q":
        field, entry, unit = "Q", st.integers(-3, 3), st.sampled_from([1, -1, 2, -3])
        scalar = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), 3, -1])
    else:
        field, entry, unit = PrimeField(p), st.integers(0, p - 1), st.integers(1, p - 1)
        scalar = unit
    A = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    L = [[1 if i == j else data.draw(entry) if j < i else 0 for j in range(rows)] for i in range(rows)]
    U = [[data.draw(unit) if i == j else data.draw(entry) if j > i else 0 for j in range(rows)]
         for i in range(rows)]
    d = data.draw(st.lists(scalar, min_size=cols, max_size=cols))

    def times(X, Y):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

    # from_matrix reduces GF(p) entries itself
    B = [[x * d[j] for j, x in enumerate(row)] for row in times(times(L, U), A)]
    M, N = from_matrix(field, A), from_matrix(field, B)
    assert N.memo_key() == M.memo_key() == rref_memo_key(M), (A, B)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_equal_gfp_keys_on_one_support_mean_equal_matroids(p, data):
    """Matrices [I | X] and [I | Y] whose blocks X and Y are nonzero at the
    same places: the scaling normal form keeps the entries off the spanning
    forest, so two such matrices share a key only when they are one labeled
    matroid."""
    rows = data.draw(st.integers(2, 3))
    cols = data.draw(st.integers(2, 4))
    support = data.draw(st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows))
    unit = st.integers(1, p - 1)
    X, Y = ([[data.draw(unit) if s else 0 for s in row] for row in support] for _ in range(2))
    M, N = (from_matrix(PrimeField(p), [[int(i == j) for j in range(rows)] + row for i, row in enumerate(Z)])
            for Z in (X, Y))
    if M.memo_key() == N.memo_key():
        assert M.canonical_key() == N.canonical_key(), (X, Y)


# a 5x14 Q matrix of rank 5, entries drawn by random.Random(3).randint(-3, 3)
Q_5X14 = [
    [-2, 1, 1, -2, -1, 1, 0, 2, 1, -3, 1, -3, 3, 0],
    [-1, 1, -2, -2, 2, 0, 1, 3, 1, 0, 0, 2, 3, -2],
    [-2, 2, -2, 3, 1, 0, 2, -3, 2, 3, -3, -2, 3, 1],
    [-3, -1, 3, -3, 3, 3, -1, 0, 1, 2, 0, 2, 3, 0],
    [0, 2, 3, 1, 0, -2, -1, -3, -3, -2, 0, -2, -1, 2],
]


def test_gfp_dc_expands_each_scaling_class_once():
    """Deletion-contraction reaches many minors as scaled copies of one
    matrix; with one key per scaling class, and cores of rank at most 2
    closed by their parallel classes, it expands exactly the listed number
    of cores and agrees with the subset sum: on GF7_6X17 620 (1,430 with
    no closed form, 2,915 under plain RREF keys), on the 6 x 18 Vandermonde
    matrix over Q 48 (72), and on Q_5X14 167 (514, and 723 under plain RREF
    keys)."""
    vandermonde = [[x**i for x in range(18)] for i in range(6)]
    for field, matrix, cores in (("GF(7)", GF7_6X17, 620), ("Q", vandermonde, 48), ("Q", Q_5X14, 167)):
        M = from_matrix(field, matrix)
        assert tutte_dc(M, max_nodes=cores) == tutte_sum(M), field
        with pytest.raises(TooLarge):
            tutte_dc(M, max_nodes=cores - 1)


@st.composite
def integer_rref_rows(draw):
    """(pivot, row) pairs of integers shaped as an RREF in the integer
    convention: each row zero before its pivot and at the other pivots,
    nonzero at its own, with small and large entries of either sign."""
    n = draw(st.integers(1, 8))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=5)))
    entry = st.one_of(st.integers(-6, 6), st.integers(-10**12, 10**12))
    rows = []
    for j in pivots:
        row = [0] * n
        row[j] = draw(entry.filter(bool))
        for f in range(j + 1, n):
            if f not in pivots:
                row[f] = draw(entry)
        rows.append((j, row))
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_rref_rows())
def test_q_normal_form_on_integer_pairs_prints_the_fraction_form(rows):
    """Over Q the scaling normal form runs on (numerator, denominator)
    pairs and prints each entry as str(Fraction) prints it, fractional
    and negative ones included: the Fraction route's strings exactly."""
    assert _scaling_normal_form(QQ, rows) == fraction_scaling_normal_form(rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_memo_keys_equal_the_fraction_route(data):
    """The memo key of a Q matrix with fractional and negative entries, of
    its dual and of a minor, byte for byte as the Fraction route writes it."""
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-9, 9), st.sampled_from(["1/2", "-2/3", "5/4", "-7/6", "9/10"]))
    A = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    M = from_matrix("Q", A)
    deleted = data.draw(st.sets(st.sampled_from(M.elements), max_size=2))
    contracted = data.draw(st.sets(st.sampled_from(M.elements), max_size=2)) - deleted
    for N in (M, M.dual(), M.minor(deleted=deleted, contracted=contracted)):
        if N._backing.kind != "linear":
            continue
        payload = (N.elements, ("Q", fraction_scaling_normal_form(N._backing.rows)))
        assert N.memo_key() == b"mw3:l:" + repr(payload).encode(), A


# sha256 over the memo keys of every corpus matroid, its dual, and its minor
# that deletes the first element and contracts the last; `--cache` file
# names are the sha256 of these keys, so a change here makes caches cold
# (graphic keys went to "mw3:g:" canonical edge lists; the other 40 keys
# stayed byte for byte)
CORPUS_KEY_DIGEST = "f61ab58f5b91e5eb402349d78ca993ce4df67ffcd0dc25cf07a41abf16af6bd0"


def test_corpus_memo_keys_are_frozen():
    digest = hashlib.sha256()
    for entry in CORPUS:
        M = corpus_matroid(entry["name"])
        for N in (M, M.dual(), M.minor(deleted={M.elements[0]}, contracted={M.elements[-1]})):
            digest.update(N.memo_key() + b"\n")
    assert digest.hexdigest() == CORPUS_KEY_DIGEST


# -------------------------------------------------------------- graphic keys


names = st.sampled_from([0, 1, 2, 3, 4, "0", "a", "b", "x", "y"])


@st.composite
def renamed_graphs(draw):
    """A multigraph (loops, parallel edges, vertices named by ints and
    strings) and the same graph with its vertices renamed injectively, its
    edges in a drawn order and each edge's ends drawn either way round."""
    edges = draw(st.lists(st.tuples(names, names), min_size=1, max_size=16))
    vertices = sorted({v for e in edges for v in e}, key=repr)
    image = draw(st.lists(names, min_size=len(vertices), max_size=len(vertices), unique=True))
    rename = dict(zip(vertices, image))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    moved = [(rename[v], rename[u]) if flip else (rename[u], rename[v]) for (u, v), flip in zip(edges, flips)]
    return edges, draw(st.permutations(moved))


@settings(max_examples=300, deadline=None)
@given(renamed_graphs())
def test_graph_keys_ignore_vertex_names_and_edge_order(pair):
    a, b = (from_graph(edges) for edges in pair)
    assert a.memo_key() == b.memo_key(), pair


def test_graph_keys_take_the_least_leaf():
    """A graph whose search tree has leaves that no automorphism relates,
    so a key read off the first leaf would depend on the order in which
    the vertices first appear."""
    edges = [(0, 3), (1, 4), (5, 6), (2, 1), (3, 6), (1, 6), (3, 4), (2, 0), (0, 6), (2, 3), (4, 6)]
    key = from_graph(edges).memo_key()
    for k in range(len(edges)):
        for order in (edges[k:] + edges[:k], edges[k::-1] + edges[:k:-1]):
            assert from_graph(order).memo_key() == key, order


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7), min_size=2, max_size=6))
def test_equal_graph_keys_mean_isomorphic_matroids(graphs):
    """Graphs of up to 7 edges (on vertices 0..3, "a", "b") with equal keys
    are isomorphic matroids: some bijection of the edges maps bases onto
    bases. Small random graphs meet equal keys often."""
    ms = [from_graph(g) for g in graphs]
    for A, B in combinations(ms, 2):
        if A.memo_key() == B.memo_key():
            assert brute_isomorphism(A, B) is not None, (A, B)


def test_graph_keys_tell_apart_graphs_that_refinement_does_not():
    """Colour refinement alone cannot split a regular graph's vertices;
    the keys still separate two triangles from a hexagon, and the prism
    from K3,3, and still merge every drawing of each."""
    two_triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    prism = two_triangles + [(0, 3), (1, 4), (2, 5)]
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    keys = [from_graph(g).memo_key() for g in (two_triangles, hexagon, prism, k33)]
    assert len(set(keys)) == 4
    swap = {0: 3, 1: 5, 2: 1, 3: 0, 4: 4, 5: 2}
    for g, key in zip((two_triangles, hexagon, prism, k33), keys):
        assert from_graph([(swap[u], swap[v]) for u, v in reversed(g)]).memo_key() == key


def test_graphic_dc_expands_each_isomorphism_class_once():
    """M(K7) expands 81 cores and M(K8) 187 (111 and 233 with no closed
    form for cores of rank at most 2, 884 and 4,434 under labeled keys);
    one node less raises TooLarge."""
    for n, cores in ((7, 81), (8, 187)):
        M = from_graph(list(combinations(range(n), 2)))
        t = tutte_dc(M, max_nodes=cores)
        assert t.evaluate(1, 1) == n ** (n - 2)  # Cayley
        with pytest.raises(TooLarge):
            tutte_dc(M, max_nodes=cores - 1)


def grid(k):
    """The k x k grid, edges from each vertex in lexicographic order."""
    return [((i, j), w) for i in range(k) for j in range(k)
            for w in ((i + 1, j), (i, j + 1)) if max(w) < k]


def cube():
    """Q3 on 0/1 triples, edges from each vertex in lexicographic order."""
    vs = list(product((0, 1), repeat=3))
    return [(v, v[:a] + (1,) + v[a + 1:]) for v in vs for a in range(3) if not v[a]]


SYMMETRIC = {
    "petersen": PETERSEN,
    "q3": cube(),
    "k4,4": [(a, b) for a in range(4) for b in range(4, 8)],
    "w9": [(0, i) for i in range(1, 9)] + sorted((min(i, i % 8 + 1), max(i, i % 8 + 1)) for i in range(1, 9)),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_dc_matches_subset_sum_on_symmetric_graphs(name):
    """Sparse graphs with large automorphism groups, where the canonical
    form branches most: the Petersen graph, the cube Q3, K4,4 and the
    wheel W9 (a hub on an 8-cycle)."""
    M = from_graph(SYMMETRIC[name])
    assert tutte_dc(M) == tutte_sum(M)


def test_dc_on_the_4x4_grid_matches_labeled_keys():
    """The 4 x 4 grid has 24 edges, so its subset sum walks millions of
    subsets; deletion-contraction under labeled keys is the oracle. It
    expands 117 cores (120 with no closed form for cores of rank at most
    2, 193 under labeled keys), has 100,352 spanning trees,
    and T(2, 2) = 2^24."""
    M = from_graph(grid(4))
    t = tutte_dc(M, max_nodes=117)
    assert t == labeled_graph_dc(M)
    assert (t.evaluate(1, 1), t.evaluate(2, 2)) == (100_352, 2**24)
    with pytest.raises(TooLarge):
        tutte_dc(M, max_nodes=116)
