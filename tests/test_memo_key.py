"""Matroid.memo_key(), the deletion-contraction memo key.

The key is built from each backing's own data (uniform rank, relabelled
edge list, RREF rows) and only has to be sound: equal keys must mean equal
labeled matroids, and keys of different kinds must never meet. Generated
matrices over GF(2), GF(3) and Q, multigraphs with loops, parallel edges and
string vertices, and their minors check that, and that deletion-contraction
on them agrees with the corank-nullity sum.
"""
import hashlib
import time
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import (
    CORPUS,
    PrimeField,
    corpus_matroid,
    from_bases,
    from_graph,
    from_matrix,
    tutte_dc,
    tutte_sum,
    uniform,
)

from helpers import rref_dual, rref_memo_key, rref_minor


def key_kind(M):
    """Uniform, graphic and linear backings key themselves; explicit bases
    and derived minors and duals share the canonical key."""
    kind = M._backing.kind
    return kind if kind in ("uniform", "graphic", "linear") else "canonical"


vertex = st.sampled_from([0, 1, 2, 3, "a", "b"])
uniforms = st.integers(1, 6).flatmap(lambda n: st.integers(0, n).map(lambda r: uniform(r, n)))


@st.composite
def twins(draw):
    """A generated matrix (over GF(2), GF(3) or Q) or multigraph, and the
    same with its columns or edges in a drawn order: isomorphic, but often
    another labeled matroid. A uniform matroid comes with itself."""
    shape = draw(st.sampled_from(["GF(2)", "GF(3)", "Q", "graph", "uniform"]))
    if shape == "uniform":
        M = draw(uniforms)
        return M, M
    if shape == "graph":
        items = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
        build = from_graph
    else:
        entry = st.integers(0, 5)
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
    for A, B in combinations(family, 2):
        if A.memo_key() == B.memo_key():
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
    assert [k[:6] for k in keys[:4]] == [b"mw2:u:", b"mw2:l:", b"mw2:l:", b"mw2:g:"]


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_gfp_minor_keys_match_the_rref_minor(p, data):
    """Residual columns span the same row space as the RREF minor, so the
    keys of GF(p) minors, and of their minors, equal the dense route's."""
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 7))
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    M = from_matrix(PrimeField(p), data.draw(st.lists(row, min_size=rows, max_size=rows)))
    N, R = M, M
    for _ in range(2):
        roles = data.draw(st.lists(st.sampled_from("dck"), min_size=N.size, max_size=N.size))
        dset = [e for e, x in zip(N.elements, roles) if x == "d"]
        cset = [e for e, x in zip(N.elements, roles) if x == "c"]
        N, R = N.minor(deleted=dset, contracted=cset), rref_minor(R, dset, cset)
        assert N.memo_key() == R.memo_key()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(7)", "GF(101)"]), st.data())
def test_linear_keys_and_duals_match_the_rref_route(field, data):
    """Keys written from the echelon's reduced rows equal keys written from
    the dense RREF over the field, and duals read off those rows store the
    same columns as duals from a dense kernel basis: for Q matrices with
    a/b entries and GF(p) matrices, their minors, and the duals of both."""
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
        assert D._backing.columns == R._backing.columns, X
        for Y in (X, D):
            assert Y.memo_key() == rref_memo_key(Y), Y


# sha256 over the memo keys of every corpus matroid, its dual, and its minor
# that deletes the first element and contracts the last; `--cache` file
# names are the sha256 of these keys, so a change here makes caches cold
CORPUS_KEY_DIGEST = "3b04d7c23f1711a1de99e80db0ff3e3158719e6f1facc101f9c2bf4a1652e5dc"


def test_corpus_memo_keys_are_frozen():
    digest = hashlib.sha256()
    for entry in CORPUS:
        M = corpus_matroid(entry["name"])
        for N in (M, M.dual(), M.minor(deleted={M.elements[0]}, contracted={M.elements[-1]})):
            digest.update(N.memo_key() + b"\n")
    assert digest.hexdigest() == CORPUS_KEY_DIGEST
