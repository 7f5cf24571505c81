import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matroid_workbench import (
    BivariatePoly,
    InternalInvariantViolation,
    TooLarge,
    char_poly,
    from_bases,
    from_graph,
    from_matrix,
    h_matrix,
    h_polynomial,
    rank_size_counts,
    reduced_char_poly,
    tutte_dc,
    tutte_sum,
    uniform,
)
from matroid_workbench import tutte
from matroid_workbench.tutte import TutteCache, check_tutte, cut_weights

from helpers import (
    GF7_6X17,
    PETERSEN,
    VAMOS_BASES,
    brute_dual_h,
    brute_h,
    brute_tutte,
    bin_power,
    matrices_and_graphs,
    powerset,
    spanning_poly,
    swap_xy,
    upoly,
)


def bp(terms):
    return BivariatePoly(terms)


FROZEN_TUTTE = {
    # independently recomputed by direct corank-nullity enumeration
    "u_1_2": bp({(1, 0): 1, (0, 1): 1}),
    "u_2_3": bp({(2, 0): 1, (1, 0): 1, (0, 1): 1}),
    "u_2_4": bp({(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1}),
    "k4": bp(
        {
            (3, 0): 1,
            (2, 0): 3,
            (1, 0): 2,
            (1, 1): 4,
            (0, 1): 2,
            (0, 2): 3,
            (0, 3): 1,
        }
    ),
    "fano": bp(
        {
            (3, 0): 1,
            (2, 0): 4,
            (1, 1): 7,
            (1, 0): 3,
            (0, 4): 1,
            (0, 3): 3,
            (0, 2): 6,
            (0, 1): 3,
        }
    ),
    "u_3_6": bp(
        {
            (3, 0): 1,
            (2, 0): 3,
            (1, 0): 6,
            (0, 1): 6,
            (0, 2): 3,
            (0, 3): 1,
        }
    ),
}

FROZEN_CHARPOLY = {
    "u_1_2": upoly(1, -1),
    "u_2_3": upoly(1, -3, 2),
    "u_2_4": upoly(1, -4, 3),
    "pg_1_4": upoly(1, -5, 4),
    "k4": upoly(1, -6, 11, -6),
    "fano": upoly(1, -7, 14, -8),
    "u_3_6": upoly(1, -6, 15, -10),
}

FROZEN_REDUCED = {
    "u_1_2": upoly(1),
    "u_2_3": upoly(1, -2),
    "k4": upoly(1, -5, 6),
    "fano": upoly(1, -6, 8),
    "u_3_6": upoly(1, -5, 10),
}

FROZEN_H = {
    "u_1_2": bp({(1, 1): 1, (0, 1): 2, (0, 0): 1}),
    "u_2_3": bp({(2, 1): 1, (1, 1): 3, (0, 1): 3, (0, 0): 1}),
    "u_2_4": bp({(2, 2): 1, (1, 2): 4, (0, 2): 6, (0, 1): 4, (0, 0): 1}),
    "k4": bp(
        {
            (3, 3): 1,
            (2, 3): 6,
            (1, 3): 15,
            (1, 2): 4,
            (0, 3): 16,
            (0, 2): 15,
            (0, 1): 6,
            (0, 0): 1,
        }
    ),
    "fano": bp(
        {
            (3, 4): 1,
            (2, 4): 7,
            (1, 4): 21,
            (1, 3): 7,
            (0, 4): 28,
            (0, 3): 35,
            (0, 2): 21,
            (0, 1): 7,
            (0, 0): 1,
        }
    ),
}


def test_frozen_tutte_values(corpus_by_name):
    for name, expected in FROZEN_TUTTE.items():
        M = corpus_by_name[name]
        assert tutte_sum(M) == expected, name
        assert tutte_dc(M) == expected, name


def test_tutte_routes_and_brute_force_agree(corpus_by_name):
    for name, M in corpus_by_name.items():
        t = tutte_sum(M)
        assert t == tutte_dc(M), name
        assert t == brute_tutte(M), name


def test_tutte_at_one_one_counts_bases(corpus_by_name):
    for name, M in corpus_by_name.items():
        assert tutte_sum(M).evaluate(1, 1) == len(M.bases(limit=0)), name


def test_tutte_at_two_two_counts_subsets(corpus_by_name):
    for name, M in corpus_by_name.items():
        assert tutte_sum(M).evaluate(2, 2) == 2**M.size, name


def test_tutte_dual_swaps_variables(corpus_by_name):
    for name, M in corpus_by_name.items():
        assert tutte_sum(M.dual()) == swap_xy(tutte_sum(M)), name


def test_deletion_contraction_identity(corpus_by_name):
    for name in ("u_2_4", "k4", "fano"):
        M = corpus_by_name[name]
        coloops = M.coloops()
        for e in M.elements:
            if M.rank({e}) == 0 or e in coloops:
                continue
            lhs = tutte_sum(M)
            rhs = tutte_sum(M.delete({e})) + tutte_sum(M.contract({e}))
            assert lhs == rhs, (name, e)


def test_tutte_cache_reuse(corpus_by_name):
    cache = TutteCache()
    M = corpus_by_name["fano"]
    first = tutte_dc(M, cache=cache)
    assert cache.get(M.memo_key()) == first
    # a second run over a shared cache returns the identical polynomial
    assert tutte_dc(M, cache=cache) == first
    assert tutte_dc(corpus_by_name["k4"], cache=cache) == FROZEN_TUTTE["k4"]


def _complete_graph(n):
    return from_graph(list(combinations(range(n), 2)))


def _random_q(rows, cols, seed):
    rng = random.Random(seed)
    return from_matrix("Q", [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])


# C5 with one edge replaced by 20 parallel copies, and the Q matrix of 20
# copies of e1 with e2, e3, e4 and e1 + e2 + e3 + e4: walk bounds of 301,
# but the walk would meet the 2^20 subsets of the parallel class
FAT_GRAPH = [(0, 1)] * 20 + [(1, 2), (2, 3), (3, 4), (4, 0)]
FAT_Q = [[1] * 20 + [0, 0, 0, 1], [0] * 20 + [1, 0, 0, 1], [0] * 20 + [0, 1, 0, 1], [0] * 20 + [0, 0, 1, 1]]

ROUTE_INPUTS = {
    # a matrix, a basis list, or a graph whose walk bound is at most 2^12
    "GF(7) 6x17": (lambda: from_matrix("GF(7)", GF7_6X17), ["walk"]),
    "Q Vandermonde 6x18": (lambda: from_matrix("Q", [[x**i for x in range(18)] for i in range(6)]), ["walk"]),
    "U(5,10) as bases": (lambda: from_bases(10, list(combinations(range(10), 5))), ["walk"]),
    "M(K6)": (lambda: _complete_graph(6), ["walk"]),
    # walk bounds above 2^12, walked because the input is a matrix, a basis
    # list or a derived rank function (a graph's dual)
    "random Q 7x18": (lambda: _random_q(7, 18, 1), ["walk"]),
    "8 parallel pairs as bases": (lambda: from_bases(16, [
        [2 * i + bit for i, bit in enumerate(bits)] for bits in product((0, 1), repeat=8)
    ]), ["walk"]),
    "M(K6) dual": (lambda: _complete_graph(6).dual(), ["walk"]),
    # graphs and uniform matroids with walk bounds above 2^12, and 28 elements
    "M(K7)": (lambda: _complete_graph(7), ["dc"]),
    "Petersen": (lambda: from_graph(PETERSEN), ["dc"]),
    "U(10,20)": (lambda: uniform(10, 20), ["dc"]),
    "M(K8)": (lambda: _complete_graph(8), ["dc"]),
    # a parallel class of 20 elements alone would make the walk pass its
    # cap (2^20 > 16 * 301), so the walk is not started
    "fat graph": (lambda: from_graph(FAT_GRAPH), ["dc"]),
    "fat Q matrix": (lambda: from_matrix("Q", FAT_Q), ["dc"]),
    # the loops are deleted before the rule reads the walk bound: the
    # 8-element core walks within walk_bound(8, 7) = 219 nodes
    "U(7,8) + 10 loops as bases": (lambda: from_bases(18, list(combinations(range(8), 7))), ["walk"]),
}


def _spy_routes(monkeypatch):
    """The routes tutte_polynomial calls, in order, as "walk" and "dc"."""
    calls = []
    for name, route in (("tutte_sum", "walk"), ("tutte_dc", "dc")):
        def spy(*args, _f=getattr(tutte, name), _route=route, **kwargs):
            calls.append(_route)
            return _f(*args, **kwargs)

        monkeypatch.setattr(tutte, name, spy)
    return calls


@pytest.mark.parametrize("name", list(ROUTE_INPUTS))
def test_route_rule_reads_the_walk_bound(name, monkeypatch):
    """tutte_polynomial walks a matrix or a basis list of up to 24
    elements whatever its walk bound, and a graph or a uniform matroid
    only when the bound is at most WALK_BOUND_LIMIT; a walk that passes
    WALK_CAP_FACTOR times its bound hands over to deletion-contraction.
    Either way T equals tutte_dc's."""
    make, want = ROUTE_INPUTS[name]
    M = make()
    expected = tutte_dc(M)
    calls = _spy_routes(monkeypatch)
    assert tutte.tutte_polynomial(M) == expected
    assert calls == want


@pytest.mark.parametrize("name", ["8 parallel pairs as bases", "GF(7) 6x17", "M(K6)"])
def test_a_walk_past_its_cap_hands_over_to_deletion_contraction(name, monkeypatch):
    """With WALK_CAP_FACTOR lowered to 1 the walk starts on these inputs,
    whose parallel classes have at most 2 elements, and passes walk_bound
    nodes (the 8 parallel pairs visit 2.33 times it, the GF(7) matrix
    3,241 nodes against 3,214), so it hands over to deletion-contraction,
    which gives T."""
    M = ROUTE_INPUTS[name][0]()
    expected = tutte_dc(M)
    monkeypatch.setattr(tutte, "WALK_CAP_FACTOR", 1)
    calls = _spy_routes(monkeypatch)
    assert tutte.tutte_polynomial(M) == expected
    assert calls == ["walk", "dc"]


LOOPY_INPUTS = {
    # (matroid, size of its loopless core)
    "U(7,8) + 10 loops as bases": (lambda: from_bases(18, list(combinations(range(8), 7))), 8),
    "GF(3) matrix with zero columns": (
        lambda: from_matrix("GF(3)", [[1, 0, 2, 0, 1, 1], [0, 0, 1, 0, 2, 1], [2, 0, 0, 0, 1, 0]]), 4),
    "multigraph with self-loops": (
        lambda: from_graph([(0, 0), (0, 1), (1, 2), (2, 2), (0, 2), (0, 1), (1, 1)]), 4),
}


@pytest.mark.parametrize("name", list(LOOPY_INPUTS))
def test_the_walk_never_sees_a_loop(name, monkeypatch):
    """tutte_polynomial deletes the loops of its input before it routes,
    T(M) = y^#loops T(M \\ loops), so the subset walk runs once, on the
    loopless core and within that core's walk bound, and the T it gives
    is tutte_dc's."""
    make, core_size = LOOPY_INPUTS[name]
    M = make()
    assert M.loops()
    expected = tutte_dc(M)
    walked = []

    def spy(N, max_nodes=None):
        walked.append((N.size, N.loops()))
        return rank_size_counts(N, max_nodes=tutte.walk_bound(N.size, N.r))

    calls = _spy_routes(monkeypatch)
    monkeypatch.setattr(tutte, "rank_size_counts", spy)
    assert tutte.tutte_polynomial(M) == expected
    assert calls == ["walk"]
    assert walked == [(core_size, frozenset())]


@pytest.mark.parametrize(
    "name", ["M(K4)", "GF(7) 6x17", "U(5,10) as bases", "M(K6)", "U(7,8) + 10 loops as bases"])
def test_a_cache_keeps_the_route_rule_on_deletion_contraction(name, monkeypatch):
    """Given a cache, tutte_polynomial never walks, even on inputs that it
    walks without one: it runs tutte_dc, whose memo the cache holds, and
    returns the walked T."""
    M = _complete_graph(4) if name == "M(K4)" else ROUTE_INPUTS[name][0]()
    calls = _spy_routes(monkeypatch)
    walked = tutte.tutte_polynomial(M)
    assert calls == ["walk"]
    cache = CountingCache()
    assert tutte.tutte_polynomial(M, cache=cache) == walked
    assert calls == ["walk", "dc"] and ("put", None) in cache.calls


def test_walk_bound_counts_the_nodes_of_a_walk_in_general_position():
    """In U(r, n) every set of at most r - 2 elements is independent, so
    the walk visits exactly walk_bound(n, r) nodes: one node fewer raises
    TooLarge."""
    for r, n in ((0, 3), (1, 4), (2, 5), (3, 6), (5, 10), (6, 12)):
        M = uniform(r, n)
        bound = tutte.walk_bound(n, r)
        assert bound == max(1, sum(comb(n, k) for k in range(r - 1)))
        assert tutte_sum(M, max_nodes=bound) == tutte_dc(M)
        with pytest.raises(TooLarge):
            tutte_sum(M, max_nodes=bound - 1)
    assert tutte.walk_bound(17, 6) == 3_214 and tutte.walk_bound(18, 6) == 4_048
    assert tutte.walk_bound(18, 7) == 12_616 > tutte.WALK_BOUND_LIMIT  # the random Q 7x18 route input


@settings(max_examples=120, deadline=None)
@given(matrices_and_graphs())
def test_route_rule_gives_t_at_any_bound_limit_and_cap(M):
    """With the bound limit and the cap factor both 0 (every walk hands
    over at its first node), at their defaults, and huge (every input of
    up to 24 elements walks to the end), tutte_polynomial is the
    brute-force T."""
    want = brute_tutte(M)
    for setting in (0, None, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            if setting is not None:
                mp.setattr(tutte, "WALK_BOUND_LIMIT", setting)
                mp.setattr(tutte, "WALK_CAP_FACTOR", setting)
            calls = _spy_routes(mp)
            assert tutte.tutte_polynomial(M) == want, (M, setting)
        if setting == 0:
            assert calls[-1] == "dc"
        elif setting:
            assert calls == ["walk"]


def test_vamos_matroid_by_deletion_contraction():
    """A matroid with no field: its minors are derived rank functions, keyed
    by their basis lists, and its rank-2 cores close by pushed parallel
    classes; deletion-contraction, the subset walk and rank calls on every
    subset agree."""
    V = from_bases(8, VAMOS_BASES)
    assert len(VAMOS_BASES) == 65 and V.r == 4
    expected = bp({(4, 0): 1, (3, 0): 4, (2, 0): 10, (1, 0): 15, (1, 1): 5,
                   (0, 1): 15, (0, 2): 10, (0, 3): 4, (0, 4): 1})
    cache = TutteCache()
    assert tutte_dc(V, cache) == tutte_sum(V) == brute_tutte(V) == expected
    assert cache._mem and all(key.startswith(b"mw1:") for key in cache._mem)
    assert expected.evaluate(1, 1) == 65 and expected.evaluate(2, 2) == 2**8


@st.composite
def small_rank_cores(draw):
    """A loopless, coloop-free matroid of rank 1 or 2 on every backing: the
    peeled core of a matrix with two rows over GF(2), GF(3), GF(7) or Q, of
    a triangle with parallel edges and loops, or of U(1, n) or U(2, n); as
    it is, as a basis list, as a derived minor of that list, or as its
    double dual (derived for a graph)."""
    kind = draw(st.sampled_from(["GF(2)", "GF(3)", "GF(7)", "Q", "graph", "uniform"]))
    if kind == "graph":
        counts = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
        pairs = [(0, 1), (1, 2), (0, 2), (1, 1)]
        M = from_graph(draw(st.permutations([uv for uv, k in zip(pairs, counts) for _ in range(k)])))
    elif kind == "uniform":
        n = draw(st.integers(2, 8))
        M = uniform(draw(st.integers(1, min(2, n - 1))), n)
    else:
        entry = st.integers(0, 6) if kind != "Q" else st.sampled_from([0, 1, -1, 2, "1/2", "-3/2"])
        cols = draw(st.integers(1, 8))
        M = from_matrix(kind, draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=2, max_size=2)))
    core = M.minor(deleted=M.loops(), contracted=M.coloops())
    assume(core.size)
    how = draw(st.sampled_from(["native", "bases", "derived minor", "double dual"]))
    if how in ("bases", "derived minor"):
        index = {e: i for i, e in enumerate(core.elements)}
        core = from_bases(core.size, [[index[e] for e in b] for b in core.bases()])
        if how == "derived minor":
            core = core.minor()
    elif how == "double dual":
        core = core.dual().dual()
    return core


@settings(max_examples=200, deadline=None)
@given(small_rank_cores())
def test_closed_form_matches_the_subset_sum_on_rank_two_cores(core):
    """Parallel classes match the pairs of rank 1, and tutte_dc, which
    closes such a core by _superset_counts, matches the brute-force sum
    over all subsets."""
    assert 1 <= core.r <= 2 and not core.loops() and not core.coloops()
    classes = core.parallel_classes()
    assert sorted(e for c in classes for e in c) == list(core.elements)
    assert all((core.rank({e, f}) == 1) == any({e, f} <= set(c) for c in classes)
               for e, f in combinations(core.elements, 2))
    assert tutte_dc(core) == brute_tutte(core)


def test_closed_form_on_one_parallel_class():
    """U(1, n) is a single class: x + y + ... + y^(n-1)."""
    for n in range(2, 6):
        assert tutte_dc(uniform(1, n)) == bp({(1, 0): 1, **{(0, j): 1 for j in range(1, n)}})


class CountingCache(TutteCache):
    def __init__(self):
        super().__init__()
        self.calls = []

    def get(self, key, matroid=None):
        self.calls.append(("get", matroid.r))
        return super().get(key, matroid)

    def put(self, key, poly):
        self.calls.append(("put", None))
        super().put(key, poly)


def test_closed_form_cores_make_no_cache_calls():
    """Only cores of rank 3 and more are looked up; a warm run reads the
    top core and writes nothing."""
    k7 = from_graph(list(combinations(range(7), 2)))
    cache = CountingCache()
    t = tutte_dc(k7, cache)
    assert all(r > 2 for how, r in cache.calls if how == "get")
    assert sum(how == "put" for how, _ in cache.calls) == 81
    cache.calls.clear()
    assert tutte_dc(k7, cache) == t and cache.calls == [("get", 6)]
    small = CountingCache()
    assert tutte_dc(uniform(2, 5), small) == tutte_sum(uniform(2, 5)) and small.calls == []


def test_rank_size_counts_sum(corpus_by_name):
    M = corpus_by_name["k4"]
    counts = rank_size_counts(M)
    assert sum(counts.values()) == 2**M.size
    # spot value: 4 three-element circuits => 16 bases among C(6,3)=20 triples
    assert counts[(0, 0)] == 16  # corank 0, nullity 0


def test_rank_size_counts_too_large():
    with pytest.raises(TooLarge):
        rank_size_counts(uniform(2, 25))


# ------------------------------------------------------- characteristic polys


def test_frozen_charpolys(corpus_by_name):
    for name, expected in FROZEN_CHARPOLY.items():
        assert char_poly(corpus_by_name[name]) == expected, name


def test_frozen_reduced_charpolys(corpus_by_name):
    for name, expected in FROZEN_REDUCED.items():
        assert reduced_char_poly(corpus_by_name[name]) == expected, name


def test_boolean_charpoly_is_power_of_u_minus_one(corpus_by_name):
    for n in (1, 2, 3, 4):
        M = corpus_by_name[f"boolean_n{n}"]
        assert char_poly(M) == bin_power(1, -1, M.size)
        assert reduced_char_poly(M) == bin_power(1, -1, M.size - 1)


def test_charpoly_vanishes_at_one_for_loopless(corpus_by_name):
    for name, M in corpus_by_name.items():
        assert char_poly(M).evaluate(1) == 0, name


def test_charpoly_zero_with_loops():
    M = from_graph([[0, 0], [0, 1]])
    assert char_poly(M).is_zero()
    # 0 = (u - 1) * 0 exactly, so the reduced polynomial is zero too
    assert reduced_char_poly(M).is_zero()


# -------------------------------------------------------------- h polynomials


def test_frozen_h_values(corpus_by_name):
    for name, expected in FROZEN_H.items():
        assert h_polynomial(corpus_by_name[name]) == expected, name


def test_h_matches_brute_subset_sum(corpus_by_name):
    for name, M in corpus_by_name.items():
        assert h_polynomial(M) == brute_h(M), name


def test_h_coefficients_nonnegative(corpus_by_name):
    for name, M in corpus_by_name.items():
        assert all(c > 0 for _, c in h_polynomial(M).terms()), name


def test_h_at_u_zero_counts_spanning_subsets(corpus_by_name):
    for name, M in corpus_by_name.items():
        h = h_polynomial(M)
        hu0 = BivariatePoly({(i, j): c for (i, j), c in h.terms() if i == 0})
        assert hu0 == spanning_poly(M), name


def test_h_at_v_zero_is_coloop_binomial(corpus_by_name):
    """h(u, 0) = (u + 1)^(#coloops)."""
    for name, M in corpus_by_name.items():
        h = h_polynomial(M)
        hv0 = {i: c for (i, j), c in h.terms() if j == 0}
        expected = bin_power(1, 1, len(M.coloops()))
        assert hv0 == {d: c for d, c in expected.terms()}, name


def test_h_of_dual_matches_rank_nullity_sum(corpus_by_name):
    """h of the dual equals sum over subsets of u^nullity(A) v^rank(A)."""
    for name, M in corpus_by_name.items():
        assert h_polynomial(M.dual()) == brute_dual_h(M), name


def test_h_dual_is_not_the_exponent_swap(corpus_by_name):
    """The naive u<->v exponent swap does NOT give the dual h polynomial.

    U_{1,2} is self-dual with h = uv + 2v + 1; the swap yields uv + 2u + 1,
    which differs. The valid relation is the rank/nullity sum above.
    """
    M = corpus_by_name["u_1_2"]
    h = h_polynomial(M)
    assert h == bp({(1, 1): 1, (0, 1): 2, (0, 0): 1})
    assert h_polynomial(M.dual()) == h
    assert swap_xy(h) != h


def test_h_matrix_shape_and_values(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    assert h_matrix(M) == [[1, 3], [0, 3], [0, 1]]
    F = corpus_by_name["fano"]
    assert h_matrix(F) == [
        [1, 7, 21, 35, 28],
        [0, 0, 0, 7, 21],
        [0, 0, 0, 0, 7],
        [0, 0, 0, 0, 1],
    ]
    for name, N in corpus_by_name.items():
        mat = h_matrix(N)
        assert len(mat) == N.r + 1, name
        assert all(len(row) == N.size - N.r + 1 for row in mat), name
        h = h_polynomial(N)
        total = sum(c for _, c in h.terms())
        assert sum(map(sum, mat)) == total == 2**N.size, name


# ------------------------------------------------------ check before output

vertex = st.sampled_from([0, 1, 2, 3, "a", "b"])
multigraphs = st.lists(st.tuples(vertex, vertex), min_size=1, max_size=9)


def brute_cut_weights(edges):
    """Weights of the distinct cuts over every split of the vertices."""
    vertices = sorted({v for e in edges for v in e}, key=repr)
    cuts = {frozenset(k for k, (u, v) in enumerate(edges) if (u in side) != (v in side))
            for side in map(set, powerset(vertices))}
    counts = [0] * (len(edges) + 1)
    for cut in cuts:
        counts[len(cut)] += 1
    return counts


@settings(max_examples=150, deadline=None)
@given(multigraphs)
def test_cut_weights_match_every_split_of_the_vertices(edges):
    """Loops, parallel edges and several components: the Gray-code walk
    meets each of the 2^r cuts once."""
    counts = cut_weights(edges)
    assert counts == brute_cut_weights(edges)
    assert sum(counts) == 2 ** from_graph(edges).r


@settings(max_examples=100, deadline=None)
@given(multigraphs)
def test_check_passes_the_tutte_polynomial_and_catches_any_one_wrong_coefficient(edges):
    """T passes. Any one coefficient one off fails (T(2, 2) sees it), and
    so does trading x^i y^j against two of the term below it, which keeps
    T(2, 2) and the degrees: only Greene's identity sees that."""
    M = from_graph(edges)
    t = tutte_sum(M)
    check_tutte(M, t)
    for i in range(M.r + 1):
        for j in range(M.corank + 1):
            for d in (1, -1):
                with pytest.raises(InternalInvariantViolation):
                    check_tutte(M, t + BivariatePoly({(i, j): d}))
                if i or j:
                    below = (i - 1, j) if i else (i, j - 1)
                    with pytest.raises(InternalInvariantViolation, match="Greene"):
                        check_tutte(M, t + BivariatePoly({(i, j): d, below: -2 * d}))


def test_check_above_the_rank_limit_counts_spanning_forests(monkeypatch):
    """Above GREENE_RANK_LIMIT a graph's T(1, 1) is held to Kirchhoff's
    count, and x - y, which keeps T(1, 1), T(2, 2) and the degrees, passes;
    below it Greene's identity catches x - y."""
    M = from_graph(list(combinations(range(5), 2)))
    t = tutte_dc(M)
    shifted = t + BivariatePoly({(1, 0): 1, (0, 1): -1})
    with pytest.raises(InternalInvariantViolation, match="Greene"):
        check_tutte(M, shifted)
    monkeypatch.setattr(tutte, "GREENE_RANK_LIMIT", M.r - 1)
    check_tutte(M, t)
    check_tutte(M, shifted)
    with pytest.raises(InternalInvariantViolation, match="spanning forest"):
        check_tutte(M, t + BivariatePoly({(1, 0): 1, (0, 0): -2}))  # keeps T(2, 2)


def test_check_on_other_matroids_reads_degrees_and_t22():
    U = uniform(2, 4)
    t = tutte_dc(U)
    check_tutte(U, t + BivariatePoly({(1, 0): 1, (0, 1): -1}))  # no cut space to read
    with pytest.raises(InternalInvariantViolation, match="T\\(2,2\\)"):
        check_tutte(U, t + BivariatePoly({(0, 0): 1}))
    with pytest.raises(InternalInvariantViolation, match="degrees"):
        check_tutte(U, t + BivariatePoly({(3, 0): 1, (0, 0): -8}))
