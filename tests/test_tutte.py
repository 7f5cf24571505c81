from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import (
    BivariatePoly,
    InternalInvariantViolation,
    TooLarge,
    char_poly,
    from_graph,
    h_matrix,
    h_polynomial,
    rank_size_counts,
    reduced_char_poly,
    tutte_dc,
    tutte_sum,
    uniform,
)
from matroid_workbench import tutte
from matroid_workbench.graphs import cut_weights
from matroid_workbench.tutte import TutteCache, check_tutte

from helpers import (
    brute_dual_h,
    brute_h,
    brute_tutte,
    bin_power,
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
