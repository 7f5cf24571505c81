import time
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import (
    CORPUS,
    InvalidField,
    InvalidInput,
    TooLarge,
    from_bases,
    from_descriptor,
    from_graph,
    from_matrix,
    uniform,
)

from matroid_workbench.matroids import GROUND_SET_LIMIT, BasesBacking, Matroid

from helpers import powerset


# ---------------------------------------------------------------- rank axioms


def test_rank_axioms_exhaustive_on_corpus(corpus_by_name):
    """Normalization, unit increase, and submodularity over ALL subset pairs."""
    for name, M in corpus_by_name.items():
        subs = [frozenset(A) for A in powerset(M.elements)]
        rank = {A: M.rank(A) for A in subs}
        assert rank[frozenset()] == 0, name
        assert rank[frozenset(M.elements)] == M.r, name
        for A in subs:
            rA = rank[A]
            assert 0 <= rA <= len(A), name
            for e in M.elements:
                if e not in A:
                    step = rank[A | {e}] - rA
                    assert step in (0, 1), name
        for A in subs:
            for B in subs:
                assert (
                    rank[A | B] + rank[A & B] <= rank[A] + rank[B]
                ), f"submodularity fails for {name}: {sorted(A)}, {sorted(B)}"


def test_incremental_rank_agrees_with_rank(corpus_by_name):
    """push() returns whether the element raised the rank of the prefix, on
    all five backing kinds: the corpus, the graphic dual (derived) and the
    basis lists of M(K4) and of its dual."""
    k4 = corpus_by_name["k4"]
    family = dict(corpus_by_name)
    family["k4 dual"] = k4.dual()
    family["k4 bases"] = from_bases(k4.size, k4.bases())
    family["k4 bases dual"] = family["k4 bases"].dual()
    kinds = {M._backing.kind for M in family.values()}
    assert kinds == {"linear", "uniform", "graphic", "bases", "derived"}
    for name, M in family.items():
        inc = M.incremental_rank()
        pushed, running = [], 0
        for e in M.elements:
            running += 1 if inc.push(e) else 0
            pushed.append(e)
            assert running == M.rank(pushed), name
        for _ in M.elements:
            inc.pop()
        # after full rollback the oracle starts fresh
        assert bool(inc.push(M.elements[0])) == (M.rank([M.elements[0]]) == 1), name
        inc.pop()


def test_rank_rejects_foreign_elements(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    with pytest.raises(InvalidInput):
        M.rank({0, 99})


# ---------------------------------------------------------------- basic shape


def test_counts_and_special_elements(corpus_by_name):
    M = corpus_by_name["k4"]
    assert M.size == 6 and M.r == 3 and M.corank == 3
    assert len(M.bases()) == 16
    sizes = {}
    for c in M.circuits():
        sizes[len(c)] = sizes.get(len(c), 0) + 1
    assert sizes == {3: 4, 4: 3}

    F = corpus_by_name["fano"]
    assert len(F.bases()) == 28
    fsizes = {}
    for c in F.circuits():
        fsizes[len(c)] = fsizes.get(len(c), 0) + 1
    assert fsizes == {3: 7, 4: 7}
    assert F.is_loopless() and not F.loops() and not F.coloops()

    B = corpus_by_name["boolean_n2"]
    assert B.coloops() == frozenset(B.elements)


def test_loops_and_coloops_graphic():
    # edge 0 is a self-loop at vertex 0; edge 2 is a bridge
    M = from_graph([[0, 0], [0, 1], [1, 2]])
    assert M.loops() == frozenset({0})
    assert M.coloops() == frozenset({1, 2})
    assert not M.is_loopless()


def test_bases_are_exactly_max_rank_subsets(corpus_by_name):
    for name in ("u_2_3", "k4", "fano", "generic_3x6"):
        M = corpus_by_name[name]
        expected = {
            tuple(sorted(A))
            for A in combinations(M.elements, M.r)
            if M.rank(A) == M.r
        }
        assert set(M.bases()) == expected, name


def test_circuits_are_minimal_dependent(corpus_by_name):
    for name in ("u_2_3", "k4", "fano"):
        M = corpus_by_name[name]
        for c in M.circuits():
            assert M.rank(c) == len(c) - 1, name
            for e in c:
                sub = set(c) - {e}
                assert M.rank(sub) == len(sub), name


# --------------------------------------------------------------------- minors


def test_minor_ranks_match_formula(corpus_by_name):
    """Native minor backing == rank'(A) = rank(A ∪ C) − rank(C)."""
    for name in ("u_2_4", "k4", "fano", "pg_1_3"):
        M = corpus_by_name[name]
        elems = list(M.elements)
        deleted, contracted = {elems[0]}, {elems[1]}
        N = M.minor(deleted=deleted, contracted=contracted)
        assert set(N.elements) == set(elems) - deleted - contracted
        for A in powerset(N.elements):
            expected = M.rank(set(A) | contracted) - M.rank(contracted)
            assert N.rank(A) == expected, name


@st.composite
def matrix_minor_roles(draw):
    """A matrix over Q, GF(2), GF(3) or GF(7) with up to 4 rows and 7
    columns, and a split of its columns into deleted, contracted and kept."""
    field = draw(st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(7)"]))
    entry = st.integers(0, 6) if field != "Q" else st.sampled_from([0, 0, 1, -1, 3, "1/2", "-2/3"])
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    row = st.lists(entry, min_size=cols, max_size=cols)
    M = from_matrix(field, draw(st.lists(row, min_size=rows, max_size=rows)))
    roles = draw(st.lists(st.sampled_from("dck"), min_size=cols, max_size=cols))
    return M, {e for e, x in zip(M.elements, roles) if x == "d"}, {e for e, x in zip(M.elements, roles) if x == "c"}


@settings(max_examples=80, deadline=None)
@given(matrix_minor_roles())
def test_residual_minor_ranks_match_formula(case):
    """Residual columns of a contraction over Q and GF(p): every set A of
    them has rank r(A + C) - r(C)."""
    M, deleted, contracted = case
    N = M.minor(deleted=deleted, contracted=contracted)
    assert N._backing.kind == "linear"
    base = M.rank(contracted)
    for A in powerset(N.elements):
        assert N.rank(A) == M.rank(set(A) | contracted) - base, (M, deleted, contracted, A)


@settings(max_examples=60, deadline=None)
@given(matrix_minor_roles(), st.data())
def test_pushes_agree_with_rank_on_bases_and_derived(case, data):
    """Along random orders, each push says whether the element raises
    M.rank of the prefix, for basis lists and for derived minors and duals;
    pops return the oracle to a state that keeps agreeing."""
    M, deleted, contracted = case
    B = Matroid(BasesBacking([frozenset(b) for b in M.bases()]), M.elements)
    for N in (B, B.dual(), B.minor(deleted, contracted), B.minor(deleted, contracted).dual()):
        order = data.draw(st.permutations(N.elements))
        inc = N.incremental_rank()
        for k, e in enumerate(order):
            assert inc.push(e) == (N.rank(order[:k + 1]) > N.rank(order[:k])), (N, order, k)
        back = data.draw(st.integers(0, len(order)))
        for _ in range(back):
            inc.pop()
        prefix = list(order[:len(order) - back])
        for e in data.draw(st.permutations(order[len(prefix):])):
            assert inc.push(e) == (N.rank(prefix + [e]) > N.rank(prefix)), (N, order, back)
            prefix.append(e)


def test_delete_and_contract_shortcuts(corpus_by_name):
    F = corpus_by_name["fano"]
    D = F.delete({6})
    assert len(D.bases()) == 16
    C = F.contract({0})
    assert C.r == F.r - 1
    assert set(C.elements) == set(F.elements) - {0}


def test_contracting_a_loop_is_deletion():
    M = from_graph([[0, 0], [0, 1], [1, 2]])
    byc = M.contract({0})
    byd = M.delete({0})
    for A in powerset(byc.elements):
        assert byc.rank(A) == byd.rank(A)


def test_minor_overlap_rejected(corpus_by_name):
    M = corpus_by_name["u_2_4"]
    with pytest.raises(InvalidInput):
        M.minor(deleted={0}, contracted={0})
    with pytest.raises(InvalidInput):
        M.minor(deleted={99})


# -------------------------------------------------------------------- duality


def test_dual_rank_formula(corpus_by_name):
    """rank*(A) = #A + rank(E∖A) − r, checked exhaustively."""
    for name, M in corpus_by_name.items():
        D = M.dual()
        assert set(D.elements) == set(M.elements), name
        assert D.r == M.size - M.r, name
        E = set(M.elements)
        for A in powerset(M.elements):
            expected = len(A) + M.rank(E - set(A)) - M.r
            assert D.rank(A) == expected, name


def test_dual_is_involution(corpus_by_name):
    for name, M in corpus_by_name.items():
        DD = M.dual().dual()
        assert tuple(DD.elements) == tuple(M.elements), name
        for A in powerset(M.elements):
            assert DD.rank(A) == M.rank(A), name


def test_dual_bases_are_complements(corpus_by_name):
    for name in ("u_2_3", "k4", "fano"):
        M = corpus_by_name[name]
        E = set(M.elements)
        expected = {tuple(sorted(E - set(B))) for B in M.bases()}
        assert set(M.dual().bases()) == expected, name


def test_fano_dual_shape(corpus_by_name):
    D = corpus_by_name["fano"].dual()
    assert D.r == 4
    assert len(D.bases()) == 28


def test_boolean_dual_is_all_loops(corpus_by_name):
    D = corpus_by_name["boolean_n2"].dual()
    assert D.r == 0
    assert D.loops() == frozenset(D.elements)


def stored_rows(M):
    """The rows of the matrix a linear matroid stores (over Q its columns
    are scaled to coprime integers)."""
    return [list(row) for row in zip(*(M._backing.columns[e] for e in M.elements))]


@pytest.mark.parametrize(
    "field, matrix",
    [
        ("Q", [[0, 0, 0]]),
        ("GF(2)", [[1, 0, 1, 1], [0, 1, 1, 0]]),
        ("Q", [[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
        ("Q", [["1/2", "2/3", 1, 0], ["-1/4", 0, "3/5", 1]]),
    ],
    ids=["rank-0", "gf2", "q-dependent-row", "q-fractions"],
)
def test_linear_dual_is_a_kernel_basis(field, matrix):
    """The dual of a linear matroid is the column matroid of #E - r
    independent vectors that every row of the stored matrix annihilates;
    at rank 0 the columns are the unit vectors."""
    M = from_matrix(field, matrix)
    D = M.dual()
    assert D._backing.kind == "linear"
    ker = stored_rows(D)
    assert len(ker) == D.r == M.size - M.r
    F = M._backing.field
    for row in stored_rows(M):
        for k in ker:
            assert F.is_zero(sum(F.mul(F.of(a), F.of(b)) for a, b in zip(row, k)))
    if M.r == 0:
        assert D._backing.columns == {0: (1, 0, 0), 1: (0, 1, 0), 2: (0, 0, 1)}


def test_uniform_dual_is_uniform():
    assert uniform(2, 5).dual().canonical_key() == uniform(3, 5).canonical_key()


# ------------------------------------------------------------- canonical keys


def test_canonical_key_identifies_isomorphic_presentations(corpus_by_name):
    generic = from_matrix("Q", [[1, 0, 1], [0, 1, 1]])
    assert generic.canonical_key() == uniform(2, 3).canonical_key()
    permuted = from_matrix("Q", [[1, 1, 0], [1, 0, 1]])
    assert permuted.canonical_key() == generic.canonical_key()
    assert (
        corpus_by_name["generic_3x6"].canonical_key()
        == corpus_by_name["u_3_6"].canonical_key()
    )


def test_canonical_key_separates_different_matroids(corpus_by_name):
    F = corpus_by_name["fano"]
    assert F.canonical_key() != F.delete({6}).canonical_key()
    assert F.canonical_key() != corpus_by_name["u_2_4"].canonical_key()


# --------------------------------------------------------------- constructors


def test_from_matrix_rational_strings():
    M = from_matrix("Q", [["1/2", "1/3"], ["1/4", "1/6"]])
    # second column is 2/3 of the first: rank 1
    assert M.r == 1


def test_from_matrix_gf2_fano_has_28_bases():
    M = from_matrix(
        "GF(2)",
        [
            [0, 0, 1, 1, 1, 0, 1],
            [0, 1, 0, 1, 0, 1, 1],
            [1, 0, 0, 0, 1, 1, 1],
        ],
    )
    assert M.r == 3 and len(M.bases()) == 28


def test_from_matrix_rejects_bad_shapes_and_entries():
    with pytest.raises(InvalidInput):
        from_matrix("Q", [[1, 2], [3]])
    with pytest.raises(InvalidInput):
        from_matrix("Q", [])
    # entry coercion failures are field errors
    with pytest.raises(InvalidField):
        from_matrix("Q", [[True, 0]])
    with pytest.raises(InvalidField):
        from_matrix("Q", [[0.5, 1]])
    with pytest.raises(InvalidField):
        from_matrix("GF(4)", [[1]])


def test_uniform_validation():
    assert uniform(0, 3).r == 0
    assert uniform(3, 3).r == 3
    with pytest.raises(InvalidInput):
        uniform(4, 3)
    with pytest.raises(InvalidInput):
        uniform(-1, 3)


def test_from_graph_validation():
    with pytest.raises(InvalidInput):
        from_graph([[0]])
    with pytest.raises(InvalidInput):
        from_graph([[0, 1, 2]])
    M = from_graph([[0, 1], [1, 2], [0, 2]])
    assert M.r == 2 and len(M.bases()) == 3


def test_from_bases_round_trip(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    N = from_bases(3, [sorted(B) for B in M.bases()])
    for A in powerset(range(3)):
        assert N.rank(A) == M.rank(A)


def test_from_bases_rejects_exchange_failure():
    # {0,1} and {2,3} cannot both be bases of a matroid on 4 elements
    # without some mixed basis: exchange axiom fails.
    with pytest.raises(InvalidInput):
        from_bases(4, [[0, 1], [2, 3]])


def test_from_bases_rejects_malformed_input():
    with pytest.raises(InvalidInput):
        from_bases(3, [])
    with pytest.raises(InvalidInput):
        from_bases(3, [[0, 1], [0, 1, 2]])  # mixed sizes
    with pytest.raises(InvalidInput):
        from_bases(3, [[0, 5]])  # out of range
    with pytest.raises(InvalidInput):
        from_bases(3, [[0, 0]])  # repeated element


def test_from_bases_validation_budget():
    fake = [list(c) for c in islice(combinations(range(20), 5), 350)]
    with pytest.raises(TooLarge, match="350 bases need 122500 pairwise exchange checks"):
        from_bases(20, fake)


def test_bases_enumeration_cap():
    with pytest.raises(TooLarge):
        uniform(10, 21).bases()
    # limit=0 lifts the cap
    assert len(uniform(2, 21).bases(limit=0)) == 210


# ---------------------------------------------------------------- descriptors


def test_from_descriptor_matches_direct_constructors(corpus_by_name):
    for entry in CORPUS:
        M = from_descriptor(entry["descriptor"])
        N = corpus_by_name[entry["name"]]
        assert M.canonical_key() == N.canonical_key(), entry["name"]


def test_from_descriptor_errors():
    with pytest.raises(InvalidInput):
        from_descriptor({"type": "mystery"})
    with pytest.raises(InvalidInput):
        from_descriptor({"type": "uniform", "r": 5, "n": 2})
    with pytest.raises(InvalidInput):
        from_descriptor({"type": "linear", "field": "Q"})  # missing matrix
    with pytest.raises(InvalidInput):
        from_descriptor([1, 2, 3])


@pytest.mark.parametrize(
    "descriptor",
    [
        {"type": "uniform", "r": 2, "n": 100_000_000},
        {"type": "bases", "n": 100_000_000, "bases": [[0, 1]]},
    ],
)
def test_ground_set_cap_applies_before_allocation(descriptor):
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="ground elements"):
        from_descriptor(descriptor)
    assert time.perf_counter() - start < 1


def test_ground_set_cap_is_inclusive():
    assert uniform(1, GROUND_SET_LIMIT).size == GROUND_SET_LIMIT
    with pytest.raises(TooLarge):
        uniform(1, GROUND_SET_LIMIT + 1)
