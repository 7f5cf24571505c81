import re
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

from helpers import frozenset_exchange_holds, matrices_and_graphs, pairwise_exchange_failure, powerset


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


@settings(max_examples=200, deadline=None)
@given(matrices_and_graphs(), st.data())
def test_loops_and_coloops_match_the_rank_definitions(M, data):
    """loops() are the e with rank({e}) = 0 and coloops() the e with
    rank(E - e) = r - 1, on every backing: matrices (read off the RREF),
    graphs (self-loops and bridges), uniform matroids and basis lists (the
    rank-function answers of _Backing), their minors (uniform and linear
    ones native, graphic ones by contraction, those of a basis list
    derived rank functions), the duals of all of these (a basis list's by
    complements, a graph's derived); r itself equals the rank that one push
    walk over E finds."""
    roles = data.draw(st.lists(st.sampled_from("dck"), min_size=M.size, max_size=M.size))
    N = M.minor(deleted=[e for e, x in zip(M.elements, roles) if x == "d"],
                contracted=[e for e, x in zip(M.elements, roles) if x == "c"])
    for X in (M, N, M.dual(), N.dual()):
        E = frozenset(X.elements)
        assert X.r == sum(map(X.incremental_rank().push, X.elements)), X
        assert X.loops() == {e for e in E if X.rank({e}) == 0}, X
        assert X.coloops() == {e for e in E if X.rank(E - {e}) == X.r - 1}, X


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
    """Minors by row operations on the RREF over Q and GF(p): every set A
    of kept elements has rank r(A + C) - r(C)."""
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


def _malformed_calls():
    """(id, call on M(K4)) of each malformed library call."""
    from matroid_workbench import orlik_solomon, white

    calls = {
        "uniform(2.5, 4)": lambda K4: uniform(2.5, 4),
        "uniform(True, 3)": lambda K4: uniform(True, 3),
        "uniform(2, 4.0)": lambda K4: uniform(2, 4.0),
        "toric_fibers(K4, 2.5)": lambda K4: white.toric_fibers(K4, 2.5),
        "toric_fibers(K4, '3')": lambda K4: white.toric_fibers(K4, "3"),
        "nbc_sets(K4, 2.5)": lambda K4: orlik_solomon.nbc_sets(K4, 2.5),
        "nbc_sets(K4, '2')": lambda K4: orlik_solomon.nbc_sets(K4, "2"),
        "os_space(K4, 1.5)": lambda K4: orlik_solomon.os_space(K4, 1.5),
        "os_space(K4, '2')": lambda K4: orlik_solomon.os_space(K4, "2"),
        "reduced_nbc_index_sets(K4, 1.5)": lambda K4: orlik_solomon.reduced_nbc_index_sets(K4, 1.5),
        "reduced_nbc_index_sets(K4, '1')": lambda K4: orlik_solomon.reduced_nbc_index_sets(K4, "1"),
        "one basis as a pair": lambda K4: white.symmetric_exchange_neighbors(K4, [(0, 1, 2)]),
        "three bases as a pair": lambda K4: white.symmetric_exchange_neighbors(
            K4, [(0, 1, 2), (0, 1, 4), (0, 2, 4)]),
        "an int as a pair": lambda K4: white.symmetric_exchange_neighbors(K4, 5),
        "two ints as a pair": lambda K4: white.symmetric_exchange_neighbors(K4, [5, 6]),
        "from_graph([5])": lambda K4: from_graph([5]),
        "from_graph([(0, 1), None])": lambda K4: from_graph([(0, 1), None]),
    }
    return [pytest.param(call, id=name) for name, call in calls.items()]


@pytest.mark.parametrize("call", _malformed_calls())
def test_malformed_library_arguments_raise_invalid_input(call):
    """A non-integer size or degree, a pair of other than two bases and an
    edge that is not a sequence raise InvalidInput, not TypeError or
    ValueError, as the CLI's descriptor checks do for the same input."""
    K4 = from_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(InvalidInput):
        call(K4)


def _argument_calls():
    """(id, call on M(K4), reference or None) of each library call with a
    malformed argument, a budget that is not an integer or a field name:
    a call with no reference must raise InvalidInput, and a call by field
    name must give what its reference gives with the field object."""
    from matroid_workbench import PrimeField, QQ, localization, orlik_solomon, tutte, white
    from matroid_workbench.basis_list import from_bases

    def space(K4, field):
        s = orlik_solomon.os_space(K4, 2, field)
        return s.field, s.nbc

    calls = {
        "from_bases(2.5, [(0,)])": (lambda K4: from_bases(2.5, [(0,)]), None),
        "from_bases(True, [(0,)])": (lambda K4: from_bases(True, [(0,)]), None),
        "from_bases(3, [(0, 'a')])": (lambda K4: from_bases(3, [(0, "a")]), None),
        "from_graph(None)": (lambda K4: from_graph(None), None),
        "from_graph([([1], [2])])": (lambda K4: from_graph([([1], [2])]), None),
        "rank(5)": (lambda K4: K4.rank(5), None),
        "delete(5)": (lambda K4: K4.delete(5), None),
        "contract(5)": (lambda K4: K4.contract(5), None),
        "minor(deleted=5)": (lambda K4: K4.minor(deleted=5), None),
        "check_degree budget": (lambda K4: white.check_degree(K4, 3, budget="x"), None),
        "toric_fibers budget": (lambda K4: white.toric_fibers(K4, 3, budget=2.5), None),
        "euler_table max_points": (lambda K4: localization.euler_table(K4, max_points="x"), None),
        "tutte_polynomial max_nodes": (lambda K4: tutte.tutte_polynomial(K4, max_nodes="x"), None),
        "tutte_dc max_nodes": (lambda K4: tutte.tutte_dc(K4, max_nodes=None), None),
        "rank_size_counts max_nodes": (lambda K4: tutte.rank_size_counts(K4, max_nodes="x"), None),
        "tutte_sum max_nodes": (lambda K4: tutte.tutte_sum(K4, max_nodes=1.5), None),
        "bases limit": (lambda K4: K4.bases(limit="x"), None),
        "circuits limit": (lambda K4: K4.circuits(limit="x"), None),
        "os_space 'GF(2)'": (lambda K4: space(K4, "GF(2)"), lambda K4: space(K4, PrimeField(2))),
        "os_dimensions 'GF(3)'": (lambda K4: orlik_solomon.os_dimensions(K4, "GF(3)"),
                                  lambda K4: orlik_solomon.os_dimensions(K4, PrimeField(3))),
        "reduced_nbc_basis 'Q'": (lambda K4: orlik_solomon.reduced_nbc_basis(K4, 1, "Q").monomials,
                                  lambda K4: orlik_solomon.reduced_nbc_basis(K4, 1, QQ).monomials),
        "reduced_os_dimensions 'GF(5)'": (lambda K4: orlik_solomon.reduced_os_dimensions(K4, " GF(5) "),
                                          lambda K4: orlik_solomon.reduced_os_dimensions(K4, PrimeField(5))),
        "from_matrix(5, [[1]])": (lambda K4: from_matrix(5, [[1]]), None),
        "reduced_nbc_basis field 5": (lambda K4: orlik_solomon.reduced_nbc_basis(K4, 1, 5), None),
        "os_space field 5": (lambda K4: orlik_solomon.os_space(K4, 1, 5), None),
        "from_bases(3, None)": (lambda K4: from_bases(3, None), None),
        "koszul_boundary(5)": (lambda K4: orlik_solomon.koszul_boundary(5), None),
        "koszul_boundary field 5": (lambda K4: orlik_solomon.koszul_boundary((0, 1), 5), None),
        "h_matrix(5)": (lambda K4: tutte.h_matrix(5), None),
        "rank_size_counts(5)": (lambda K4: tutte.rank_size_counts(5), None),
        "tutte_dc(5)": (lambda K4: tutte.tutte_dc(5), None),
        "euler_table(5)": (lambda K4: localization.euler_table(5), None),
        "os_dimensions(5)": (lambda K4: orlik_solomon.os_dimensions(5), None),
        "check_degree(5, 3)": (lambda K4: white.check_degree(5, 3), None),
        "symmetric_exchange_neighbors(5, pair)": (
            lambda K4: white.symmetric_exchange_neighbors(5, [(0, 1, 3), (0, 2, 4)]), None),
        "broken_circuits(5)": (lambda K4: orlik_solomon.broken_circuits(5), None),
        "nbc_sets(5, 1)": (lambda K4: orlik_solomon.nbc_sets(5, 1), None),
        "os_space(5, 1)": (lambda K4: orlik_solomon.os_space(5, 1), None),
        "reduced_nbc_index_sets(5, 1)": (lambda K4: orlik_solomon.reduced_nbc_index_sets(5, 1), None),
        "reduced_nbc_basis(5, 1)": (lambda K4: orlik_solomon.reduced_nbc_basis(5, 1), None),
        "reduced_os_dimensions(5)": (lambda K4: orlik_solomon.reduced_os_dimensions(5), None),
    }
    return [pytest.param(call, reference, id=name) for name, (call, reference) in calls.items()]


@pytest.mark.parametrize("call,reference", _argument_calls())
def test_library_arguments_are_checked_or_read_as_names(call, reference):
    """Malformed arguments and budgets that are not integers raise
    InvalidInput, not TypeError, and the Orlik-Solomon entry points read a
    field name as from_matrix does."""
    K4 = from_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    if reference is None:
        with pytest.raises(InvalidInput):
            call(K4)
    else:
        assert call(K4) == reference(K4)


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


@st.composite
def basis_families(draw):
    """The bases of a random uniform, graphic or GF(p) matroid: as they
    are, with one basis removed, or with one foreign r-set added; or any
    nonempty family of r-sets. The list comes in a drawn order."""
    kind = draw(st.sampled_from(["uniform", "graph", "GF(2)", "GF(3)", "GF(7)", "r-sets"]))
    if kind == "r-sets":
        n = draw(st.integers(1, 6))
        sets = [frozenset(c) for c in combinations(range(n), draw(st.integers(0, n)))]
        return n, draw(st.lists(st.sampled_from(sets), min_size=1, unique=True))
    if kind == "uniform":
        n = draw(st.integers(1, 7))
        M = uniform(draw(st.integers(0, n)), n)
    elif kind == "graph":
        vertex = st.integers(0, 4)
        M = from_graph(draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7)))
    else:
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 7))
        row = st.lists(st.integers(0, 6), min_size=cols, max_size=cols)
        M = from_matrix(kind, draw(st.lists(row, min_size=rows, max_size=rows)))
    bases = [frozenset(b) for b in M.bases()]
    change = draw(st.sampled_from(["none", "remove", "add"]))
    if change == "remove" and len(bases) > 1:
        bases.pop(draw(st.integers(0, len(bases) - 1)))
    elif change == "add":
        foreign = [frozenset(c) for c in combinations(M.elements, M.r) if frozenset(c) not in bases]
        if foreign:
            bases.append(draw(st.sampled_from(foreign)))
    return M.size, draw(st.permutations(bases))


@settings(max_examples=200, deadline=None)
@given(basis_families())
def test_bitmask_exchange_check_matches_frozensets(family):
    """from_bases checks exchange by holder bitsets; it accepts exactly the
    families that the frozenset check accepts, with the error text of the
    pairwise check, and a rejection names two bases and an element x of
    the first for which no exchange works."""
    n, bases = family
    holds = frozenset_exchange_holds(bases)
    try:
        from_bases(n, [sorted(b) for b in bases])
    except InvalidInput as exc:
        assert not holds
        assert str(exc) == pairwise_exchange_failure(bases)
        found = re.fullmatch(r"exchange axiom fails for bases \[(.*)\], \[(.*)\] at element (\d+)", str(exc))
        assert found, str(exc)
        b1, b2 = ({int(e) for e in g.split(", ") if e} for g in found.groups()[:2])
        x = int(found.group(3))
        assert b1 in bases and b2 in bases and x in b1 - b2
        assert not any((b1 - {x}) | {y} in bases for y in b2 - b1)
    else:
        assert holds and pairwise_exchange_failure(bases) is None


MULTIGRAPHS = {
    "parallel edges, self-loops, three components": [
        (0, 1), (0, 1), (1, 2), (2, 0), (2, 2), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "a"), (7, 7),
    ],
    "only self-loops": [(0, 0), (1, 1), (1, 1)],
    "a tree and an isolated loop": [(0, 1), (1, 2), (1, 3), (4, 4)],
    "K4 with a tripled edge": [(0, 1), (0, 1), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    "two triangles sharing a vertex": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
}


def test_basis_count_matches_enumeration(corpus_by_name):
    """Kirchhoff's count on multigraphs and their minors, C(n, r) on
    uniform matroids and the list length on basis lists all equal the
    number of enumerated bases; so does every corpus matroid and its dual,
    whatever route its backing takes."""
    family = [N for M in corpus_by_name.values() for N in (M, M.dual())]
    for edges in MULTIGRAPHS.values():
        M = from_graph(edges)
        family.append(M)
        for e in M.elements:
            family += [M.delete({e}), M.contract({e})]
        family.append(M.minor(deleted={M.elements[0]}, contracted={M.elements[-1]}))
    family += [uniform(r, n) for n in range(1, 8) for r in range(n + 1)]
    family += [from_bases(M.size, M.bases()) for M in family[:20]]
    for M in family:
        assert M.basis_count() == len(M.bases(limit=0)), M


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=9), st.data())
def test_kirchhoff_count_on_generated_multigraphs(edges, data):
    M = from_graph(edges)
    roles = data.draw(st.lists(st.sampled_from("dck"), min_size=M.size, max_size=M.size))
    N = M.minor(deleted=[e for e, x in zip(M.elements, roles) if x == "d"],
                contracted=[e for e, x in zip(M.elements, roles) if x == "c"])
    for X in (M, N):
        assert X.basis_count() == len(X.bases(limit=0)), (edges, roles)


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
        {"type": "linear", "field": "Q", "matrix": [[1] * 1_000_000]},
        {"type": "graphic", "edges": [[0, 1]] * 1_000_000},
    ],
)
def test_ground_set_cap_applies_before_allocation(descriptor):
    """The cap is checked on the count before any per-element work: the
    width of a matrix before its entries are parsed, the number of edges
    before they are validated."""
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="ground elements"):
        from_descriptor(descriptor)
    assert time.perf_counter() - start < 1


def test_ground_set_cap_is_inclusive():
    assert uniform(1, GROUND_SET_LIMIT).size == GROUND_SET_LIMIT
    with pytest.raises(TooLarge):
        uniform(1, GROUND_SET_LIMIT + 1)
