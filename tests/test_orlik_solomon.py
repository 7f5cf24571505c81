from functools import lru_cache
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from matroid_workbench import (
    ExteriorElement,
    InvalidInput,
    LooplessRequired,
    PrimeField,
    QQ,
    TooLarge,
    broken_circuits,
    char_poly,
    corpus_matroid,
    from_bases,
    from_graph,
    from_matrix,
    koszul_boundary,
    nbc_sets,
    normal_form,
    orlik_solomon,
    os_dimensions,
    os_multiply,
    os_space,
    reduced_char_poly,
    reduced_nbc_basis,
    reduced_nbc_index_sets,
    reduced_os_dimensions,
    uniform,
)

from helpers import abs_coeff_row, circuit_nbc_sets, dense_os_reducer, matrices_and_graphs

GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)

LOOPLESS_NAMES = (
    "boolean_n1",
    "boolean_n2",
    "boolean_n3",
    "boolean_n4",
    "u_1_2",
    "u_2_3",
    "u_2_4",
    "u_3_6",
    "pg_1_2",
    "pg_1_3",
    "pg_1_4",
    "k4",
    "fano",
    "generic_3x6",
)


@lru_cache(maxsize=None)
def dense_reduce(name, k, field):
    """The dense oracle's reduce for a corpus entry, built once per degree."""
    return dense_os_reducer(corpus_matroid(name), k, field)[1]


# ----------------------------------------------------------- exterior algebra


def test_koszul_boundary_signs():
    b = koszul_boundary((0, 1))
    assert b.terms == {(0,): QQ.one, (1,): QQ.of(-1)}
    b3 = koszul_boundary((0, 1, 2))
    assert b3.terms == {(0, 1): QQ.one, (0, 2): QQ.of(-1), (1, 2): QQ.one}


def element_boundary(x: ExteriorElement, field):
    out = ExteriorElement(field, x.degree - 1)
    for subset, c in x.terms.items():
        out = out + koszul_boundary(subset, field).scale(c)
    return out


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
def test_boundary_squares_to_zero(field):
    for S in combinations(range(5), 3):
        dd = element_boundary(koszul_boundary(S, field), field)
        assert dd.is_zero(), S


def test_wedge_antisymmetry_and_merge_signs():
    e0 = ExteriorElement.monomial(QQ, (0,))
    e1 = ExteriorElement.monomial(QQ, (1,))
    assert e1.wedge(e0).terms == {(0, 1): QQ.of(-1)}
    assert e0.wedge(e1).terms == {(0, 1): QQ.one}
    assert e0.wedge(e0).is_zero()
    e12 = ExteriorElement.monomial(QQ, (1, 2))
    e03 = ExteriorElement.monomial(QQ, (0, 3))
    # (e1^e2)^(e0^e3): sort 1,2,0,3 -> 0,1,2,3 needs 2 transpositions: sign +
    assert e12.wedge(e03).terms == {(0, 1, 2, 3): QQ.one}
    # associativity spot check
    a, b, c = e0, e1, ExteriorElement.monomial(QQ, (2,)) + e1.scale(QQ.of(3))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


# ------------------------------------------------------------ nbc enumeration


def test_broken_circuits_u23(corpus_by_name):
    assert broken_circuits(corpus_by_name["u_2_3"]) == [(1, 2)]


def test_nbc_sets_contain_no_broken_circuit(corpus_by_name):
    for name in LOOPLESS_NAMES:
        M = corpus_by_name[name]
        bcs = [set(b) for b in broken_circuits(M)]
        for k in range(M.r + 1):
            for S in nbc_sets(M, k):
                assert M.rank(S) == len(S), (name, S)
                assert not any(b <= set(S) for b in bcs), (name, S)


def test_nbc_counts_match_charpoly(corpus_by_name):
    for name in LOOPLESS_NAMES:
        M = corpus_by_name[name]
        whitney = abs_coeff_row(char_poly(M))
        counts = [len(nbc_sets(M, k)) for k in range(M.r + 1)]
        assert counts == whitney, name


def test_nbc_walk_matches_circuit_oracle_on_corpus(corpus_by_name):
    for name in LOOPLESS_NAMES:
        M = corpus_by_name[name]
        for k in range(M.size + 1):
            assert nbc_sets(M, k) == circuit_nbc_sets(M, k), (name, k)


@st.composite
def small_loopless_matroids(draw):
    """A random graph, uniform matroid, GF(2), GF(3) or Q matrix, or the
    basis list of one, as it is or as its dual or a minor (derived when the
    backing has no native one), with its loops deleted."""
    kind = draw(st.sampled_from(["graph", "uniform", "GF(2)", "GF(3)", "Q", "bases"]))
    if kind == "graph":
        vertex = st.integers(0, 4)
        M = from_graph(draw(st.lists(st.tuples(vertex, vertex), min_size=2, max_size=8)))
    elif kind == "uniform":
        n = draw(st.integers(1, 7))
        M = uniform(draw(st.integers(1, n)), n)
    else:
        field = "GF(3)" if kind == "bases" else kind
        entry = st.sampled_from([0, 0, 1, -1, 2, "1/2", "-2/3"]) if kind == "Q" else st.integers(0, 2)
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(2, 7))
        M = from_matrix(field, [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)])
        if kind == "bases":
            M = from_bases(M.size, M.bases())
    if draw(st.booleans()):
        M = M.dual()
    if M.size and draw(st.booleans()):
        roles = draw(st.lists(st.sampled_from("dckkk"), min_size=M.size, max_size=M.size))
        M = M.minor(
            deleted=[e for e, x in zip(M.elements, roles) if x == "d"],
            contracted=[e for e, x in zip(M.elements, roles) if x == "c"],
        )
    return M.delete(M.loops())


@settings(max_examples=150, deadline=None)
@given(small_loopless_matroids(), st.sampled_from([QQ, GF2, GF3]))
def test_nbc_walk_and_straightening_match_circuit_and_dense_oracles(M, field):
    """In every degree the walk's nbc sets equal the circuit-based oracle,
    and in degrees 0..r+1 OSSpace.reduce equals dense row reduction on
    every monomial."""
    for k in range(M.size + 1):
        assert nbc_sets(M, k) == circuit_nbc_sets(M, k), k
    for k in range(min(M.r + 1, M.size) + 1):
        survivors, dense = dense_os_reducer(M, k, field)
        sp = os_space(M, k, field)
        assert sp.nbc == survivors, k
        for S in combinations(M.elements, k):
            m = ExteriorElement.monomial(field, S)
            assert sp.reduce(m) == dense(m), (k, S)


def _complete_graph(n):
    return from_graph(list(combinations(range(n), 2)))


def _poly_coefficients(factors):
    """Coefficients of prod (1 + a t) over the integers a, lowest first."""
    out = [1]
    for a in factors:
        out = [x + a * y for x, y in zip(out + [0], [0] + out)]
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_braid_arrangement_dimensions_are_products(n):
    """OS(M(K_n)) has Poincare polynomial prod_{i<n} (1 + i t) (Arnold
    1969; Orlik-Solomon 1980) over every field: M(K7) and M(K8) exceed the
    20 elements that circuit enumeration allowed, and M(K8) the 24 of the
    subset sum, so its Whitney check runs on deletion-contraction."""
    M = _complete_graph(n)
    want = _poly_coefficients(range(1, n))
    assert sum(want) == prod(range(1, n + 1))
    for field in (QQ, GF2, GF3, GF5):
        assert os_dimensions(M, field) == want, field.name


@pytest.mark.parametrize("r, n", [(1, 1), (1, 5), (2, 5), (3, 6), (4, 9), (5, 5), (3, 26)])
def test_uniform_dimensions_are_binomials(r, n):
    """dim OS^k(U(r, n)) = C(n, k) below the rank and C(n-1, r-1) at it,
    over every field."""
    want = [comb(n, k) for k in range(r)] + [comb(n - 1, r - 1)]
    for field in (QQ, GF2, GF3, GF5):
        assert os_dimensions(uniform(r, n), field) == want, field.name


def test_fano_nbc_pairs(corpus_by_name):
    expected = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
        (1, 2), (1, 3), (1, 4), (1, 6), (2, 5), (2, 6),
        (3, 4), (3, 5),
    ]
    assert nbc_sets(corpus_by_name["fano"], 2) == expected


# ------------------------------------------------------------------ OS spaces


def test_os_dimensions_match_charpoly_all_fields(corpus_by_name):
    for name in LOOPLESS_NAMES:
        M = corpus_by_name[name]
        whitney = abs_coeff_row(char_poly(M))
        for field in (QQ, GF2, GF3, GF5):
            assert os_dimensions(M, field=field) == whitney, (name, field.name)


def test_os_dimension_vanishes_above_rank(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    sp = os_space(M, 3)
    assert sp.dimension == 0
    # U_{1,2}: two parallel elements, rank 1 — degree 2 must die entirely
    sp2 = os_space(corpus_by_name["u_1_2"], 2)
    assert sp2.dimension == 0


def test_os_space_reduce_kills_relations(corpus_by_name):
    for name in ("u_2_3", "k4", "fano"):
        M = corpus_by_name[name]
        for circ in M.circuits():
            k = len(circ) - 1
            if k > M.r:
                continue
            sp = os_space(M, k)
            boundary = koszul_boundary(tuple(sorted(circ)), QQ)
            assert sp.reduce(boundary).is_zero(), (name, circ)


def test_os_space_reduce_is_projection(corpus_by_name):
    """reduce is idempotent and fixes every nbc monomial."""
    M = corpus_by_name["k4"]
    for k in range(M.r + 1):
        sp = os_space(M, k)
        for S in sp.nbc:
            m = ExteriorElement.monomial(QQ, S)
            assert sp.reduce(m) == m
        for S in combinations(M.elements, k):
            m = ExteriorElement.monomial(QQ, S)
            red = sp.reduce(m)
            assert sp.reduce(red) == red, (k, S)


def test_os_coordinates_and_normal_form(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    sp = os_space(M, 2)
    assert sp.nbc == [(0, 1), (0, 2)]
    e12 = ExteriorElement.monomial(QQ, (1, 2))
    assert normal_form(M, e12) == [QQ.of(-1), QQ.one]
    assert sp.coordinates(e12) == [QQ.of(-1), QQ.one]
    # consistency: rebuilding from coordinates reproduces the normal form
    rebuilt = ExteriorElement(QQ, 2)
    for S, c in zip(sp.nbc, sp.coordinates(e12)):
        rebuilt = rebuilt + ExteriorElement.monomial(QQ, S).scale(c)
    assert rebuilt == sp.reduce(e12)


def test_reduce_refuses_an_element_over_another_field(corpus_by_name):
    """2 e_12 over GF(3) has no coordinates over GF(5): read there it came
    out as [3, 2], and (1/3) e_12 over Q read over GF(2) as [1/3, 1/3]."""
    M = corpus_by_name["u_2_3"]
    x = ExteriorElement.monomial(GF3, (1, 2)).scale(2)
    assert normal_form(M, x) == [1, 2]
    for space in (os_space(M, 2, GF5), os_space(M, 2, QQ)):
        with pytest.raises(InvalidInput, match="over GF\\(3\\)"):
            space.reduce(x)
        with pytest.raises(InvalidInput):
            space.coordinates(x)
    third = ExteriorElement.monomial(QQ, (1, 2)).scale(QQ.of("1/3"))
    with pytest.raises(InvalidInput):
        os_space(M, 2, GF2).reduce(third)


@pytest.mark.parametrize("circuits_only", [False, True], ids=["dependent", "circuits"])
@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_reduce_matches_dense_oracle(corpus_by_name, field, circuits_only):
    """Straightened normal forms equal dense row reduction of either
    relation family, monomial by monomial, in degrees 0..r+1."""
    for name in LOOPLESS_NAMES:
        M = corpus_by_name[name]
        for k in range(min(M.r + 1, M.size) + 1):
            survivors, dense_reduce = dense_os_reducer(M, k, field, circuits_only)
            sp = os_space(M, k, field)
            assert sp.nbc == survivors, (name, k)
            for S in combinations(M.elements, k):
                m = ExteriorElement.monomial(field, S)
                assert sp.reduce(m) == dense_reduce(m), (name, k, S)


@st.composite
def os_elements(draw):
    name = draw(st.sampled_from(["k4", "fano"]))
    field = draw(st.sampled_from([QQ, GF3]))
    M = corpus_matroid(name)
    k = draw(st.integers(0, M.r + 1))
    subsets = list(combinations(M.elements, k))

    def element():
        keys = draw(st.lists(st.sampled_from(subsets), max_size=5, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(keys), max_size=len(keys)))
        return ExteriorElement(field, k, {s: field.of(c) for s, c in zip(keys, coeffs)})

    return name, field, k, element(), element(), field.of(draw(st.integers(-3, 3)))


@settings(max_examples=60, deadline=None)
@given(os_elements())
def test_reduce_properties(case):
    """reduce is linear, idempotent, fixes nbc monomials and equals the
    dense oracle on random elements."""
    name, field, k, a, b, c = case
    M = corpus_matroid(name)
    sp = os_space(M, k, field)
    ra, rb = sp.reduce(a), sp.reduce(b)
    assert sp.reduce(a + b.scale(c)) == ra + rb.scale(c)
    assert sp.reduce(ra) == ra
    assert ra == dense_reduce(name, k, field)(a)
    for S in sp.nbc:
        m = ExteriorElement.monomial(field, S)
        assert sp.reduce(m) == m


def test_os_multiply_graded_commutativity(corpus_by_name):
    """a ∧ b = (-1)^(deg a · deg b) b ∧ a in the quotient."""
    M = corpus_by_name["k4"]
    ones = [ExteriorElement.monomial(QQ, (e,)) for e in M.elements[:4]]
    twos = [
        ExteriorElement.monomial(QQ, S) for S in [(0, 1), (1, 2), (2, 5), (3, 4)]
    ]
    for a in ones:
        for b in ones:
            lhs = os_multiply(M, a, b)
            rhs = os_multiply(M, b, a).scale(QQ.of(-1))
            assert lhs == rhs
    for a in ones:
        for b in twos:
            assert os_multiply(M, a, b) == os_multiply(M, b, a)


def test_os_multiply_squares_vanish(corpus_by_name):
    M = corpus_by_name["fano"]
    for e in M.elements:
        m = ExteriorElement.monomial(QQ, (e,))
        assert os_multiply(M, m, m).is_zero()


def test_product_of_reduced_generators_vanishes_on_circuit(corpus_by_name):
    """(e1 - e0) ∧ (e2 - e0) = e01 - e02 + e12, the boundary of e012; in
    U_{2,3} the set {0,1,2} is a circuit so this product is exactly zero."""
    M = corpus_by_name["u_2_3"]
    e0 = ExteriorElement.monomial(QQ, (0,))
    e1 = ExteriorElement.monomial(QQ, (1,))
    e2 = ExteriorElement.monomial(QQ, (2,))
    a = e1 - e0
    b = e2 - e0
    raw = a.wedge(b)
    assert raw.terms == {
        (0, 1): QQ.one,
        (0, 2): QQ.of(-1),
        (1, 2): QQ.one,
    }
    assert raw == koszul_boundary((0, 1, 2), QQ)
    assert os_multiply(M, a, b).is_zero()


def test_os_errors(corpus_by_name, monkeypatch):
    M = corpus_by_name["u_2_3"]
    with pytest.raises(InvalidInput):
        os_space(M, -1)
    with pytest.raises(InvalidInput):
        os_space(M, 4)
    loopy = from_graph([[0, 0], [0, 1]])
    with pytest.raises(LooplessRequired):
        os_space(loopy, 1)
    with pytest.raises(LooplessRequired):
        broken_circuits(loopy)
    # C(23, 11) = 1,352,078 nbc sets in degree 12 take more than 2^20 pushes;
    # NBC_BUDGET, 20 * 2^20, fits their 11,092,763 (about 20 s)
    monkeypatch.setattr(orlik_solomon, "NBC_BUDGET", 1 << 20)
    with pytest.raises(TooLarge, match="budget"):
        os_space(uniform(12, 24), 12)


@settings(max_examples=60, deadline=None)
@given(matrices_and_graphs(), st.integers(1, 7))
def test_nbc_refusal_bound_is_at_most_the_walk(M, k):
    """Before it walks, nbc_sets bounds its pushes from below: #E, and for
    each e_i the elements down to the last earlier one parallel to it, or
    down to e_0 (counted here pair by pair). The bound is at most what the
    walk pushes, so the walk still runs with the budget at its own count,
    and a budget one below the bound is refused with the bound named."""
    M = M.delete(sorted(M.loops()))
    k = min(k, M.size)
    if not k:
        return
    elems = M.elements
    bound = M.size + sum(
        next((i - j for j in range(i - 1, -1, -1) if M.rank({elems[i], elems[j]}) == 1), i)
        for i in range(M.size)
    )
    pushes, real = [], M.incremental_rank
    M.incremental_rank = lambda: _CountingSteps(real(), pushes)
    expected = nbc_sets(M, k)
    walked = len(pushes)
    assert bound <= walked
    budget = orlik_solomon.NBC_BUDGET
    try:
        orlik_solomon.NBC_BUDGET = walked
        del M._os_nbc
        assert nbc_sets(M, k) == expected
        orlik_solomon.NBC_BUDGET = bound - 1
        del M._os_nbc
        with pytest.raises(TooLarge, match=f"at least {bound} rank-oracle pushes"):
            nbc_sets(M, k)
    finally:
        orlik_solomon.NBC_BUDGET = budget


# ----------------------------------------------------------------- reduced OS


def test_reduced_dimensions_match_reduced_charpoly(corpus_by_name):
    for name in LOOPLESS_NAMES:
        M = corpus_by_name[name]
        expected = abs_coeff_row(reduced_char_poly(M))
        assert reduced_os_dimensions(M) == expected, name


def test_boolean_reduced_dimensions_are_binomials(corpus_by_name):
    for n in (1, 2, 3, 4):
        M = corpus_by_name[f"boolean_n{n}"]
        dims = reduced_os_dimensions(M)
        assert dims == [comb(n, k) for k in range(n + 1)]


def test_projective_line_reduced_degree_one(corpus_by_name):
    for q in (2, 3, 4):
        M = corpus_by_name[f"pg_1_{q}"]
        assert reduced_nbc_basis(M, 1).dimension == q


def test_fano_reduced_basis(corpus_by_name):
    F = corpus_by_name["fano"]
    assert reduced_os_dimensions(F) == [1, 6, 8]
    assert reduced_nbc_index_sets(F, 2) == [
        (1, 2), (1, 3), (1, 4), (1, 6), (2, 5), (2, 6), (3, 4), (3, 5),
    ]
    basis = reduced_nbc_basis(F, 2)
    assert basis.dimension == 8
    # each monomial is the expanded product prod_{s in S} (e_s - e_0)
    for S, mono in zip(basis.index_sets, basis.monomials):
        prod = ExteriorElement.scalar(QQ, QQ.one)
        e0 = ExteriorElement.monomial(QQ, (0,))
        for s in S:
            prod = prod.wedge(ExteriorElement.monomial(QQ, (s,)) - e0)
        sp = os_space(F, 2)
        assert sp.reduce(prod) == sp.reduce(mono), S


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=["Q", "GF2", "GF3"])
def test_reduced_monomials_are_the_wedge_products(corpus_by_name, field):
    """Each reduced monomial, written out term by term, is the product
    (e_s1 - e_0) ^ ... ^ (e_sk - e_0) computed by wedges."""
    e0 = ExteriorElement.monomial(field, (0,))
    for name in ("k4", "fano", "u_3_6", "pg_1_4", "boolean_n4"):
        M = corpus_by_name[name]
        for k in range(M.r):
            basis = reduced_nbc_basis(M, k, field)
            for S, mono in zip(basis.index_sets, basis.monomials):
                prod_ = ExteriorElement.scalar(field, 1)
                for s in S:
                    prod_ = prod_.wedge(ExteriorElement.monomial(field, (s,)) - e0)
                assert mono == prod_, (name, k, S)


def test_reduced_index_sets_avoid_zero_and_stay_nbc(corpus_by_name):
    for name in ("k4", "fano", "u_3_6"):
        M = corpus_by_name[name]
        for k in range(M.r):
            nbc_k1 = set(nbc_sets(M, k + 1))
            for S in reduced_nbc_index_sets(M, k):
                assert 0 not in S, (name, S)
                assert tuple(sorted((0,) + S)) in nbc_k1, (name, S)


def test_reduced_field_independence(corpus_by_name):
    for name in ("fano", "k4", "pg_1_3"):
        M = corpus_by_name[name]
        dims_q = reduced_os_dimensions(M)
        for field in (GF2, GF3, GF5):
            assert reduced_os_dimensions(M, field=field) == dims_q, (
                name,
                field.name,
            )


class _CountingSteps:
    """Push/pop rank oracle proxy that counts pushes and forwards the rest,
    `classes` included."""

    def __init__(self, steps, pushes):
        self._steps, self._pushes = steps, pushes

    def push(self, e):
        self._pushes.append(e)
        return self._steps.push(e)

    def __getattr__(self, name):
        return getattr(self._steps, name)


def _count_walks(monkeypatch, M):
    """Wrap M.incremental_rank: the oracles handed out, and their pushes."""
    walks, pushes, real = [], [], M.incremental_rank
    monkeypatch.setattr(M, "incremental_rank", lambda: walks.append(1) or _CountingSteps(real(), pushes))
    return walks, pushes


def test_nbc_sets_enumerated_once_per_degree(monkeypatch):
    """One nbc walk serves every degree and every field; the Whitney
    numbers are read first, so their subset sum is not counted."""
    M = corpus_matroid("k4")
    orlik_solomon._whitney_numbers(M)
    walks, _ = _count_walks(monkeypatch, M)
    dims = {f.name: os_dimensions(M, f) for f in (QQ, PrimeField(2), PrimeField(3))}
    assert dims["Q"] == dims["GF(2)"] == dims["GF(3)"] == [1, 6, 11, 6]
    assert [len(nbc_sets(M, k)) for k in range(M.size + 1)] == [1, 6, 11, 6, 0, 0, 0]
    assert len(walks) == 1


@pytest.mark.parametrize("degree", [None, 1, 2])
def test_reduced_basis_walks_once(monkeypatch, degree):
    """The reduced basis in degree k reads the nbc sets of degrees k + 1
    and k, and the reduced dimensions those of every degree, from one nbc
    walk; the only other oracle is the straightener's."""
    M = corpus_matroid("fano")
    orlik_solomon._whitney_numbers(M)
    walks, _ = _count_walks(monkeypatch, M)
    if degree is None:
        assert reduced_os_dimensions(M) == [1, 6, 8]
    else:
        assert reduced_nbc_basis(M, degree).dimension == [1, 6, 8][degree]
    assert len(walks) == 2


def test_os_dimensions_of_k8_walk_once(monkeypatch):
    """M(K8) has 28 elements, so its Whitney numbers come from
    deletion-contraction, which never asks M itself for an oracle: every
    push counted is the nbc walk's: 158,323, against 425,482 over one walk
    per degree."""
    M = from_graph([(a, b) for a in range(8) for b in range(a + 1, 8)])
    walks, pushes = _count_walks(monkeypatch, M)
    assert os_dimensions(M) == [1, 28, 322, 1960, 6769, 13132, 13068, 5040]
    assert len(walks) == 1 and len(pushes) <= 158_323
