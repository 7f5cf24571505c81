from functools import lru_cache
from itertools import combinations
from math import comb

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
    from_graph,
    koszul_boundary,
    nbc_sets,
    normal_form,
    os_dimensions,
    os_multiply,
    os_space,
    reduced_char_poly,
    reduced_nbc_basis,
    reduced_nbc_index_sets,
    reduced_os_dimensions,
    uniform,
)

from helpers import abs_coeff_row, dense_os_reducer

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


def test_os_errors(corpus_by_name):
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
    with pytest.raises(TooLarge):
        os_space(uniform(3, 25), 12)


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


def test_nbc_sets_enumerated_once_per_degree(monkeypatch):
    """The nbc sets and their Whitney check are shared by every field."""
    from matroid_workbench import orlik_solomon

    calls = []
    real = orlik_solomon.nbc_sets

    def counting(M, k):
        calls.append(k)
        return real(M, k)

    monkeypatch.setattr(orlik_solomon, "nbc_sets", counting)
    M = corpus_matroid("k4")
    dims = {f.name: os_dimensions(M, f) for f in (QQ, PrimeField(2), PrimeField(3))}
    assert dims["Q"] == dims["GF(2)"] == dims["GF(3)"] == [1, 6, 11, 6]
    assert sorted(calls) == list(range(M.r + 1))
