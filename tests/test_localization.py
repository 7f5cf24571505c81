from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_point_euler_table
from matroid_workbench import (
    CORPUS,
    InternalInvariantViolation,
    InvalidInput,
    TooLarge,
    calibrate_signs,
    corpus_matroid,
    euler_char,
    euler_table,
    fixed_point_data,
    from_bases,
    from_graph,
    from_matrix,
    generic_one_ps,
    h_matrix,
    uniform,
)
from matroid_workbench.localization import (
    FIBER_SIGN,
    TANGENT_SIGN,
    _extract_integer,
)


def test_calibration_runs_and_reports_signs():
    assert calibrate_signs() == (FIBER_SIGN, TANGENT_SIGN)
    assert (FIBER_SIGN, TANGENT_SIGN) == (-1, 1)


# ------------------------------------------------------- fixed point structure


def test_fixed_point_data_shapes(corpus_by_name):
    for name in ("u_2_3", "k4", "fano"):
        M = corpus_by_name[name]
        n, r = M.size, M.r
        for w in (tuple(M.elements), tuple(reversed(M.elements))):
            data = fixed_point_data(M, w)
            assert data.order == w
            assert len(data.steps) == n
            assert sum(data.steps) == r, name
            assert len(data.s_chars) == r, name
            assert len(data.q_chars) == n - r, name
            assert len(data.tangent_chars) == n - 1, name


def test_fixed_point_steps_track_prefix_rank(corpus_by_name):
    M = corpus_by_name["fano"]
    for w in list(permutations(M.elements))[:24]:
        data = fixed_point_data(M, w)
        prefix, prev = [], 0
        for i, e in enumerate(w):
            prefix.append(e)
            rk = M.rank(prefix)
            assert data.steps[i] == (rk > prev), (w, i)
            prev = rk


def test_fixed_point_characters_are_signed_units(corpus_by_name):
    M = corpus_by_name["u_2_4"]
    n = M.size
    w = (2, 0, 3, 1)
    data = fixed_point_data(M, w)
    for char in list(data.s_chars) + list(data.q_chars):
        assert len(char) == n
        assert sorted(char) == [FIBER_SIGN] + [0] * (n - 1)
    for i, char in enumerate(data.tangent_chars):
        assert sum(char) == 0
        # tangent direction i is e_{w_i} - e_{w_{i+1}} up to overall sign
        expected = [0] * n
        expected[w[i]] += TANGENT_SIGN
        expected[w[i + 1]] -= TANGENT_SIGN
        assert list(char) == expected, i


def test_fixed_point_rejects_non_permutations(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    for bad in ((0, 1), (0, 1, 1), (0, 1, 5), (0, 1, 2, 3)):
        with pytest.raises(InvalidInput):
            fixed_point_data(M, bad)


# ------------------------------------------------------------ 1-PS handling


def test_generic_one_ps_has_distinct_coordinates():
    for n in (0, 1, 2, 5, 8):
        assert generic_one_ps(n) == tuple(range(n))


def test_geometric_one_ps_matches_h(corpus_by_name):
    """(0, 1, M, M^2, ...) with M = #E + 1 has huge tangent pairings, which
    keeps the walk's large-integer path under test."""
    M = corpus_by_name["fano"]
    assert euler_table(M, one_ps=(0, 1, 8, 64, 512, 4096, 32768)) == h_matrix(M)


def test_non_generic_one_ps_rejected(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    with pytest.raises(InvalidInput):
        euler_table(M, one_ps=(1, 1, 2))
    with pytest.raises(InvalidInput):
        euler_table(M, one_ps=(0, 1))  # wrong length
    with pytest.raises(InvalidInput):
        euler_table(M, one_ps=(0, True, 2))  # not plain integers
    with pytest.raises(InvalidInput):
        euler_table(M, one_ps=(0, 1, "2"))


def test_result_independent_of_one_ps(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    base = euler_table(M)
    assert euler_table(M, one_ps=(7, 3, 11)) == base
    assert euler_table(M, one_ps=(-5, 2, 9)) == base
    M4 = corpus_by_name["u_2_4"]
    assert euler_table(M4, one_ps=(12, -7, 3, 0)) == euler_table(M4)


# ------------------------------------------------------------- euler tables


def test_euler_tables_match_h_matrices_small(corpus_by_name):
    small = (
        "boolean_n1",
        "boolean_n2",
        "boolean_n3",
        "u_1_2",
        "u_2_3",
        "u_2_4",
        "pg_1_2",
        "pg_1_3",
        "pg_1_4",
    )
    for name in small:
        M = corpus_by_name[name]
        assert euler_table(M) == h_matrix(M), name


def test_euler_tables_match_h_matrices_six_elements(corpus_by_name):
    for name in ("u_3_6", "k4", "generic_3x6"):
        M = corpus_by_name[name]
        assert euler_table(M) == h_matrix(M), name


def test_boolean_euler_column(corpus_by_name):
    M = corpus_by_name["boolean_n2"]
    table = euler_table(M)
    assert [row[0] for row in table] == [1, 3, 3, 1]
    assert all(sum(row[1:]) == 0 for row in table)


def test_euler_char_single_cells(corpus_by_name):
    M = corpus_by_name["u_3_6"]
    assert euler_char(M, 0, 0) == 1
    assert euler_char(M, 0, 1) == 6
    assert euler_char(M, 0, 3) == 20
    assert euler_char(M, 1, 3) == 15
    assert euler_char(M, 3, 3) == 1
    assert euler_char(M, 1, 1) == 0  # within range but no sections
    # out of range is zero by definition, not an error
    assert euler_char(M, 5, 0) == 0
    assert euler_char(M, 0, 9) == 0


def test_structure_sheaf_euler_char_is_one(corpus_by_name):
    for name in ("boolean_n1", "u_1_2", "u_2_3", "u_2_4", "k4", "u_3_6"):
        assert euler_char(corpus_by_name[name], 0, 0) == 1, name


def test_budget_enforced(corpus_by_name):
    with pytest.raises(TooLarge):
        euler_table(uniform(2, 8))  # 8! = 40320 > default budget
    with pytest.raises(TooLarge):
        euler_char(uniform(2, 8), 0, 0, max_points=5000)
    # the bound is exact: 3! = 6 points
    M = corpus_by_name["u_2_3"]
    with pytest.raises(TooLarge):
        euler_table(M, max_points=5)
    assert euler_table(M, max_points=6) == h_matrix(M)


def test_derived_rank_oracle_matroid(corpus_by_name):
    """Matroids whose only rank oracle is the generic one still localize."""
    M = corpus_by_name["u_2_4"].dual()  # U_{2,4} is self-dual
    assert euler_table(M) == h_matrix(corpus_by_name["u_2_4"])


# ------------------------------------------------- prefix walk against oracle

SMALL = [e["name"] for e in CORPUS if corpus_matroid(e["name"]).size <= 6]

ONE_PS = {
    "default": lambda n: None,
    "squares": lambda n: tuple(i * i + 2 * i for i in range(n)),
    "alternating": lambda n: tuple((-1) ** i * (2 * i + 1) for i in range(n)),
}


@pytest.mark.parametrize("choice", sorted(ONE_PS))
@pytest.mark.parametrize("name", SMALL)
def test_walk_matches_per_point_oracle(corpus_by_name, name, choice):
    M = corpus_by_name[name]
    a = ONE_PS[choice](M.size)
    assert euler_table(M, one_ps=a) == per_point_euler_table(M, a)


def test_walk_matches_oracle_without_push_pop():
    """Duals of graphic matroids rank each prefix with their rank function;
    basis lists keep the bases that hold the prefix."""
    house = from_graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    line = from_bases(5, [b for b in combinations(range(5), 3) if b != (0, 1, 2)])
    for M, kind in ((house.dual(), "derived"), (line, "bases")):
        assert M._backing.kind == kind
        for choice in sorted(ONE_PS):
            a = ONE_PS[choice](M.size)
            assert euler_table(M, one_ps=a) == per_point_euler_table(M, a) == h_matrix(M), choice


def test_minors_with_gaps_in_their_labels(corpus_by_name):
    """Weights and characters follow the position of an element in
    M.elements, not its label: minors keep their parent's labels."""
    for M in (
        corpus_by_name["u_2_4"].delete([1]),  # elements (0, 2, 3)
        corpus_by_name["fano"].contract([0]).delete([3]),
        corpus_by_name["k4"].delete([0, 5]),
    ):
        assert euler_table(M) == h_matrix(M) == per_point_euler_table(M), M.elements
    M = corpus_by_name["u_2_4"].delete([1])
    data = fixed_point_data(M, (3, 0, 2))
    assert data.tangent_chars == [(-TANGENT_SIGN, 0, TANGENT_SIGN), (TANGENT_SIGN, -TANGENT_SIGN, 0)]
    assert data.s_chars == [(0, 0, FIBER_SIGN), (FIBER_SIGN, 0, 0)]


def test_exact_checks_reject_bad_sums():
    assert _extract_integer((0, 0), [0, 0, 12], 2, 4) == 3
    with pytest.raises(InternalInvariantViolation, match="residual pole"):
        _extract_integer((0, 0), [0, 1, 12], 2, 4)
    with pytest.raises(InternalInvariantViolation, match="non-integer"):
        _extract_integer((0, 0), [0, 0, 13], 2, 4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=4, max_size=4, unique=True))
def test_walk_matches_oracle_on_generic_one_ps(a):
    M = uniform(2, 4)
    assert euler_table(M, one_ps=a) == per_point_euler_table(M, a) == h_matrix(M)
