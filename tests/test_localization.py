import io
import json
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fixed_point_pairings, per_point_euler_table
from matroid_workbench import (
    CORPUS,
    InternalInvariantViolation,
    InvalidInput,
    TooLarge,
    calibrate_signs,
    corpus_matroid,
    euler_table,
    from_bases,
    from_graph,
    from_matrix,
    h_matrix,
    uniform,
)
from matroid_workbench import cli, localization
from matroid_workbench.localization import (
    FIBER_SIGN,
    TANGENT_SIGN,
    _extract_integer,
)


def test_calibration_runs_and_reports_signs():
    assert calibrate_signs() == (FIBER_SIGN, TANGENT_SIGN)
    assert (FIBER_SIGN, TANGENT_SIGN) == (-1, 1)


# ------------------------------------------------------------ 1-PS handling


def test_geometric_one_ps_matches_h(corpus_by_name):
    """(0, 1, M, M^2, ...) with M = #E + 1 has huge tangent pairings, which
    keeps the large-integer path under test."""
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
    table = euler_table(corpus_by_name["u_3_6"])
    assert [len(row) for row in table] == [4, 4, 4, 4]  # (r + 1) x (#E - r + 1)
    assert table[0][0] == 1
    assert table[0][1] == 6
    assert table[0][3] == 20
    assert table[1][3] == 15
    assert table[3][3] == 1
    assert table[1][1] == 0  # within range but no sections


def test_structure_sheaf_euler_char_is_one(corpus_by_name):
    for name in ("boolean_n1", "u_1_2", "u_2_3", "u_2_4", "k4", "u_3_6"):
        assert euler_table(corpus_by_name[name])[0][0] == 1, name


def test_budget_enforced(corpus_by_name):
    with pytest.raises(TooLarge):
        euler_table(uniform(2, 8))  # 8! = 40320 > default budget
    # the product stops at 7! = 5040, the first partial product over 5000
    with pytest.raises(TooLarge, match="^at least 5040 fixed points exceed the budget of 5000$"):
        euler_table(uniform(2, 8), max_points=5000)
    with pytest.raises(TooLarge, match="^40320 fixed points exceed the budget of 5040$"):
        euler_table(uniform(2, 8), max_points=5040)
    # the bound is exact: 3! = 6 points
    M = corpus_by_name["u_2_3"]
    with pytest.raises(TooLarge):
        euler_table(M, max_points=5)
    assert euler_table(M, max_points=6) == h_matrix(M)


def test_derived_rank_oracle_matroid(corpus_by_name):
    """Matroids whose only rank oracle is the generic one still localize."""
    M = corpus_by_name["u_2_4"].dual()  # U_{2,4} is self-dual
    assert euler_table(M) == h_matrix(corpus_by_name["u_2_4"])


# ------------------------------------------- prefix states against oracle

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
    # weights by position in (0, 2, 3): element 3 weighs 30, not a[3]
    M = corpus_by_name["u_2_4"].delete([1])
    steps, rest, taus = fixed_point_pairings(M, (3, 0, 2), (10, 20, 30))
    assert taus == [TANGENT_SIGN * (30 - 10), TANGENT_SIGN * (10 - 20)]
    assert (steps, rest) == ([FIBER_SIGN * 30, FIBER_SIGN * 10], [FIBER_SIGN * 20])


def test_exact_checks_reject_bad_sums():
    assert _extract_integer((0, 0), [0, 0, 12], 2, 4) == 3
    with pytest.raises(InternalInvariantViolation, match="residual pole"):
        _extract_integer((0, 0), [0, 1, 12], 2, 4)
    with pytest.raises(InternalInvariantViolation, match="non-integer"):
        _extract_integer((0, 0), [0, 0, 13], 2, 4)


@pytest.mark.parametrize("name", ["k4", "fano", "u_2_4"])
def test_sum_in_eta_carries_the_scale_t_to_2n(corpus_by_name, name):
    """The sums run in eta = eps / T, which keeps the constant term: at
    a = (0, ..., #E - 1) the eta^0 slot of every cell is exactly
    T^(2#E - 2) times the h-matrix entry, and every pole slot is 0."""
    M = corpus_by_name[name]
    a, n = tuple(range(M.size)), M.size - 1
    scale = localization._pair_lcm(a) ** (2 * n)
    total = localization._accumulate_points(M, a, M.size)
    want = h_matrix(M)
    assert [[coeffs[:n] for coeffs in row] for row in total] == [[[0] * n for _ in row] for row in want]
    assert [[coeffs[n] for coeffs in row] for row in total] == [[scale * h for h in row] for row in want]


@pytest.mark.parametrize("slot, message", [(0, "residual pole"), (-1, "non-integer")])
def test_perturbed_sum_exits_4(monkeypatch, capsys, slot, message):
    """One wrong slot in the accumulated sums: a nonzero pole slot, or an
    eps^0 slot that is not a multiple of the scale, stops the CLI with exit
    code 4 and one line on stderr."""
    calibrate_signs()  # the calibration tables are computed unperturbed
    accumulate = localization._accumulate_points

    def perturbed(M, a, L):
        total = accumulate(M, a, L)
        total[0][0][slot] += 1
        return total

    monkeypatch.setattr(localization, "_accumulate_points", perturbed)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"type": "uniform", "r": 2, "n": 3})))
    assert cli.main(["euler-table"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err, err


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-60, 60), min_size=4, max_size=4, unique=True))
def test_walk_matches_oracle_on_generic_one_ps(a):
    M = uniform(2, 4)
    assert euler_table(M, one_ps=a) == per_point_euler_table(M, a) == h_matrix(M)


@st.composite
def small_linear_matroids(draw):
    """Matrices over Q or GF(p) with at most 6 columns, some of them zero
    (loops) or multiples of an earlier column (parallel elements)."""
    field = draw(st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(7)"]))
    rows = draw(st.integers(1, 3))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["new", "new", "loop", "parallel"]))
        if kind == "loop":
            columns.append([0] * rows)
        elif kind == "parallel" and columns:
            k = draw(st.sampled_from([-2, -1, 2, 3]))
            columns.append([k * x for x in draw(st.sampled_from(columns))])
        else:
            columns.append(draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows)))
    return from_matrix(field, [list(row) for row in zip(*columns)])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_linear_matroids_match_per_point_oracle(data):
    M = data.draw(small_linear_matroids())
    a = data.draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(-10_000, 10_000), min_size=M.size, max_size=M.size, unique=True),
        )
    )
    assert euler_table(M, one_ps=a) == per_point_euler_table(M, a) == h_matrix(M)
