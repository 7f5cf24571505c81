"""The walks over prefixes: corank-nullity counts and basis enumeration.

rank_size_counts stops at subsets of corank at most 1 and counts their
supersets by binomials; Matroid.bases() extends only independent prefixes, and
Matroid.circuits() reads fundamental circuits off its bases. All three are
checked against rank-every-subset oracles on the corpus, on matroids with
loops and coloops, on basis lists and derived duals and minors (whose
oracles keep the bases holding the prefix, or rank each prefix), and on
generated matrices.
"""
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import (
    InternalInvariantViolation,
    linalg,
    from_bases,
    from_graph,
    from_matrix,
    rank_size_counts,
    tutte,
    uniform,
)

from helpers import brute_bases, brute_circuits, brute_rank_size_counts


def assert_walks_match_oracles(M, label=None):
    assert rank_size_counts(M) == brute_rank_size_counts(M), label or M
    assert M.bases(limit=0) == brute_bases(M), label or M
    # circuits are read off the bases as fundamental circuits
    assert M.circuits(limit=0) == brute_circuits(M), label or M


def adapter_family():
    """Matroids on explicit basis lists or derived from a rank function."""
    k4 = from_graph(list(combinations(range(4), 2)))
    u24_list = from_bases(4, list(combinations(range(4), 2)))
    k4_list = from_bases(6, k4.bases())
    return {
        "bases U(2,4)": u24_list,
        "bases M(K4)": k4_list,
        "bases M(K4) dual": k4_list.dual(),
        "bases M(K4) minor": k4_list.minor(deleted={0}, contracted={5}),
        "M(K4) dual": k4.dual(),
        "M(K4) dual minor": k4.dual().minor(deleted={1}, contracted={2}),
    }


def test_walks_match_oracles_on_corpus(corpus_by_name):
    for name, M in corpus_by_name.items():
        assert_walks_match_oracles(M, name)
        assert_walks_match_oracles(M.dual(), f"{name} dual")


@pytest.mark.parametrize(
    "M",
    [
        uniform(0, 4),  # all loops: the empty set spans
        uniform(4, 4),  # all coloops: one basis, the whole ground set
        uniform(3, 7),
        from_graph([(0, 0), (0, 1), (1, 2), (2, 0), (2, 3), (3, 3), (1, 2)]),
        from_matrix("Q", [[0, 1, 0, 1, 2], [0, 0, 1, 1, 0]]),
        from_matrix("GF(2)", [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]]),
        # rank 1, and rank 0 and full rank on basis lists and derived duals
        uniform(1, 4),
        from_graph([(0, 1), (1, 1), (0, 1), (1, 0)]),
        from_matrix("GF(7)", [[0, 3, 1, 0, 6]]),
        from_bases(4, [(0,), (2,), (3,)]),
        from_bases(3, [()]),
        from_bases(3, [(0, 1, 2)]),
        from_graph([(0, 1), (1, 2), (2, 3)]).dual(),
    ],
    ids=["U(0,4)", "U(4,4)", "U(3,7)", "graph-loops-bridge", "Q-zero-column", "GF2-coloop",
         "U(1,4)", "graph-rank-1", "GF7-rank-1", "bases-rank-1", "bases-rank-0", "bases-rank-n",
         "derived-rank-0"],
)
def test_walks_match_oracles_with_loops_and_coloops(M):
    assert_walks_match_oracles(M)


@pytest.mark.parametrize("name", sorted(adapter_family()))
def test_walks_match_oracles_through_the_rank_adapter(name):
    M = adapter_family()[name]
    assert M._backing.kind in ("bases", "derived")
    assert_walks_match_oracles(M, name)


@st.composite
def matrices(draw):
    """A matrix over GF(2), GF(3) or Q with up to 4 rows and 8 columns;
    zero and repeated columns (loops, parallel pairs) occur often."""
    field = draw(st.sampled_from(["GF(2)", "GF(3)", "Q"]))
    entry = st.integers(0, 2) if field != "Q" else st.sampled_from([0, 0, 1, -1, 2, "1/2", "-3/2"])
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 8))
    row = st.lists(entry, min_size=cols, max_size=cols)
    return from_matrix(field, draw(st.lists(row, min_size=rows, max_size=rows)))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_walks_match_oracles_on_generated_matrices(M, data):
    assert_walks_match_oracles(M)
    # a minor of its dual: row operations on the RREF of a kernel matrix
    roles = data.draw(st.lists(st.sampled_from("dck"), min_size=M.size, max_size=M.size))
    N = M.dual().minor(
        deleted=[e for e, x in zip(M.elements, roles) if x == "d"],
        contracted=[e for e, x in zip(M.elements, roles) if x == "c"],
    )
    if N.size:
        assert_walks_match_oracles(N)


class _CountingSteps:
    def __init__(self, steps):
        self.steps, self.pushes = steps, 0

    def push(self, e):
        self.pushes += 1
        return self.steps.push(e)

    def pop(self):
        self.steps.pop()


def test_walk_stops_at_full_rank_on_vandermonde(monkeypatch):
    """Every 6-subset of the 6 x 18 Vandermonde matrix spans, so the walk
    pushes exactly the subsets of sizes 1..6: sum C(18, k) = 31,179 of
    the 262,143 nonempty subsets."""
    M = from_matrix("Q", [[x**i for x in range(18)] for i in range(6)])
    oracle = _CountingSteps(M.incremental_rank())
    monkeypatch.setattr(M, "incremental_rank", lambda: oracle)
    counts = rank_size_counts(M)
    assert oracle.pushes == sum(comb(18, k) for k in range(1, 7)) == 31_179
    assert sum(counts.values()) == 2**18
    assert counts[(0, 0)] == 18_564  # C(18, 6) bases


def _count_calls(monkeypatch, owner, name):
    calls = [0]
    step = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_walk_shares_residuals_on_vandermonde(monkeypatch):
    """The walk's echelon resumes each push from the residual that an
    ancestor or sibling left at the deepest level, so each row elimination
    serves every descendant that pushes the column: 31,161 over Q on the
    6 x 18 Vandermonde matrix, where reducing every push from scratch
    takes 138,057."""
    M = from_matrix("Q", [[x**i for x in range(18)] for i in range(6)])
    eliminations = _count_calls(monkeypatch, linalg, "_reduce_int_row")
    counts = rank_size_counts(M)
    assert eliminations[0] <= 31_161
    assert counts[(0, 0)] == 18_564


def test_walk_shares_residuals_over_gf7(monkeypatch):
    """The same over GF(7), counted at ModEchelon's own elimination step:
    19,104 on a random 6 x 17 matrix of rank 6, where reducing every push
    from scratch takes 99,000."""
    rng = random.Random(17)
    M = from_matrix("GF(7)", [[rng.randrange(7) for _ in range(17)] for _ in range(6)])
    eliminations = _count_calls(monkeypatch, linalg.ModEchelon, "_eliminate")
    counts = rank_size_counts(M)
    assert eliminations[0] <= 19_104
    assert counts[(0, 0)] == len(M.bases(limit=0))


def test_counts_must_add_up(monkeypatch, corpus_by_name):
    """A wrong binomial tail is caught by the 2^#E total."""
    monkeypatch.setattr(tutte, "comb", lambda m, j: 1)
    with pytest.raises(InternalInvariantViolation, match="add up"):
        rank_size_counts(corpus_by_name["k4"])
