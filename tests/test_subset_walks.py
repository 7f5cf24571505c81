"""The walks over prefixes: corank-nullity counts and basis enumeration.

rank_size_counts stops at subsets of corank at most 2 and counts their
supersets from the parallel classes of the contraction; Matroid.bases()
extends only independent prefixes, and Matroid.circuits() reads fundamental
circuits off its bases. All three are checked against rank-every-subset
oracles on the corpus, on matroids with loops and coloops, on basis lists
and derived duals and minors (whose oracles keep the bases holding the
prefix, or rank each prefix), and on generated matrices and multigraphs.
The counts are also checked through a push/pop-only oracle, which takes the
push route to the parallel classes instead of the echelon's residuals or
the union-find's roots.
"""
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import (
    InternalInvariantViolation,
    linalg,
    matroids,
    from_bases,
    from_graph,
    from_matrix,
    rank_size_counts,
    tutte,
    uniform,
)

from helpers import brute_bases, brute_circuits, brute_rank_size_counts


class _CountingSteps:
    """A push/pop-only proxy of a rank oracle that counts pushes; it has no
    `classes`, so walks through it push to find parallel classes."""

    def __init__(self, steps):
        self.steps, self.pushes = steps, 0

    def push(self, e):
        self.pushes += 1
        return self.steps.push(e)

    def pop(self):
        self.steps.pop()


def push_only_counts(M):
    """rank_size_counts(M) through a _CountingSteps proxy, and its pushes."""
    oracles = []

    def incremental_rank(inner=M.incremental_rank):
        oracles.append(_CountingSteps(inner()))
        return oracles[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(M, "incremental_rank", incremental_rank)
        counts = rank_size_counts(M)
    return counts, sum(o.pushes for o in oracles)


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
        # rank 2: the walk's root is the only node, closed by M's own classes
        from_graph([(0, 1), (1, 2), (2, 0), (1, 0), (2, 2), (2, 1), (0, 2)]),
        from_matrix("Q", [[1, -2, 0, "1/2", 3, 0, 1], [1, -2, 0, "1/2", -1, 0, "-1/3"]]),
        from_matrix("GF(5)", [[1, 4, 0, 2, 3], [2, 3, 1, 4, 0]]),
        from_bases(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (0, 4), (1, 4), (3, 4)]),
        from_matrix("Q", [[1, 0, 1, 1], [0, 1, 1, 2]]).dual().dual(),
    ],
    ids=["U(0,4)", "U(4,4)", "U(3,7)", "graph-loops-bridge", "Q-zero-column", "GF2-coloop",
         "U(1,4)", "graph-rank-1", "GF7-rank-1", "bases-rank-1", "bases-rank-0", "bases-rank-n",
         "derived-rank-0", "graph-rank-2", "Q-rank-2", "GF5-rank-2", "bases-rank-2", "derived-rank-2"],
)
def test_walks_match_oracles_with_loops_and_coloops(M):
    assert_walks_match_oracles(M)
    assert push_only_counts(M)[0] == brute_rank_size_counts(M)


@pytest.mark.parametrize("r", range(4))
def test_uniform_oracle_reads_its_classes_off_its_rank(r):
    """U(r, n) names its parallel classes with no push: none at rank r, one
    at rank r - 1, singletons below. The push route over an oracle that
    ranks each prefix with the rank function agrees at every prefix, and
    the walks agree through either oracle."""

    def by_rank_function(M):
        return _CountingSteps(matroids._PrefixSteps(M.rank))

    for n in range(max(r, 1), r + 5):
        M = uniform(r, n)
        own, pushed = M.incremental_rank(), by_rank_function(M)
        for k in range(n + 1):
            rest = M.elements[k:]
            assert own.classes(rest) == matroids.parallel_classes(pushed, rest), (n, k)
            if rest:
                own.push(rest[0]), pushed.push(rest[0])
        assert M.parallel_classes() == matroids.parallel_classes(by_rank_function(M), M.elements)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(M, "incremental_rank", lambda: by_rank_function(M))
            by_pushes = rank_size_counts(M)
        assert rank_size_counts(M) == by_pushes == brute_rank_size_counts(M), n


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


@st.composite
def multigraphs(draw):
    """Up to 9 edges on up to 5 vertices, self-loops and parallel edges
    allowed; vertices are ints or strs, mixed in one graph."""
    vertex = st.sampled_from([0, 1, 2, 3, "a"])
    return from_graph(draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=9)))


@st.composite
def parallel_rich_matrices(draw):
    """A matrix over Q or GF(p), p in {2, 3, 7, 101}, with up to 4 rows and
    9 columns, each column a scalar multiple of one of a few base columns
    (often zero): over Q the scalars negative and fractional as often as
    not, over GF(p) any nonzero residue, so the monic scaling of the GF(p)
    echelon's classes meets every unit."""
    field = draw(st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(7)", "GF(101)"]))
    rows = draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(st.integers(-2, 2), min_size=rows, max_size=rows), min_size=1, max_size=4))
    if field == "Q":
        scalar = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)])
    else:
        scalar = st.integers(1, int(field[3:-1]) - 1)
    columns = draw(st.lists(st.tuples(st.sampled_from(base), scalar), min_size=1, max_size=9))
    matrix = [[col[i] * a for col, a in columns] for i in range(rows)]
    if field == "Q":
        matrix = [[str(x) for x in row] for row in matrix]
    return from_matrix(field, matrix)


@settings(max_examples=200, deadline=None)
@given(st.one_of(multigraphs(), parallel_rich_matrices()))
def test_both_class_routes_match_oracles(M):
    """The union-find's roots and the echelon's residuals group the same
    classes as the push route at every prefix of the ground set, and the
    counts of the walk match the brute-force ones by either route."""
    assert rank_size_counts(M) == push_only_counts(M)[0] == brute_rank_size_counts(M)
    native, pushed = M.incremental_rank(), _CountingSteps(M.incremental_rank())
    assert hasattr(native, "classes")
    for i, e in enumerate(M.elements):
        rest = M.elements[i:]
        assert matroids.parallel_classes(native, rest) == matroids.parallel_classes(pushed, rest)
        native.push(e)
        pushed.push(e)


def test_walk_stops_at_corank_two_on_vandermonde(monkeypatch):
    """Every 6-subset of the 6 x 18 Vandermonde matrix spans, so the walk
    pushes exactly the subsets of sizes 1..4: sum C(18, k) = 4,047 of the
    262,143 nonempty subsets (31,179 when it stopped at corank 1), and reads
    the classes of the later columns off the echelon. Through a
    push/pop-only oracle the classes cost a push of each 5-subset and each
    6-subset once, 31,179 in all, as every column is its own class."""
    M = from_matrix("Q", [[x**i for x in range(18)] for i in range(6)])
    pushes = _count_calls(monkeypatch, linalg.IntEchelon, "push")
    counts = rank_size_counts(M)
    assert pushes[0] == sum(comb(18, k) for k in range(1, 5)) == 4_047
    assert sum(counts.values()) == 2**18
    assert counts[(0, 0)] == 18_564  # C(18, 6) bases
    pushed, pushes_through_proxy = push_only_counts(M)
    assert pushed == counts
    assert pushes_through_proxy == sum(comb(18, k) for k in range(1, 7)) == 31_179


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
    serves every descendant that pushes the column, and the classes at a
    node of corank 2 are read off residuals at its level: 12,597 over Q on
    the 6 x 18 Vandermonde matrix (31,161 when the walk stopped at corank
    1, 138,057 when every push reduced from scratch), counted here with the
    18 reductions that make each column primitive at level 0."""
    M = from_matrix("Q", [[x**i for x in range(18)] for i in range(6)])
    eliminations = _count_calls(monkeypatch, linalg, "_reduce_int_row")
    counts = rank_size_counts(M)
    assert eliminations[0] <= 12_615
    assert counts[(0, 0)] == 18_564


def test_walk_shares_residuals_over_gf7(monkeypatch):
    """The same over GF(7), counted at ModEchelon's own elimination step:
    8,181 on a random 6 x 17 matrix of rank 6 (19,104 when the walk stopped
    at corank 1, 99,000 when every push reduced from scratch)."""
    rng = random.Random(17)
    M = from_matrix("GF(7)", [[rng.randrange(7) for _ in range(17)] for _ in range(6)])
    eliminations = _count_calls(monkeypatch, linalg.ModEchelon, "_eliminate")
    counts = rank_size_counts(M)
    assert eliminations[0] <= 8_181
    assert counts[(0, 0)] == len(M.bases(limit=0))


def test_counts_must_add_up(monkeypatch, corpus_by_name):
    """A wrong binomial in the closed form is caught by the 2^#E total."""
    monkeypatch.setattr(tutte, "comb", lambda m, j: 1)
    with pytest.raises(InternalInvariantViolation, match="add up"):
        rank_size_counts(corpus_by_name["k4"])
