import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import PrimeField, QQ
from matroid_workbench.linalg import IntEchelon, ModEchelon, _echelon, _rref, _store_column, rref
from matroid_workbench.matroids import RollbackUnionFind, int_determinant

from helpers import column_matroid

FANO_COLUMNS = [
    (0, 0, 1),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, 0),
    (1, 1, 1),
]


def test_int_echelon_rank_and_rollback():
    ech = IntEchelon({"a": (1, 0, 0), "b": (0, 1, 0), "c": (1, 1, 0), "d": (2, 2, 2), "e": (0, 0, 7)})
    assert ech.push("a") is True
    assert ech.push("b") is True
    assert ech.push("c") is False  # dependent
    assert ech.push("d") is True
    assert ech.rank == 3
    ech.pop()
    ech.pop()
    assert ech.rank == 2
    assert ech.push("e") is True
    assert ech.rank == 3


def test_int_echelon_randomized_rollback_matches_fresh_recompute():
    rng = random.Random(20260819)
    dim = 5
    columns = {}
    stack = []
    ech = IntEchelon(columns)
    for label in range(300):
        if stack and rng.random() < 0.4:
            stack.pop()
            ech.pop()
        else:
            columns[label] = tuple(rng.randrange(-3, 4) for _ in range(dim))
            stack.append(label)
            ech.push(label)
        fresh = IntEchelon(columns)
        for e in stack:
            fresh.push(e)
        assert ech.rank == fresh.rank


def test_mod_echelon_fano_rank():
    fano = dict(enumerate(FANO_COLUMNS))
    ech = ModEchelon(2, fano)
    for e in fano:
        ech.push(e)
    assert ech.rank == 3
    for _ in fano:
        ech.pop()
    assert ech.rank == 0

    # every pair of distinct columns is independent over GF(2)
    for i in range(7):
        for j in range(i + 1, 7):
            e = ModEchelon(2, fano)
            assert e.push(i) and e.push(j)


def test_mod_echelon_gf3_dependence():
    # det(1 2; 2 1) = 1 - 4 = -3 = 0 mod 3: the second vector is dependent
    ech = ModEchelon(3, {0: (1, 2), 1: (2, 1), 2: (1, 0)})
    assert ech.push(0) is True
    assert ech.push(1) is False
    assert ech.push(2) is True
    assert ech.rank == 2


def test_mod_echelon_randomized_rollback_matches_fresh_recompute():
    rng = random.Random(77)
    columns = {}
    stack = []
    ech = ModEchelon(5, columns)
    for label in range(200):
        if stack and rng.random() < 0.4:
            stack.pop()
            ech.pop()
        else:
            columns[label] = tuple(rng.randrange(5) for _ in range(4))
            stack.append(label)
            ech.push(label)
        fresh = ModEchelon(5, columns)
        for e in stack:
            fresh.push(e)
        assert ech.rank == fresh.rank


def test_rref_and_kernel_rational():
    """The dense reference: pivots, rows monic at their pivot and zero at
    the other one; the kernel half lives in the dual tests of
    test_matroids.py."""
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    red, pivots = rref(rows, QQ)
    assert pivots == [0, 1]
    assert red == [[1, 0, 1], [0, 1, 1]]


def test_reduced_rows_match_rref():
    """The two-pass readout that gives a linear matroid its RREF (_rref)
    matches the dense RREF: over Q up to one scalar per row, over GF(p)
    exactly."""
    rng = random.Random(1009)
    for _ in range(300):
        p = rng.choice([0, 2, 3, 7])
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        vecs = [[rng.choice([0, rng.randrange(-4, 5)]) for _ in range(ncols)] for _ in range(nrows)]
        field = QQ if p == 0 else PrimeField(p)
        got = _rref(field, vecs)
        red, pivots = rref([[field.of(x) for x in v] for v in vecs], field)
        assert [j for j, _ in got] == pivots
        if p == 0:
            assert [[Fraction(x, row[j]) for x in row] for j, row in got] == red
        else:
            assert [row for _, row in got] == red


@st.composite
def walk_cases(draw):
    """A matrix over Q or GF(p), p in {2, 3, 7, 101}, with repeated and
    zero columns likely, and a push/pop script over its labels that
    re-pushes labels at several depths and pops back to the root."""
    p = draw(st.sampled_from([0, 2, 3, 7, 101]))
    field = QQ if p == 0 else PrimeField(p)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 1, -1, 2, 5, 100]) if p else st.sampled_from([0, 0, 1, -1, 2, "1/2", "-3/2"])
    matrix = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    columns = {j: _store_column(field, [field.of(row[j]) for row in matrix]) for j in range(cols)}
    ops = draw(st.lists(st.one_of(st.integers(0, cols - 1), st.none()), max_size=40))
    return field, columns, ops


def dense_rank(field, vectors):
    return len(rref([[field.of(x) for x in v] for v in vectors], field)[0])


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_residual_memo_matches_fresh_echelons(case):
    """The one push path, through the level memo, checked along a walk
    (a linear matroid's incremental_rank()) after every push and pop:
    push results and stored rows equal a fresh echelon's fed the same
    prefix; the stored rows span the pushed columns (their RREF is the
    dense RREF of those columns, over Q up to one scalar per row); and
    every memo entry at level k holds len(column) - k entries, one per
    coordinate that is not a pivot of rows[:k], and put back in full
    coordinates with zeros at those pivots it is the residual of its
    column modulo rows[:k]: spanning the same space with them as the
    column does, and over GF(p) the column minus a combination of them."""
    field, columns, ops = case
    walk = column_matroid(field, columns).incremental_rank()
    stack = []
    for op in ops + [None] * len(ops):
        if op is None:
            if stack:
                stack.pop()
                walk.pop()
            continue
        fresh = _echelon(field, columns)
        for e in stack:
            fresh.push(e)
        assert walk.push(op) == fresh.push(op)
        stack.append(op)
        assert walk.rows == fresh.rows
        red, pivots = rref([[field.of(x) for x in columns[e]] for e in stack], field)
        got = _rref(field, [row for _, row in walk.rows])
        assert [j for j, _ in got] == pivots
        assert [[field.mul(field.inv(field.of(row[j])), field.of(x)) for x in row] for j, row in got] == red
        assert len(walk._res) == walk.rank + 1
        for k, level in enumerate(walk._res):
            below = [row for _, row in walk.rows[:k]]
            pivots = {j for j, _ in walk.rows[:k]}
            for e, short in level.items():
                col = columns[e]
                assert len(short) == len(col) - k, (k, e)
                free = iter(short)
                v = [0 if j in pivots else next(free) for j in range(len(col))]
                assert all(v[j] == 0 for j, _ in walk.rows[:k]), (k, e)
                assert dense_rank(field, below + [v]) == dense_rank(field, below + [col])
                assert dense_rank(field, below + [col, v]) == dense_rank(field, below + [col])
                if field != QQ:
                    assert dense_rank(field, below + [[x - y for x, y in zip(v, col)]]) == k
    assert walk.rank == 0 and len(walk._res) == 1


def test_int_determinant_matches_leibniz():
    """Bareiss's elimination against the permutation expansion, on random
    integer matrices with zero pivots and repeated rows likely."""
    from itertools import permutations

    rng = random.Random(4099)
    for _ in range(300):
        n = rng.randint(0, 5)
        m = [[rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            m[-1] = list(m[0])
        leibniz = 0
        for perm in permutations(range(n)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            term = sign
            for i, j in enumerate(perm):
                term *= m[i][j]
            leibniz += term
        assert int_determinant(m) == leibniz, m


def test_rollback_union_find():
    uf = RollbackUnionFind(range(6))
    assert uf.union(0, 1) is True
    assert uf.union(1, 2) is True
    assert uf.union(0, 2) is False  # already connected
    assert uf.find(0) == uf.find(2)
    uf.pop()  # undo the no-op union
    uf.pop()  # undo union(1, 2)
    assert uf.find(0) == uf.find(1)
    assert uf.find(0) != uf.find(2)
    uf.pop()
    assert uf.find(0) != uf.find(1)
