import random
from fractions import Fraction

from matroid_workbench import PrimeField, QQ
from matroid_workbench.linalg import (
    IntEchelon,
    ModEchelon,
    RollbackUnionFind,
    rref,
)

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
    """Both echelon classes read out the dense RREF of the pushed span,
    IntEchelon up to one scalar per row and ModEchelon exactly, and leave
    their own rows as they were."""
    rng = random.Random(1009)
    for _ in range(300):
        p = rng.choice([0, 2, 3, 7])
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        vecs = {i: [rng.choice([0, rng.randrange(-4, 5)]) for _ in range(ncols)] for i in range(nrows)}
        ech = IntEchelon(vecs) if p == 0 else ModEchelon(p, vecs)
        for i in vecs:
            ech.push(i)
        before = list(ech.rows)
        got = ech.reduced_rows()
        assert ech.rows == before
        field = QQ if p == 0 else PrimeField(p)
        red, pivots = rref([[field.of(x) for x in v] for v in vecs.values()], field)
        assert [j for j, _ in got] == pivots
        if p == 0:
            assert [[Fraction(x, row[j]) for x in row] for j, row in got] == red
        else:
            assert [row for _, row in got] == red


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
