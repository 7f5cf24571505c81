import io
import json
import sys
import time
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import explicit_move_components
from matroid_workbench import (
    CORPUS,
    InternalInvariantViolation,
    InvalidInput,
    TooLarge,
    check_degree,
    cli,
    from_graph,
    from_matrix,
    symmetric_exchange_neighbors,
    toric_fibers,
    uniform,
    white,
)
from matroid_workbench.white import _labels


def test_exchange_neighbors_frozen(corpus_by_name):
    M = corpus_by_name["u_2_4"]
    got = symmetric_exchange_neighbors(M, ((0, 1), (2, 3)))
    assert got == [((0, 2), (1, 3)), ((0, 3), (1, 2))]


def test_exchange_neighbors_preserve_multidegree(corpus_by_name):
    M = corpus_by_name["k4"]
    bases = M.bases()
    pair = (bases[0], bases[5])
    before = sorted(bases[0] + bases[5])
    for b1, b2 in symmetric_exchange_neighbors(M, pair):
        assert sorted(b1 + b2) == before
        assert tuple(sorted(b1)) in bases and tuple(sorted(b2)) in bases


def test_exchange_neighbors_reject_non_bases(corpus_by_name):
    M = corpus_by_name["u_2_4"]
    with pytest.raises(InvalidInput):
        symmetric_exchange_neighbors(M, ((0, 1), (0, 1, 2)))
    with pytest.raises(InvalidInput):
        symmetric_exchange_neighbors(M, ((0, 5), (1, 2)))


def test_fiber_partition_counts(corpus_by_name):
    """Fibers partition all degree-d basis multisets."""
    for name, d in (("u_2_3", 2), ("u_2_4", 3), ("k4", 3)):
        M = corpus_by_name[name]
        fibers = toric_fibers(M, d)
        n_bases = len(M.bases())
        assert sum(len(f.vertices) for f in fibers) == comb(n_bases + d - 1, d)
        seen = set()
        for f in fibers:
            assert f.degree == d
            for v in f.vertices:
                assert v not in seen
                seen.add(v)
                assert len(v) == d
                mdeg = [0] * M.size
                for basis in v:
                    assert tuple(sorted(basis)) == basis
                    for e in basis:
                        mdeg[e] += 1
                assert tuple(mdeg) == f.multidegree, (name, v)


def test_fiber_adjacency_is_symmetric(corpus_by_name):
    M = corpus_by_name["k4"]
    for f in toric_fibers(M, 3)[:50]:
        for v, nbrs in f.adjacency.items():
            assert len(set(nbrs)) == len(nbrs)
            for u in nbrs:
                assert v in f.adjacency[u], (v, u)


def test_components_partition_disconnected_toy_graph():
    a, b, c, d = "a", "b", "c", "d"
    assert _labels([a, b, c, d], [(a, b), (d, c)]) == {a: 0, b: 0, c: 1, d: 1}
    assert _labels([a, b], []) == {a: 0, b: 1}


def test_check_degree_reports(corpus_by_name):
    M = corpus_by_name["u_2_4"]
    report = check_degree(M, 3)
    assert report["degree"] == 3
    assert report["n_bases"] == 6
    assert report["n_fibers"] == 44
    assert report["n_monomials"] == comb(6 + 3 - 1, 3) == 56
    assert report["all_connected"] is True
    assert report["witnesses"] == []
    assert report["verdict"] == "no minimal generators in degree 3"

    r4 = check_degree(M, 4)
    assert r4["n_fibers"] == 85
    assert r4["n_monomials"] == 126
    assert r4["all_connected"] is True


def test_check_degree_frozen_counts(corpus_by_name):
    u36 = check_degree(corpus_by_name["u_3_6"], 3)
    assert (u36["n_fibers"], u36["n_monomials"]) == (580, 1540)
    assert u36["max_fiber_size"] == 16
    assert u36["all_connected"] is True

    k4 = check_degree(corpus_by_name["k4"], 3)
    assert (k4["n_fibers"], k4["n_monomials"]) == (396, 816)
    assert k4["all_connected"] is True

    fano = check_degree(corpus_by_name["fano"], 3)
    assert (fano["n_fibers"], fano["n_monomials"]) == (1407, 4060)
    assert fano["max_fiber_size"] == 20
    assert fano["all_connected"] is True


def test_check_degree_agrees_with_dual(corpus_by_name):
    for name in ("u_2_3", "k4"):
        M = corpus_by_name[name]
        a = check_degree(M, 3)
        b = check_degree(M.dual(), 3)
        assert a["all_connected"] == b["all_connected"], name
        # dual bases are complements, so fiber counts coincide
        assert a["n_fibers"] == b["n_fibers"], name
        assert a["n_monomials"] == b["n_monomials"], name


def test_check_degree_rejects_low_degree(corpus_by_name):
    M = corpus_by_name["u_2_4"]
    for bad in (2, 1, 0, -1):
        with pytest.raises(InvalidInput):
            check_degree(M, bad)
    with pytest.raises(InvalidInput):
        check_degree(M, 3.0)


def test_toric_fibers_degree_validation(corpus_by_name):
    M = corpus_by_name["u_2_3"]
    with pytest.raises(InvalidInput):
        toric_fibers(M, 0)
    # degrees 1 and 2 are legal for raw fiber construction
    assert sum(len(f.vertices) for f in toric_fibers(M, 1)) == 3


def test_budget_too_large(corpus_by_name):
    with pytest.raises(TooLarge):
        check_degree(corpus_by_name["fano"], 3, budget=100)


def test_budget_counts_basis_factors_over_all_degrees(corpus_by_name):
    # b * C(b + d, d - 1) factors: 16 * C(19, 2) = 2,736 for M(K4) at d = 3
    k4 = corpus_by_name["k4"]
    assert check_degree(k4, 3, budget=2736)["all_connected"] is True
    with pytest.raises(TooLarge):
        check_degree(k4, 3, budget=2735)
    white._check_budget(75, 3, 225_225)  # M(K5) minus an edge
    with pytest.raises(TooLarge):
        white._check_budget(75, 3, 225_224)


@pytest.mark.parametrize("degree", [100_000, 99_999_999_999_999_999_999])
def test_huge_degree_is_refused_at_once(degree):
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        check_degree(uniform(1, 1), degree)
    assert time.perf_counter() - start < 1


# ------------------------------------------------ lift against explicit moves


def _partition(fibers):
    return {f.multidegree: f.components for f in fibers}


@pytest.mark.parametrize(
    "name,d", [(e["name"], 3) for e in CORPUS] + [("u_2_4", 4), ("k4", 4)]
)
def test_lift_matches_explicit_moves(corpus_by_name, name, d):
    M = corpus_by_name[name]
    assert _partition(toric_fibers(M, d)) == explicit_move_components(M, d)


@st.composite
def small_matrices(draw):
    field = draw(st.sampled_from(["GF(2)", "GF(3)"]))
    p = int(field[3])
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    return from_matrix(field, draw(st.lists(row, min_size=rows, max_size=rows)))


@settings(max_examples=30, deadline=None)
@given(small_matrices())
def test_lift_matches_explicit_moves_on_generated_matrices(M):
    fibers = toric_fibers(M, 3)
    assert _partition(fibers) == explicit_move_components(M, 3)
    assert white._lattice_points(M, 3) == len(fibers)


def _brute_lift(labels, n_bases, k):
    """Components of the degree-k monomials under "v = B*m, w = B*m' with
    labels[m] == labels[m']", closed transitively over all pairs."""
    monos = list(combinations_with_replacement(range(n_bases), k))

    def quotients(v):
        return {(b, labels[v[:t] + v[t + 1:]]) for t, b in enumerate(v)}

    comp = {v: {v} for v in monos}
    for v, w in combinations(monos, 2):
        if quotients(v) & quotients(w) and comp[v] is not comp[w]:
            merged = comp[v] | comp[w]
            for u in merged:
                comp[u] = merged
    return {frozenset(c) for c in comp.values()}


@pytest.mark.parametrize(
    "labelling",
    [
        lambda i, m: i,  # all singletons: every degree-2 fiber disconnected
        lambda i, m: sum(m) % 3,  # classes that ignore the fibers
        lambda i, m: 0,  # one class
    ],
)
@pytest.mark.parametrize("k", [3, 4])
def test_lift_of_a_hand_made_partition(labelling, k):
    n_bases = 5
    lower = list(combinations_with_replacement(range(n_bases), k - 1))
    labels = {m: labelling(i, m) for i, m in enumerate(lower)}
    monomials, edges = white._lift(labels, n_bases, k)
    assert monomials == list(combinations_with_replacement(range(n_bases), k))
    got = {}
    for v, c in white._labels(monomials, edges).items():
        got.setdefault(c, set()).add(v)
    assert {frozenset(c) for c in got.values()} == _brute_lift(labels, n_bases, k)


# ------------------------------------------------------ lattice cross-check


def _brute_sums(M, d):
    pos = {e: p for p, e in enumerate(M.elements)}
    out = set()
    for ms in combinations_with_replacement(M.bases(), d):
        x = [0] * M.size
        for b in ms:
            for e in b:
                x[pos[e]] += 1
        out.add(tuple(x))
    return len(out)


@pytest.mark.parametrize(
    "M",
    [
        from_graph([(0, 0), (0, 1), (1, 2), (2, 0), (2, 3), (3, 3)]),  # loops, coloop
        uniform(2, 6),
        uniform(4, 4),
        uniform(0, 3),
        from_matrix("GF(2)", [[1, 0, 1, 1, 0], [0, 1, 1, 0, 0]]),
    ],
)
def test_lattice_points_are_the_sums_of_bases(M):
    for d in (1, 2, 3):
        assert white._lattice_points(M, d) == _brute_sums(M, d)


def test_lattice_count_needs_no_scan_of_all_flats():
    # U(19, 20) has about 2^20 flats but only two cyclic flats
    start = time.perf_counter()
    assert white._lattice_points(uniform(19, 20), 3) == check_degree(uniform(19, 20), 3)["n_fibers"]
    assert white._lattice_points(uniform(20, 20), 3) == 1
    assert time.perf_counter() - start < 2


def test_broken_lattice_count_is_an_invariant_violation(corpus_by_name, monkeypatch, capsys):
    count = white._lattice_points
    monkeypatch.setattr(white, "_lattice_points", lambda M, d: count(M, d) + 1)
    with pytest.raises(InternalInvariantViolation, match="integer points"):
        check_degree(corpus_by_name["u_2_4"], 3)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"type": "uniform", "r": 2, "n": 4})))
    assert cli.main(["white-check", "--degree", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err


def test_check_degree_builds_fibers_once(corpus_by_name, monkeypatch):
    """Lower degrees are lifted inside toric_fibers, so a wrapper around it
    (as the benchmark tracer installs) sees one call and the degree-d
    monomials only."""
    calls = []
    build = white.toric_fibers

    def recording(M, d, *args, **kwargs):
        calls.append(d)
        return build(M, d, *args, **kwargs)

    monkeypatch.setattr(white, "toric_fibers", recording)
    report = check_degree(corpus_by_name["k4"], 3)
    assert calls == [3]
    assert report["n_monomials"] == 816
