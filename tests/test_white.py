import io
import json
import sys
import time
from itertools import chain, combinations, combinations_with_replacement
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
    white_lift,
)
from matroid_workbench.white import _join, _labels


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
    # the degree-1 monomials (0,) .. (3,) are items 0 .. 3 of the forest
    *labels, fibers = _labels(_join(4, [(0, 1), (3, 2)]), [0], 4, 1, [0] * 4)
    assert [x // 4 for x in labels] == [0, 0, 1, 1]
    assert fibers == {0: [4, [(0,), (2,)]]}
    assert list(_labels(_join(2, []), [0], 2, 1, [0, 0]))[:-1] == [0, 2]


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
def small_matrices(draw, max_cols=6):
    field = draw(st.sampled_from(["GF(2)", "GF(3)"]))
    p = int(field[3])
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols)
    return from_matrix(field, draw(st.lists(row, min_size=rows, max_size=rows)))


def _lift_matches_explicit_moves(M, d):
    fibers = toric_fibers(M, d)
    oracle = explicit_move_components(M, d)
    assert _partition(fibers) == oracle
    assert white._lattice_points(M, d) == len(fibers)
    # the report reads the labeling pass's summary, not the views above
    sizes = [sum(map(len, comps)) for comps in oracle.values()]
    report = check_degree(M, d)
    assert report["n_fibers"] == len(oracle)
    assert report["n_monomials"] == sum(sizes)
    assert report["max_fiber_size"] == max(sizes)
    assert report["all_connected"] == all(len(comps) == 1 for comps in oracle.values())


@settings(max_examples=30, deadline=None)
@given(small_matrices())
def test_lift_matches_explicit_moves_on_generated_matrices(M):
    _lift_matches_explicit_moves(M, 3)


@settings(max_examples=10, deadline=None)
@given(small_matrices())
def test_lift_matches_explicit_moves_on_generated_matrices_in_degree_4(M):
    # from degree 4 on, the lift reads the row offsets of monomials p / f of
    # degree 2 and more
    _lift_matches_explicit_moves(M, 4)


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
    monomials = list(combinations_with_replacement(range(n_bases), k))
    flat = [labels[m] * n_bases for m in lower]
    parent = _join((max(labels.values()) + 1) * n_bases, white_lift._lift(flat, n_bases, k))
    # one multidegree code for all: the partition ignores the fibers
    *lifted, _ = white._labels(parent, flat, n_bases, k, [0] * n_bases)
    assert len(lifted) == len(monomials)
    got = {}
    for v, c in zip(monomials, lifted):
        got.setdefault(c, set()).add(v)
    assert {frozenset(c) for c in got.values()} == _brute_lift(labels, n_bases, k)


# ------------------------------------------------- star closure against lift


@st.composite
def small_matroids(draw):
    """Uniform matroids, GF(2) and Q matrices, and multigraphs with loops
    and parallel edges, on at most 6 elements."""
    kind = draw(st.sampled_from(["uniform", "GF(2)", "Q", "graph"]))
    n = draw(st.integers(1, 6))
    if kind == "uniform":
        return uniform(draw(st.integers(0, n)), n)
    if kind == "graph":
        vertex = st.integers(0, 3)
        return from_graph(draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=n)))
    entry = st.integers(0, 1) if kind == "GF(2)" else st.integers(-2, 2)
    rows = draw(st.integers(1, 3))
    row = st.lists(entry, min_size=n, max_size=n)
    return from_matrix(kind, draw(st.lists(row, min_size=rows, max_size=rows)))


def _star_matches_lift(M, d):
    """The fibers of toric_fibers, whose sizes and component counts must be
    those that the lift, called directly, gives, with the lift's summary in
    the same order."""
    fibers = toric_fibers(M, d)
    _, masks, index, codes = white._tables(M, d)
    *_, summary = white_lift._lift_route(masks, index, codes, d)
    lifted = sorted(summary.items())
    assert [(f.size, f.n_components) for f in fibers] == [(size, len(reps)) for _, (size, reps) in lifted]
    assert [f.representatives for f in fibers] == [reps for _, (_, reps) in lifted]
    return fibers


def _star_matches_lift_and_explicit_moves(M, d):
    """(multidegree, size, n_components, representatives) of every fiber
    as toric_fibers gives them, as the lift gives them, and as the
    explicit-move oracle gives them."""
    bases = M.bases()
    star = [
        (f.multidegree, f.size, f.n_components, [tuple(bases[i] for i in v) for v in f.representatives])
        for f in _star_matches_lift(M, d)
    ]
    oracle = sorted(
        (mdeg, sum(map(len, comps)), len(comps), [comp[0] for comp in comps])
        for mdeg, comps in explicit_move_components(M, d).items()
    )
    assert star == oracle


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("name", [e["name"] for e in CORPUS])
def test_star_matches_lift_on_the_corpus(corpus_by_name, name, d):
    _star_matches_lift(corpus_by_name[name], d)


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_star_matches_lift_and_explicit_moves_on_generated_matroids(M):
    _star_matches_lift_and_explicit_moves(M, 3)


@settings(max_examples=25, deadline=None)
@given(small_matroids())
def test_star_matches_lift_and_explicit_moves_on_generated_matroids_in_degree_4(M):
    _star_matches_lift_and_explicit_moves(M, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
))
def test_star_closure_counts_the_components_of_its_graph(graph):
    """One fiber holding n bases, B joined to B' whenever B' is in the node
    mask of the fiber c - code(B): as many components as the graph."""
    n, edges = graph
    codes = [1 << b for b in range(n)]
    c = 1 << n
    near = [1 << b for b in range(n)]
    for x, y in edges:
        near[x] |= 1 << y
        near[y] |= 1 << x
    comps = []
    for b in range(n):
        if not any(b in comp for comp in comps):
            comp, todo = {b}, [b]
            while todo:
                x = todo.pop()
                for y in range(n):
                    if near[x] >> y & 1 and y not in comp:
                        comp.add(y)
                        todo.append(y)
            comps.append(comp)
    lower = {c - codes[b]: near[b] for b in range(n)}
    assert white._components({c: (1 << n) - 1}, lower, codes) == {c: len(comps)}


def test_star_route_runs_no_lift(corpus_by_name, monkeypatch):
    """Every fiber of M(K4) is connected, so the report closes stars from
    degree 3 on; the lift runs once, for every fiber, when the
    representatives are first read."""
    calls = []
    lift = white_lift._lift

    def recording(flat, n_bases, k):
        calls.append(k)
        return lift(flat, n_bases, k)

    monkeypatch.setattr(white_lift, "_lift", recording)
    M = corpus_by_name["k4"]
    report = check_degree(M, 4)
    assert report["all_connected"] is True
    fibers = toric_fibers(M, 4)
    assert calls == []
    assert all(len(f.representatives) == 1 for f in fibers)
    assert calls == [3, 4]


def test_a_split_below_the_degree_hands_over_to_the_lift(corpus_by_name, monkeypatch):
    """A degree-3 fiber reported split sends degree 4 to the lift, which
    gives the same report."""
    M = corpus_by_name["k4"]
    expected = check_degree(M, 4)
    components = white._components

    def splitting(nodes, lower, codes):
        out = components(nodes, lower, codes)
        out[min(out)] += 1
        return out

    monkeypatch.setattr(white, "_components", splitting)
    assert white._star_components(white._tables(M, 4)[3], 4) is None
    assert check_degree(M, 4) == expected


def test_node_mask_outside_its_fiber_is_an_invariant_violation(corpus_by_name, monkeypatch, capsys):
    node_masks = white._node_masks
    calls = []

    def stray(lower, codes):
        nodes = node_masks(lower, codes)
        calls.append(1)
        if len(calls) % 3 == 0:
            # the degree-3 fiber of least code, 3 * {2, 3}, given the basis
            # {0, 1}, which is in none of its monomials
            c, mask = min(nodes.items())
            nodes[c] = mask | (~mask & (mask + 1))
        return nodes

    monkeypatch.setattr(white, "_node_masks", stray)
    with pytest.raises(InternalInvariantViolation, match="left the fiber"):
        check_degree(corpus_by_name["u_2_4"], 3)
    _white_check_exits_4(capsys, monkeypatch, {"type": "uniform", "r": 2, "n": 4})


def test_a_split_the_lift_does_not_confirm_is_an_invariant_violation(
    corpus_by_name, monkeypatch, capsys
):
    """A disconnected fiber is a witness, whose representatives the lift
    gives; the lift must agree on every fiber's component count."""
    components = white._components

    def splitting(nodes, lower, codes):
        out = components(nodes, lower, codes)
        out[max(out)] += 1
        return out

    monkeypatch.setattr(white, "_components", splitting)
    with pytest.raises(InternalInvariantViolation, match="split the degree-3 fibers apart"):
        check_degree(corpus_by_name["u_2_4"], 3)
    _white_check_exits_4(capsys, monkeypatch, {"type": "uniform", "r": 2, "n": 4})


def test_node_masks_must_hold_the_fibers_the_monomials_fill(corpus_by_name, monkeypatch, capsys):
    sizes = white._fiber_sizes

    def dropping(codes, d):
        out = sizes(codes, d)
        del out[max(out)]
        return out

    monkeypatch.setattr(white, "_fiber_sizes", dropping)
    with pytest.raises(InternalInvariantViolation, match="by node masks"):
        check_degree(corpus_by_name["u_2_4"], 3)
    _white_check_exits_4(capsys, monkeypatch, {"type": "uniform", "r": 2, "n": 4})


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
        # one and two elements: no walk, only the closed form or one point
        uniform(0, 1),
        uniform(1, 1),
        uniform(0, 2),
        uniform(1, 2),
        uniform(2, 2),
        from_graph([(0, 0), (0, 1)]),  # a loop beside a coloop
        from_graph([(0, 1), (1, 1)]),  # a coloop beside a loop
        # the last element a loop, then a coloop
        from_graph([(0, 1), (1, 2), (2, 0), (2, 2)]),
        from_graph([(0, 1), (1, 2), (2, 0), (2, 3)]),
        # the last two elements parallel: a cyclic flat holding both
        from_graph([(0, 1), (1, 2), (2, 0), (2, 3), (2, 3)]),
        # the triangle of edges 2, 3, 4 holds the last two edges, and the
        # triangle of edges 0, 1, 4 the last but not the one before it
        from_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ],
)
def test_lattice_points_are_the_sums_of_bases(M):
    for d in (1, 2, 3):
        assert white._lattice_points(M, d) == _brute_sums(M, d)


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_cols=7), st.integers(1, 3))
def test_lattice_points_are_the_sums_of_bases_on_generated_matrices(M, d):
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


def _white_check_exits_4(capsys, monkeypatch, descriptor):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(descriptor)))
    assert cli.main(["white-check", "--degree", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1, err


def test_degree_two_move_out_of_its_fiber_is_an_invariant_violation(
    corpus_by_name, monkeypatch, capsys
):
    swaps = white._swaps
    spoiled = []

    def leaking(masks, index, i, j):
        out = swaps(masks, index, i, j)
        if i != j and not spoiled:
            spoiled.append((i, j))
            out.add((i, i))  # 2*B_i is not in the fiber of B_i + B_j
        return out

    monkeypatch.setattr(white, "_swaps", leaking)
    with pytest.raises(InternalInvariantViolation, match="exchange move left the fiber"):
        check_degree(corpus_by_name["u_2_4"], 3)
    spoiled.clear()
    _white_check_exits_4(capsys, monkeypatch, {"type": "uniform", "r": 2, "n": 4})


def test_lift_join_across_fibers_is_an_invariant_violation(corpus_by_name, monkeypatch, capsys):
    lift = white_lift._lift

    def crossing(flat, n_bases, k):
        # (0, 0) has label 0, so keys 0 and 1 are those of the last factor
        # of (0, 0, 0) and (0, 0, 1): joined, though their fibers differ
        return chain(lift(flat, n_bases, k), [(0, 1)])

    # with no degree-2 move every degree-2 fiber of two or more monomials
    # splits, so degree 3 is lifted rather than closed by stars
    monkeypatch.setattr(white, "_degree_two", lambda *args: ())
    monkeypatch.setattr(white_lift, "_lift", crossing)
    with pytest.raises(InternalInvariantViolation, match="move left the fiber"):
        check_degree(corpus_by_name["u_2_4"], 3)
    _white_check_exits_4(capsys, monkeypatch, {"type": "uniform", "r": 2, "n": 4})


def test_witnesses_of_a_lift_that_joins_nothing(corpus_by_name, monkeypatch):
    """With no join every fiber splits into its monomials, so each fiber of
    two or more monomials is a witness whose representatives are all of
    them. Monomials p + (l,) and p' + (l,) share the key of l when p and p'
    share a component, so no degree may join anything."""
    M = corpus_by_name["k4"]
    monkeypatch.setattr(white, "_join", lambda n_items, pairs: list(range(n_items)))
    report = check_degree(M, 3)
    expected = []
    for mdeg, comps in sorted(explicit_move_components(M, 3).items()):
        vertices = sorted(v for comp in comps for v in comp)
        if len(vertices) > 1:
            expected.append(
                {
                    "multidegree": list(mdeg),
                    "n_components": len(vertices),
                    "component_representatives": [[list(b) for b in v] for v in vertices],
                }
            )
    assert expected
    assert report["witnesses"] == expected
    assert report["all_connected"] is False
    assert report["verdict"] == "candidate witness: disconnected degree-3 fiber"


def test_report_builds_no_named_views(corpus_by_name, monkeypatch):
    """check_degree reads the labeling pass's summary only; the named views
    are built once, for every fiber of a call, at their first access."""
    calls = []
    build = white_lift._named_views

    def recording(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(white_lift, "_named_views", recording)
    M = corpus_by_name["k4"]
    check_degree(M, 3)
    fibers = toric_fibers(M, 3)
    assert calls == []
    assert [len(f.vertices) for f in fibers] == [f.size for f in fibers]
    bases = M.bases()
    for f in fibers:
        assert [c[0] for c in f.components] == [
            tuple(bases[i] for i in v) for v in f.representatives
        ]
    assert calls == [3]


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
