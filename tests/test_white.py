import io
import itertools
import json
import subprocess
import sys
import time
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    VAMOS_BASES,
    closure_components,
    elimination_bases,
    explicit_move_components,
    matrices_and_graphs,
    node_masks,
)
from matroid_workbench import (
    CORPUS,
    InternalInvariantViolation,
    InvalidInput,
    TooLarge,
    check_degree,
    cli,
    corpus_matroid,
    from_bases,
    from_graph,
    from_matrix,
    symmetric_exchange_neighbors,
    toric_fibers,
    uniform,
    white,
    white_moves,
)


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
    # the monomials (0,) .. (3,) of one fiber, moves joining 0 with 1 and 3 with 2
    near = {(0,): {(1,)}, (1,): {(0,)}, (2,): {(3,)}, (3,): {(2,)}}
    assert white._search([(0,), (1,), (2,), (3,)], near.__getitem__) == [[(0,), (1,)], [(2,), (3,)]]
    assert white._search([(0,), (1,)], lambda v: set()) == [[(0,)], [(1,)]]


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


# ----------------------------------------- toric_fibers against explicit moves


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


def _fibers_match_explicit_moves(M, d):
    fibers = toric_fibers(M, d)
    oracle = explicit_move_components(M, d)
    assert _partition(fibers) == oracle
    assert white._lattice_points(M, d) == len(fibers)
    # the report reads the sizes and component counts, not the views above
    sizes = [sum(map(len, comps)) for comps in oracle.values()]
    report = check_degree(M, d)
    assert report["n_fibers"] == len(oracle)
    assert report["n_monomials"] == sum(sizes)
    assert report["max_fiber_size"] == max(sizes)
    assert report["all_connected"] == all(len(comps) == 1 for comps in oracle.values())


@settings(max_examples=30, deadline=None)
@given(small_matrices())
def test_lift_matches_explicit_moves_on_generated_matrices(M):
    _fibers_match_explicit_moves(M, 3)


@settings(max_examples=10, deadline=None)
@given(small_matrices())
def test_lift_matches_explicit_moves_on_generated_matrices_in_degree_4(M):
    # from degree 4 on, a move fixes two or more factors
    _fibers_match_explicit_moves(M, 4)


# ------------------------------------------- star closure against move split


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


def _star_matches_split(M, d):
    """The fibers of toric_fibers, whose sizes and component counts must be
    those that the move split, called directly, gives, and whose
    representatives must be the first monomial of each of its components,
    in the same order."""
    fibers = toric_fibers(M, d)
    _, masks, index, codes = white._tables(M, d)
    split = sorted(white_moves._split(codes, d, white_moves._moves(masks, index, codes, d)).items())
    assert [(f.size, f.n_components) for f in fibers] == [(sum(map(len, comps)), len(comps)) for _, comps in split]
    assert [f.representatives for f in fibers] == [[comp[0] for comp in comps] for _, comps in split]
    return fibers


def _star_matches_split_and_explicit_moves(M, d):
    """(multidegree, size, n_components, representatives) of every fiber
    as toric_fibers gives them, as the move split gives them, and as the
    explicit-move oracle gives them."""
    bases = M.bases()
    star = [
        (f.multidegree, f.size, f.n_components, [tuple(bases[i] for i in v) for v in f.representatives])
        for f in _star_matches_split(M, d)
    ]
    oracle = sorted(
        (mdeg, sum(map(len, comps)), len(comps), [comp[0] for comp in comps])
        for mdeg, comps in explicit_move_components(M, d).items()
    )
    assert star == oracle


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("name", [e["name"] for e in CORPUS])
def test_star_matches_lift_on_the_corpus(corpus_by_name, name, d):
    """The star closure against the move split, on the corpus."""
    _star_matches_split(corpus_by_name[name], d)


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_star_matches_lift_and_explicit_moves_on_generated_matroids(M):
    _star_matches_split_and_explicit_moves(M, 3)


@settings(max_examples=25, deadline=None)
@given(small_matroids())
def test_star_matches_lift_and_explicit_moves_on_generated_matroids_in_degree_4(M):
    _star_matches_split_and_explicit_moves(M, 4)


@settings(max_examples=25, deadline=None)
@given(small_matroids())
def test_move_split_and_degree_two_union_find_against_explicit_moves(M):
    """With the star closure switched off, toric_fibers splits every
    degree by moves, which must give the explicit-move components in
    degrees 2 to 4; and the degree-2 search reports every fiber
    connected exactly when the move split gives one component per
    degree-2 fiber, under all double swaps and under those alone whose
    two pairs have an odd index sum, a rule symmetric in the move that
    splits some fibers."""
    swaps = white._swaps
    _, masks, index, codes = white._tables(M, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(white, "_star_components", lambda nodes, codes, d: None)
        for d in (2, 3, 4):
            assert _partition(toric_fibers(M, d)) == explicit_move_components(M, d), d
        for kept in (lambda i, j, w: True, lambda i, j, w: (i + j + w[0] + w[1]) % 2):
            patch.setattr(white, "_swaps", lambda masks, index, i, j: {
                w for w in swaps(masks, index, i, j) if kept(i, j, w)
            })
            connected = all(f.n_components == 1 for f in toric_fibers(M, 2))
            assert (white._degree_two_nodes(masks, index, codes) is not None) is connected


@settings(max_examples=60, deadline=None)
@given(matrices_and_graphs())
def test_degree_two_search_against_explicit_moves(M):
    """The degree-2 search reports every fiber connected exactly when the
    explicit moves give one component per degree-2 fiber, under all
    double swaps and under those alone whose two pairs have an odd index
    sum, the rule that splits some fibers above."""
    swaps = white._swaps
    where = {b: i for i, b in enumerate(M.bases())}
    _, masks, index, codes = white._tables(M, 2)

    def odd(*indices):
        return sum(indices) % 2

    for rule in (None, odd):
        explicit = explicit_move_components(M, 2, rule and (lambda v, w: odd(*map(where.get, v + w))))
        connected = all(len(comps) == 1 for comps in explicit.values())
        with pytest.MonkeyPatch.context() as patch:
            if rule:
                patch.setattr(white, "_swaps", lambda masks, index, i, j: {
                    w for w in swaps(masks, index, i, j) if odd(i, j, *w)
                })
            nodes = white._degree_two_nodes(masks, index, codes)
            assert (nodes is not None) is connected
            if connected:
                assert nodes == node_masks(node_masks({0: 0}, codes), codes)


K5_MINUS_EDGE = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
MATRIX_FANO = [[0, 0, 1, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [1, 0, 0, 0, 1, 1, 1]]
# a zero column, a coloop and the twin of column 0 last
MATRIX_TAILS = [[1, 0, 1, 1, 0, 0, 2], [0, 1, 1, 2, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0]]
NAMED = {
    "K5 minus an edge": lambda: from_graph(K5_MINUS_EDGE),
    "Fano": lambda: corpus_matroid("fano"),
    "Vamos": lambda: from_bases(8, VAMOS_BASES),
    "U(3,7)": lambda: uniform(3, 7),
}


@pytest.mark.parametrize("name", ["K5 minus an edge", "Fano", "Vamos"])
def test_star_route_splits_no_fiber_by_moves_and_agrees_with_the_move_split(name, monkeypatch):
    """Every degree-3 fiber of M(K5) minus an edge, of the Fano matroid and
    of the Vamos basis list is split by star closure alone, with no move
    split until the representatives are read, into the sizes and component
    counts that the move split, called directly, gives."""
    M = NAMED[name]()
    degrees = []
    split = white_moves._split
    monkeypatch.setattr(white_moves, "_split", lambda codes, d, moves: degrees.append(d) or split(codes, d, moves))
    star = [(f.size, f.n_components) for f in toric_fibers(M, 3)]
    assert degrees == []
    _, masks, index, codes = white._tables(M, 3)
    moved = sorted(split(codes, 3, white_moves._moves(masks, index, codes, 3)).items())
    assert star == [(sum(map(len, comps)), len(comps)) for _, comps in moved]


@pytest.mark.parametrize("name", list(NAMED))
def test_degree_two_search_agrees_with_the_move_split_on_named_matroids(name, monkeypatch):
    """The degree-2 search finds every degree-2 fiber connected exactly when
    the move split, called directly at degree 2, gives one component per
    fiber: under all double swaps, and under only those whose two pairs
    have an odd index sum, a rule that splits fibers."""
    M = NAMED[name]()
    swaps = white._swaps
    _, masks, index, codes = white._tables(M, 2)
    for kept in (lambda i, j, w: True, lambda i, j, w: (i + j + sum(w)) % 2):
        monkeypatch.setattr(white, "_swaps", lambda masks, index, i, j: {
            w for w in swaps(masks, index, i, j) if kept(i, j, w)
        })
        split = white_moves._split(codes, 2, white_moves._moves(masks, index, codes, 2))
        connected = all(len(comps) == 1 for comps in split.values())
        assert (white._degree_two_nodes(masks, index, codes) is not None) is connected


def test_move_split_gives_the_star_route_report_within_5_s():
    """With the star closure switched off, toric_fibers splits every
    degree-3 fiber of M(K5) minus an edge by its moves, and check_degree
    returns the report of the star route, equal as JSON, within 5 s."""
    M = from_graph(K5_MINUS_EDGE)
    star = check_degree(M, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(white, "_star_components", lambda nodes, codes, d: None)
        start = time.perf_counter()
        moved = check_degree(M, 3)
        assert time.perf_counter() - start < 5
    assert json.dumps(moved) == json.dumps(star)


@pytest.mark.parametrize(
    "descriptor, n, bases",
    [
        ({"type": "linear", "field": "GF(2)", "matrix": MATRIX_FANO}, 7, elimination_bases(MATRIX_FANO, 2)),
        ({"type": "uniform", "r": 3, "n": 6}, 6, list(itertools.combinations(range(6), 3))),
        ({"type": "linear", "field": "GF(3)", "matrix": MATRIX_TAILS}, 7, elimination_bases(MATRIX_TAILS, 3)),
    ],
    ids=["Fano", "U(3,6)", "GF(3)-tails"],
)
def test_white_check_finds_one_fiber_per_sum_of_three_bases(descriptor, n, bases, monkeypatch, capsys):
    """The lattice count that n_fibers is held to closes its last three
    coordinates by formula, and the benchmark runs white-check on graphs
    only; so on three matroids that are not graphic, n_fibers in degree 3
    is the number of sums of 3 bases listed here. The GF(3) matrix ends in
    a zero column, a coloop and the twin of its first column, the
    formula's boundary cases."""
    sums = {tuple(sum(j in b for b in ms) for j in range(n)) for ms in itertools.combinations_with_replacement(bases, 3)}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(descriptor)))
    assert cli.main(["white-check", "--degree", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["n_fibers"] == len(sums)


# Runs the CLI in a child of this fresh interpreter and prints the child's
# peak RSS, ru_maxrss in KiB on Linux, and its stdout. A child's ru_maxrss
# starts at the peak RSS of the process that launched it, so a child of the
# test session would read the session's peak; this interpreter's is small.
_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "run = subprocess.run([sys.executable, '-m', 'matroid_workbench.cli', *sys.argv[1:]], stdin=sys.stdin,\n"
    "                     capture_output=True, text=True)\n"
    "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    "sys.stdout.write(run.stdout)\n"
)


def test_white_check_in_degree_4_finds_every_fiber_connected_within_120_mb():
    """Graphic matroids have quadrically generated toric ideals (Blasiak
    2008): on M(K5) minus an edge the C(78, 4) monomials of degree 4 fall
    into 70,269 connected fibers, and the command's peak RSS stays at or
    under 120 MB."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "white-check", "--degree", "4"],
        input=json.dumps({"type": "graphic", "edges": [list(e) for e in K5_MINUS_EDGE]}),
        capture_output=True, text=True, timeout=300,
    )
    status, out = proc.stdout.split("\n", 1)
    code, peak_kib = map(int, status.split())
    assert code == 0, proc.stderr
    report = json.loads(out)
    assert (report["all_connected"], report["n_monomials"], report["n_fibers"]) == (True, 1_426_425, 70_269)
    assert peak_kib / 1024 <= 120


one_fiber_graphs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
)


def _one_fiber(graph):
    """(codes, c, lower, components) of one fiber c holding n bases, B
    joined to B' whenever B' is in the node mask of the fiber c - code(B),
    and the components of that graph, found by search."""
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
    return codes, c, {c - codes[b]: near[b] for b in range(n)}, comps


@settings(max_examples=60, deadline=None)
@given(one_fiber_graphs)
def test_star_closure_counts_the_components_of_its_graph(graph):
    """The bitmask-closure oracle on one fiber: as many components as the
    graph."""
    codes, c, lower, comps = _one_fiber(graph)
    assert closure_components({c: (1 << len(codes)) - 1}, lower, codes) == {c: len(comps)}


def _masks_and_counts(split):
    """{code: node mask} and {code: number of components} of a _star_split
    result, whose component masks must be nonempty and disjoint."""
    for comps in split.values():
        if comps.__class__ is list:
            assert len(comps) > 1 and all(comps)
            assert sum(map(int.bit_count, comps)) == sum(comps).bit_count()
    return (
        {c: comps if comps.__class__ is int else sum(comps) for c, comps in split.items()},
        {c: 1 if comps.__class__ is int else len(comps) for c, comps in split.items()},
    )


@settings(max_examples=60, deadline=None)
@given(one_fiber_graphs)
def test_star_split_against_the_closure_on_one_fiber_graphs(graph):
    """The merge of stars gives the one fiber c every basis, and as many
    components as the graph and the bitmask closure."""
    codes, c, lower, comps = _one_fiber(graph)
    masks, counts = _masks_and_counts(white._star_split(lower, codes))
    assert masks[c] == (1 << len(codes)) - 1
    assert counts[c] == len(comps) == closure_components({c: masks[c]}, lower, codes)[c]


@settings(max_examples=40, deadline=None)
@given(small_matroids(), st.sampled_from([3, 4]))
def test_star_split_against_the_closure_on_generated_matroids(M, d):
    """From the node masks of degree d - 1, built by the oracle, the merge
    of stars gives every degree-d fiber the oracle's node mask and the
    bitmask closure's component count, and its components hold one basis
    per pair (lower fiber, basis)."""
    codes = white._tables(M, d)[3]
    lower = {0: 0}
    for _ in range(d - 1):
        lower = node_masks(lower, codes)
    split = white._star_split(lower, codes)
    masks, counts = _masks_and_counts(split)
    nodes = node_masks(lower, codes)
    assert masks == nodes
    assert counts == closure_components(nodes, lower, codes)
    assert sum(m.bit_count() for m in masks.values()) == len(codes) * len(lower)


def test_vamos_matroid_by_star_closure_and_by_moves(monkeypatch):
    """A matroid that no field represents, as a basis list: in degree 3 the
    star route and the move split give the same report, and its fiber
    count is the lattice count."""
    V = from_bases(8, VAMOS_BASES)
    _, masks, index, codes = white._tables(V, 3)
    assert white._star_components(white._degree_two_nodes(masks, index, codes), codes, 3) is not None
    star = check_degree(V, 3)
    assert star["n_fibers"] == white._lattice_points(V, 3)
    monkeypatch.setattr(white, "_star_components", lambda nodes, codes, d: None)
    assert json.dumps(check_degree(V, 3)) == json.dumps(star)


def test_star_route_runs_no_lift(corpus_by_name, monkeypatch):
    """Every fiber of M(K4) is connected, so the report closes stars from
    degree 3 on and splits nothing by moves; the move split runs once, for
    every fiber, when the representatives are first read."""
    calls = []
    split = white_moves._split

    def recording(codes, d, moves):
        calls.append(d)
        return split(codes, d, moves)

    monkeypatch.setattr(white_moves, "_split", recording)
    M = corpus_by_name["k4"]
    report = check_degree(M, 4)
    assert report["all_connected"] is True
    fibers = toric_fibers(M, 4)
    assert calls == []
    assert all(len(f.representatives) == 1 for f in fibers)
    assert calls == [4]


def _split_one(pick):
    """white._star_split, with the fiber that `pick` chooses among those of
    one component and two or more bases cut into its least basis and the
    rest; unchanged where there is none."""
    star_split = white._star_split

    def splitting(lower, codes):
        out = star_split(lower, codes)
        whole = [c for c, m in out.items() if m.__class__ is int and m & (m - 1)]
        if whole:
            c = pick(whole)
            out[c] = [out[c] & -out[c], out[c] & (out[c] - 1)]
        return out

    return splitting


def test_a_split_below_the_degree_hands_over_to_the_lift(corpus_by_name, monkeypatch):
    """A degree-3 fiber reported split sends degree 4 to the move split,
    which gives the same report."""
    M = corpus_by_name["k4"]
    expected = check_degree(M, 4)
    monkeypatch.setattr(white, "_star_split", _split_one(min))
    _, masks, index, codes = white._tables(M, 4)
    assert white._star_components(white._degree_two_nodes(masks, index, codes), codes, 4) is None
    assert check_degree(M, 4) == expected


def test_node_mask_outside_its_fiber_is_an_invariant_violation(corpus_by_name, monkeypatch, capsys):
    star_split = white._star_split
    calls = []

    def stray(lower, codes):
        # in degree 3 each check makes one call, the one from the degree-2
        # node masks: the fiber of least code, 2 * {2, 3}, is given the
        # basis {0, 1}, which is in none of its monomials, as its node mask
        # goes up to degree 3
        calls.append(1)
        lower = dict(lower)
        c, mask = min(lower.items())
        lower[c] = mask | (~mask & (mask + 1))
        return star_split(lower, codes)

    monkeypatch.setattr(white, "_star_split", stray)
    with pytest.raises(InternalInvariantViolation, match="left the fiber"):
        check_degree(corpus_by_name["u_2_4"], 3)
    assert len(calls) == 1
    _white_check_exits_4(capsys, monkeypatch, {"type": "uniform", "r": 2, "n": 4})
    assert len(calls) == 2


def test_a_split_the_lift_does_not_confirm_is_an_invariant_violation(
    corpus_by_name, monkeypatch, capsys
):
    """A disconnected fiber is a witness, whose representatives the move
    split gives; the moves must agree on every fiber's component count."""
    monkeypatch.setattr(white, "_star_split", _split_one(max))
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
    """The number of distinct sums of d bases, each degree's sums being
    those of the degree below plus one basis."""
    vectors = [tuple(int(e in b) for e in M.elements) for b in map(set, M.bases())]
    sums = {(0,) * M.size}
    for _ in range(d):
        sums = {tuple(map(sum, zip(s, v))) for s in sums for v in vectors}
    return len(sums)


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


@st.composite
def matroids_with_special_tails(draw):
    """Uniform matroids, GF(2) and GF(3) matrices and basis lists on 3 to 7
    elements, each of whose last three elements may be a loop, a coloop or
    one of a parallel pair: the cases where a bound of the closed form over
    the last three coordinates is empty, fixed or shared."""
    kind = draw(st.sampled_from(["uniform", "GF(2)", "GF(3)", "bases"]))
    n = draw(st.integers(3, 7))
    if kind == "uniform":
        return uniform(draw(st.integers(0, n)), n)
    p = 3 if kind == "GF(3)" else 2
    rows = draw(st.integers(1, 3))
    columns = [draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows)) for _ in range(n)]
    coloops = []
    for j in range(n - 3, n):
        tail = draw(st.sampled_from(["any", "loop", "coloop", "parallel"]))
        if tail == "loop":
            columns[j] = [0] * rows
        elif tail == "parallel":
            columns[j] = list(columns[draw(st.sampled_from([i for i in range(n) if i != j]))])
        elif tail == "coloop":
            coloops.append(j)
    # a row of its own makes a column a coloop
    matrix = [list(row) for row in zip(*columns)] + [[int(i == j) for i in range(n)] for j in coloops]
    M = from_matrix(f"GF({p})", matrix)
    return from_bases(n, M.bases()) if kind == "bases" else M


@settings(max_examples=60, deadline=None)
@given(matroids_with_special_tails())
@example(from_matrix("GF(3)", [[0, 1, 2]]))  # a loop, then a parallel pair
@example(from_matrix("GF(3)", [[0, 1, 0], [0, 0, 1]]))  # a loop, then two coloops
@example(from_matrix("GF(2)", [[1, 1, 0], [0, 0, 1]]))  # a parallel pair, then a coloop
def test_lattice_points_are_the_sums_of_bases_with_special_last_elements(M):
    for d in (1, 2, 3, 4):
        assert white._lattice_points(M, d) == _brute_sums(M, d), d


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
    """A move of the split that reaches into another fiber: with the star
    closure switched off, the split is the route and must hold each fiber
    to its own monomials."""
    moves = white_moves._moves

    def crossing(masks, index, codes, d):
        reach = moves(masks, index, codes, d)
        # (0, 0, 0) is 3 * {0, 1} and (0, 0, 5) is 2 * {0, 1} + {2, 3}
        return lambda v: reach(v) | {(0, 0, 0)} if v == (0, 0, 5) else reach(v)

    monkeypatch.setattr(white, "_degree_two_nodes", lambda *args: None)
    monkeypatch.setattr(white_moves, "_moves", crossing)
    with pytest.raises(InternalInvariantViolation, match="move left the fiber"):
        check_degree(corpus_by_name["u_2_4"], 3)
    _white_check_exits_4(capsys, monkeypatch, {"type": "uniform", "r": 2, "n": 4})


def test_witnesses_of_a_lift_that_joins_nothing(corpus_by_name, monkeypatch):
    """With no double swap the degree-2 fibers split and no monomial has a
    move, so every fiber splits into its monomials, and each fiber of two
    or more monomials is a witness whose representatives are all of
    them."""
    M = corpus_by_name["k4"]
    monkeypatch.setattr(white, "_swaps", lambda *args: set())
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
    """check_degree reads the sizes and component counts only; the named
    views are built once, for every fiber of a call, at their first
    access."""
    calls = []
    build = white_moves._views

    def recording(bases, moves, split):
        calls.append(len(split))
        return build(bases, moves, split)

    monkeypatch.setattr(white_moves, "_views", recording)
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
    assert calls == [len(fibers)]


def test_star_route_report_makes_no_fiber_graph(corpus_by_name, monkeypatch):
    """The report reads the route's sizes and counts, and makes a
    FiberGraph only for a witness, of which the star route on M(K4) has
    none."""
    made = []
    init = white.FiberGraph.__init__

    def counting(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(white.FiberGraph, "__init__", counting)
    for d in (3, 4):
        assert check_degree(corpus_by_name["k4"], d)["all_connected"] is True
    assert made == []
    assert len(toric_fibers(corpus_by_name["k4"], 3)[:5]) == len(made) == 5


def _report_from_fibers(M, d):
    """check_degree's report rebuilt from the FiberGraph items of
    toric_fibers."""
    fibers = list(toric_fibers(M, d))
    bases = M.bases()
    witnesses = [
        {
            "multidegree": list(f.multidegree),
            "n_components": f.n_components,
            "component_representatives": [[list(bases[i]) for i in v] for v in f.representatives],
        }
        for f in fibers
        if f.n_components > 1
    ]
    return {
        "degree": d,
        "n_bases": len(bases),
        "n_fibers": len(fibers),
        "n_monomials": sum(f.size for f in fibers),
        "max_fiber_size": max(f.size for f in fibers),
        "all_connected": not witnesses,
        "verdict": (
            f"candidate witness: disconnected degree-{d} fiber" if witnesses else f"no minimal generators in degree {d}"
        ),
        "witnesses": witnesses,
    }


def test_report_equals_one_rebuilt_from_the_fibers(corpus_by_name, monkeypatch):
    """On the star route and, with only the double swaps of odd index sum
    kept, on a witness input, check_degree's JSON is that of a report
    rebuilt from toric_fibers' items."""
    M = corpus_by_name["k4"]
    assert json.dumps(check_degree(M, 3)) == json.dumps(_report_from_fibers(M, 3))
    swaps = white._swaps
    monkeypatch.setattr(white, "_swaps", lambda masks, index, i, j: {
        w for w in swaps(masks, index, i, j) if (i + j + w[0] + w[1]) % 2
    })
    report = check_degree(M, 3)
    assert report["witnesses"]
    assert json.dumps(report) == json.dumps(_report_from_fibers(M, 3))


def test_toric_fibers_is_a_sequence_in_code_order(corpus_by_name, monkeypatch):
    """len, indexing (negative too), slicing and iteration give the fibers
    in code order, that is by multidegree, on the star route and on the
    move split alike."""

    def shape(fibers):
        return [(f.multidegree, f.size, f.n_components) for f in fibers]

    M = corpus_by_name["k4"]
    fibers = toric_fibers(M, 3)
    items = shape(fibers)
    assert len(fibers) == len(items) == 396
    assert [m for m, _, _ in items] == sorted({m for m, _, _ in items})
    assert shape([fibers[0], fibers[17], fibers[-1], fibers[-396]]) == [items[0], items[17], items[-1], items[0]]
    for cut in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -7), slice(400, 500)):
        assert shape(fibers[cut]) == items[cut]
    for i in (396, -397):
        with pytest.raises(IndexError):
            fibers[i]
    monkeypatch.setattr(white, "_star_components", lambda nodes, codes, d: None)
    assert shape(toric_fibers(M, 3)) == items


def test_check_degree_builds_fibers_once(corpus_by_name, monkeypatch):
    """Lower degrees are read inside toric_fibers, so a wrapper around it
    (as the benchmark tracer installs) sees one call and the degree-d
    monomials only; the degree-2 buckets are built once, searched and
    ORed into the node masks that the star closure starts from."""
    calls, buckets = [], []
    build, fibers = white.toric_fibers, white._fibers

    def recording(M, d, *args, **kwargs):
        calls.append(d)
        return build(M, d, *args, **kwargs)

    monkeypatch.setattr(white, "toric_fibers", recording)
    monkeypatch.setattr(white, "_fibers", lambda codes, d: buckets.append(d) or fibers(codes, d))
    report = check_degree(corpus_by_name["k4"], 3)
    assert calls == [3] and buckets == [2]
    assert report["n_monomials"] == 816
