import hashlib
import io
import itertools
import json
import subprocess
import sys
import time

import pytest

from matroid_workbench import (
    BivariatePoly,
    Matroid,
    UnivariatePoly,
    cli,
    corpus_matroid,
    from_graph,
    h_matrix,
    h_polynomial,
    orlik_solomon,
    tutte,
)

U23 = {"type": "uniform", "r": 2, "n": 3}
U24 = {"type": "uniform", "r": 2, "n": 4}
FANO = {
    "type": "linear",
    "field": "GF(2)",
    "matrix": [
        [0, 0, 1, 1, 1, 0, 1],
        [0, 1, 0, 1, 0, 1, 1],
        [1, 0, 0, 0, 1, 1, 1],
    ],
}
LOOPY = {"type": "graphic", "edges": [[0, 0], [0, 1]]}


def run_cli(args, stdin_obj=None, stdin_text=None):
    text = stdin_text
    if stdin_obj is not None:
        text = json.dumps(stdin_obj)
    proc = subprocess.run(
        [sys.executable, "-m", "matroid_workbench.cli", *args],
        input=text,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def test_tutte_exact_bytes():
    proc = run_cli(["tutte"], stdin_obj=U23)
    assert proc.returncode == 0
    assert (
        proc.stdout
        == '{"terms":[{"x":2,"y":0,"c":"1"},{"x":1,"y":0,"c":"1"},{"x":0,"y":1,"c":"1"}]}\n'
    )


def test_input_file_equivalent_to_stdin(tmp_path):
    p = tmp_path / "u23.json"
    p.write_text(json.dumps(U23))
    by_file = run_cli(["tutte", "--input", str(p)])
    by_stdin = run_cli(["tutte"], stdin_obj=U23)
    assert by_file.returncode == by_stdin.returncode == 0
    assert by_file.stdout == by_stdin.stdout


def test_charpoly_output():
    proc = run_cli(["charpoly"], stdin_obj=FANO)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["charpoly"]["terms"] == [
        {"u": 3, "c": "1"},
        {"u": 2, "c": "-7"},
        {"u": 1, "c": "14"},
        {"u": 0, "c": "-8"},
    ]
    assert obj["reduced_charpoly"]["terms"] == [
        {"u": 2, "c": "1"},
        {"u": 1, "c": "-6"},
        {"u": 0, "c": "8"},
    ]


def test_hlv_output_matches_library():
    proc = run_cli(["hlv"], stdin_obj=FANO)
    assert proc.returncode == 0
    expected = h_polynomial(corpus_matroid("fano")).to_json(xname="u", yname="v")
    assert json.loads(proc.stdout) == expected


def test_os_dims_gf2():
    proc = run_cli(["os-dims", "--field", "GF(2)"], stdin_obj=FANO)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [1, 7, 14, 8]


def test_field_names_ignore_surrounding_ascii_whitespace():
    """' Q' and ' GF(7)' are read alike: both as their field."""
    for padded, plain in ((" Q", "Q"), ("Q\t", "Q"), (" GF(7)", "GF(7)"), ("GF(7)\n", "GF(7)")):
        got = run_cli(["os-basis", "--degree", "1", "--field", padded], stdin_obj=U23)
        want = run_cli(["os-basis", "--degree", "1", "--field", plain], stdin_obj=U23)
        assert got.returncode == want.returncode == 0, got.stderr
        assert got.stdout == want.stdout and f'"field":"{plain}"' in got.stdout


def _complete_graph(n):
    return {"type": "graphic", "edges": [list(e) for e in itertools.combinations(range(n), 2)]}


@pytest.mark.parametrize(
    "args, n, want",
    [
        (["os-dims"], 7, [1, 21, 175, 735, 1624, 1764, 720]),
        (["os-dims"], 8, [1, 28, 322, 1960, 6769, 13132, 13068, 5040]),
        (["os-dims", "--field", "GF(2)"], 8, [1, 28, 322, 1960, 6769, 13132, 13068, 5040]),
        # the reduced Poincare polynomial is prod_{2<=i<7} (1 + i t): its t^3
        # coefficient is e_3(2, 3, 4, 5, 6) = 580
        (["reduced-os-basis", "--degree", "3"], 7, 580),
    ],
    ids=["os-dims-K7", "os-dims-K8", "os-dims-K8-GF2", "reduced-os-basis-K7"],
)
def test_braid_arrangements_are_answered(args, n, want, monkeypatch, capsys):
    """M(K7) and M(K8), the braid arrangements A_6 and A_7, exceed the 20
    elements that circuit enumeration allowed; their dimensions are the
    coefficients of prod_{i<n} (1 + i t) (Arnold; Orlik-Solomon)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_complete_graph(n))))
    assert cli.main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out if isinstance(want, list) else out["dimension"]) == want


@pytest.mark.parametrize(
    "args, descriptor",
    [
        (["os-dims"], _complete_graph(5)),
        (["os-dims", "--field", "GF(3)"], FANO),
        (["os-basis", "--degree", "2"], FANO),
        (["os-basis", "--degree", "3"], U24),
        (["reduced-os-basis", "--degree", "2"], _complete_graph(5)),
        (["reduced-os-basis", "--degree", "1"], {"type": "bases", "n": 4, "bases": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3]]}),
    ],
)
def test_os_commands_enumerate_no_circuits(args, descriptor, monkeypatch, capsys):
    """os-dims, os-basis and reduced-os-basis never list circuits: with
    Matroid.circuits and broken_circuits made to raise they print the same
    bytes as without."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(descriptor)))
    assert cli.main(args) == 0
    want = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("circuit enumeration on the Orlik-Solomon path")

    monkeypatch.setattr(Matroid, "circuits", refuse)
    monkeypatch.setattr(orlik_solomon, "broken_circuits", refuse)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(descriptor)))
    assert cli.main(args) == 0
    assert capsys.readouterr().out == want


def test_os_basis_and_reduced_basis():
    proc = run_cli(["os-basis", "--degree", "2"], stdin_obj=FANO)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["degree"] == 2 and obj["dimension"] == 14
    assert len(obj["nbc"]) == 14 and [0, 1] in obj["nbc"]

    proc2 = run_cli(["reduced-os-basis", "--degree", "2"], stdin_obj=FANO)
    obj2 = json.loads(proc2.stdout)
    assert obj2["dimension"] == 8
    assert obj2["index_sets"] == [
        [1, 2], [1, 3], [1, 4], [1, 6], [2, 5], [2, 6], [3, 4], [3, 5],
    ]


def test_euler_table_output():
    proc = run_cli(["euler-table"], stdin_obj=U23)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj == {"table": [[1, 3], [0, 3], [0, 1]], "matches_h_polynomial": True}


def test_euler_table_budget_message():
    proc = run_cli(["euler-table"], stdin_obj={"type": "uniform", "r": 2, "n": 8})
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "too large: 40320 fixed points exceed the budget of 5040\n"


def test_euler_table_k5_end_to_end():
    """M(K5) has 10! = 3,628,800 fixed points: the budget counts them, not
    the prefix states that the sum visits."""
    edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    k5 = {"type": "graphic", "edges": edges}
    proc = run_cli(["euler-table", "--budget", "3628800"], stdin_obj=k5)
    assert proc.returncode == 0, proc.stderr
    assert '"matches_h_polynomial":true' in proc.stdout
    assert json.loads(proc.stdout)["table"] == h_matrix(from_graph(edges))
    proc = run_cli(["euler-table", "--budget", "3628799"], stdin_obj=k5)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "too large: 3628800 fixed points exceed the budget of 3628799\n"


def test_white_check_output():
    proc = run_cli(["white-check", "--degree", "3"], stdin_obj=U24)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["all_connected"] is True
    assert obj["n_fibers"] == 44
    assert obj["verdict"] == "no minimal generators in degree 3"


def test_verify_corpus_exits_zero():
    proc = run_cli(["verify-corpus"])
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["all_pass"] is True


# ----------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "args,stdin_obj,stdin_text,code",
    [
        (["tutte"], None, "{not json", 2),
        (["tutte"], None, '{"type":"mystery"}', 2),
        (["os-dims", "--field", "GF(4)"], U23, None, 2),
        (["os-dims"], LOOPY, None, 2),
        (["white-check", "--degree", "2"], U24, None, 2),
        (["tutte", "--input", "/nonexistent/file.json"], None, "", 2),
        (["euler-table"], {"type": "uniform", "r": 4, "n": 9}, None, 3),
        (["tutte"], {"type": "uniform", "r": True, "n": 3}, None, 2),
        (["tutte"], {"type": "bases", "n": 2, "bases": [0]}, None, 2),
        (["tutte"], {"type": "graphic", "edges": [[[0], [1]]]}, None, 2),
        (["tutte", "--jobs", "-3"], U23, None, 2),
        (["euler-table", "--budget", "-1"], U23, None, 2),
        (["os-dims", "--field", "GF(2305843009213693953)"], U23, None, 2),
        # --budget belongs to tutte, euler-table and white-check only
        (["hlv", "--budget", "1"], U23, None, 2),
        (["charpoly", "--budget", "1"], U23, None, 2),
        (["os-dims", "--budget", "1"], U23, None, 2),
        (["os-basis", "--degree", "1", "--budget", "1"], U23, None, 2),
        (["reduced-os-basis", "--degree", "1", "--budget", "1"], U23, None, 2),
        (["verify-corpus", "--budget", "1"], None, "", 2),
        # the budget counts basis factors over all degrees, so a huge degree
        # on a one-basis matroid is refused before any enumeration
        (["white-check", "--degree", "100000"], {"type": "uniform", "r": 1, "n": 1}, None, 3),
        (["white-check", "--degree", "99999999999999999999"], {"type": "uniform", "r": 1, "n": 1}, None, 3),
        # rationals with an exponent are refused: Fraction would expand
        # "1e100000000" to a hundred million digits
        (["tutte"], {"type": "linear", "field": "Q", "matrix": [["1e7", 2], [1, 1]]}, None, 2),
        (["tutte"], {"type": "linear", "field": "Q", "matrix": [["2E3", 2], [1, 1]]}, None, 2),
        (["tutte"], {"type": "linear", "field": "Q", "matrix": [["1e100000000", 2], [1, 1]]}, None, 2),
        # the field grammar is ASCII: an Arabic-Indic 7, a no-break space
        (["os-dims", "--field", "GF(\u0667)"], U23, None, 2),
        (["os-dims", "--field", "\u00a0Q"], U23, None, 2),
        (["os-dims", "--field", "GF(7)\u2003"], U23, None, 2),
        (["tutte"], {"type": "linear", "field": "GF(\u0663)", "matrix": [[1, 1]]}, None, 2),
    ],
)
def test_exit_codes(args, stdin_obj, stdin_text, code):
    proc = run_cli(args, stdin_obj=stdin_obj, stdin_text=stdin_text)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""  # errors go to stderr only
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize(
    "descriptor",
    [
        {"type": list(range(200_000))},
        {"type": "linear", "field": "G" * 300_000, "matrix": [[1]]},
        {"type": "linear", "field": "Q", "matrix": [[[[list(range(100_000))]]]]},
        {"type": "bases", "n": 3, "bases": [list(range(100_000))]},
        {"type": "linear", "field": "Q", "matrix": [["1/" + "x" * 300_000]]},
    ],
    ids=["type", "field", "matrix-entry", "basis", "rational"],
)
def test_long_bad_input_is_quoted_in_one_short_line(descriptor):
    proc = run_cli(["os-dims"], stdin_obj=descriptor)
    assert proc.returncode == 2, proc.stderr[:500]
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 300, proc.stderr[:500]


def test_unusable_input_or_cache_exits_2(tmp_path):
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    u23 = json.dumps(U23)
    for args, stdin_text in (
        (["tutte"], "[" * 100000),  # nested past the JSON parser's recursion limit
        (["tutte", "--input", str(not_utf8)], ""),
        (["tutte", "--cache", str(a_file)], u23),  # the cache directory is a regular file
        (["tutte", "--cache", str(a_file / "memo")], u23),  # ... or lies under one
    ):
        proc = run_cli(args, stdin_text=stdin_text)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


@pytest.mark.parametrize(
    "descriptor",
    [
        {"type": "uniform", "r": 2, "n": 100_000_000},
        {"type": "bases", "n": 100_000_000, "bases": [[0, 1]]},
    ],
)
def test_huge_ground_set_exits_3_at_once(descriptor, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(descriptor)))
    start = time.perf_counter()
    code = cli.main(["tutte"])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("too large:") and len(err.splitlines()) == 1, err


def test_tutte_budget_counts_deletion_contraction_nodes(monkeypatch, capsys):
    """M(K10) expands 835 cores, so a budget of 500 refuses it."""
    k10 = {"type": "graphic", "edges": [[i, j] for i in range(10) for j in range(i + 1, 10)]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(k10)))
    start = time.perf_counter()
    code = cli.main(["tutte", "--budget", "500"])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("too large:") and "500" in err and len(err.splitlines()) == 1, err


def test_cli_import_leaves_unused_modules_unloaded():
    """The package resolves its names lazily and each command imports its
    own modules, so importing the CLI loads none of the heavier ones; the
    graph algorithms load with the first graphic memo key or coloop query."""
    code = "import sys, matroid_workbench.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "matroid_workbench.cli" in loaded
    for name in ("corpus", "white", "orlik_solomon", "graphs"):
        assert f"matroid_workbench.{name}" not in loaded


# -------------------------------------------------------------------- caching


def test_tutte_cache_cold_warm_identical(tmp_path):
    cache_dir = tmp_path / "memo"
    no_cache = run_cli(["tutte"], stdin_obj=FANO)
    cold = run_cli(["tutte", "--cache", str(cache_dir)], stdin_obj=FANO)
    files_after_cold = list(cache_dir.glob("*.json"))
    warm = run_cli(["tutte", "--cache", str(cache_dir)], stdin_obj=FANO)
    assert no_cache.returncode == cold.returncode == warm.returncode == 0
    assert no_cache.stdout == cold.stdout == warm.stdout
    assert files_after_cold  # memo entries were persisted
    assert list(cache_dir.glob("*.json"))


U12 = {"type": "uniform", "r": 1, "n": 2}


@pytest.mark.parametrize(
    "bad_entry", ['{"terms":[{"x":9,"y":9,"c":"42"}]}', '{"terms":[{"x":0,"y":0,"c":"2"}]}', "garbage{"]
)
def test_tutte_cache_rejects_bad_entries(tmp_path, bad_entry):
    """A corrupt file (unparsable, degrees past the rank or corank, or a
    wrong T(1,1) or T(2,2)) is a miss: the right polynomial is printed and
    the entry is rewritten. A crafted entry that keeps those values is not
    caught; no check short of computing T catches every one."""
    cache_dir = tmp_path / "memo"
    cold = run_cli(["tutte", "--cache", str(cache_dir)], stdin_obj=U12)
    assert cold.returncode == 0
    files = sorted(cache_dir.glob("*.json"))
    good = {f: f.read_text() for f in files}
    for f in files:
        f.write_text(bad_entry)
    warm = run_cli(["tutte", "--cache", str(cache_dir)], stdin_obj=U12)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert {f: f.read_text() for f in files} == good


def test_tutte_cache_files_hold_the_json_of_each_entry(tmp_path):
    """A cold run writes one file per expanded core, named by the sha256 of
    its memo key and holding exactly json.dumps of the polynomial's JSON."""
    from matroid_workbench import tutte_dc

    class Recording(cli.FileTutteCache):
        def put(self, key, poly):
            super().put(key, poly)
            written[key] = poly

    written = {}
    k5 = from_graph([(a, b) for a in range(5) for b in range(a + 1, 5)])
    tutte_dc(k5, Recording(str(tmp_path)))
    assert written and sorted(p.name for p in tmp_path.iterdir()) == sorted(
        hashlib.sha256(key).hexdigest() + ".json" for key in written)
    for key, poly in written.items():
        path = tmp_path / (hashlib.sha256(key).hexdigest() + ".json")
        assert path.read_bytes() == json.dumps(poly.to_json()).encode()


def test_warm_cache_check_counts_bases_without_enumerating(tmp_path, monkeypatch):
    """A disk hit checks T(1,1) against a basis count that a graph (by the
    matrix-tree theorem), a uniform matroid and a basis list give without
    enumerating; a wrong count is still a miss."""
    from matroid_workbench import from_bases, tutte_dc, uniform
    from matroid_workbench.matroids import Matroid

    k5 = from_graph([(a, b) for a in range(5) for b in range(a + 1, 5)])
    family = [k5, uniform(3, 7), from_bases(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])]
    polys = [tutte_dc(M) for M in family]
    writer = cli.FileTutteCache(str(tmp_path))
    for M, poly in zip(family, polys):
        writer.put(M.memo_key(), poly)
    monkeypatch.setattr(Matroid, "bases", lambda self, limit=0: pytest.fail("bases enumerated"))
    reader = cli.FileTutteCache(str(tmp_path))
    for M, poly in zip(family, polys):
        assert reader.get(M.memo_key(), M) == poly
    # T(1, 1) one too large, with T(2, 2) and the degree bounds kept
    writer.put(k5.memo_key(), polys[0] + BivariatePoly({(1, 0): 1, (0, 1): -2, (0, 0): 2}))
    assert cli.FileTutteCache(str(tmp_path)).get(k5.memo_key(), k5) is None


def test_jobs_byte_identical():
    one = run_cli(["euler-table", "--jobs", "1"], stdin_obj=U24)
    eight = run_cli(["euler-table", "--jobs", "8"], stdin_obj=U24)
    assert one.returncode == eight.returncode == 0
    assert one.stdout == eight.stdout

    w1 = run_cli(["white-check", "--degree", "3", "--jobs", "1"], stdin_obj=U24)
    w8 = run_cli(["white-check", "--degree", "3", "--jobs", "8"], stdin_obj=U24)
    assert w1.stdout == w8.stdout and w1.returncode == 0


def _one_set_short_in_degree_3(nbc_sets):
    return lambda M, k: nbc_sets(M, k)[1:] if k == 3 else nbc_sets(M, k)


def _two_classes_merged(superset_counts):
    def spoiled(c, nu, m, sizes):
        return superset_counts(c, nu, m, (*sizes[:-2], sum(sizes[-2:])) if len(sizes) > 1 else sizes)

    return spoiled


def _plus(one):
    return lambda f: lambda *args, **kwargs: f(*args, **kwargs) + one


K4 = {"type": "graphic", "edges": [[a, b] for a in range(4) for b in range(a + 1, 4)]}


@pytest.mark.parametrize(
    "args, module, name, spoil, message",
    [
        (["os-dims"], orlik_solomon, "nbc_sets", _one_set_short_in_degree_3,
         "nbc sets != Whitney number"),
        (["os-basis", "--degree", "3"], orlik_solomon, "nbc_sets", _one_set_short_in_degree_3,
         "nbc sets != Whitney number"),
        # the index sets of reduced degree 2 are the degree-3 nbc sets that hold 0
        (["reduced-os-basis", "--degree", "2"], orlik_solomon, "nbc_sets",
         _one_set_short_in_degree_3, "nbc sets != Whitney number"),
        (["hlv"], tutte, "h_from_tutte", _plus(BivariatePoly.monomial(0, 0)), "routes disagree"),
        (["charpoly"], tutte, "char_poly", _plus(UnivariatePoly.monomial(0)), "chi(1) = 1"),
        # x - y keeps T(1, 1), T(2, 2) and the degree bounds
        (["tutte"], tutte, "tutte_dc", _plus(BivariatePoly({(1, 0): 1, (0, 1): -1})), "Greene"),
        # the same on every core of rank at most 2 that deletion-contraction closes
        (["tutte"], tutte, "_small_core_tutte", _plus(BivariatePoly({(1, 0): 1, (0, 1): -1})), "Greene"),
        # any class sizes keep the 2^#E total of the subset walk; two classes
        # merged at each walk node that has more than one
        (["euler-table"], tutte, "_superset_counts", _two_classes_merged, "euler table disagrees"),
    ],
    ids=["os-dims", "os-basis", "reduced-os-basis", "hlv", "charpoly", "tutte", "tutte-core", "euler-table-h"],
)
def test_injected_fault_exits_4(args, module, name, spoil, message, monkeypatch, capsys):
    """One wrong inner value stops each command before output: exit code 4,
    nothing on stdout and one line on stderr."""
    monkeypatch.setattr(module, name, spoil(getattr(module, name)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(K4)))
    assert cli.main(args) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err, err
