import ast
import contextlib
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    GF7_6X17,
    VAMOS_BASES,
    braid_h,
    braid_tutte,
    elimination_rank,
    prefix_state_series,
    tutte_specializations,
)
from matroid_workbench import (
    BivariatePoly,
    Matroid,
    UnivariatePoly,
    cli,
    corpus_matroid,
    from_descriptor,
    from_graph,
    h_matrix,
    h_polynomial,
    linalg,
    localization,
    orlik_solomon,
    tutte,
    uniform,
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


def run_cli(args, stdin_obj=None, stdin_text=None, flags=()):
    """The CLI in a fresh `python -m`, run with the interpreter `flags` (-S
    for the benchmark's entry path)."""
    text = stdin_text
    if stdin_obj is not None:
        text = json.dumps(stdin_obj)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "matroid_workbench.cli", *args],
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
    text = capsys.readouterr().out
    if isinstance(want, list):
        assert text == json.dumps(want, separators=(",", ":")) + "\n"
    else:
        assert json.loads(text)["dimension"] == want


@pytest.mark.parametrize("n", range(4, 11))
def test_braid_arrangements_match_the_exponential_formula(n, monkeypatch, capsys):
    """tutte, hlv and charpoly on M(K_n) against the exponential formula
    (helpers.braid_tutte and braid_h), which reads no rank oracle and no
    subset; chi is (u - 1)(u - 2)...(u - n + 1), and T(1, 1) counts the
    n^(n - 2) spanning trees (Cayley). h and chi are also the expansions
    of the printed T. n = 11 and 12 would add about 2.6 and 4.1 s,
    deletion-contraction run three times each."""

    def run(command):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_complete_graph(n))))
        assert cli.main([command]) == 0
        return json.loads(capsys.readouterr().out)

    T = BivariatePoly({(t["x"], t["y"]): int(t["c"]) for t in run("tutte")["terms"]})
    assert T == braid_tutte(n) and T.evaluate(1, 1) == n ** (n - 2)
    h, chi = tutte_specializations(T, n * (n - 1) // 2, n - 1)
    assert BivariatePoly({(t["u"], t["v"]): int(t["c"]) for t in run("hlv")["terms"]}) == braid_h(n) == h
    falling = UnivariatePoly({0: 1})
    for i in range(1, n):
        falling = falling * UnivariatePoly({1: 1, 0: -i})
    assert UnivariatePoly({t["u"]: int(t["c"]) for t in run("charpoly")["charpoly"]["terms"]}) == falling == chi


def _multiples(base, scalars):
    """The matrix whose columns are a * base[i] for each (i, a) in `scalars`."""
    cols = [[a * x for x in base[i]] for i, a in scalars]
    return [[col[k] for col in cols] for k in range(len(base[0]))]


# each column a multiple of one of a few base columns, so the walk closes
# its nodes of corank 2 by classes of two and more
PARALLEL_RICH = {
    "Q": (0, [[str(x) for x in row] for row in _multiples(
        [(1, 0, 0, 1), (0, 1, 0, -1), (0, 0, 1, 2), (1, 1, 1, 0), (1, -1, 2, 3)],
        [(0, 1), (0, -1), (0, Fraction(1, 2)), (1, 1), (1, Fraction(-2, 3)), (2, 1), (2, 3),
         (2, Fraction(-1, 2)), (3, 1), (3, Fraction(5, 7)), (4, 1), (4, -2)])]),
    "GF(3)": (3, [[x % 3 for x in row] for row in _multiples(
        [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 2), (1, 2, 1, 0), (1, 1, 2, 2), (2, 1, 0, 1)],
        [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 2), (5, 1), (5, 2), (3, 2)])]),
}


@pytest.mark.parametrize("field", sorted(PARALLEL_RICH))
def test_hlv_and_charpoly_on_parallel_rich_matrices_match_a_sum_over_all_subsets(field, monkeypatch, capsys):
    """hlv and charpoly hold no runtime check of the classes that close the
    subset walk, so on two parallel-rich matrices, a Q 4 x 12 and a GF(3)
    4 x 11, both are held to the corank-nullity sum over every subset,
    ranked by elimination_rank."""
    p, matrix = PARALLEL_RICH[field]
    n = len(matrix[0])
    cols = [[Fraction(row[j]) if p == 0 else row[j] for row in matrix] for j in range(n)]
    r = elimination_rank(cols, p)
    h, chi = {}, {}
    for size in range(n + 1):
        for subset in itertools.combinations(cols, size):
            rk = elimination_rank(list(subset), p)
            key = (r - rk, n - r - (size - rk))  # (corank, #E - r - nullity)
            h[key] = h.get(key, 0) + 1
            chi[r - rk] = chi.get(r - rk, 0) + (-1) ** size

    def run(command):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"type": "linear", "field": field, "matrix": matrix})))
        assert cli.main([command]) == 0
        return json.loads(capsys.readouterr().out)

    assert {(t["u"], t["v"]): int(t["c"]) for t in run("hlv")["terms"]} == h
    assert {t["u"]: int(t["c"]) for t in run("charpoly")["charpoly"]["terms"]} == {u: c for u, c in chi.items() if c}


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


def test_vamos_commands_agree_through_the_benchmark_entry_path():
    """The Vamos matroid, which no field represents, as a basis list through
    python -S -m: T(1,1) counts its 65 bases and T(2,2) its 2^8 subsets,
    and the nbc counts that os-dims prints are the Whitney numbers of the
    first kind, the absolute values of the charpoly coefficients."""
    descriptor = {"type": "bases", "n": 8, "bases": [list(b) for b in VAMOS_BASES]}
    runs = [run_cli([command], stdin_obj=descriptor, flags=["-S"]) for command in ("tutte", "charpoly", "os-dims")]
    assert [proc.returncode for proc in runs] == [0, 0, 0], [proc.stderr for proc in runs]
    tutte_out, chi, dims = (json.loads(proc.stdout) for proc in runs)
    T = BivariatePoly({(t["x"], t["y"]): int(t["c"]) for t in tutte_out["terms"]})
    assert (T.evaluate(1, 1), T.evaluate(2, 2)) == (65, 256)
    whitney = [abs(int(c["c"])) for c in sorted(chi["charpoly"]["terms"], key=lambda c: -c["u"])]
    assert dims == whitney == [1, 8, 28, 51, 30]


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
    # #E! is multiplied out only up to the first partial product over the
    # budget, so a large ground set gets a short line, not a 4,300-digit one
    for n in (1000, 10000):
        proc = run_cli(["euler-table"], stdin_obj={"type": "uniform", "r": 1, "n": n})
        assert proc.returncode == 3
        assert proc.stderr == "too large: at least 40320 fixed points exceed the budget of 5040\n"


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


def test_euler_table_u_4_11_end_to_end():
    """U(4, 11) has 11! = 39,916,800 fixed points and the widest slots of
    the inputs measured so far: 269 bits for the dynamic program, 271 for
    the numerators. No time bound."""
    proc = run_cli(["euler-table", "--budget", "39916800"], stdin_obj={"type": "uniform", "r": 4, "n": 11})
    assert proc.returncode == 0, proc.stderr
    assert '"matches_h_polynomial":true' in proc.stdout
    assert json.loads(proc.stdout)["table"] == h_matrix(uniform(4, 11))


def test_white_check_output():
    proc = run_cli(["white-check", "--degree", "3"], stdin_obj=U24)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["all_connected"] is True
    assert obj["n_fibers"] == 44
    assert obj["verdict"] == "no minimal generators in degree 3"


def test_verify_corpus_exits_zero():
    """Also through the benchmark's entry path, python -S -m, which imports
    nothing from site-packages, and with --jobs 2: the same bytes."""
    proc = run_cli(["verify-corpus"])
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["all_pass"] is True
    bare = run_cli(["verify-corpus", "--jobs", "2"], flags=["-S"])
    assert (bare.returncode, bare.stdout) == (0, proc.stdout), bare.stderr


def test_verify_corpus_exits_1_when_a_check_fails(monkeypatch, capsys):
    """One frozen value that the recomputation misses: the report is still
    the one stdout line, with all_pass false, and the exit code is 1."""
    from matroid_workbench import corpus

    entry = next(e for e in corpus.CORPUS if e["name"] == "u_1_2")
    item = next(i for i in entry["expected"] if i["check"] == "n_bases")
    monkeypatch.setitem(item, "value", 3)
    assert cli.main(["verify-corpus"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == "" and out.count("\n") == 1 and report["all_pass"] is False
    assert [e["name"] for e in report["entries"] if not e["pass"]] == ["u_1_2"]


@pytest.mark.parametrize(
    "args, degree_error",
    [
        (["os-dims"], None),
        (["os-basis", "--degree", "99"], "error: degree 99 out of range 0..3\n"),
        (["reduced-os-basis", "--degree", "99"], "error: reduced degree 99 out of range\n"),
    ],
)
def test_descriptor_errors_come_before_field_errors_and_field_errors_before_the_command(
    args, degree_error, monkeypatch, capsys
):
    """main reads the descriptor, then the field, then runs the command:
    a bad descriptor with a bad --field reports the descriptor, and a good
    descriptor with a bad --field reports the field before any degree."""

    def run(stdin_text, field):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        rc = cli.main(args + ["--field", field])
        out, err = capsys.readouterr()
        assert out == ""
        return rc, err

    assert run('{"type":"mystery"}', "GF(4)") == (2, "error: unknown descriptor type 'mystery'\n")
    assert run(json.dumps(U23), "GF(4)") == (2, "error: GF(4): modulus must be a prime below 2^64\n")
    if degree_error:
        assert run(json.dumps(U23), "GF(3)") == (2, degree_error)


def test_graph_commands_on_a_2000_edge_path_within_10_s(tmp_path):
    """A path is all bridges, with rank far above GREENE_RANK_LIMIT, so
    check_tutte counts its spanning forests block by block, and every
    block is one edge: one depth-first search, and no determinant."""
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"type": "graphic", "edges": [[i, i + 1] for i in range(2000)]}))
    def power_of_u_minus_1(n):  # (u - 1)^n
        return {"terms": [{"u": n - k, "c": str(math.comb(n, k) * (-1) ** k)} for k in range(n + 1)]}

    want = {
        "tutte": {"terms": [{"x": 2000, "y": 0, "c": "1"}]},
        "hlv": {"terms": [{"u": 2000 - k, "v": 0, "c": str(math.comb(2000, k))} for k in range(2001)]},
        "charpoly": {"charpoly": power_of_u_minus_1(2000), "reduced_charpoly": power_of_u_minus_1(1999)},
    }
    for command, value in want.items():
        proc = subprocess.run([sys.executable, "-m", "matroid_workbench.cli", command, "--input", str(path)],
                              capture_output=True, text=True, timeout=10)
        assert (proc.returncode, proc.stderr) == (0, ""), command
        assert json.loads(proc.stdout) == value, command


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
        # #E! past 4,300 digits would not even convert to a string
        (["euler-table"], {"type": "uniform", "r": 1, "n": 1000}, None, 3),
        (["euler-table"], {"type": "uniform", "r": 1, "n": 10000}, None, 3),
        # recursion past the interpreter's limit, one frame per element
        (["tutte"], {"type": "uniform", "r": 3, "n": 1000}, None, 3),
        (["os-basis", "--degree", "1200"], {"type": "uniform", "r": 1500, "n": 1500}, None, 3),
        (["os-dims"], {"type": "uniform", "r": 1500, "n": 1500}, None, 3),
        # the nbc budget counts pushes: #E^2 / 2 of them in degree 1
        (["os-basis", "--degree", "1"], {"type": "uniform", "r": 10000, "n": 10000}, None, 3),
        # json.loads raises a plain ValueError on an integer literal past
        # the interpreter's 4,300-digit conversion limit
        pytest.param(["tutte"], None, '{"type":"uniform","r":1' + "0" * 5000 + ',"n":3}', 2,
                     id="json-integer-of-5001-digits"),
    ],
)
def test_exit_codes(args, stdin_obj, stdin_text, code):
    proc = run_cli(args, stdin_obj=stdin_obj, stdin_text=stdin_text)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""  # errors go to stderr only
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_deep_deletion_contraction_exits_3(monkeypatch, capsys):
    """Deletion-contraction on the n-cycle recurses once per element. The
    1,000-cycle passes the interpreter's limit of 1,000 frames only after
    a minute of canonical keys, so a 250-cycle meets a limit lowered to 150
    frames above this test's own here."""
    cycle = {"type": "graphic", "edges": [[i, (i + 1) % 250] for i in range(250)]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(cycle)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        assert cli.main(["tutte"]) == 3
    finally:
        sys.setrecursionlimit(limit)
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("too large: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1


def test_charpoly_of_k8_by_deletion_contraction():
    """28 elements are past the subset sum's 24, so charpoly takes
    deletion-contraction, held to Greene's identity: chi of the braid
    arrangement A_7 is (u - 1)(u - 2)...(u - 7)."""
    proc = run_cli(["charpoly"], stdin_obj=_complete_graph(8))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    reduced = UnivariatePoly.monomial(0)
    for i in range(2, 8):
        reduced = reduced * UnivariatePoly({1: 1, 0: -i})
    chi = reduced * UnivariatePoly({1: 1, 0: -1})
    assert got == {"charpoly": chi.to_json(), "reduced_charpoly": reduced.to_json()}
    assert [int(t["c"]) for t in got["charpoly"]["terms"]] == [1, -28, 322, -1960, 6769, -13132, 13068, -5040]


def test_hlv_of_k8_by_deletion_contraction():
    """hlv takes T from the same route rule as charpoly, so past 24
    elements it expands M(K8) by deletion-contraction, held to Greene's
    identity, and substitutes: h = v^21 T(u + 1, 1/v + 1)."""
    proc = run_cli(["hlv"], stdin_obj=_complete_graph(8))
    assert proc.returncode == 0, proc.stderr
    M = from_descriptor(_complete_graph(8))
    h = tutte.h_from_tutte(tutte.tutte_dc(M), 28, 7)
    assert json.loads(proc.stdout) == h.to_json(xname="u", yname="v")
    assert h.evaluate(1, 1) == 2**28
    assert {i: c for (i, j), c in h.terms() if j == 0} == {0: 1}  # h(u, 0) = 1: no coloops


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


def test_tutte_budget_caps_the_route_rules_deletion_contraction(monkeypatch, capsys):
    """Without --cache, --budget is the budget of whichever
    deletion-contraction the route rule runs: on M(K4) the walk runs and a
    budget of 1 is never read; the fat graph's parallel class of 20 edges
    sends it to deletion-contraction, which expands 2 cores and is
    refused."""
    for descriptor, code_wanted in ((_complete_graph(4), 0), (FAT_GRAPH, 3)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(descriptor)))
        code = cli.main(["tutte", "--budget", "1"])
        out, err = capsys.readouterr()
        assert code == code_wanted, err
        if code == 3:
            assert out == "" and err.startswith("too large:") and "budget" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FAT_GRAPH)))
    assert cli.main(["tutte", "--budget", "2"]) == 0


def test_cli_import_leaves_unused_modules_unloaded():
    """The package resolves its names lazily and each command imports its
    own modules, so importing the CLI loads none of the heavier ones; the
    graph algorithms load with the first graphic memo key or coloop query,
    argparse with the parser, and json, with re, only to report malformed
    JSON."""
    code = "import sys, matroid_workbench.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "matroid_workbench.cli" in loaded
    for name in ("corpus", "white", "orlik_solomon", "graphs", "tutte", "polynomials", "fields", "linalg",
                 "deletion_contraction", "usage", "white_moves", "linear_minors", "basis_list", "os_algebra"):
        assert f"matroid_workbench.{name}" not in loaded
    for name in ("argparse", "shutil", "fractions", "decimal", "json", "re"):
        assert name not in loaded


# Runs cli.main on the given argv in a fresh `python -S` and reports its
# return or exit code and the loaded modules on stderr's last line.
_MAIN_IN_FRESH_PROCESS = (
    "import sys\n"
    "from matroid_workbench import cli\n"
    "try:\n"
    "    rc = cli.main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    rc = exc.code\n"
    "print(rc, *sorted(sys.modules), file=sys.stderr)\n"
)


def _run_in_fresh_process(args, stdin_obj=None, env=None, setup=""):
    """(exit code, loaded module names, stdout, stderr before the report)
    of cli.main in a fresh interpreter, after the code `setup`."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", setup + _MAIN_IN_FRESH_PROCESS, *args],
        input=json.dumps(stdin_obj) if stdin_obj is not None else "",
        capture_output=True, text=True, timeout=60, env=env,
    )
    *err, report = proc.stderr.splitlines()
    rc, *loaded = report.split()
    return int(rc), set(loaded), proc.stdout, err


def _main_in_fresh_process(args, stdin_obj=None, env=None):
    """(exit code, loaded module names, stdout) of cli.main in a fresh
    interpreter."""
    return _run_in_fresh_process(args, stdin_obj, env)[:3]


_NEVER_FOR_GRAPHS_AND_UNIFORM = (
    "fractions",
    "decimal",
    "shutil",
    "matroid_workbench.fields",
    "matroid_workbench.linalg",
    "matroid_workbench.series",
    "matroid_workbench.basis_list",
)


@pytest.mark.parametrize(
    "args",
    [["tutte"], ["charpoly"], ["white-check", "--degree", "3"], ["euler-table"]],
)
@pytest.mark.parametrize("descriptor", [_complete_graph(4), U24], ids=["K4", "U24"])
def test_commands_on_graphs_and_uniform_load_no_field_or_linear_code(args, descriptor):
    """A graph or a uniform matroid parses no field and makes no Fraction,
    so fractions, decimal, fields.py and linalg.py stay unloaded, nor is it
    a basis list, so basis_list.py stays unloaded, and the help formatter,
    built with the parser, never imports shutil; euler-table calibrates its
    signs on uniform matroids and sums packed integers, so series.py stays
    unloaded too."""
    rc, loaded, out = _main_in_fresh_process(args, descriptor)
    assert rc == 0 and json.loads(out)
    assert not loaded.intersection(_NEVER_FOR_GRAPHS_AND_UNIFORM)


@pytest.mark.parametrize("command", ["tutte", "hlv", "charpoly"])
def test_walked_graph_commands_leave_the_graph_algorithms_unloaded(command):
    """On M(K4) the route rule takes the subset walk, whose classes come
    from the union-find and whose check counts cuts in tutte.py, so
    graphs.py (canonical forms and blocks, for deletion-contraction) is
    never compiled."""
    rc, loaded, out = _main_in_fresh_process([command], _complete_graph(4))
    assert rc == 0 and json.loads(out)
    assert "matroid_workbench.graphs" not in loaded
    assert "matroid_workbench.tutte" in loaded


def test_a_rational_matrix_loads_the_linear_code():
    """An integer Q matrix loads fields.py and linalg.py, and runs on ints
    alone: no Fraction is made, so fractions stays unloaded."""
    rc, loaded, out = _main_in_fresh_process(["tutte"], FANO | {"field": "Q"})
    assert rc == 0 and json.loads(out)
    assert {"matroid_workbench.linalg", "matroid_workbench.fields"} <= loaded
    assert "fractions" not in loaded


_NEVER_ON_INTEGER_INPUT = ("fractions", "decimal", "numbers", "re", "enum")


@pytest.mark.parametrize(
    "args, descriptor",
    [
        *(pytest.param([command], FANO | {"field": field}, id=f"{command}-{field}")
          for field in ("Q", "GF(7)") for command in ("euler-table", "hlv", "tutte")),
        pytest.param(["os-dims", "--field", "GF(2)"], _complete_graph(4), id="os-dims-GF(2)-K4"),
    ],
)
def test_integer_input_loads_neither_fractions_nor_re(args, descriptor):
    """Integer Q and GF(p) matrices, and --field, run on ints and string
    methods: fractions, decimal, numbers, re and enum stay unloaded."""
    rc, loaded, out = _main_in_fresh_process(args, descriptor)
    assert rc == 0 and json.loads(out)
    assert "matroid_workbench.fields" in loaded
    assert not loaded.intersection(_NEVER_ON_INTEGER_INPUT)


# A Q matrix with 'a/b' entries, and its columns scaled to integers by
# 6, 12, 7, 15, 5 and 10: the same matroid
_RATIONAL = [["1/2", 0, 1, "-2/3", 3, "1/10"], [0, "3/4", "5/7", 2, "-1/5", 1], [1, 1, 0, "1/3", 1, "-7/10"]]
_SCALED = [[3, 0, 7, -10, 15, 1], [0, 9, 5, 30, -1, 10], [6, 12, 0, 5, 5, -7]]


@pytest.mark.parametrize("args", [["tutte"], ["os-dims"]])
def test_fraction_entries_load_fractions_and_print_as_their_integer_twin(args):
    """An 'a/b' entry is the one place a Fraction is made, with fractions
    imported then; the matrix prints what its column-scaled integer twin
    prints, which loads no fractions."""
    rc, loaded, out = _main_in_fresh_process(args, {"type": "linear", "field": "Q", "matrix": _RATIONAL})
    twin_rc, twin_loaded, twin_out = _main_in_fresh_process(args, {"type": "linear", "field": "Q", "matrix": _SCALED})
    assert rc == twin_rc == 0 and json.loads(out)
    assert out == twin_out
    assert "fractions" in loaded and "fractions" not in twin_loaded


def test_orlik_solomon_imports_the_tutte_code_at_its_first_whitney_check():
    code = (
        "import sys\n"
        "from matroid_workbench import from_graph, orlik_solomon\n"
        "orlik_solomon.koszul_boundary((0, 1, 2))\n"
        "before = 'matroid_workbench.tutte' in sys.modules\n"
        "orlik_solomon.os_space(from_graph([(0, 1), (1, 2), (0, 2)]), 2)\n"
        "print(before, 'matroid_workbench.tutte' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "False True\n", proc.stderr


@pytest.mark.parametrize("args", [["--help"], ["tutte", "--help"]])
@pytest.mark.parametrize("columns", [40, None])
def test_help_wraps_at_columns_without_shutil(args, columns):
    """Help wraps at COLUMNS, else the terminal's width, else 80 (here
    stdout is a pipe), read without importing shutil."""
    env = {k: v for k, v in os.environ.items() if k not in ("COLUMNS", "LINES")}
    if columns is not None:
        env["COLUMNS"] = str(columns)
    rc, loaded, out = _main_in_fresh_process(args, env=env)
    assert rc == 0 and out.startswith("usage: matroid-workbench")
    assert max(map(len, out.splitlines())) <= (columns or 80)
    assert "shutil" not in loaded and "argparse" in loaded


def test_white_check_runs_without_the_tutte_code():
    rc, loaded, out = _main_in_fresh_process(["white-check", "--degree", "3"], U24)
    assert rc == 0 and "matroid_workbench.tutte" not in loaded
    assert json.loads(out)["all_connected"] is True


_NEVER_ON_A_WELL_FORMED_COMMAND = (
    "argparse", "gettext", "locale", "json", "re", "enum", "tempfile", "hashlib", "_hashlib",
    "matroid_workbench.usage")


@pytest.mark.parametrize(
    "args", [["white-check", "--degree", "3"], ["tutte"], ["tutte", "--cache", "CACHE"], ["hlv"], ["charpoly"]]
)
def test_well_formed_commands_load_neither_argparse_nor_json(args, tmp_path):
    """A well-formed command line is parsed without argparse or its
    builder, usage.py, JSON is read and written without the json package,
    and cache entries are written without tempfile and named without
    hashlib; with --cache, both the cold and the warm run. Without it, no
    module of a route that the command does not run is compiled."""
    cached = "CACHE" in args
    args = [str(tmp_path) if a == "CACHE" else a for a in args]
    runs = [_main_in_fresh_process(args, _complete_graph(4)) for _ in range(2 if cached else 1)]
    for rc, loaded, out in runs:
        assert rc == 0 and json.loads(out)
        assert not loaded.intersection(_NEVER_ON_A_WELL_FORMED_COMMAND)
        assert cached or not loaded.intersection(_COLD_MODULES.values())
    assert len({out for _, _, out in runs}) == 1
    assert all(name.endswith(".json") for name in os.listdir(tmp_path))


# Modules that hold code only some routes run, each loaded by those routes
# alone: deletion-contraction with its memo tables and the cache file
# class, the argparse fallback, the white move split and named views, the linear
# minors and memo-key normal form, the basis-list backing, and the
# Orlik-Solomon arithmetic.
_COLD_MODULES = {
    "dc": "matroid_workbench.deletion_contraction",
    "usage": "matroid_workbench.usage",
    "moves": "matroid_workbench.white_moves",
    "linear minors": "matroid_workbench.linear_minors",
    "bases": "matroid_workbench.basis_list",
    "os algebra": "matroid_workbench.os_algebra",
}
Q_VANDERMONDE_6X18 = {"type": "linear", "field": "Q", "matrix": [[x**i for x in range(18)] for i in range(6)]}
K5_MINUS_EDGE = {"type": "graphic", "edges": [list(e) for e in itertools.combinations(range(5), 2)][1:]}


@pytest.mark.parametrize("command", ["tutte", "hlv", "charpoly"])
@pytest.mark.parametrize("descriptor", [_complete_graph(4), Q_VANDERMONDE_6X18], ids=["K4", "Q-Vandermonde"])
def test_walked_commands_compile_no_cold_module(command, descriptor):
    """The subset walk takes T on M(K4) and on the Q Vandermonde 6 x 18,
    so neither deletion-contraction nor the linear minors and memo keys
    it needs are compiled, nor the argparse fallback or the basis-list
    backing."""
    rc, loaded, out = _main_in_fresh_process([command], descriptor)
    assert rc == 0 and json.loads(out)
    assert not loaded.intersection(_COLD_MODULES.values())


def test_tutte_cache_loads_deletion_contraction_and_its_file_cache(tmp_path):
    """`tutte --cache` runs deletion-contraction, whose module holds the
    file cache class, cold and warm; a graph needs no linear minors."""
    for _ in range(2):
        rc, loaded, out = _main_in_fresh_process(["tutte", "--cache", str(tmp_path)], _complete_graph(4))
        assert rc == 0 and json.loads(out)
        assert _COLD_MODULES["dc"] in loaded
        assert not loaded.intersection(set(_COLD_MODULES.values()) - {_COLD_MODULES["dc"]})
    rc, loaded, out = _main_in_fresh_process(["tutte", "--cache", str(tmp_path / "q")], FANO | {"field": "Q"})
    assert rc == 0 and {_COLD_MODULES["dc"], _COLD_MODULES["linear minors"]} <= loaded


@pytest.mark.parametrize("argv", [["--help"], ["tutte", "--help"], ["tutte", "--budget", "x"], ["os-basis"]])
def test_help_and_usage_errors_load_the_argparse_fallback(argv, monkeypatch):
    """Help and a usage error load usage.py and argparse, which no
    well-formed command loads (above), and print the bytes and exit code
    that build_parser().parse_args gives in process."""
    env = dict(os.environ, COLUMNS="80")
    rc, loaded, out, err = _run_in_fresh_process(argv, env=env)
    assert {_COLD_MODULES["usage"], "argparse"} <= loaded
    monkeypatch.setenv("COLUMNS", "80")
    want_out, want_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(want_out), contextlib.redirect_stderr(want_err):
        with pytest.raises(SystemExit) as stop:
            cli.build_parser().parse_args(argv)
    assert (rc, out, "".join(line + "\n" for line in err)) == (stop.value.code, want_out.getvalue(), want_err.getvalue())
    assert rc == (0 if "--help" in argv else 2)


# with no double swap every fiber of two or more monomials splits, so
# white-check splits degree 3 by its (no) moves and reports witnesses
_NO_DOUBLE_SWAPS = "from matroid_workbench import white\nwhite._swaps = lambda *args: set()\n"


def test_white_check_loads_the_lift_only_for_a_split_fiber():
    """Every fiber of M(K5) minus an edge is connected, so the star
    closure answers and the move split is never compiled; with the double
    swaps taken away, fibers split, and the move split loads to split them
    and name the witnesses."""
    rc, loaded, out = _main_in_fresh_process(["white-check", "--degree", "3"], K5_MINUS_EDGE)
    assert rc == 0 and json.loads(out)["all_connected"] is True
    assert not loaded.intersection(_COLD_MODULES.values())
    rc, loaded, out, _ = _run_in_fresh_process(["white-check", "--degree", "3"], U24, setup=_NO_DOUBLE_SWAPS)
    assert rc == 0 and json.loads(out)["witnesses"]
    assert _COLD_MODULES["moves"] in loaded


@pytest.mark.parametrize(
    "args, loads_algebra",
    [(["os-dims"], False), (["os-basis", "--degree", "2"], False), (["reduced-os-basis", "--degree", "2"], True)],
)
def test_only_the_reduced_basis_loads_the_orlik_solomon_arithmetic(args, loads_algebra):
    """os-dims and os-basis print nbc counts and sets, so the exterior
    elements and straightening stay uncompiled; the reduced basis checks
    its identity minor on normal forms, which load them."""
    rc, loaded, out = _main_in_fresh_process(args, _complete_graph(4))
    assert rc == 0 and json.loads(out)
    assert (_COLD_MODULES["os algebra"] in loaded) == loads_algebra
    assert not loaded.intersection(set(_COLD_MODULES.values()) - {_COLD_MODULES["os algebra"]})


def test_a_basis_list_loads_the_basis_list_backing():
    """What a graph or a uniform matroid never loads (above)."""
    rc, loaded, out = _main_in_fresh_process(["tutte"], {"type": "bases", "n": 3, "bases": [[0, 1], [0, 2], [1, 2]]})
    assert rc == 0 and json.loads(out) and _COLD_MODULES["bases"] in loaded


_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_reads():
    """(module, attribute) for every attribute of a package module that
    the benchmark tracer's install() reads, by module attribute or as the
    first two arguments of its fn() helper, and (module, class, method) for
    every method it wraps on a class it reads off a module."""
    install = next(node for node in ast.parse(_TRACER.read_text()).body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {alias.name for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) and node.module == "matroid_workbench" for alias in node.names}
    reads, methods = set(), set()
    for node in ast.walk(install):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((node.value.id, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) >= 2:
            owner, attr = node.args[:2]
            if node.func.id == "fn":
                reads.add((owner.id, attr.value))
            elif (node.func.id in ("meth", "_wrap_method") and isinstance(owner, ast.Attribute)
                  and isinstance(owner.value, ast.Name) and owner.value.id in modules):
                methods.add((owner.value.id, owner.attr, attr.value))
    return sorted(reads), sorted(methods)


def test_every_name_the_tracer_reads_resolves_in_a_fresh_interpreter():
    """Each package attribute that perfbench/tracer.py's install() reads
    (tutte.tutte_dc, tutte.TutteCache, cli.FileTutteCache, linalg.rref,
    matroids.BasesBacking, ...) resolves at that path in an interpreter
    that has imported nothing else, whichever module now defines it, and
    each method it wraps is in its class's own namespace."""
    reads, methods = _tracer_reads()
    assert ("tutte", "tutte_dc") in reads and ("cli", "FileTutteCache") in reads and ("linalg", "rref") in reads
    code = (
        "import importlib, sys\n"
        "module, attr, method = sys.argv[1:]\n"
        "value = getattr(importlib.import_module('matroid_workbench.' + module), attr)\n"
        "assert not method or method in vars(value), method\n"
    )
    for module, attr, method in [(m, a, "") for m, a in reads] + methods:
        proc = subprocess.run([sys.executable, "-S", "-c", code, module, attr, method],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (module, attr, method, proc.stderr)


# Installs the tracer, runs cli.main on each (argv, descriptor) pair and
# prints the names of the recorded spans and the counters as one JSON line.
_TRACED_RUNS = (
    "import io, json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tracer\n"
    "from matroid_workbench import cli\n"
    "tr = tracer.install(tracer.Tracer())\n"
    "for argv, descriptor in json.loads(sys.argv[2]):\n"
    "    sys.stdin = io.StringIO(json.dumps(descriptor))\n"
    "    assert cli.main(argv) == 0, argv\n"
    "names = sorted({tr.names[i] for buf in tr.buffers for i in buf.names})\n"
    "print(json.dumps([names, tr.counters()]))\n"
)


def test_the_commands_call_what_the_tracer_wraps(tmp_path):
    """With the tracer installed, the commands run the wrapped objects of
    the modules they load: the file cache and the memo table of
    `tutte --cache` cold and warm, deletion-contraction on M(K7), where
    the route rule sends it, the rank of a basis list and the toric fibers."""
    cache = str(tmp_path)
    runs = [
        (["tutte", "--cache", cache], _complete_graph(4)),
        (["tutte", "--cache", cache], _complete_graph(4)),
        (["tutte"], _complete_graph(7)),
        (["charpoly"], {"type": "bases", "n": 3, "bases": [[0, 1], [0, 2], [1, 2]]}),
        (["white-check", "--degree", "3"], U24),
    ]
    proc = subprocess.run([sys.executable, "-S", "-c", _TRACED_RUNS, str(_TRACER.parent), json.dumps(runs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans, counters = json.loads(proc.stdout.splitlines()[-1])
    assert {"cli.parse", "cli.cache.get", "cli.cache.put", "tutte.dc", "tutte.char_poly", "white.toric_fibers"} \
        <= set(spans)
    assert counters["tutte.dc.get"] > counters["tutte.dc.put"] > 0 and counters["cli.cache.get.hits"] > 0
    assert counters["matroids.backing_rank"] > 0


# ---------------------------------------------------------- argument parsing


def _argparse_vars(argv):
    """vars() of build_parser().parse_args(argv), or None where argparse
    prints help or a usage error and exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


_GOOD_VALUES = {
    "--input": st.sampled_from(["-", "descriptor.json", "", "tutte", "a b"]),
    "--field": st.sampled_from(["Q", "GF(7)", " GF(2) ", "R"]),
    "--degree": st.integers(0, 99).map(str),
    "--cache": st.sampled_from(["memo", "-", "d i r"]),
    "--budget": st.integers(0, 10**30).map(str),
    "--jobs": st.integers(1, 64).map(str),
}


@st.composite
def _well_formed_argv(draw):
    """A command and some of its own options in any order, each once with
    a value its converter accepts, the required ones always."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = dict(cli._COMMANDS[command][2])
    argv = [command]
    for flag in draw(st.permutations(sorted(options))):
        if options[flag].get("required") or draw(st.booleans()):
            argv += [flag, draw(_GOOD_VALUES[flag])]
    return argv


_WORDS = [
    *sorted(cli._COMMANDS), "tut", "bogus", "", "-h", "--help", "--",
    "--input", "--field", "--degree", "--cache", "--budget", "--jobs", "--bogus",
    "--inp", "--deg", "--b", "--j", "--degree=3", "--jobs=2", "--input=-", "-i",
    "-", "Q", "GF(7)", "x", "3", "0", "1", " 3", "3.5", "1e3", "٣", "1_0", "0x10",
    "-1", "-3", "-x", "-h", "9" * 5000, "99999999999999999999",
]
_ANY_ARGV = st.one_of(
    _well_formed_argv(),
    st.lists(st.sampled_from(_WORDS), max_size=7),
    # one word of a well-formed argv replaced, or one put in anywhere: an
    # unknown, abbreviated or missing flag, a bad value, a stray token,
    # something before the command
    st.tuples(_well_formed_argv(), st.integers(0, 9), st.sampled_from(_WORDS), st.booleans()).map(
        lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + t[3]:]
    ),
    # an option given twice
    _well_formed_argv().map(lambda argv: argv + argv[1:3]),
)


@settings(max_examples=300, deadline=None)
@given(_ANY_ARGV)
@example(["tutte", "--input", "-x"])
@example(["tutte", "--jobs", "-3"])
@example(["tutte", "--jobs", "2", "--jobs", "3"])
@example(["os-basis", "--field", "Q"])
@example(["os-basis", "--degree", "3", "--degree", "1"])
@example(["white-check", "--degree", "3", "--input"])
@example(["--input", "-", "tutte"])
def test_well_formed_parser_returns_none_or_argparses_namespace(argv):
    fast = cli._parse_well_formed(argv)
    assert fast is None or fast == _argparse_vars(argv), argv


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["--help"], ["tutte", "-h"], ["tutte", "--help"], ["tutte", "--inp", "-"],
        ["tutte", "--input=-"], ["tutte", "--"], ["tutte", "--", "--input", "-"],
        ["tutte", "--jobs", "2", "--jobs", "2"], ["tutte", "--budget", "x"], ["tutte", "--jobs", "0"],
        ["tutte", "--jobs", "-1"], ["tutte", "--input", "-x"], ["--input", "-", "tutte"],
        ["tutte", "--field", "Q"], ["os-basis"], ["white-check", "--degree", "3.0"], ["tut"],
    ],
)
def test_well_formed_parser_leaves_every_other_argv_to_argparse(argv):
    assert cli._parse_well_formed(argv) is None


@settings(max_examples=100, deadline=None)
@given(_well_formed_argv())
def test_well_formed_parser_reads_every_well_formed_argv(argv):
    fast = cli._parse_well_formed(argv)
    assert fast is not None and fast == _argparse_vars(argv), argv


@pytest.mark.parametrize(
    "argv", [["--help"], ["tutte", "--help"], ["tutte", "--budget", "x"], ["euler-table", "--jobs", "0"]]
)
def test_help_and_usage_errors_are_argparses_bytes(argv):
    """main hands help and bad values to argparse: the same stdout, stderr
    and exit code as build_parser().parse_args."""

    def run(call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as stop:
                call(argv)
        return out.getvalue(), err.getvalue(), stop.value.code

    out, err, code = run(cli.main)
    assert (out, err, code) == run(lambda a: cli.build_parser().parse_args(a))
    assert code == (0 if "--help" in argv else 2)
    assert out.startswith("usage: ") if code == 0 else err.startswith("matroid-workbench ")


# ---------------------------------------------------------------------- JSON


def _json_loads_then_descriptor(raw):
    """Descriptor reading by json.loads and the CLI's handlers of its
    errors: the reference for cli._read_descriptor."""
    from matroid_workbench import from_descriptor
    from matroid_workbench.errors import InvalidInput

    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"input is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise InvalidInput("input JSON has an integer literal too long to convert") from exc
    except RecursionError as exc:
        raise InvalidInput("input JSON is nested too deeply") from exc
    return from_descriptor(obj)


_U23_TEXT = json.dumps(U23)


@pytest.mark.parametrize(
    "raw",
    [
        _U23_TEXT,
        " \t\n\r" + _U23_TEXT + "\r\n\t ",
        "﻿" + _U23_TEXT,
        _U23_TEXT + " {}",
        _U23_TEXT + "x",
        "\f" + _U23_TEXT,
        _U23_TEXT + "\v",
        '{"type":"uniform","r":1' + "0" * 5000 + ',"n":3}',
        "[" * 100_000 + "]" * 100_000,
        "[" * 100_000,
        '{"type":"uniform","r":NaN,"n":3}',
        '{"type":"uniform","r":2,"n":Infinity}',
        '{"type":"uniform","r":2,"n":-Infinity}',
        '{"type":"\\ud800","r":1,"n":2}',
        '{"type":"\ud800","r":1,"n":2}',
        '{"type":"uniform","r":1,"n":3,"r":2}',
        '{"type":"uni\x01form","r":1,"n":3}',
        "",
        " \n",
    ],
    ids=["plain", "json-whitespace", "bom", "trailing-value", "trailing-junk", "form-feed",
         "vertical-tab", "5000-digit-integer", "nested-100000", "unclosed-100000", "nan", "infinity",
         "minus-infinity", "lone-surrogate-escape", "lone-surrogate", "duplicate-keys",
         "control-character", "empty", "whitespace-only"],
)
def test_read_descriptor_gives_json_loads_value_or_error_line(raw, monkeypatch):
    def outcome(read):
        monkeypatch.setattr(sys, "stdin", io.StringIO(raw))
        try:
            M = read()
        except cli.InvalidInput as exc:
            return f"error: {exc}"
        return M.size, M.r, M.memo_key()

    want = outcome(lambda: _json_loads_then_descriptor(sys.stdin.read()))
    assert outcome(lambda: cli._read_descriptor("-")) == want


def _loads_outcome(loads, text):
    try:
        return "value", repr(loads(text))
    except Exception as exc:
        return type(exc).__name__, str(exc)


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)
_PADDING = st.text(alphabet=" \t\n\r\f\v ", max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=20),
        st.tuples(_PADDING, _JSON_VALUES, st.booleans(), _PADDING).map(
            lambda t: t[0] + json.dumps(t[1], ensure_ascii=t[2]) + t[3]
        ),
    )
)
@example("[NaN, Infinity, -Infinity, -0, 1e400, 1.5E-3, 10000000000000000000000]")
@example('{"a": "\\ud800\\udc00\\ud800", "a": "\\u00e9\\n"}')
@example("nan")
@example("[1,]")
@example('"\x1f"')
def test_loads_agrees_with_json_loads(text):
    assert _loads_outcome(cli._loads, text) == _loads_outcome(json.loads, text)


_GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def test_dumps_writes_the_golden_bytes():
    """Every recorded stdout is _dumps of its own value, compact, as the
    CLI writes it; in json.dumps's default separators too, as cache
    entries are written."""
    paths = sorted(_GOLDEN.iterdir())
    assert len(paths) > 20
    for path in paths:
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        if path.suffix == ".out":
            assert cli._dumps(obj, ",", ":") + "\n" == text, path.name
        assert cli._dumps(obj) == json.dumps(obj), path.name
        assert cli._dumps(obj, ",", ":") == json.dumps(obj, separators=(",", ":")), path.name


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dumps_agrees_with_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj)
    assert cli._dumps(obj, ",", ":") == json.dumps(obj, separators=(",", ":"))


def test_tutte_command_builds_the_cache_class_it_exports(tmp_path, monkeypatch):
    """cli.FileTutteCache names the class beside deletion-contraction, and
    `tutte --cache` builds that same class, so a wrapper put on it sees the
    run."""
    from matroid_workbench import deletion_contraction

    cls = cli.FileTutteCache
    assert cls is deletion_contraction.FileTutteCache and issubclass(cls, tutte.TutteCache)
    keys = []
    put = cls.put

    def recording_put(self, key, poly):
        keys.append(key)
        put(self, key, poly)

    monkeypatch.setattr(cls, "put", recording_put)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FANO)))
    assert cli.main(["tutte", "--cache", str(tmp_path)]) == 0
    assert keys and len(list(tmp_path.glob("*.json"))) == len(keys)


# -------------------------------------------------------------------- caching


def _file_cache(directory):
    """The cache `tutte --cache` builds: a FileTutteCache on the CLI's JSON
    codec."""
    return cli.FileTutteCache(str(directory), cli._loads, cli._dumps)


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


@pytest.mark.parametrize(
    "descriptor, cores",
    [(Q_VANDERMONDE_6X18, 48), ({"type": "linear", "field": "GF(7)", "matrix": GF7_6X17}, 620),
     (_complete_graph(8), 187)],
    ids=["Q-Vandermonde-6x18", "seeded-GF7-6x17", "K8"],
)
def test_tutte_cache_writes_one_file_per_expanded_core_cold_and_none_warm(descriptor, cores, tmp_path):
    """Cold, `tutte --cache` writes one file for each core that
    deletion-contraction expands, named by its memo key: 48 on the Q
    Vandermonde 6 x 18, 620 on the benchmark's seeded GF(7) 6 x 17 and 187
    on M(K8), since cores of rank at most 2 are closed by their parallel
    classes (1,430 and 233 without the closed form, and 4,434 on M(K8)
    under labeled keys); warm, it prints the same bytes and writes no
    file."""
    from matroid_workbench import deletion_contraction

    put = []

    class Counting(deletion_contraction.TutteCache):
        def put(self, key, poly):
            put.append(hashlib.sha256(key).hexdigest() + ".json")
            super().put(key, poly)

    deletion_contraction.tutte_dc(from_descriptor(descriptor), Counting())
    runs = []
    for _ in range(2):
        proc = run_cli(["tutte", "--cache", str(tmp_path)], stdin_obj=descriptor)
        assert proc.returncode == 0, proc.stderr
        files = {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
        runs.append((proc.stdout, files))
    (cold, cold_files), (warm, warm_files) = runs
    assert sorted(cold_files) == sorted(put) and len(put) == cores
    assert warm == cold and warm_files == cold_files


# inputs with loops whose loopless cores have rank 3, so deletion-contraction
# expands cores and writes files
_LOOPY = {
    "graph with self-loops": {"type": "graphic", "edges": [
        [0, 0], [0, 1], [0, 2], [2, 2], [0, 3], [1, 2], [1, 3], [2, 3], [3, 3]]},
    # columns 1 and 4 are zero, column 7 is a coloop
    "GF(3) matrix with zero columns and a coloop": {"type": "linear", "field": "GF(3)", "matrix": [
        [1, 0, 0, 0, 0, 1, 1, 0], [0, 0, 1, 0, 0, 1, 2, 0], [0, 0, 0, 1, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1]]},
    # U(3,5) and the loop 5
    "basis list with a loop": {"type": "bases", "n": 6,
                               "bases": [list(b) for b in itertools.combinations(range(5), 3)]},
}


@pytest.mark.parametrize("name", list(_LOOPY))
def test_tutte_cache_on_loops_writes_what_deletion_contraction_on_the_input_writes(name, tmp_path):
    """`tutte --cache` deletes the input's loops before deletion-contraction,
    whose root would peel them with the coloops: cold, it prints plain
    `tutte`'s bytes and writes the file names and bytes that tutte_dc on
    the whole input writes into a FileTutteCache; warm, it prints the same
    bytes and writes no file."""
    from matroid_workbench import deletion_contraction

    descriptor = _LOOPY[name]
    M = from_descriptor(descriptor)
    assert M.loops()
    deletion_contraction.tutte_dc(M, _file_cache(tmp_path / "direct"))
    direct = {p.name: p.read_bytes() for p in (tmp_path / "direct").iterdir()}
    assert direct
    plain = run_cli(["tutte"], stdin_obj=descriptor)
    cache = tmp_path / "cli"
    runs = []
    for _ in range(2):
        proc = run_cli(["tutte", "--cache", str(cache)], stdin_obj=descriptor)
        assert (proc.returncode, proc.stdout) == (0, plain.stdout), proc.stderr
        runs.append({p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()})
    cold, warm = runs
    assert {f: data for f, (data, _, _) in cold.items()} == direct
    assert warm == cold


def test_cold_cache_run_leaves_only_entries_in_json_dumps_bytes(tmp_path):
    """A cold run leaves no temporary file, and each entry holds the bytes
    json.dumps writes, readable and writable by its owner only."""
    proc = run_cli(["tutte", "--cache", str(tmp_path)], stdin_obj=FANO)
    assert proc.returncode == 0, proc.stderr
    files = sorted(tmp_path.iterdir())
    assert files and all(f.suffix == ".json" for f in files)
    for f in files:
        text = f.read_text()
        assert text == json.dumps(json.loads(text))
        assert f.stat().st_mode & 0o777 == 0o600


def test_cache_put_replaces_a_stale_temp_file_and_removes_its_own_on_failure(tmp_path, monkeypatch):
    """An entry's temporary file is named by its digest and the writer's
    pid; one left by a killed process with the same pid is overwritten, and
    a write that fails removes its own."""
    from matroid_workbench import tutte_dc, uniform

    cache = _file_cache(tmp_path)
    M, N = uniform(1, 2), uniform(2, 4)
    path = cache._path(M.memo_key())
    pathlib.Path(f"{path}.{os.getpid()}.tmp").write_text("partial")
    cache.put(M.memo_key(), tutte_dc(M))
    assert os.listdir(tmp_path) == [os.path.basename(path)]

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cache.put(N.memo_key(), tutte_dc(N))
    assert os.listdir(tmp_path) == [os.path.basename(path)]


U12 = {"type": "uniform", "r": 1, "n": 2}


@pytest.mark.parametrize(
    "bad_entry", ['{"terms":[{"x":9,"y":9,"c":"42"}]}', '{"terms":[{"x":0,"y":0,"c":"2"}]}', "garbage{"]
)
def test_tutte_cache_rejects_bad_entries(tmp_path, bad_entry):
    """A corrupt file (unparsable, degrees past the rank or corank, or a
    wrong T(1,1) or T(2,2)) is a miss: the right polynomial is printed and
    the entry is rewritten. A crafted entry that keeps those values is
    caught on a graph of rank at most GREENE_RANK_LIMIT when it breaks
    Greene's identity (the test below) and passes elsewhere; no check
    short of computing T catches every one."""
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


def test_tutte_cache_recomputes_a_crafted_graph_entry(tmp_path):
    """A disk entry is held to check_tutte, so on M(K4) the root entry
    T + x - y, which keeps T(1,1), T(2,2) and the degree bounds, fails
    Greene's identity and is a miss: the cold bytes are printed and the
    good entry is written back."""
    cache_dir, k4 = tmp_path / "memo", _complete_graph(4)
    cold = run_cli(["tutte", "--cache", str(cache_dir)], stdin_obj=k4)
    assert cold.returncode == 0, cold.stderr
    root = cache_dir / (hashlib.sha256(from_descriptor(k4).memo_key()).hexdigest() + ".json")
    good = root.read_text()
    crafted = BivariatePoly.from_json(json.loads(good)) + BivariatePoly({(1, 0): 1, (0, 1): -1})
    assert (crafted.evaluate(1, 1), crafted.evaluate(2, 2), crafted.degree_x(), crafted.degree_y()) == (16, 64, 3, 3)
    root.write_text(json.dumps(crafted.to_json()))
    warm = run_cli(["tutte", "--cache", str(cache_dir)], stdin_obj=k4)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert root.read_text() == good


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
    tutte_dc(k5, Recording(str(tmp_path), cli._loads, cli._dumps))
    assert written and sorted(p.name for p in tmp_path.iterdir()) == sorted(
        hashlib.sha256(key).hexdigest() + ".json" for key in written)
    for key, poly in written.items():
        path = tmp_path / (hashlib.sha256(key).hexdigest() + ".json")
        assert path.read_bytes() == json.dumps(poly.to_json()).encode()


def test_cache_file_names_are_hashlib_sha256_digests(tmp_path):
    """Cache files are named with the interpreter's built-in sha256, which
    gives hashlib.sha256's digests, so directories written with hashlib
    stay warm: on memo keys of every keyed backing, and on keys across the
    64-byte block boundary."""
    from matroid_workbench import from_matrix, uniform

    matroids = [from_graph([(0, 1), (1, 2), (0, 2), (2, 3)]), uniform(3, 7),
                from_matrix("Q", FANO["matrix"]), from_matrix("GF(7)", [[1, 2, 3, 4], [0, 1, 5, 6]])]
    keys = [M.memo_key() for M in matroids] + [b"", b"k" * 55, b"k" * 56, b"k" * 64, b"k" * 1000]
    cache = _file_cache(tmp_path)
    for key in keys:
        assert cache._path(key) == os.path.join(str(tmp_path), hashlib.sha256(key).hexdigest() + ".json")


def test_warm_cache_check_counts_bases_without_enumerating(tmp_path, monkeypatch):
    """A disk hit checks T(1,1) against a basis count that a graph (by the
    matrix-tree theorem), a uniform matroid and a basis list give without
    enumerating; a wrong count is still a miss."""
    from matroid_workbench import from_bases, tutte_dc, uniform
    from matroid_workbench.matroids import Matroid

    k5 = from_graph([(a, b) for a in range(5) for b in range(a + 1, 5)])
    family = [k5, uniform(3, 7), from_bases(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])]
    polys = [tutte_dc(M) for M in family]
    writer = _file_cache(tmp_path)
    for M, poly in zip(family, polys):
        writer.put(M.memo_key(), poly)
    monkeypatch.setattr(Matroid, "bases", lambda self, limit=0: pytest.fail("bases enumerated"))
    reader = _file_cache(tmp_path)
    for M, poly in zip(family, polys):
        assert reader.get(M.memo_key(), M) == poly
    # T(1, 1) one too large, with T(2, 2) and the degree bounds kept
    writer.put(k5.memo_key(), polys[0] + BivariatePoly({(1, 0): 1, (0, 1): -2, (0, 0): 2}))
    assert _file_cache(tmp_path).get(k5.memo_key(), k5) is None


_WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_plain_tutte_prints_the_bytes_of_tutte_cache_on_the_seeded_gf7_matrix(tmp_path, monkeypatch, capsys):
    """Plain tutte walks the benchmark's seeded GF(7) 6 x 17 matrix, as
    the route rule walks a matrix of up to 24 elements, and --cache runs
    deletion-contraction. The benchmark holds tutte.seeded to a reference
    that is itself the walk, so this ties the walk to deletion-contraction
    on that matrix at seeds 1, 2 and 3, drawn by perfbench/workloads.py."""
    seeded_inputs = runpy.run_path(str(_WORKLOADS))["seeded_inputs"]
    for seed in (1, 2, 3):
        descriptor = json.dumps(seeded_inputs(seed)["seeded_gf7_6x17"])
        outs = []
        for args in (["tutte"], ["tutte", "--cache", str(tmp_path / str(seed))]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(descriptor))
            assert cli.main(args) == 0, (seed, args)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], seed


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


def _last_two_class_sizes_merged(child_class_sizes):
    def spoiled(self, elements):
        return [sizes if sizes is None or len(sizes) < 2 else (*sizes[:-2], sizes[-2] + sizes[-1])
                for sizes in child_class_sizes(self, elements)]

    return spoiled


def _plus(one):
    return lambda f: lambda *args, **kwargs: f(*args, **kwargs) + one


def _fano_widest_slot(slot_width):
    """Every slot width set to the largest slot bit length of the Fano
    plane's prefix-state sum: one bit short once the sign is counted."""
    M = from_descriptor(FANO)
    widest = max(prefix_state_series(M, tuple(range(M.size)), M.size)[1])
    return lambda *bounds: widest


K4 = {"type": "graphic", "edges": [[a, b] for a in range(4) for b in range(a + 1, 4)]}
# U(4, 9): rows 0..3 of the Vandermonde matrix at nine distinct nodes
Q_VANDERMONDE_4X9 = {
    "type": "linear",
    "field": "Q",
    "matrix": [[x**i for x in (-11, -10, -6, -3, -2, 4, 5, 6, 8)] for i in range(4)],
}
# C5 with one edge replaced by 20 parallel copies: its walk bound (301) is
# small, but the walk would meet the 2^20 subsets of the parallel class, far
# past its cap, so deletion-contraction runs instead
FAT_GRAPH = {"type": "graphic", "edges": [[0, 1]] * 20 + [[1, 2], [2, 3], [3, 4], [4, 0]]}
# the 4 x 4 grid: 24 edges, rank 15, a walk bound of 12 million
GRID_4X4 = {"type": "graphic", "edges": [[4 * i + j, 4 * i + j + 1] for i in range(4) for j in range(3)]
            + [[4 * i + j, 4 * i + j + 4] for i in range(3) for j in range(4)]}


@pytest.mark.parametrize("descriptor, r", [(GRID_4X4, 15), (FAT_GRAPH, 4)], ids=["4x4-grid", "fat-graph"])
def test_hlv_and_charpoly_past_the_walk_take_deletion_contraction_within_5_s(descriptor, r, tmp_path):
    """The route rule sends the grid and the fat graph to
    deletion-contraction, the grid by its walk bound and the fat graph by
    the 2^20 subsets of its parallel class: tutte --cache, hlv and charpoly
    each exit 0 within 5 s through the benchmark's entry path, python -S
    -m, and hlv and charpoly agree with tutte --cache through
    h = v^(#E - r) T(u + 1, 1/v + 1) and chi = (-1)^r T(1 - u, 0)."""

    def timed(args):
        start = time.monotonic()
        proc = run_cli(args, stdin_obj=descriptor, flags=["-S"])
        assert proc.returncode == 0 and time.monotonic() - start < 5, (args, proc.stderr)
        return json.loads(proc.stdout)

    T = BivariatePoly({(t["x"], t["y"]): int(t["c"]) for t in timed(["tutte", "--cache", str(tmp_path)])["terms"]})
    h, chi = tutte_specializations(T, len(descriptor["edges"]), r)
    assert BivariatePoly({(t["u"], t["v"]): int(t["c"]) for t in timed(["hlv"])["terms"]}) == h
    assert UnivariatePoly({t["u"]: int(t["c"]) for t in timed(["charpoly"])["charpoly"]["terms"]}) == chi


GF7_3X8 = {
    "type": "linear",
    "field": "GF(7)",
    "matrix": [[6, 6, 0, 0, 0, 2, 6, 1], [5, 6, 5, 6, 2, 2, 4, 1], [4, 0, 4, 5, 1, 3, 5, 3]],
}
# columns in pairs of opposite multiples over GF(3), so the walk closes its
# nodes of corank 2 by classes of two and more
GF3_4X11 = {
    "type": "linear",
    "field": "GF(3)",
    "matrix": [[1, 2, 0, 0, 0, 0, 1, 2, 1, 2, 1], [0, 0, 1, 2, 0, 0, 2, 1, 1, 2, 0],
               [0, 0, 0, 0, 1, 2, 1, 2, 2, 1, 0], [1, 2, 1, 2, 2, 1, 0, 0, 2, 1, 1]],
}


_FAULT_ROWS = dict(zip(
    ["os-dims", "os-basis", "reduced-os-basis", "hlv", "charpoly", "tutte", "tutte-core", "tutte-fat",
     "tutte-walk", "euler-table-h",
     "hlv-walk", "charpoly-walk", "charpoly-dc", "euler-table-lcm", "euler-table-width", "os-dims-echelon-Q",
     "os-dims-echelon-GF7", "euler-table-echelon", "hlv-echelon-GF3", "charpoly-echelon-GF3"],
    [
        (["os-dims"], orlik_solomon, "nbc_sets", _one_set_short_in_degree_3,
         "nbc sets != Whitney number", K4),
        (["os-basis", "--degree", "3"], orlik_solomon, "nbc_sets", _one_set_short_in_degree_3,
         "nbc sets != Whitney number", K4),
        # the index sets of reduced degree 2 are the degree-3 nbc sets that hold 0
        (["reduced-os-basis", "--degree", "2"], orlik_solomon, "nbc_sets",
         _one_set_short_in_degree_3, "nbc sets != Whitney number", K4),
        (["hlv"], tutte, "h_from_tutte", _plus(BivariatePoly.monomial(0, 0)), "h(1,1) = 65", K4),
        (["charpoly"], tutte, "char_poly", _plus(UnivariatePoly.monomial(0)), "chi(1) = 1", K4),
        # x - y keeps T(1, 1), T(2, 2) and the degree bounds; M(K7), whose
        # walk bound of 7,547 sends it to deletion-contraction
        (["tutte"], tutte, "tutte_dc", _plus(BivariatePoly({(1, 0): 1, (0, 1): -1})), "Greene",
         _complete_graph(7)),
        # deletion-contraction closes every core of rank at most 2 by the
        # walk's _superset_counts: two classes merged there
        (["tutte"], tutte, "_superset_counts", _two_classes_merged, "Greene", _complete_graph(7)),
        # deletion-contraction, where a parallel class of 20 edges sends it
        (["tutte"], tutte, "tutte_dc", _plus(BivariatePoly({(1, 0): 1, (0, 1): -1})), "Greene", FAT_GRAPH),
        # any class sizes keep the 2^#E total of the subset walk; two classes
        # merged at each walk node that has more than one. check_tutte holds
        # the summed T to Greene's identity before any command reads it
        (["tutte"], tutte, "_superset_counts", _two_classes_merged, "Greene", K4),
        (["euler-table"], tutte, "_superset_counts", _two_classes_merged, "Greene", K4),
        (["hlv"], tutte, "_superset_counts", _two_classes_merged, "Greene", K4),
        (["charpoly"], tutte, "_superset_counts", _two_classes_merged, "Greene", K4),
        # past 24 elements charpoly takes deletion-contraction, held to check_tutte
        (["charpoly"], tutte, "tutte_dc", _plus(BivariatePoly({(1, 0): 1, (0, 1): -1})), "Greene",
         _complete_graph(8)),
        # a T that some tangent pairing does not divide is refused before any sum
        (["euler-table"], localization, "_pair_lcm", _plus(1), "does not divide", K4),
        # a packed slot too narrow for its sign wraps a product; the sum is
        # then no multiple of the scale, and no overflow is printed
        (["euler-table"], localization, "_slot_width", _fano_widest_slot, "non-integer", FANO),
        # the echelon's class sizes of the children of each node of corank
        # 3 close the corank-nullity walk on a matrix: the last two sizes
        # of each child merged, over Q, over GF(p) and on Fano
        (["os-dims"], linalg._Echelon, "child_class_sizes", _last_two_class_sizes_merged,
         "nbc sets != Whitney number", Q_VANDERMONDE_4X9),
        (["os-dims"], linalg._Echelon, "child_class_sizes", _last_two_class_sizes_merged,
         "nbc sets != Whitney number", GF7_3X8),
        (["euler-table"], linalg._Echelon, "child_class_sizes", _last_two_class_sizes_merged,
         "euler table disagrees", FANO),
        # merged classes that put a walk count at an infeasible corank or
        # nullity, which hlv and charpoly would otherwise print or refuse
        # as bad input
        (["hlv"], linalg._Echelon, "child_class_sizes", _last_two_class_sizes_merged,
         "impossible corank-nullity count", GF3_4X11),
        (["charpoly"], linalg._Echelon, "child_class_sizes", _last_two_class_sizes_merged,
         "impossible corank-nullity count", GF3_4X11),
    ],
))


@pytest.mark.parametrize(
    "args, module, name, spoil, message, descriptor", list(_FAULT_ROWS.values()), ids=list(_FAULT_ROWS)
)
def test_injected_fault_exits_4(args, module, name, spoil, message, descriptor, monkeypatch, capsys):
    """One wrong inner value stops each command before output: exit code 4,
    nothing on stdout and one line on stderr."""
    monkeypatch.setattr(module, name, spoil(getattr(module, name)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(descriptor)))
    assert cli.main(args) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err, err


# the rows that spoil deletion-contraction or the closed form it shares
# with the walk, both reached through tutte.py's names
_DC_FAULT_ROWS = [row for row, (_, _, name, *_) in _FAULT_ROWS.items() if name in ("tutte_dc", "_superset_counts")]


@pytest.mark.parametrize("row", _DC_FAULT_ROWS)
def test_dc_fault_rows_exit_4_with_deletion_contraction_loaded_first(row, monkeypatch, capsys):
    """The deletion-contraction rows, run after deletion_contraction.py is
    imported, so that none passes or fails by the order of the tests: its
    code reads tutte._superset_counts at each call, and tutte_polynomial
    calls tutte.tutte_dc, so a patch on either reaches the command."""
    importlib.import_module("matroid_workbench.deletion_contraction")
    test_injected_fault_exits_4(*_FAULT_ROWS[row], monkeypatch, capsys)


# tutte._superset_counts with its last two class sizes merged, set before
# deletion_contraction.py is imported
_MERGED_CLASSES = (
    "from matroid_workbench import tutte\n"
    "counts = tutte._superset_counts\n"
    "tutte._superset_counts = lambda c, nu, m, sizes: counts("
    "c, nu, m, (*sizes[:-2], sum(sizes[-2:])) if len(sizes) > 1 else sizes)\n"
)


@pytest.mark.parametrize("args", [["tutte"], ["tutte", "--cache", "CACHE"]])
def test_dc_fault_row_exits_4_with_deletion_contraction_loaded_after_the_patch(args, tmp_path):
    """The same fault in a fresh interpreter, patched before
    deletion_contraction.py loads: M(K7) goes to deletion-contraction,
    whose rank-2 cores read the patched closed form, so Greene's identity
    fails and the command exits 4."""
    args = [str(tmp_path) if a == "CACHE" else a for a in args]
    rc, loaded, out, err = _run_in_fresh_process(args, _complete_graph(7), setup=_MERGED_CLASSES)
    assert (rc, out) == (4, "") and _COLD_MODULES["dc"] in loaded
    assert len(err) == 1 and "Greene" in err[0], err
