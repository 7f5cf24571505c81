"""Property-based fuzzing of the CLI input surface, run in-process.

Descriptors come from every constructor's shape with well-formed and
malformed fields, plus arbitrary JSON and arbitrary text; flags mix valid
and invalid values. Whatever the input, the tool must answer (exit 0),
reject it (exit 2) or refuse it as too large (exit 3), with at most one
stderr line and never a traceback. Sizes stay small (at most 8 ground
elements, budgets up to 5040, at most 3 jobs) so every example is quick.
"""
import contextlib
import io
import json
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_workbench import cli


def mostly(valid, invalid):
    """`valid` nine times in ten, so that most examples get past parsing."""
    return st.sampled_from(range(10)).flatmap(lambda i: invalid if i == 9 else valid)


small_int = st.integers(-2, 8)
scalar = st.one_of(
    st.none(),
    st.booleans(),
    small_int,
    st.floats(-3, 3, allow_nan=False),
    st.sampled_from(["", "x", "1/2", "-2/3", "3/0", "GF(2)", "1e3"]),
)
junk = st.recursive(
    scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["type", "n", "r", "field", "matrix", "edges", "bases"]),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=8,
)
fields = mostly(
    st.sampled_from(["Q", "GF(2)", "GF(3)", "GF(7)"]),
    st.sampled_from(["GF(4)", "GF(1)", "gf(5)", "R", "", "GF(18446744073709551629)"]),
)


def shaped(type_name, **entries):
    return st.fixed_dictionaries(
        {"type": st.just(type_name), **{k: mostly(v, junk) for k, v in entries.items()}}
    )


entry = mostly(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "a", "1/0", "2"]))
vertex = mostly(st.integers(0, 4), st.sampled_from(["a", "b", None, True, 1.5]))
rank_and_size = st.integers(1, 8).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))
rectangle = st.integers(1, 7).flatmap(
    lambda width: st.lists(st.lists(entry, min_size=width, max_size=width), min_size=1, max_size=3)
)
descriptors = st.one_of(
    mostly(
        rank_and_size.map(lambda rn: {"type": "uniform", "r": rn[0], "n": rn[1]}),
        shaped("uniform", r=small_int, n=small_int),
    ),
    shaped(
        "linear",
        field=fields,
        matrix=mostly(rectangle, st.lists(st.lists(entry, max_size=7), max_size=3)),
    ),
    shaped("graphic", edges=st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=8)),
    shaped(
        "bases",
        n=small_int,
        bases=st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=6),
    ),
    junk,
)
stdin_text = mostly(descriptors.map(json.dumps), st.text(max_size=30))

OPTIONS = {
    "--field": fields,
    "--degree": mostly(st.sampled_from(["0", "1", "2", "3"]), st.sampled_from(["-1", "9", "x", "100000", "99999999999999999999"])),
    "--budget": mostly(st.sampled_from(["0", "5", "100", "5040"]), st.sampled_from(["-1", "1.5"])),
    "--jobs": mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-2", "two"])),
    "--input": mostly(st.just("-"), st.just("/nonexistent/descriptor.json")),
    "--cache": st.just("CACHE"),
    "--bogus": st.just("1"),
}
COMMON = ["--jobs", "--input"]
COMMANDS = {
    "tutte": COMMON + ["--budget", "--cache"],
    "charpoly": COMMON,
    "hlv": COMMON,
    "os-dims": COMMON + ["--field"],
    "os-basis": COMMON + ["--field", "--degree"],
    "reduced-os-basis": COMMON + ["--field", "--degree"],
    "euler-table": COMMON + ["--budget"],
    "white-check": COMMON + ["--budget", "--degree"],
}


def command_line(command):
    """The command and its flags, mostly ones it accepts, with --degree
    first where the command requires it."""
    name = mostly(st.sampled_from(COMMANDS[command]), st.sampled_from(sorted(OPTIONS)))
    flag = name.flatmap(lambda n: st.tuples(st.just(n), OPTIONS[n]))
    required = 1 if command.endswith("os-basis") else 0
    degree = st.tuples(st.just("--degree"), OPTIONS["--degree"])
    lead = st.lists(degree, min_size=required, max_size=required)
    return st.tuples(lead, st.lists(flag, max_size=3)).map(
        lambda parts: [command] + [x for pair in parts[0] + parts[1] for x in pair]
    )


invocations = st.sampled_from(sorted(COMMANDS)).flatmap(command_line)


def run_main(argv, text):
    """(exit code, stderr) of cli.main with `text` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code or 0
    finally:
        sys.stdin = saved
    return code, err.getvalue()


@settings(max_examples=250, deadline=None)
@given(invocations, stdin_text)
def test_cli_answers_rejects_or_refuses(argv, text):
    with tempfile.TemporaryDirectory() as cache_dir:
        argv = [cache_dir if part == "CACHE" else part for part in argv]
        code, err = run_main(argv, text)
    assert code in (0, 2, 3), (argv, text, err)
    assert len(err.splitlines()) <= 1, (argv, text, err)
    assert "Traceback" not in err
