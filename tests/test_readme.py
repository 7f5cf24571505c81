"""The README's Python quick start and its shell examples run as written
and print what the README says they print."""
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

from matroid_workbench import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Quick start \(Python\)\s*```python\n(.*?)```", text, re.S)
    assert match, "README has no Python quick-start block"
    return match.group(1)


def expected_lines(code):
    """The `# ...` comment of each print: on the print line itself, or on
    the line after it."""
    lines = code.splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, hash_, comment = line.partition("  # ")
        if not hash_:
            comment = lines[i + 1].removeprefix("# ")
        out.append(comment.strip())
    return out


def test_readme_quick_start_prints_its_comments():
    code = quick_start()
    want = expected_lines(code)
    assert len(want) == 5
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    assert buf.getvalue().splitlines() == want


def shell_examples():
    """(stdin, argv, expected stdout) of each `$ echo '...' |
    matroid-workbench ...` line, the output being the line after it."""
    text = README.read_text(encoding="utf-8")
    pattern = r"^\$ echo '(.*)' \| matroid-workbench (.*)\n(.*)$"
    return [(stdin, shlex.split(args), out) for stdin, args, out in re.findall(pattern, text, re.M)]


def test_readme_shell_examples_print_their_output(monkeypatch):
    examples = shell_examples()
    assert len(examples) == 3
    for stdin, argv, want in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin + "\n"))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        assert buf.getvalue() == want + "\n", argv
