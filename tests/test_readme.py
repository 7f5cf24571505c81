"""The README's Python quick start runs as written and prints what its
comments say."""
import contextlib
import io
import re
from pathlib import Path

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
