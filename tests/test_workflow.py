"""The CI workflow runs the install, this suite and the benchmark steps
only, so every check of the package itself lives in the suite, the one
gate that every change runs."""
import pathlib
import re

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

STEPS = [
    "uses: actions/checkout@v4",
    "uses: actions/setup-python@v5",
    "name: Install the package with its test extras",
    "name: Tier-1 suite",
    "name: Every benchmark output matches perfbench/golden byte for byte",
    "name: Seeded GF(7) tutte at seed 2 matches the independent subset-sum reference",
    "name: The traced benchmark pass still finds every name it wraps",
    "name: Benchmark self-tests",
]


def test_the_workflow_runs_only_the_suite_and_the_benchmark():
    """Read as plain text, since PyYAML is not a test dependency: the list
    items of the workflow, its steps, are the eight above in order, and
    in-line Python reads only the last line of a benchmark run."""
    text = WORKFLOW.read_text(encoding="utf-8")
    assert re.findall(r"^ *- (.*)$", text, re.M) == STEPS
    for line in text.splitlines():
        if "python3 -c" in line:
            assert "perfbench/run.py" in line, line
    assert "matroid_workbench" not in text
