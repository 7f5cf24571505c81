"""Workload definitions: tasks, fixed reference matroids and seeded inputs.

A task is one CLI invocation: `python -m matroid_workbench.cli COMMAND
ARGS` with a descriptor on stdin. Seeded inputs have a fixed shape and
rank; only their entries come from the seed, and a draw that misses the
rank (or has a zero column) is redrawn. The program sees only the
generated descriptors.

Every workload also runs a small probe of each command group it does not
otherwise exercise, so that each per-command metric is measured on every
workload. A probe is one small input run PROBE_REPEATS times; the group's
time is then the median of those runs, which is mostly interpreter start-up
and import.
"""
from __future__ import annotations

import itertools
import random
import re
from collections import namedtuple
from fractions import Fraction

DEFAULT_SEED = 1

# Per-command metric groups, in report order.
GROUPS = (
    "euler-table",
    "euler-table.jobs2",
    "tutte",
    "tutte-cache.write",
    "tutte-cache.read",
    "hlv",
    "charpoly",
    "os-dims.Q",
    "os-dims.GFp",
    "os-basis",
    "white-check",
)

# id: unique within a workload; expect: key of the expected stdout (tasks
# with equal output share it); cache: None, ("cold", name) for a fresh
# --cache directory or ("warm", name) to reuse the one a cold task filled.
Task = namedtuple("Task", "id group command args input expect timeout cache")


def _task(id, group, command, args, input, timeout, expect=None, cache=None):
    if expect is None:
        # --jobs never changes the output bytes, so it is not part of the key
        rest = [a.lstrip("-") for a in args]
        if "jobs" in rest:
            del rest[rest.index("jobs"):rest.index("jobs") + 2]
        expect = re.sub(r"[^A-Za-z0-9_.-]", "", ".".join([command, input] + rest))
    return Task(id, group, command, tuple(args), input, expect, timeout, cache)


# -- fixed inputs ------------------------------------------------------------


def _complete_graph(n):
    return {"type": "graphic", "edges": [list(e) for e in itertools.combinations(range(n), 2)]}


def _vandermonde(rows, nodes):
    """Rows 0..rows-1 of the Vandermonde matrix: column j is (1, x_j, x_j^2, ...)."""
    return {"type": "linear", "field": "Q", "matrix": [[x**i for x in nodes] for i in range(rows)]}


FIXED = {
    "fano": {
        "type": "linear",
        "field": "GF(2)",
        "matrix": [[0, 0, 1, 1, 1, 0, 1], [0, 1, 0, 1, 0, 1, 1], [1, 0, 0, 0, 1, 1, 1]],
    },
    "k4": _complete_graph(4),
    "k5": _complete_graph(5),
    "k6": _complete_graph(6),
    "k7": _complete_graph(7),
    # M(K5) minus the edge {0, 1}
    "k5_minus_edge": {"type": "graphic", "edges": _complete_graph(5)["edges"][1:]},
    "u10_20": {"type": "uniform", "r": 10, "n": 20},
    "u5_10_bases": {
        "type": "bases",
        "n": 10,
        "bases": [list(b) for b in itertools.combinations(range(10), 5)],
    },
    "vandermonde_6x18": _vandermonde(6, range(18)),
    # probe inputs
    "u2_3": {"type": "linear", "field": "Q", "matrix": [[1, 0, 1], [0, 1, 1]]},
}


# -- seeded inputs -------------------------------------------------------------


def _rank(matrix, p=None):
    """Rank by Gaussian elimination, over GF(p) or (p=None) over Q."""
    rows = [[x % p if p else Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                if p:
                    f = rows[i][col] * pow(rows[rank][col], p - 2, p)
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
                else:
                    f = rows[i][col] / rows[rank][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _full_rank_matrix(rng, rows, cols, draw, p=None):
    while True:
        m = [[draw() for _ in range(cols)] for _ in range(rows)]
        no_zero_column = all(any(m[i][j] % p if p else m[i][j] for i in range(rows)) for j in range(cols))
        if no_zero_column and _rank(m, p) == rows:
            return m


def seeded_inputs(seed):
    """The seeded descriptors, drawn from `seed` at fixed shapes."""
    rng = random.Random(f"perfbench:{seed}")
    q3x6 = _full_rank_matrix(rng, 3, 6, lambda: rng.randint(-9, 9))
    gf7 = _full_rank_matrix(rng, 6, 17, lambda: rng.randrange(7), p=7)
    nodes = sorted(rng.sample(range(-12, 13), 9))
    return {
        "seeded_q3x6": {"type": "linear", "field": "Q", "matrix": q3x6},
        "seeded_gf7_6x17": {"type": "linear", "field": "GF(7)", "matrix": gf7},
        "seeded_vandermonde_4x9": _vandermonde(4, nodes),
    }


SEEDED = tuple(seeded_inputs(DEFAULT_SEED))


# -- workloads -----------------------------------------------------------------

PROBE_REPEATS = 3


def _probes(group):
    """Probe tasks for one command group: PROBE_REPEATS small invocations."""
    spec = {
        "euler-table": ("euler-table", [], "u2_3"),
        "euler-table.jobs2": ("euler-table", ["--jobs", "2"], "u2_3"),
        "tutte": ("tutte", [], "k4"),
        "hlv": ("hlv", [], "k4"),
        "charpoly": ("charpoly", [], "k4"),
        "os-dims.Q": ("os-dims", [], "k4"),
        "os-dims.GFp": ("os-dims", ["--field", "GF(2)"], "k4"),
        "os-basis": ("reduced-os-basis", ["--degree", "2"], "k4"),
        "white-check": ("white-check", ["--degree", "3"], "k4"),
    }
    out = []
    for i in range(PROBE_REPEATS):
        if group == "tutte-cache.write":
            out.append(_task(f"probe.{group}.{i}", group, "tutte", [], "k4", 30, cache=("cold", f"probe{i}")))
        elif group == "tutte-cache.read":
            out.append(_task(f"probe.{group}.{i}", group, "tutte", [], "k4", 30, cache=("warm", "probe0")))
        else:
            command, args, inp = spec[group]
            out.append(_task(f"probe.{group}.{i}", group, command, args, inp, 30))
    return out


def _with_probes(tasks):
    present = {t.group for t in tasks}
    for group in GROUPS:
        if group not in present:
            tasks.extend(_probes(group))
    return tasks


def _localization():
    return [
        _task("euler-table.fano", "euler-table", "euler-table", [], "fano", 120),
        _task("euler-table.k4", "euler-table", "euler-table", [], "k4", 30),
        _task("euler-table.seeded", "euler-table", "euler-table", [], "seeded_q3x6", 30),
        _task("euler-table.k4.jobs2", "euler-table.jobs2", "euler-table", ["--jobs", "2"], "k4", 30),
        _task("euler-table.seeded.jobs2", "euler-table.jobs2", "euler-table", ["--jobs", "2"], "seeded_q3x6", 30),
    ]


def _polynomials():
    return [
        _task("tutte.u10_20", "tutte", "tutte", [], "u10_20", 45),
        _task("tutte.seeded", "tutte", "tutte", [], "seeded_gf7_6x17", 45),
        _task("tutte.k7.cold", "tutte-cache.write", "tutte", [], "k7", 60, cache=("cold", "k7")),
    ] + [
        _task(f"tutte.k7.warm{i}", "tutte-cache.read", "tutte", [], "k7", 30, cache=("warm", "k7"))
        for i in range(3)
    ] + [
        _task("hlv.vandermonde", "hlv", "hlv", [], "vandermonde_6x18", 45),
        _task("charpoly.seeded", "charpoly", "charpoly", [], "seeded_gf7_6x17", 30),
        _task("charpoly.u5_10_bases", "charpoly", "charpoly", [], "u5_10_bases", 30),
    ]


def _algebra():
    return [
        _task("os-dims.Q.vandermonde", "os-dims.Q", "os-dims", [], "seeded_vandermonde_4x9", 60),
        _task("os-dims.GF2.k5", "os-dims.GFp", "os-dims", ["--field", "GF(2)"], "k5", 60),
        _task("os-basis.k6", "os-basis", "reduced-os-basis", ["--degree", "3"], "k6", 60),
        _task("white-check.k5_minus_edge", "white-check", "white-check", ["--degree", "3"], "k5_minus_edge", 60),
    ]


WORKLOADS = {
    "localization": _localization,
    "polynomials": _polynomials,
    "algebra": _algebra,
}


def build(workload, seed):
    """(tasks, descriptors) for one workload at one seed."""
    tasks = _with_probes(WORKLOADS[workload]())
    seeded = seeded_inputs(seed)
    descriptors = {}
    for t in tasks:
        descriptors[t.input] = seeded[t.input] if t.input in seeded else FIXED[t.input]
    return tasks, descriptors
