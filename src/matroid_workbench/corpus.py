"""Reference matroids with frozen expected results.

Every entry carries a JSON descriptor plus a list of checks. Each check has
a provenance tag: PAPER (a published value for a classical example),
TRIVIAL (closed form), or DERIVED (frozen from an independent brute-force
oracle). verify_corpus recomputes everything and compares.

The checks intentionally overlap across modules (a Tutte polynomial here, a
characteristic polynomial there, Euler tables on the small fans) so a
regression in any one pipeline trips at least one corpus entry.
"""
from __future__ import annotations

from math import comb

from . import localization, orlik_solomon, tutte, white
from .errors import InvalidInput
from .matroids import from_descriptor
from .polynomials import BivariatePoly, UnivariatePoly


def _t(terms):
    """Shorthand: {(i, j): c} -> serialized bivariate polynomial value."""
    return BivariatePoly(terms).to_json()


def _h(terms):
    return BivariatePoly(terms).to_json(xname="u", yname="v")


def _u(terms):
    return UnivariatePoly(terms).to_json()


def _boolean_entry(n):
    size = n + 1
    ident = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    chi = {i: comb(size, i) * (-1) ** (size - i) for i in range(size + 1)}
    red = {i: comb(n, i) * (-1) ** (n - i) for i in range(n + 1)}
    h = {(i, 0): comb(size, i) for i in range(size + 1)}
    checks = [
        {"check": "n_bases", "tag": "TRIVIAL", "value": 1},
        {"check": "tutte", "tag": "TRIVIAL", "value": _t({(size, 0): 1})},
        {"check": "charpoly", "tag": "TRIVIAL", "value": _u(chi)},
        {"check": "reduced_charpoly", "tag": "TRIVIAL", "value": _u(red)},
        {"check": "h", "tag": "PAPER", "value": _h(h)},
        {
            "check": "os_dims",
            "tag": "TRIVIAL",
            "value": [comb(size, k) for k in range(size + 1)],
        },
        {
            "check": "reduced_os_dims",
            "tag": "PAPER",
            "value": [comb(n, k) for k in range(size)],
        },
    ]
    if n <= 2:
        checks.append(
            {
                "check": "euler_table",
                "tag": "TRIVIAL",
                "value": [[comb(size, p)] for p in range(size + 1)],
            }
        )
    return {
        "name": f"boolean_n{n}",
        "descriptor": {"type": "linear", "field": "Q", "matrix": ident},
        "expected": checks,
    }


_FANO_MATRIX = [
    [0, 0, 1, 1, 1, 0, 1],
    [0, 1, 0, 1, 0, 1, 1],
    [1, 0, 0, 0, 1, 1, 1],
]

_FANO_NBC_PAIRS = [
    [0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6],
    [1, 2], [1, 3], [1, 4], [1, 6],
    [2, 5], [2, 6],
    [3, 4], [3, 5],
]

CORPUS = [
    _boolean_entry(1),
    _boolean_entry(2),
    _boolean_entry(3),
    _boolean_entry(4),
    {
        "name": "u_1_2",
        "descriptor": {"type": "linear", "field": "Q", "matrix": [[1, 1]]},
        "expected": [
            {"check": "n_bases", "tag": "TRIVIAL", "value": 2},
            {"check": "tutte", "tag": "TRIVIAL", "value": _t({(1, 0): 1, (0, 1): 1})},
            {"check": "charpoly", "tag": "TRIVIAL", "value": _u({1: 1, 0: -1})},
            {"check": "reduced_charpoly", "tag": "TRIVIAL", "value": _u({0: 1})},
            {"check": "h", "tag": "DERIVED", "value": _h({(1, 1): 1, (0, 1): 2, (0, 0): 1})},
            {"check": "os_dims", "tag": "TRIVIAL", "value": [1, 1]},
            {"check": "reduced_os_dims", "tag": "TRIVIAL", "value": [1]},
            {"check": "euler_table", "tag": "DERIVED", "value": [[1, 2], [0, 1]]},
        ],
    },
    {
        "name": "u_2_3",
        "descriptor": {
            "type": "linear",
            "field": "Q",
            "matrix": [[1, 0, 1], [0, 1, 1]],
        },
        "expected": [
            {"check": "n_bases", "tag": "TRIVIAL", "value": 3},
            {
                "check": "tutte",
                "tag": "DERIVED",
                "value": _t({(2, 0): 1, (1, 0): 1, (0, 1): 1}),
            },
            {"check": "charpoly", "tag": "DERIVED", "value": _u({2: 1, 1: -3, 0: 2})},
            {"check": "reduced_charpoly", "tag": "DERIVED", "value": _u({1: 1, 0: -2})},
            {
                "check": "h",
                "tag": "DERIVED",
                "value": _h({(2, 1): 1, (1, 1): 3, (0, 1): 3, (0, 0): 1}),
            },
            {
                "check": "h_0v",
                "tag": "PAPER",
                "value": _u({1: 3, 0: 1}),
            },
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 3, 2]},
            {"check": "reduced_os_dims", "tag": "PAPER", "value": [1, 2]},
            {
                "check": "euler_table",
                "tag": "DERIVED",
                "value": [[1, 3], [0, 3], [0, 1]],
            },
        ],
    },
    {
        "name": "u_2_4",
        "descriptor": {
            "type": "linear",
            "field": "Q",
            "matrix": [[1, 0, 1, 1], [0, 1, 1, 2]],
        },
        "expected": [
            {"check": "n_bases", "tag": "TRIVIAL", "value": 6},
            {
                "check": "tutte",
                "tag": "DERIVED",
                "value": _t({(2, 0): 1, (1, 0): 2, (0, 2): 1, (0, 1): 2}),
            },
            {"check": "charpoly", "tag": "DERIVED", "value": _u({2: 1, 1: -4, 0: 3})},
            {"check": "reduced_charpoly", "tag": "DERIVED", "value": _u({1: 1, 0: -3})},
            {
                "check": "h",
                "tag": "DERIVED",
                "value": _h({(2, 2): 1, (1, 2): 4, (0, 2): 6, (0, 1): 4, (0, 0): 1}),
            },
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 4, 3]},
            {"check": "reduced_os_dims", "tag": "DERIVED", "value": [1, 3]},
            {
                "check": "euler_table",
                "tag": "DERIVED",
                "value": [[1, 4, 6], [0, 0, 4], [0, 0, 1]],
            },
            {
                "check": "white_all_connected",
                "tag": "DERIVED",
                "value": {"degree": 3, "all_connected": True},
            },
        ],
    },
    {
        "name": "u_3_6",
        "descriptor": {"type": "uniform", "r": 3, "n": 6},
        "expected": [
            {"check": "n_bases", "tag": "TRIVIAL", "value": 20},
            {
                "check": "tutte",
                "tag": "DERIVED",
                "value": _t(
                    {(3, 0): 1, (2, 0): 3, (1, 0): 6, (0, 3): 1, (0, 2): 3, (0, 1): 6}
                ),
            },
            {
                "check": "charpoly",
                "tag": "DERIVED",
                "value": _u({3: 1, 2: -6, 1: 15, 0: -10}),
            },
            {
                "check": "reduced_charpoly",
                "tag": "DERIVED",
                "value": _u({2: 1, 1: -5, 0: 10}),
            },
            {
                "check": "h",
                "tag": "DERIVED",
                "value": _h(
                    {
                        (3, 3): 1,
                        (2, 3): 6,
                        (1, 3): 15,
                        (0, 3): 20,
                        (0, 2): 15,
                        (0, 1): 6,
                        (0, 0): 1,
                    }
                ),
            },
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 6, 15, 10]},
            {"check": "reduced_os_dims", "tag": "DERIVED", "value": [1, 5, 10]},
            {
                "check": "euler_table",
                "tag": "DERIVED",
                "value": [
                    [1, 6, 15, 20],
                    [0, 0, 0, 15],
                    [0, 0, 0, 6],
                    [0, 0, 0, 1],
                ],
            },
        ],
    },
    {
        "name": "pg_1_2",
        "descriptor": {"type": "uniform", "r": 2, "n": 3},
        "expected": [
            {"check": "n_bases", "tag": "TRIVIAL", "value": 3},
            {"check": "reduced_os_dims", "tag": "PAPER", "value": [1, 2]},
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 3, 2]},
        ],
    },
    {
        "name": "pg_1_3",
        "descriptor": {"type": "uniform", "r": 2, "n": 4},
        "expected": [
            {"check": "n_bases", "tag": "TRIVIAL", "value": 6},
            {"check": "reduced_os_dims", "tag": "PAPER", "value": [1, 3]},
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 4, 3]},
        ],
    },
    {
        "name": "pg_1_4",
        "descriptor": {"type": "uniform", "r": 2, "n": 5},
        "expected": [
            {"check": "n_bases", "tag": "TRIVIAL", "value": 10},
            {"check": "reduced_os_dims", "tag": "PAPER", "value": [1, 4]},
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 5, 4]},
            {"check": "charpoly", "tag": "DERIVED", "value": _u({2: 1, 1: -5, 0: 4})},
        ],
    },
    {
        "name": "k4",
        "descriptor": {
            "type": "graphic",
            "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        },
        "expected": [
            {"check": "n_bases", "tag": "DERIVED", "value": 16},
            {
                "check": "n_circuits_by_size",
                "tag": "TRIVIAL",
                "value": {"3": 4, "4": 3},
            },
            {
                "check": "tutte",
                "tag": "DERIVED",
                "value": _t(
                    {
                        (3, 0): 1,
                        (2, 0): 3,
                        (1, 1): 4,
                        (1, 0): 2,
                        (0, 3): 1,
                        (0, 2): 3,
                        (0, 1): 2,
                    }
                ),
            },
            {
                "check": "charpoly",
                "tag": "DERIVED",
                "value": _u({3: 1, 2: -6, 1: 11, 0: -6}),
            },
            {
                "check": "reduced_charpoly",
                "tag": "DERIVED",
                "value": _u({2: 1, 1: -5, 0: 6}),
            },
            {
                "check": "h",
                "tag": "DERIVED",
                "value": _h(
                    {
                        (3, 3): 1,
                        (2, 3): 6,
                        (1, 3): 15,
                        (1, 2): 4,
                        (0, 3): 16,
                        (0, 2): 15,
                        (0, 1): 6,
                        (0, 0): 1,
                    }
                ),
            },
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 6, 11, 6]},
            {"check": "reduced_os_dims", "tag": "DERIVED", "value": [1, 5, 6]},
            {
                "check": "euler_table",
                "tag": "DERIVED",
                "value": [
                    [1, 6, 15, 16],
                    [0, 0, 4, 15],
                    [0, 0, 0, 6],
                    [0, 0, 0, 1],
                ],
            },
            {
                "check": "white_all_connected",
                "tag": "DERIVED",
                "value": {"degree": 3, "all_connected": True},
            },
        ],
    },
    {
        "name": "fano",
        "descriptor": {"type": "linear", "field": "GF(2)", "matrix": _FANO_MATRIX},
        "expected": [
            {"check": "n_bases", "tag": "DERIVED", "value": 28},
            {
                "check": "n_circuits_by_size",
                "tag": "DERIVED",
                "value": {"3": 7, "4": 7},
            },
            {
                "check": "tutte",
                "tag": "DERIVED",
                "value": _t(
                    {
                        (3, 0): 1,
                        (2, 0): 4,
                        (1, 1): 7,
                        (1, 0): 3,
                        (0, 4): 1,
                        (0, 3): 3,
                        (0, 2): 6,
                        (0, 1): 3,
                    }
                ),
            },
            {
                "check": "charpoly",
                "tag": "DERIVED",
                "value": _u({3: 1, 2: -7, 1: 14, 0: -8}),
            },
            {
                "check": "reduced_charpoly",
                "tag": "DERIVED",
                "value": _u({2: 1, 1: -6, 0: 8}),
            },
            {
                "check": "h",
                "tag": "DERIVED",
                "value": _h(
                    {
                        (3, 4): 1,
                        (2, 4): 7,
                        (1, 4): 21,
                        (1, 3): 7,
                        (0, 4): 28,
                        (0, 3): 35,
                        (0, 2): 21,
                        (0, 1): 7,
                        (0, 0): 1,
                    }
                ),
            },
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 7, 14, 8]},
            {"check": "reduced_os_dims", "tag": "PAPER", "value": [1, 6, 8]},
            {"check": "nbc_counts", "tag": "DERIVED", "value": [1, 7, 14, 8]},
            {"check": "nbc_deg2", "tag": "PAPER", "value": _FANO_NBC_PAIRS},
            {
                "check": "reduced_nbc_deg2",
                "tag": "PAPER",
                "value": [[1, 2], [1, 3], [1, 4], [1, 6], [2, 5], [2, 6], [3, 4], [3, 5]],
            },
        ],
    },
    {
        "name": "generic_3x6",
        "descriptor": {
            "type": "linear",
            "field": "Q",
            "matrix": [
                [1, 1, 1, 1, 1, 1],
                [0, 1, 2, 3, 4, 5],
                [0, 1, 4, 9, 16, 25],
            ],
        },
        "expected": [
            {"check": "n_bases", "tag": "DERIVED", "value": 20},
            {
                "check": "tutte",
                "tag": "DERIVED",
                "value": _t(
                    {(3, 0): 1, (2, 0): 3, (1, 0): 6, (0, 3): 1, (0, 2): 3, (0, 1): 6}
                ),
            },
            {"check": "os_dims", "tag": "DERIVED", "value": [1, 6, 15, 10]},
            {
                "check": "euler_table",
                "tag": "DERIVED",
                "value": [
                    [1, 6, 15, 20],
                    [0, 0, 0, 15],
                    [0, 0, 0, 6],
                    [0, 0, 0, 1],
                ],
            },
        ],
    },
]


def entry_by_name(name):
    for entry in CORPUS:
        if entry["name"] == name:
            return entry
    raise InvalidInput(f"no corpus entry named {name!r}")


def corpus_matroid(name):
    return from_descriptor(entry_by_name(name)["descriptor"])


def _run_check(M, check, value):
    """Recompute one check; returns the freshly computed value."""
    if check == "n_bases":
        return len(M.bases())
    if check == "n_circuits_by_size":
        hist = {}
        for c in M.circuits():
            hist[str(len(c))] = hist.get(str(len(c)), 0) + 1
        return hist
    if check == "tutte":
        t1 = tutte.tutte_sum(M)
        t2 = tutte.tutte_dc(M)
        if t1 != t2:
            return {"disagreement": {"sum": t1.to_json(), "dc": t2.to_json()}}
        return t1.to_json()
    if check == "charpoly":
        return tutte.char_poly(M).to_json()
    if check == "reduced_charpoly":
        return tutte.reduced_char_poly(M).to_json()
    if check == "h":
        return tutte.h_polynomial(M).to_json(xname="u", yname="v")
    if check == "h_0v":
        h = tutte.h_polynomial(M)
        terms = {q: c for (p, q), c in h.terms() if p == 0}
        return UnivariatePoly(terms).to_json()
    if check == "os_dims":
        return orlik_solomon.os_dimensions(M)
    if check == "reduced_os_dims":
        return orlik_solomon.reduced_os_dimensions(M)
    if check == "nbc_counts":
        return [len(orlik_solomon.nbc_sets(M, k)) for k in range(M.r, -1, -1)][::-1]  # one walk
    if check == "nbc_deg2":
        return [list(s) for s in orlik_solomon.nbc_sets(M, 2)]
    if check == "reduced_nbc_deg2":
        return [list(s) for s in orlik_solomon.reduced_nbc_index_sets(M, 2)]
    if check == "euler_table":
        return localization.euler_table(M)
    if check == "white_all_connected":
        report = white.check_degree(M, value["degree"])
        return {"degree": value["degree"], "all_connected": report["all_connected"]}
    raise InvalidInput(f"unknown corpus check {check!r}")


def verify_entry(entry):
    M = from_descriptor(entry["descriptor"])
    results = []
    for item in entry["expected"]:
        got = _run_check(M, item["check"], item["value"])
        results.append(
            {
                "check": item["check"],
                "tag": item["tag"],
                "pass": got == item["value"],
                "expected": item["value"],
                "got": got,
            }
        )
    return results


def verify_corpus():
    """Recompute every expected block; report pass/fail per entry/check."""
    report = {"entries": [], "all_pass": True}
    for entry in CORPUS:
        checks = verify_entry(entry)
        ok = all(c["pass"] for c in checks)
        report["entries"].append(
            {"name": entry["name"], "pass": ok, "checks": checks}
        )
        if not ok:
            report["all_pass"] = False
    return report
