"""Expected CLI output by a route other than the one the CLI takes.

The CLI computes each answer one way; this module recomputes it another
way, in-process and untimed:

  euler-table        localization sums     <- h_matrix (subset walk)
  tutte              deletion-contraction  <- corank-nullity sum, or the
                                              closed form on uniform inputs
  hlv                subset walk           <- h from the DC Tutte polynomial
                                              (closed form on uniform inputs)
  charpoly           subset walk           <- DC Tutte polynomial (closed
                                              form on uniform inputs)
  os-dims            dense OS relations    <- |coefficients| of char_poly
  reduced-os-basis   dense OS relations    <- dimension from the reduced
                                              characteristic polynomial
  white-check        fiber graphs          <- spanning trees counted by the
                                              matrix-tree theorem, fibers by
                                              a direct multidegree count,
                                              connectivity by Blasiak's
                                              theorem (graphic matroids)

Where the input is a corpus entry, the frozen corpus values are compared
as well. `expected_stdout` returns the full expected bytes when a route
gives them all; `confirm` checks a recorded output and lists what it
checked.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import comb

from matroid_workbench import corpus, tutte
from matroid_workbench.matroids import from_descriptor, uniform
from matroid_workbench.polynomials import BivariatePoly


def emit(obj):
    """The CLI's stdout encoding: compact JSON and a newline."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def uniform_params(desc):
    """(r, n) when the descriptor presents a uniform matroid, else None.

    Besides the 'uniform' type this recognizes a basis list holding every
    r-subset, and a rational Vandermonde matrix with distinct nodes (all its
    maximal minors are nonzero Vandermonde determinants).
    """
    kind = desc["type"]
    if kind == "uniform":
        return desc["r"], desc["n"]
    if kind == "bases":
        n, bases = desc["n"], {tuple(sorted(b)) for b in desc["bases"]}
        r = len(next(iter(bases)))
        if bases == set(itertools.combinations(range(n), r)):
            return r, n
    if kind == "linear" and desc["field"] == "Q":
        m = desc["matrix"]
        nodes = m[1] if len(m) > 1 else None
        if (
            nodes is not None
            and len(set(nodes)) == len(nodes) >= len(m)
            and all(m[i][j] == nodes[j] ** i for i in range(len(m)) for j in range(len(nodes)))
        ):
            return len(m), len(nodes)
    return None


def uniform_tutte(r, n):
    """T(U_{r,n}) = sum_k C(n,k) (x-1)^(r-min(k,r)) (y-1)^(max(k-r,0)), expanded."""
    terms = {}
    for k in range(n + 1):
        a, b = r - min(k, r), max(k - r, 0)
        for i in range(a + 1):
            for j in range(b + 1):
                c = comb(n, k) * comb(a, i) * (-1) ** (a - i) * comb(b, j) * (-1) ** (b - j)
                terms[(i, j)] = terms.get((i, j), 0) + c
    return BivariatePoly(terms)


def _tutte(desc, M, route):
    """Tutte polynomial by `route` ('sum' or 'dc'), closed form if uniform."""
    params = uniform_params(desc)
    if params is not None:
        return uniform_tutte(*params)
    return tutte.tutte_sum(M) if route == "sum" else tutte.tutte_dc(M)


def _matroid(desc):
    params = uniform_params(desc)
    return uniform(*params) if params is not None else from_descriptor(desc)


def _option(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def expected_stdout(command, args, desc, tutte_poly=None):
    """Full expected stdout bytes, or None when no independent route gives
    every byte (reduced-os-basis: its index sets).

    tutte_poly, when given, is used in place of the per-command Tutte route:
    run.py passes tutte_sum's polynomial for an input that the same pass
    also runs `tutte` on, whose check then ties it to the CLI's DC result.
    """
    M = _matroid(desc)
    if command == "euler-table":
        return emit({"table": tutte.h_matrix(M), "matches_h_polynomial": True})
    if command == "tutte":
        return emit((tutte_poly or _tutte(desc, M, "sum")).to_json())
    if command == "hlv":
        t = tutte_poly or _tutte(desc, M, "dc")
        return emit(tutte.h_from_tutte(t, M.size, M.r).to_json(xname="u", yname="v"))
    if command == "charpoly":
        t = tutte_poly or _tutte(desc, M, "dc")
        return emit(
            {
                "charpoly": tutte.char_poly(M, t).to_json(),
                "reduced_charpoly": tutte.reduced_char_poly(M, t).to_json(),
            }
        )
    if command == "os-dims":
        chi = tutte.char_poly(M, _tutte(desc, M, "sum"))
        return emit([abs(chi.coeff(M.r - k)) for k in range(M.r + 1)])
    if command == "white-check" and desc["type"] == "graphic":
        return emit(_white_report(desc["edges"], int(_option(args, "--degree", 3))))
    return None


# -- white-check on graphic matroids ----------------------------------------


def _spanning_trees(edges):
    vertices = sorted({v for e in edges for v in e})
    trees = []
    for subset in itertools.combinations(range(len(edges)), len(vertices) - 1):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        acyclic = True
        for i in subset:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if acyclic:
            trees.append(subset)
    return vertices, trees


def _kirchhoff(vertices, edges):
    """Number of spanning trees: any cofactor of the graph Laplacian."""
    pos = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        if u != v:
            a, b = pos[u], pos[v]
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for c in range(n - 1):
        p = next((i for i in range(c, n - 1) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n - 1):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


def _white_report(edges, d):
    vertices, trees = _spanning_trees(edges)
    if len(trees) != _kirchhoff(vertices, edges):
        raise AssertionError("spanning tree enumeration disagrees with the matrix-tree theorem")
    fibers = Counter()
    for ms in itertools.combinations_with_replacement(trees, d):
        fibers[tuple(sum(e in b for b in ms) for e in range(len(edges)))] += 1
    total = sum(fibers.values())
    if total != comb(len(trees) + d - 1, d):
        raise AssertionError("monomial count disagrees with C(#bases + d - 1, d)")
    # Blasiak (2008): toric ideals of graphic matroids are generated by
    # quadrics, so every fiber is connected under symmetric exchanges.
    return {
        "degree": d,
        "n_bases": len(trees),
        "n_fibers": len(fibers),
        "n_monomials": total,
        "max_fiber_size": max(fibers.values()),
        "all_connected": True,
        "verdict": f"no minimal generators in degree {d}",
        "witnesses": [],
    }


# -- confirmation of recorded outputs ---------------------------------------


def _corpus_values(desc):
    for entry in corpus.CORPUS:
        if entry["descriptor"] == desc:
            return {c["check"]: c["value"] for c in entry["expected"]}
    return {}


def confirm(command, args, desc, stdout):
    """Check recorded stdout bytes of one task; returns the checks made.

    Raises AssertionError on any disagreement.
    """
    done = []
    want = expected_stdout(command, args, desc)
    if want is not None:
        if stdout != want:
            raise AssertionError(f"{command}: output differs from the independent route")
        done.append("bytes equal the independent route")
    out = json.loads(stdout)
    known = _corpus_values(desc)
    corpus_map = {
        "euler-table": ("euler_table", lambda o: o["table"]),
        "tutte": ("tutte", lambda o: o),
        "hlv": ("h", lambda o: o),
        "charpoly": ("charpoly", lambda o: o["charpoly"]),
        "os-dims": ("os_dims", lambda o: o),
        "white-check": ("white_all_connected", lambda o: {"degree": o["degree"], "all_connected": o["all_connected"]}),
    }
    if command in corpus_map and corpus_map[command][0] in known:
        check, part = corpus_map[command]
        if part(out) != known[check]:
            raise AssertionError(f"{command}: output differs from corpus check {check}")
        done.append(f"corpus value {check}")
    if command == "charpoly" and "reduced_charpoly" in known:
        if out["reduced_charpoly"] != known["reduced_charpoly"]:
            raise AssertionError("charpoly: reduced part differs from the corpus")
        done.append("corpus value reduced_charpoly")
    if command == "reduced-os-basis":
        done.extend(_confirm_reduced_basis(args, desc, out, known))
    return done


def _confirm_reduced_basis(args, desc, out, known):
    k = int(_option(args, "--degree", None))
    M = _matroid(desc)
    red = tutte.reduced_char_poly(M, _tutte(desc, M, "sum"))
    dim = abs(red.coeff(M.r - 1 - k))
    sets = out["index_sets"]
    if out["dimension"] != dim or len(sets) != dim:
        raise AssertionError(f"reduced-os-basis: dimension {out['dimension']} != {dim}")
    if out["degree"] != k or out["field"] != _option(args, "--field", "Q"):
        raise AssertionError("reduced-os-basis: degree or field echoed wrongly")
    ok = all(
        len(s) == k and s == sorted(set(s)) and 0 not in s and all(0 <= e < M.size for e in s)
        for s in sets
    )
    if not ok or len({tuple(s) for s in sets}) != len(sets):
        raise AssertionError("reduced-os-basis: index sets are not distinct k-subsets avoiding 0")
    done = ["dimension equals |coefficient| of the reduced characteristic polynomial"]
    if "reduced_os_dims" in known:
        if dim != known["reduced_os_dims"][k]:
            raise AssertionError("reduced-os-basis: dimension differs from the corpus")
        done.append("corpus value reduced_os_dims")
    return done
