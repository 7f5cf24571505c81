"""Command-line interface.

One executable, nine subcommands, JSON on stdout. Diagnostics go to stderr
and errors map to fixed exit codes:

    2  bad input (parse failure, invalid descriptor/field/degree, loops
       where a loopless matroid is required)
    3  computation refused: budget exceeded
    4  internal invariant violation (always a bug in this package)
    1  verify-corpus found a failing check (not an error of the tool)

Output is deterministic for fixed input and flags. Every command runs one
worker; --jobs is accepted and validated for compatibility but read by
nothing, so it never changes the bytes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from . import corpus, localization, orlik_solomon, tutte, white
from .errors import InternalInvariantViolation, InvalidInput, TooLarge, WorkbenchError
from .fields import field_from_name
from .matroids import from_descriptor
from .polynomials import BivariatePoly


def _read_descriptor(path):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"input is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInput("input JSON is nested too deeply") from exc
    return from_descriptor(obj)


def _emit(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


class FileTutteCache(tutte.TutteCache):
    """Tutte memo table persisted as one JSON file per memo key.

    Filenames are content-addressed (sha256 of Matroid.memo_key()), so
    unrelated matroids never collide, and a warm run over entries this
    class wrote is byte-identical to a cold one. A directory written under
    an older key scheme is simply cold. An entry read from disk is used
    only if it parses, its degrees stay within the rank and corank, and it
    passes T(1,1) = #bases and T(2,2) = 2^#E for the matroid being looked
    up; otherwise it counts as a miss and the recomputed entry replaces it.
    That rejects corrupt entries, not crafted ones: a polynomial that keeps
    those values but is not T is used as it is (a complete check costs as
    much as computing T).
    """

    def __init__(self, directory):
        super().__init__()
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot use {directory} as a cache directory: {exc}") from exc

    def _path(self, key):
        return os.path.join(self.directory, hashlib.sha256(key).hexdigest() + ".json")

    def get(self, key, matroid=None):
        hit = super().get(key)
        if hit is not None or matroid is None:  # a disk entry needs the matroid
            return hit
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                poly = BivariatePoly.from_json(json.load(fh))
        except (OSError, ValueError, InvalidInput):
            return None
        if not (
            poly.degree_x() <= matroid.r
            and poly.degree_y() <= matroid.corank
            and poly.evaluate(1, 1) == len(matroid.bases(limit=0))
            and poly.evaluate(2, 2) == 2**matroid.size
        ):
            return None
        super().put(key, poly)
        return poly

    def put(self, key, poly):
        super().put(key, poly)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(poly.to_json(), fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _cmd_tutte(args):
    M = _read_descriptor(args.input)
    cache = FileTutteCache(args.cache) if args.cache else None
    budget = args.budget if args.budget else tutte.DEFAULT_DC_NODES
    poly = tutte.tutte_dc(M, cache, max_nodes=budget)
    _emit(poly.to_json())


def _cmd_charpoly(args):
    M = _read_descriptor(args.input)
    t = tutte.tutte_sum(M)
    _emit(
        {
            "charpoly": tutte.char_poly(M, t).to_json(),
            "reduced_charpoly": tutte.reduced_char_poly(M, t).to_json(),
        }
    )


def _cmd_hlv(args):
    M = _read_descriptor(args.input)
    _emit(tutte.h_polynomial(M).to_json(xname="u", yname="v"))


def _cmd_os_dims(args):
    M = _read_descriptor(args.input)
    field = field_from_name(args.field)
    _emit(orlik_solomon.os_dimensions(M, field))


def _cmd_os_basis(args):
    M = _read_descriptor(args.input)
    field = field_from_name(args.field)
    space = orlik_solomon.os_space(M, args.degree, field)
    _emit(
        {
            "degree": space.degree,
            "field": field.name,
            "dimension": space.dimension,
            "nbc": [list(s) for s in space.nbc],
        }
    )


def _cmd_reduced_os_basis(args):
    M = _read_descriptor(args.input)
    field = field_from_name(args.field)
    basis = orlik_solomon.reduced_nbc_basis(M, args.degree, field)
    _emit(
        {
            "degree": basis.degree,
            "field": field.name,
            "dimension": basis.dimension,
            "index_sets": [list(s) for s in basis.index_sets],
        }
    )


def _cmd_euler_table(args):
    M = _read_descriptor(args.input)
    budget = args.budget if args.budget else localization.DEFAULT_MAX_POINTS
    table = localization.euler_table(M, max_points=budget)
    matches = tutte.h_matrix(M) == table
    if not matches:
        raise InternalInvariantViolation(
            "euler table disagrees with the h polynomial"
        )
    _emit({"table": table, "matches_h_polynomial": matches})


def _cmd_white_check(args):
    M = _read_descriptor(args.input)
    budget = args.budget if args.budget else white.DEFAULT_BUDGET
    report = white.check_degree(M, args.degree, budget=budget)
    _emit(report)


def _cmd_verify_corpus(args):
    report = corpus.verify_corpus()
    _emit(report)
    return 0 if report["all_pass"] else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


def build_parser():
    parser = _Parser(
        prog="matroid-workbench",
        description="Exact matroid invariants: Tutte/characteristic/h "
        "polynomials, Orlik-Solomon bases, Euler tables by fixed-point "
        "localization, and toric quadric-generation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, degree=None, field=False, cache=False, budget=None):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
        if name != "verify-corpus":
            p.add_argument(
                "--input",
                default="-",
                help="matroid descriptor JSON file, or - for stdin (default)",
            )
        if field:
            p.add_argument("--field", default="Q", help="Q or GF(p) (default Q)")
        if degree == "required":
            p.add_argument("--degree", type=int, required=True, help="degree k")
        elif isinstance(degree, int):
            p.add_argument(
                "--degree", type=int, default=degree,
                help=f"degree (default {degree})",
            )
        if cache:
            p.add_argument("--cache", help="directory for persistent memo tables")
        if budget:
            p.add_argument(
                "--budget",
                type=_int_at_least(0),
                default=0,
                help=f"override the budget of {budget} (0 keeps the default)",
            )
        p.add_argument(
            "--jobs", type=_int_at_least(1), default=1,
            help="accepted for compatibility; every command runs one worker",
        )
        return p

    add("tutte", _cmd_tutte, "Tutte polynomial by deletion-contraction", cache=True,
        budget="deletion-contraction nodes")
    add("charpoly", _cmd_charpoly, "characteristic polynomial and its reduction")
    add("hlv", _cmd_hlv, "two-variable h polynomial")
    add("os-dims", _cmd_os_dims, "Orlik-Solomon dimensions by degree", field=True)
    add("os-basis", _cmd_os_basis, "nbc monomial basis in one degree",
        degree="required", field=True)
    add("reduced-os-basis", _cmd_reduced_os_basis,
        "reduced nbc basis in one degree", degree="required", field=True)
    add("euler-table", _cmd_euler_table,
        "Euler characteristic table by fixed-point localization",
        budget="fixed points")
    add("white-check", _cmd_white_check,
        "toric fiber connectivity in one degree", degree=3,
        budget="basis factors stored over degrees 1..d")
    add("verify-corpus", _cmd_verify_corpus,
        "recompute every corpus expected block and report pass/fail")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.fn(args)
        return 0 if rc is None else rc
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except WorkbenchError as exc:  # bad input, and any kind added later
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
