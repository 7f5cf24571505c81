"""Command-line interface.

One executable, nine subcommands, JSON on stdout. Diagnostics go to stderr
and errors map to fixed exit codes:

    2  bad input (parse failure, invalid descriptor/field/degree, loops
       where a loopless matroid is required)
    3  computation refused: budget exceeded, or recursion too deep
    4  internal invariant violation (always a bug in this package)
    1  verify-corpus found a failing check (not an error of the tool)

Output is deterministic for fixed input and flags. Every command runs one
worker; --jobs is accepted and validated for compatibility but read by
nothing, so it never changes the bytes.

`tutte`, `hlv` and `charpoly` take T from one route rule,
tutte.tutte_polynomial, which picks the subset walk or
deletion-contraction by the walk's length. `tutte --cache DIR` runs
deletion-contraction, whose memo the cache persists; `tutte --budget N`
caps whichever deletion-contraction runs. T is the same polynomial by
either route, so the flags never change the bytes.

Each command imports the modules it runs when it runs, so importing this
module loads no pipeline: not the Tutte, polynomial, Orlik-Solomon,
localization, toric or corpus code, nor the linear algebra and fields.py,
which load with the first matrix or --field. fields.py keeps integral
rationals as ints and reads field names with string methods, so a matrix
or --field loads neither fractions (with decimal and numbers) nor re and
enum, unless a matrix entry is an 'a/b' string. Every command's handler, help
and options sit in one table, _COMMANDS. A well-formed command line
(COMMAND followed by --flag value pairs, each flag one of the command's own
and given once) is read from that table by _parse_well_formed, without
argparse. Any other command line, help included, goes to the argparse parser
that build_parser makes from the same table (usage.py, which loads only
then), which prints the help or the usage error; its help formatter takes
its width from COLUMNS or the terminal itself, so shutil is never
imported. JSON is read and written by the C scanner and encoder that
json.loads and json.dumps run (_loads, _dumps), so the json package, and re
and enum with it, loads only to report malformed JSON. `tutte --cache`
hands that codec to FileTutteCache, which lives beside
deletion-contraction (deletion_contraction.py) and which cli.FileTutteCache
names (PEP 562), so no other command compiles it.
"""
from __future__ import annotations

import sys
from _json import encode_basestring_ascii, make_encoder, make_scanner

from .errors import InternalInvariantViolation, InvalidInput, TooLarge, WorkbenchError
from .matroids import from_descriptor

_JSON_WHITESPACE = " \t\n\r"


class _JsonDefaults:
    """The settings json.loads decodes with, as make_scanner reads them."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {"-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")}.__getitem__


_scan_once = make_scanner(_JsonDefaults)


def _loads(text):
    """json.loads(text). The C scanner reads well-formed text; anything it
    refuses or leaves over goes to json.loads itself, which raises the error
    it always raised."""
    try:
        obj, end = _scan_once(text, len(text) - len(text.lstrip(_JSON_WHITESPACE)))
        if end == len(text.rstrip(_JSON_WHITESPACE)):
            return obj
    except Exception:
        pass
    import json

    return json.loads(text)


def _unencodable(obj):
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _dumps(obj, item_separator=", ", key_separator=": "):
    """json.dumps(obj, separators=(item_separator, key_separator)), by the
    C encoder that json.dumps runs."""
    encode = make_encoder(
        {}, _unencodable, encode_basestring_ascii, None, key_separator, item_separator, False, False, True
    )
    return "".join(encode(obj, 0))


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
        obj = _loads(raw)
    except ValueError as exc:
        from json import JSONDecodeError  # loaded by _loads on any error

        if isinstance(exc, JSONDecodeError):
            raise InvalidInput(f"input is not valid JSON: {exc}") from exc
        # an integer literal past sys.get_int_max_str_digits()
        raise InvalidInput("input JSON has an integer literal too long to convert") from exc
    except RecursionError as exc:
        raise InvalidInput("input JSON is nested too deeply") from exc
    return from_descriptor(obj)


def _emit(obj):
    sys.stdout.write(_dumps(obj, ",", ":") + "\n")


def __getattr__(name):
    if name == "FileTutteCache":  # in deletion_contraction.py, loaded on first use (PEP 562)
        from .deletion_contraction import FileTutteCache

        return FileTutteCache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_tutte(args):
    """T by tutte_polynomial's route rule, or by tutte_dc under --cache,
    whose memo the cache persists; a positive --budget caps whichever
    deletion-contraction runs. Checked before output."""
    from . import tutte

    M = _read_descriptor(args["input"])
    budget = args["budget"] if args["budget"] else tutte.DEFAULT_DC_NODES
    if args["cache"]:
        from .deletion_contraction import FileTutteCache

        poly = tutte.tutte_dc(M, FileTutteCache(args["cache"], _loads, _dumps), max_nodes=budget)
        tutte.check_tutte(M, poly)
    else:
        poly = tutte.tutte_polynomial(M, max_nodes=budget)
    _emit(poly.to_json())


def _cmd_charpoly(args):
    from . import tutte

    M = _read_descriptor(args["input"])
    t = tutte.tutte_polynomial(M)
    _emit(
        {
            "charpoly": tutte.char_poly(M, t).to_json(),
            "reduced_charpoly": tutte.reduced_char_poly(M, t).to_json(),
        }
    )


def _cmd_hlv(args):
    from . import tutte

    M = _read_descriptor(args["input"])
    _emit(tutte.h_polynomial(M).to_json(xname="u", yname="v"))


def _cmd_os_dims(args):
    from . import orlik_solomon
    from .fields import field_from_name

    M = _read_descriptor(args["input"])
    field = field_from_name(args["field"])
    _emit(orlik_solomon.os_dimensions(M, field))


def _cmd_os_basis(args):
    from . import orlik_solomon
    from .fields import field_from_name

    M = _read_descriptor(args["input"])
    field = field_from_name(args["field"])
    space = orlik_solomon.os_space(M, args["degree"], field)
    _emit(
        {
            "degree": space.degree,
            "field": field.name,
            "dimension": space.dimension,
            "nbc": [list(s) for s in space.nbc],
        }
    )


def _cmd_reduced_os_basis(args):
    from . import orlik_solomon
    from .fields import field_from_name

    M = _read_descriptor(args["input"])
    field = field_from_name(args["field"])
    basis = orlik_solomon.reduced_nbc_basis(M, args["degree"], field)
    _emit(
        {
            "degree": basis.degree,
            "field": field.name,
            "dimension": basis.dimension,
            "index_sets": [list(s) for s in basis.index_sets],
        }
    )


def _cmd_euler_table(args):
    from . import localization, tutte

    M = _read_descriptor(args["input"])
    budget = args["budget"] if args["budget"] else localization.DEFAULT_MAX_POINTS
    table = localization.euler_table(M, max_points=budget)
    matches = tutte.h_matrix(M) == table
    if not matches:
        raise InternalInvariantViolation(
            "euler table disagrees with the h polynomial"
        )
    _emit({"table": table, "matches_h_polynomial": matches})


def _cmd_white_check(args):
    from . import white

    M = _read_descriptor(args["input"])
    budget = args["budget"] if args["budget"] else white.DEFAULT_BUDGET
    report = white.check_degree(M, args["degree"], budget=budget)
    _emit(report)


def _cmd_verify_corpus(args):
    from . import corpus

    report = corpus.verify_corpus()
    _emit(report)
    return 0 if report["all_pass"] else 1


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            import argparse  # only a usage error, which argparse reports, gets here

            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


# Each option is its flag and the keyword arguments of argparse's
# add_argument; the dest is the flag without its dashes.
_INPUT = ("--input", {"default": "-", "help": "matroid descriptor JSON file, or - for stdin (default)"})
_FIELD = ("--field", {"default": "Q", "help": "Q or GF(p) (default Q)"})
_DEGREE = ("--degree", {"type": int, "required": True, "help": "degree k"})
_CACHE = ("--cache", {"help": "run deletion-contraction with its memo tables persisted in this directory"})
_JOBS = ("--jobs", {
    "type": _int_at_least(1), "default": 1,
    "help": "accepted for compatibility; every command runs one worker",
})


def _budget(what):
    return ("--budget", {
        "type": _int_at_least(0), "default": 0,
        "help": f"override the budget of {what} (0 keeps the default)",
    })


# command: (handler, help, options in the order help lists them)
_COMMANDS = {
    "tutte": (_cmd_tutte, "Tutte polynomial",
              (_INPUT, _CACHE, _budget("deletion-contraction nodes"), _JOBS)),
    "charpoly": (_cmd_charpoly, "characteristic polynomial and its reduction", (_INPUT, _JOBS)),
    "hlv": (_cmd_hlv, "two-variable h polynomial", (_INPUT, _JOBS)),
    "os-dims": (_cmd_os_dims, "Orlik-Solomon dimensions by degree", (_INPUT, _FIELD, _JOBS)),
    "os-basis": (_cmd_os_basis, "nbc monomial basis in one degree", (_INPUT, _FIELD, _DEGREE, _JOBS)),
    "reduced-os-basis": (_cmd_reduced_os_basis, "reduced nbc basis in one degree",
                         (_INPUT, _FIELD, _DEGREE, _JOBS)),
    "euler-table": (_cmd_euler_table, "Euler characteristic table by fixed-point localization",
                    (_INPUT, _budget("fixed points"), _JOBS)),
    "white-check": (_cmd_white_check, "toric fiber connectivity in one degree",
                    (_INPUT, ("--degree", {"type": int, "default": 3, "help": "degree (default 3)"}),
                     _budget("basis factors in the monomials of degrees 1..d"), _JOBS)),
    "verify-corpus": (_cmd_verify_corpus, "recompute every corpus expected block and report pass/fail",
                      (_JOBS,)),
}


def _parse_well_formed(argv):
    """vars() of the namespace build_parser().parse_args(argv) returns, for
    argv of the form COMMAND (--flag value)* where each flag is one of the
    command's own, given once, no value starts with "-" unless it is "-",
    each value converts, and every required option is present; None for
    any other argv, which argparse then reads."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    fn, _, options = _COMMANDS[argv[0]]
    specs = dict(options)
    args = {"command": argv[0], "fn": fn}
    for flag, text in zip(argv[1::2], argv[2::2]):
        spec = specs.get(flag)
        if spec is None or flag[2:] in args or (text.startswith("-") and text != "-"):
            return None
        convert = spec.get("type")
        try:
            args[flag[2:]] = convert(text) if convert else text
        except Exception:
            return None
    for flag, spec in options:
        if flag[2:] not in args:
            if spec.get("required"):
                return None
            args[flag[2:]] = spec.get("default")
    return args


def build_parser():
    """The argparse parser of _COMMANDS, which prints help and usage
    errors; usage.py builds it, and argparse loads, only here."""
    from .usage import build_parser

    return build_parser(_COMMANDS)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_well_formed(argv)
    if args is None:  # help or a usage error, which argparse prints before it exits
        args = vars(build_parser().parse_args(argv))
    try:
        rc = args["fn"](args)
        return 0 if rc is None else rc
    except (TooLarge, RecursionError) as exc:  # recursion deeper than the interpreter allows
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
