"""The CLI's argparse fallback: help and usage errors.

cli.main reads a well-formed command line from its option table,
cli._COMMANDS, without argparse; any other command line, help included,
comes here, to the argparse parser that build_parser makes from that
table, which prints the help or the usage error and exits. So this
module, and argparse, load only on those command lines. The table is
passed in rather than imported, since under `python -m` the CLI runs as
__main__ and an import of cli would compile it a second time.
"""
from __future__ import annotations

import argparse
import os
import sys


def _help_width():
    """The width argparse's help formatter would take from
    shutil.get_terminal_size(), read without importing shutil: COLUMNS when
    it is a positive integer, else the width of the terminal on stdout,
    else 80; less 2, as argparse does."""
    try:
        columns = int(os.environ.get("COLUMNS", ""))
    except ValueError:
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns if columns > 0 else 80) - 2


class _Formatter(argparse.HelpFormatter):
    def __init__(self, prog):
        super().__init__(prog, width=_help_width())


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2, and wraps
    help with _Formatter (argparse's own width lookup imports shutil)."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser(commands):
    """The argument parser of a command table: {command: (handler, help,
    options)}, each option its flag and add_argument's keyword arguments."""
    parser = _Parser(
        prog="matroid-workbench",
        description="Exact matroid invariants: Tutte/characteristic/h "
        "polynomials, Orlik-Solomon bases, Euler tables by fixed-point "
        "localization, and toric quadric-generation checks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (fn, helptext, options) in commands.items():
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser
