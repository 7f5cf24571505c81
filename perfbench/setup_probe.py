"""Import the CLI and parse descriptor files, with no computation.

    python perfbench/setup_probe.py DESCRIPTOR.json ...

This is the set-up every CLI invocation pays before its command starts:
interpreter start, package import, descriptor parsing and validation.
"""
import sys

from matroid_workbench import cli

for path in sys.argv[1:]:
    cli._read_descriptor(path)
