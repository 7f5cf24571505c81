"""Run the matroid_workbench CLI with the benchmark's span tracer installed.

    PERFBENCH_TRACE_OUT=PREFIX PERFBENCH_TASK=ID python perfbench/traced_cli.py COMMAND ARGS...

Same arguments, stdin and stdout as `python -m matroid_workbench.cli`; the
spans and counters are written to PREFIX.json and PREFIX.spans at exit.
"""
import sys

import tracer
from matroid_workbench import cli

tracer.install_from_env()
sys.exit(cli.main(argv=sys.argv[1:]))
