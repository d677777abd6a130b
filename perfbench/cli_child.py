"""Run one coarseact CLI command with the per-layer tracer installed.

Usage: python perfbench/cli_child.py COMMAND [ARGS...]

Behaves as ``python -m coarseact.cli COMMAND [ARGS...]`` (same output, same
exit code) and adds one stderr line, prefixed with the tracer's marker, that
holds the command's span snapshot as JSON.
"""

import json
import sys

import coarseact.cli
from tracer import TRACE_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("verdict.cli"):
            return coarseact.cli.run_command(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(TRACE_MARKER + json.dumps(tracer.snapshot()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
