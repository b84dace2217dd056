"""Run the weakmeter CLI with spans recorded, for traced runs of the cli workload.

Usage: python perfbench/traced_cli.py SPAN_FILE OP_ID [weakmeter arguments...]

Behaves like the `weakmeter` console script (same output and exit code) and
writes its spans to SPAN_FILE as JSON when the command ends.
"""

import sys

import weakmeter.cli

from tracer import Tracer


def main() -> int:
    span_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        return weakmeter.cli.main(argv)
    finally:
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
