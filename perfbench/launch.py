"""Run one paircompare CLI command in this process, optionally traced.

    python launch.py ARGS...                      # same as `paircompare ARGS...`
    python launch.py --trace-out FILE ARGS...     # also record spans

Untraced, this is the console script: import ``paircompare.cli`` and exit
with ``main``'s code.  Traced, it times the import, wraps the package's
public functions at the names their callers import (see ``tracing.SPANS``),
runs the command and writes the spans when it ends, even if it raised.
"""

import sys
import time

START_NS = time.perf_counter_ns()


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-out"]:
        from paircompare.cli import main as cli_main

        return cli_main(argv)

    from tracing import Tracer

    tracer = Tracer(START_NS)
    with tracer.span("cli.import"):
        import paircompare.cli
    cli_main = tracer.install(paircompare.cli)
    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main())
