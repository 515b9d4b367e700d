"""``python -m arrcover ARGS`` with span tracing, for the benchmark's traced runs.

Usage: traced_cli.py SPANS_FILE ARGS...  The environment variable
PERFBENCH_SPAWN_NS holds the parent's CLOCK_MONOTONIC reading taken just
before it started this process; the span from then until the command-line
entry point runs is recorded as cli.startup.  Stdout and the exit code are
those of the untraced command.
"""

import os
import runpy
import sys

from tracing import Tracer, now_ns


def main() -> None:
    spans_file = sys.argv[1]
    tracer = Tracer().install()
    tracer.add_span("cli.startup", int(os.environ["PERFBENCH_SPAWN_NS"]), now_ns())
    sys.argv = ["arrcover", *sys.argv[2:]]
    try:
        runpy.run_module("arrcover", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    main()
