"""Run ``python -m repro <args>`` with per-layer tracing installed.

    python perfbench/node.py serve --port 8001 ...

The traced counterpart of ``python -m repro <args>``: it imports the
program, wraps the functions listed in :mod:`perfbench.layers`, starts
the snapshot thread on ``$PERFBENCH_TRACE_DIR``, then runs the CLI
exactly as ``-m repro`` would.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Optional


def start_tracing(extra: Optional[Dict] = None):
    """Install the tracer in this process; return it.

    Snapshots are served on ``$PERFBENCH_TRACE_DIR`` when it is set; a
    process that reports its own snapshots leaves it unset.
    """
    from perfbench import layers, tracing

    tracer = tracing.Tracer(background_tags=layers.BACKGROUND_ROUTES)
    tracing.install(tracer, layers.TARGETS, layers.ROUTE_TAGS)
    tracing.propagate_context_into_executors()
    directory = os.environ.get("PERFBENCH_TRACE_DIR")
    if directory:
        server = tracing.SnapshotServer(tracer, directory, extra=extra)
        server.follow_forks()
        server.start()
    return tracer


def main() -> None:
    import runpy

    started = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.__main__  # noqa: F401
    start_tracing({"import_s": time.perf_counter() - started})
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    # run as a script: the package root, not perfbench/, goes on the path
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    main()
