"""Run ``ivfuse.cli.main`` with the benchmark's span wrappers installed.

    python3 perfbench/cli_runner.py --spans OUT.json [--memory] -- fuse ...

Used for the traced requests of the cli-fuse-64 workload in place of
``python -m ivfuse``. The spans and counts of the request go to OUT.json;
the exit code is main's. ``--memory`` traces allocations so that the
fusion's peak can be read.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    out_path = opts[opts.index("--spans") + 1]
    memory = "--memory" in opts

    t0 = time.perf_counter()
    import ivfuse.cli
    t1 = time.perf_counter()

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin_op(memory=memory)
    tracer.spans.append(["cli.import", t0, t1, -1, tracer.op])
    if memory:
        tracemalloc.start()
    try:
        rc = tracer.wrap("cli.main", ivfuse.cli.main)(cli_argv)
    finally:
        tracer.end_op()
        if memory:
            tracemalloc.stop()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "peaks": tracer.peaks}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
