"""One workload process: set-up, the closed loop, output checks.

Started by run.py in a fresh interpreter, so its import time and peak RSS
belong to the workload alone. Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload fuse-256 --work DIR \
        --order 2,0,3,1 --seconds 20 --mode run

``--mode setup`` stops after set-up; ``--mode trace`` runs half the time
untraced and half traced, then one op under tracemalloc.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import env  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def closed_loop(wl, order: list[int], seconds: float, tracer=None,
                memory: bool = False) -> dict:
    """Ops back to back until ``seconds`` have passed (at least one op);
    each output is checked before the next op starts."""
    latencies, errors = [], []
    attempted = failed = 0
    last = None
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        case = order[attempted % len(order)]
        args = wl.prepare(case)
        attempted += 1
        if tracer is not None:
            tracer.begin_op(memory)
        try:
            elapsed, out = wl.run(args)
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            errors.append(f"case {case}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
        problem = wl.check(case, out)
        if problem is not None:
            failed += 1
            errors.append(problem)
            continue
        latencies.append(elapsed)
        last = (case, out)
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "errors": errors, "last": last}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--order", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)
    order = [int(k) for k in args.order.split(",")]

    wl = WORKLOADS[args.workload](args.work)
    setup = wl.setup(order[0])
    result = {"setup": setup, "env": env.process_env()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    loop = closed_loop(wl, order, seconds)
    if args.mode == "trace":
        untraced = loop
        tracer = spans.Tracer()
        wl.enable_trace(tracer)
        loop = closed_loop(wl, order, seconds, tracer)
        # one more op with allocations traced, for the peak_traced_mb rows
        tracemalloc.start()
        memory = closed_loop(wl, order[:1], 0.0, tracer, memory=True)
        tracemalloc.stop()
        for key in ("attempted", "failed", "errors"):
            loop[key] += untraced[key] + memory[key]
        overhead = (statistics.median(loop["latencies"])
                    - statistics.median(untraced["latencies"])
                    if loop["latencies"] and untraced["latencies"] else 0.0)
        if tracer.counts:
            result["per_layer"] = report.per_layer(
                tracer.spans, tracer.counts, tracer.peaks, overhead)
        result["counts_repeat"] = all(c == tracer.counts[0] for c in tracer.counts)
        result["untraced_latencies"] = untraced["latencies"]
        with open(os.path.join(args.work, "spans.out.json"), "w") as fh:
            json.dump(tracer.spans, fh)

    last = loop.pop("last")
    result.update(loop)
    result["verify_errors"] = []
    result["selfcheck_ok"] = True
    if last is not None:
        case, out = last
        problem = wl.verify(case, out)
        if problem is not None:
            result["verify_errors"].append(problem)
        # the checker must reject a corrupted copy of a good output
        result["selfcheck_ok"] = wl.check(case, wl.corrupt(out)) is not None
    result["peak_rss_mb"] = resource.getrusage(wl.rusage).ru_maxrss / 1024
    result["units_per_op"] = wl.units_per_op
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
