"""The ivfuse benchmark: three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload fuse-256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, seed 0

Run from the root of a checkout; the program under test is ``src/ivfuse``
there. Every metric is printed as ``<workload> <name> <value> <unit>``,
and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run. Workloads and
metrics are explained in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402
import inputs  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
from workloads import BenchmarkError  # noqa: E402

SETUP_REPS = 3   # set-ups per untraced run; setup_s is their median
OUT_DIR = os.path.join(HERE, "_out")


def self_check() -> None:
    """Cheap checks of the benchmark's own arithmetic, run every time."""
    bad = report.bad_names([*report.E2E, *report.PER_LAYER])
    if bad:
        raise BenchmarkError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    # a: 0..10 holding b: 1..4 and c: 3..6 (overlapping) and d: 8..9;
    # d holds e: 8.5..9.5, which runs past its parent
    tree = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
            ["c", 3.0, 6.0, 0, 0], ["d", 8.0, 9.0, 0, 0],
            ["e", 8.5, 9.5, 3, 0]]
    if spans.self_times(tree) != [4.0, 3.0, 3.0, 0.5, 1.0]:
        raise BenchmarkError(f"span self time is wrong: {spans.self_times(tree)}")


def run_worker(workload: str, work: str, order: list[int], seconds: float,
               mode: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--work", work, "--order", ",".join(map(str, order)),
           "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **env.thread_env()),
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} {mode} worker timed out") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    order = list(range(inputs.BANKS[workload]))
    random.Random(seed).shuffle(order)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        modes = ["trace"] if trace else ["setup"] * (SETUP_REPS - 1) + ["run"]
        results = [run_worker(workload, work, order, seconds, m) for m in modes]
        if trace:
            shutil.copy(os.path.join(work, "spans.out.json"),
                        os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    main = results[-1]
    if not main["selfcheck_ok"]:
        raise BenchmarkError(f"{workload}: the output check accepted a corrupted output")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "order": order, "env": main["env"],
        "setups": [r["setup"] for r in results],
        "attempted": main["attempted"], "failed": main["failed"],
        "errors": main["errors"][:20], "verify_errors": main["verify_errors"],
        "latencies": main["latencies"],
    }
    lat = main["latencies"]
    if trace:
        record["metrics"] = main.get("per_layer", {})
        record["counts_repeat"] = main["counts_repeat"]
        record["untraced_latencies"] = main["untraced_latencies"]
    elif lat:
        record["metrics"], record["tail_percentile"] = report.end_to_end(
            [s["setup_s"] for s in record["setups"]], lat,
            main["units_per_op"], main["peak_rss_mb"])
    else:
        record["metrics"] = {}
    record["correct"] = (main["failed"] == 0 and not main["verify_errors"]
                         and bool(record["metrics"]))
    return record


def print_record(rec: dict) -> None:
    name = rec["workload"]
    units = report.PER_LAYER if rec["trace"] else report.E2E
    n = len(rec["latencies"])
    notes = {"setup_s": f"median of {len(rec['setups'])} set-ups",
             "p50_s": f"n={n}",
             "tail_s": f"p{rec.get('tail_percentile')} of n={n}",
             "throughput_per_s": "training samples/s" if name == "train-32" else "pairs/s"}
    for key, value in rec["metrics"].items():
        if rec["trace"]:
            note = "computed from shapes" if key.endswith(report.COMPUTED) else None
        else:
            note = notes.get(key)
        suffix = f"  ({note})" if note else ""
        print(f"{name} {key} {value:.6g} {units[key]}{suffix}")
    ratio = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"{name} failed_ratio {ratio:.6g} ({rec['failed']}/{rec['attempted']})")
    if rec["trace"]:
        print(f"{name} counts_repeat {rec['counts_repeat']}")
    for problem in rec["errors"] + rec["verify_errors"]:
        print(f"{name} FAILED {problem}")
    if rec["env"]["threads_exceed_nproc"]:
        print(f"{name} WARNING: {rec['env']['blas_threads']} BLAS threads "
              f"on {rec['env']['nproc']} cores")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *inputs.BANKS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ivfuse", "__init__.py")):
        print("run.py: no src/ivfuse here; run from the root of an ivfuse checkout",
              file=sys.stderr)
        return 2
    try:
        self_check()
        names = list(inputs.BANKS) if args.workload == "all" else [args.workload]
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except BenchmarkError as exc:
        print(f"run.py: benchmark error: {exc}", file=sys.stderr)
        return 3

    run_env = {"git_commit": env.git_commit(root), "src_sha256": env.src_sha256(root),
               "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    for rec in records:
        rec["env"].update(run_env)
        print("env " + json.dumps(rec["env"], sort_keys=True))
        print_record(rec)
        path = os.path.join(OUT_DIR, f"{rec['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1)
    units = report.PER_LAYER if args.trace else report.E2E
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        metrics.update({prefix + k: {"value": v, "unit": units[k]}
                        for k, v in rec["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
