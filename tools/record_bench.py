"""Record the performance of one ivfuse checkout in BENCH_<commit>.json.

    python3 tools/record_bench.py                      # this checkout
    python3 tools/record_bench.py --root ../other --out-dir .

Runs ``perfbench/run.py`` of the measured checkout once per workload (in
its own fresh process, from that checkout's root) and keeps the final JSON
line of each run, then times one ``ivfuse demo`` run end to end, start-up
included, one B=4 256x256 training step (after a warm-up step, in a fresh
process, with that process's peak RSS), and one run of the checkout's
Tier-1 suite (wall time, passed and failed counts). That step needs a few
GB, so run the recorder alone on the machine. It also stores
``src_lines``, the total line count of ``src/ivfuse/*.py``: the size
measure of the design aim in ROADMAP.md. The record is written to
``BENCH_<short commit>.json`` in ``--out-dir`` (default: the measured
checkout). When ``src/ivfuse`` differs from the checkout's HEAD, the name
becomes ``BENCH_<short commit>+<src hash>.json``: the first 8 hex digits
of the ``src_sha256`` that perfbench prints, which identifies the code
measured. Exits 1 when a run fails, writing nothing; failing Tier-1 tests
are recorded, not treated as a failed run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fuse-256", "train-32", "cli-fuse-64")
# The Tier-1 suite, as ROADMAP.md runs it; no cache is left in the checkout.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

# One Adam step of reconstruct + composite loss on a B=4 256x256 batch at
# float32, the paper's training size; prints its time after a warm-up step
# and the process's peak RSS. Only public ivfuse API, so any checkout runs it.
TRAIN_STEP = """
import json, resource, time
import numpy as np
import ivfuse as iv

params = iv.init_params(0)
opt = iv.Adam(params.tensors, 1e-4)
x = iv.Tensor(np.random.default_rng(0).uniform(
    0, 1, (4, 1, 256, 256)).astype(np.float32))


def step():
    t0 = time.perf_counter()
    loss, _ = iv.composite_loss_parts(iv.reconstruct(x, params), x)
    iv.backward(loss)
    opt.step()
    return time.perf_counter() - t0


step()
step_s = step()
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"batch": 4, "size": 256, "step_s": step_s,
                  "peak_rss_mb": peak_kib / 1024}))
"""


def _run(cmd: list[str], root: str, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, **kwargs)


def _stdout_lines(proc: subprocess.CompletedProcess, what: str) -> list[str]:
    """The lines a run printed; RuntimeError when it failed or printed none."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{what} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return lines


def run_perfbench(root: str, workload: str) -> tuple[dict, dict]:
    """The final JSON line of one run at perfbench's defaults, and the
    environment it printed."""
    proc = _run([sys.executable, "perfbench/run.py", "--workload", workload],
                root)
    lines = _stdout_lines(proc, f"perfbench {workload}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"perfbench {workload}: correct={result['correct']}"
                           f", failed={result['failed']}")
    run_env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")),
                   {})
    return result, run_env


def time_demo(root: str) -> float:
    """Wall seconds of ``python -m ivfuse demo`` (its default seed and
    desk-scale schedule) into a scratch directory."""
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-m", "ivfuse", "demo", "--out-dir",
                     out_dir], root)
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"ivfuse demo exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return elapsed


def time_train_step(root: str) -> dict:
    """Time and peak RSS of one B=4 256x256 training step (TRAIN_STEP)."""
    proc = _run([sys.executable, "-c", TRAIN_STEP], root)
    return json.loads(_stdout_lines(proc, "training step")[-1])


def run_tier1(root: str) -> dict:
    """Wall seconds and the passed and failed counts (errors included) of
    the Tier-1 suite; RuntimeError when pytest prints no summary."""
    t0 = time.perf_counter()
    proc = _run([sys.executable, *TIER1], root)
    elapsed = time.perf_counter() - t0
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|error)", summary)}
    if not counts:
        raise RuntimeError(f"Tier-1 suite exited {proc.returncode}: "
                           f"{summary[-500:]}")
    return {"wall_s": elapsed, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def count_src_lines(root: str) -> int:
    """Total line count of ``src/ivfuse/*.py`` in the checkout."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "ivfuse", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def record_name(root: str, src_sha256: str) -> str:
    def git(*args):
        return _run(["git", *args], root).stdout.strip()

    name = git("rev-parse", "--short", "HEAD") or "nogit"
    if git("status", "--porcelain", "--", "src/ivfuse"):
        name += "+" + src_sha256[:8]
    return f"BENCH_{name}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout to measure (default: this one)")
    ap.add_argument("--out-dir", help="where to write the record "
                    "(default: the measured checkout)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)

    record = {"workloads": {}, "src_lines": count_src_lines(root)}
    print(f"src_lines={record['src_lines']}")
    try:
        for workload in WORKLOADS:
            result, run_env = run_perfbench(root, workload)
            record.setdefault("env", run_env)
            record["workloads"][workload] = result
            print(f"{workload}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        record["demo_wall_s"] = time_demo(root)
        print(f"demo_wall_s={record['demo_wall_s']:.2f}")
        record["train_256"] = time_train_step(root)
        print("train_256: " + " ".join(
            f"{k}={v:.4g}" for k, v in record["train_256"].items()))
        record["tier1"] = run_tier1(root)
        print("tier1: " + " ".join(
            f"{k}={v:.4g}" for k, v in record["tier1"].items()))
    except RuntimeError as exc:
        print(f"record_bench: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(args.out_dir or root,
                        record_name(root, record["env"].get("src_sha256", "")))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
