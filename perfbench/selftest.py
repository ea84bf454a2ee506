"""Self-tests of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that BENCHMARK.json and the code
name the same metrics, that names use only [A-Za-z0-9_.-], that span self
time is right on a hand-built tree, that every output check rejects a
corrupted output, and that two traced runs with different seeds give
identical counts. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".tensors_created", ".grad_bytes_alloc",
                  ".bwd_scatter_bytes", "_gflop", ".fwd_mb", ".bytes")


def check_declared_metrics() -> None:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == report.E2E, f"end_to_end differs: {declared} vs {report.E2E}"
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == report.PER_LAYER, \
        f"per_layer differs: {set(declared) ^ set(report.PER_LAYER)}"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert not report.bad_names([*report.E2E, *declared])
    assert report.bad_names(["bad name", "x/y", "_lead"]) == ["bad name", "x/y", "_lead"]


def check_corruption_is_caught() -> None:
    """Each checker passes the stored reference and fails a corrupted copy."""
    wl = workloads.Fuse256.__new__(workloads.Fuse256)
    wl.ref = np.load(os.path.join(workloads.REFS, "fuse-256.npz"))["fused"]
    good = wl.ref[0].copy()
    assert wl.check(0, good) is None
    assert wl.check(0, wl.corrupt(good)) is not None
    assert wl.check(0, np.full_like(good, np.nan)) is not None

    wl = workloads.Train32.__new__(workloads.Train32)
    wl.ref = np.load(os.path.join(workloads.REFS, "train-32.npz"))["losses"]
    good = wl.ref[0].copy()
    assert wl.check(0, good) is None
    assert wl.check(0, wl.corrupt(good)) is not None
    bad = good.copy()
    bad[0, 1] = np.inf
    assert wl.check(0, bad) is not None

    wl = workloads.CliFuse64.__new__(workloads.CliFuse64)
    refs = np.load(os.path.join(workloads.REFS, "cli-fuse-64.npz"))
    wl.ref_levels, wl.ref_metrics = refs["levels"], refs["metrics"]
    en, qabf, ssim, psnr = wl.ref_metrics[0]
    line = f"metrics en={en:.6f} qabf={qabf:.6f} ssim={ssim:.6f} psnr={psnr:.6f}"
    good = (0, "wrote out.pgm\n" + line + "\n", wl.ref_levels[0].copy())
    assert wl.check(0, good) is None
    assert wl.check(0, wl.corrupt(good)) is not None
    assert wl.check(0, (6, good[1], good[2])) is not None
    assert wl.check(0, (0, line.replace("ssim=", "ssim=1"), good[2])) is not None


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "4", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert f"{workload} counts_repeat True" in proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def check_counts_repeat() -> None:
    for workload in workloads.WORKLOADS:
        first, second = traced_counts(workload, 1), traced_counts(workload, 2)
        assert first == second, {k: (first[k], second[k])
                                 for k in first if first[k] != second[k]}
        print(f"PASS counts repeat across two traced runs: {workload}", flush=True)


def main() -> int:
    checks = [("metric names and BENCHMARK.json", check_declared_metrics),
              ("span self time and name rules", run.self_check),
              ("corrupted outputs are caught", check_corruption_is_caught),
              ("traced counts", check_counts_repeat)]
    for label, fn in checks:
        try:
            fn()
        except (AssertionError, workloads.BenchmarkError) as exc:
            print(f"FAIL {label}: {exc}")
            return 1
        print(f"PASS {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
