"""The three workloads. Each is driven by one closed-loop client: the next
op starts only when the previous one has finished and been checked.

A workload prepares its inputs before set-up (untimed), times its own
set-up (import, checkpoint load, warm-up ops), and times each op in
``run``, which returns ``(seconds, output)``. ``check`` compares an output
with the float64 references stored under ``refs/``; it never calls the
program, so no later change to ``src/`` can move a reference.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import subprocess
import sys
import time

import numpy as np

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

# Tolerances against the float64 references, set from the float32
# deviations measured on the seed code (see NOTES.md) with wide margin.
FUSE_ABS_TOL = 1e-4        # fused pixel values; seed deviation <= 1e-6
TRAIN_FIRST_REL_TOL = 1e-5  # loss before any update; seed deviation <= 1.1e-6
TRAIN_LAST_REL_TOL = 5e-3   # loss after one Adam step; seed deviation <= 6e-5
CLI_LEVEL_TOL = 1           # grey levels of the written PGM
CLI_METRIC_TOL = {"en": 0.02, "qabf": 1e-4, "ssim": 1e-4, "psnr": 1e-3}

# Ops run before timing starts. The first 256x256 fusion in a process
# takes 20-60% longer than later ones. The last warm-up output is held,
# as the closed loop holds each output until the next op returns: freeing
# it lets the allocator give the heap back, and the next fusion then runs
# about 25% slower while it faults the memory in again.
WARMUP_OPS = 2

TRAIN_CONFIG = dict(learning_rate=1e-3, batch_size=4, epochs=1)
_METRIC_LINE = re.compile(
    r"^metrics en=(\S+) qabf=(\S+) ssim=(\S+) psnr=(\S+)$", re.M)


class BenchmarkError(RuntimeError):
    """The benchmark itself is broken (not the program under test)."""


def _load_refs(name: str, digests: list[str]):
    refs = np.load(os.path.join(REFS, name + ".npz"), allow_pickle=False)
    if list(refs["digests"]) != digests:
        raise BenchmarkError(
            f"{name}: generated inputs differ from the ones the references "
            f"were computed on")
    return refs


class _InProcess:
    """Shared by the workloads that call the library in this process."""

    tracer = None
    rusage = resource.RUSAGE_SELF    # whose ru_maxrss is peak_rss_mb

    def setup(self, first_case: int) -> dict[str, float]:
        t0 = time.perf_counter()
        import ivfuse
        self.ivfuse = ivfuse
        t1 = time.perf_counter()
        self.params = self.ivfuse.checkpoint.load_checkpoint(self.ckpt)
        t2 = time.perf_counter()
        for _ in range(WARMUP_OPS):
            self.held = self.run(self.prepare(first_case))
        t3 = time.perf_counter()
        src = os.path.join(os.getcwd(), "src") + os.sep
        if not os.path.abspath(ivfuse.__file__).startswith(src):
            raise BenchmarkError(f"ivfuse imported from {ivfuse.__file__}, not {src}")
        return {"import_s": t1 - t0, "load_s": t2 - t1, "warmup_s": t3 - t2,
                "setup_s": t3 - t0}

    def enable_trace(self, tracer) -> None:
        spans.install(tracer)
        tracer.register_params(self.params)
        self.tracer = tracer


class Fuse256(_InProcess):
    """fuse_images on 256x256 pairs, weights already in memory."""

    name = "fuse-256"
    size = 256
    units_per_op = 1   # pairs

    def __init__(self, work: str):
        self.ckpt = os.path.join(work, "model.hfn")
        inputs.write_hfn1(self.ckpt, inputs.model_weights())
        self.pairs = [inputs.fuse_case(self.name, k, self.size)
                      for k in range(inputs.BANKS[self.name])]
        refs = _load_refs(self.name, [inputs.digest(*p) for p in self.pairs])
        self.ref = refs["fused"]

    def prepare(self, case: int):
        return self.pairs[case]

    def run(self, pair):
        t0 = time.perf_counter()
        fused = self.ivfuse.network.fuse_images(pair[0], pair[1], self.params)
        return time.perf_counter() - t0, fused

    def check(self, case: int, fused) -> str | None:
        ref = self.ref[case]
        if fused.shape != ref.shape or not np.all(np.isfinite(fused)):
            return f"case {case}: fused image has shape {fused.shape} or non-finite values"
        err = float(np.max(np.abs(fused.astype(np.float64) - ref)))
        if err > FUSE_ABS_TOL:
            return f"case {case}: fused image off the reference by {err:.3g}"
        return None

    def corrupt(self, fused):
        bad = fused.copy()
        bad[bad.shape[0] // 2, bad.shape[1] // 2] += 10 * FUSE_ABS_TOL
        return bad

    def verify(self, case: int, fused) -> str | None:
        """fuse(vis, ir) must equal fuse(ir, vis) bit for bit."""
        ir, vis = self.pairs[case]
        _, swapped = self.run((vis, ir))
        if not np.array_equal(fused, swapped):
            return f"case {case}: fuse(vis, ir) differs from fuse(ir, vis)"
        return None


class Train32(_InProcess):
    """Fixed-length train() jobs on the demo schedule: B=4, 32x32, Adam,
    lr 1e-3, 4 feedback iterations; one epoch of 8 blends, two steps."""

    name = "train-32"
    units_per_op = 2 * inputs.TRAIN_PAIRS   # training samples per job

    def __init__(self, work: str):
        self.ckpt = os.path.join(work, "model.hfn")
        inputs.write_hfn1(self.ckpt, inputs.model_weights())
        self.cases = [inputs.train_case(k) for k in range(inputs.BANKS[self.name])]
        digests = [inputs.digest(*[a for pair in c for a in pair]) for c in self.cases]
        self.ref = _load_refs(self.name, digests)["losses"]

    def prepare(self, case: int):
        iv = self.ivfuse
        dataset = iv.PairDataset([iv.ImagePair(f"p{i}", ir, vis)
                                  for i, (ir, vis) in enumerate(self.cases[case])])
        cfg = iv.TrainConfig(seed=case, **TRAIN_CONFIG)
        params = self.params.copy()
        if self.tracer is not None:
            self.tracer.register_params(params)
        return dataset, cfg, params

    def run(self, args):
        dataset, cfg, params = args
        t0 = time.perf_counter()
        _, log = self.ivfuse.training.train(dataset, cfg, params=params)
        elapsed = time.perf_counter() - t0
        return elapsed, np.array([row[2:] for row in log.rows], dtype=np.float64)

    def check(self, case: int, losses) -> str | None:
        ref = self.ref[case]
        if losses.shape != ref.shape:
            return f"case {case}: logged {losses.shape[0]} steps, expected {ref.shape[0]}"
        if not np.all(np.isfinite(losses)):
            return f"case {case}: non-finite logged loss"
        for step, tol in ((0, TRAIN_FIRST_REL_TOL), (-1, TRAIN_LAST_REL_TOL)):
            rel = abs(losses[step, 0] - ref[step, 0]) / abs(ref[step, 0])
            if rel > tol:
                return f"case {case}: step {step} loss off the reference by {rel:.3g} (relative)"
        return None

    def corrupt(self, losses):
        bad = losses.copy()
        bad[-1, 0] *= 1.0 + 10 * TRAIN_LAST_REL_TOL
        return bad

    def verify(self, case: int, losses) -> str | None:
        return None


class CliFuse64:
    """One ``python -m ivfuse fuse`` subprocess per 64x64 PGM pair."""

    name = "cli-fuse-64"
    size = 64
    units_per_op = 1   # pairs
    tracer = None
    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, work: str):
        self.work = work
        self.ckpt = os.path.join(work, "model.hfn")
        inputs.write_hfn1(self.ckpt, inputs.model_weights())
        self.files = []
        digests = []
        for k in range(inputs.BANKS[self.name]):
            levels = [inputs.quantize(a)
                      for a in inputs.fuse_case(self.name, k, self.size)]
            paths = [os.path.join(work, f"{side}{k}.pgm") for side in ("ir", "vis")]
            for path, lv in zip(paths, levels):
                inputs.write_pgm(path, lv)
            self.files.append(paths)
            digests.append(inputs.digest(*levels))
        refs = _load_refs(self.name, digests)
        self.ref_levels = refs["levels"]
        self.ref_metrics = refs["metrics"]
        path = os.path.join(os.getcwd(), "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path)

    def setup(self, first_case: int) -> dict[str, float]:
        t0 = time.perf_counter()
        for _ in range(WARMUP_OPS):
            self.run(self.prepare(first_case))
        elapsed = time.perf_counter() - t0
        return {"warmup_s": elapsed, "setup_s": elapsed}

    def enable_trace(self, tracer) -> None:
        self.tracer = tracer

    def prepare(self, case: int, swap: bool = False):
        ir, vis = self.files[case]
        if swap:
            ir, vis = vis, ir
        out = os.path.join(self.work, f"out{case}{'s' if swap else ''}.pgm")
        if os.path.exists(out):
            os.remove(out)
        return [ir, vis, out, "--checkpoint", self.ckpt]

    def run(self, args):
        traced = self.tracer is not None and self.tracer.op is not None
        if not traced:
            cmd = [sys.executable, "-m", "ivfuse", "fuse", *args]
        else:
            spans_path = os.path.join(self.work, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_runner.py"),
                   "--spans", spans_path]
            if self.tracer.memory:
                cmd.append("--memory")
            cmd += ["--", "fuse", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if traced and proc.returncode == 0:
            self._merge(spans_path)
        levels = inputs.read_pgm(args[2]) if proc.returncode == 0 else None
        return elapsed, (proc.returncode, proc.stdout + proc.stderr, levels)

    def _merge(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        t = self.tracer
        offset = len(t.spans)
        for name, start, end, parent, _ in data["spans"]:
            t.spans.append([name, start, end,
                            parent + offset if parent >= 0 else -1, t.op])
        if t.op >= 0:
            for key, value in data["counts"][0].items():
                t.counts[t.op][key] += value
        t.peaks.update(data["peaks"])

    def check(self, case: int, out) -> str | None:
        rc, text, levels = out
        if rc != 0:
            return f"case {case}: exit {rc}: {text.strip()[-300:]}"
        ref = self.ref_levels[case]
        if levels.shape != ref.shape:
            return f"case {case}: output PGM is {levels.shape}, expected {ref.shape}"
        diff = int(np.max(np.abs(levels.astype(int) - ref.astype(int))))
        if diff > CLI_LEVEL_TOL:
            return f"case {case}: output PGM off the reference by {diff} levels"
        match = _METRIC_LINE.search(text)
        if match is None:
            return f"case {case}: no metric line in the output"
        for (key, tol), got, want in zip(CLI_METRIC_TOL.items(),
                                         map(float, match.groups()),
                                         self.ref_metrics[case]):
            if not math.isfinite(got) or abs(got - want) > tol:
                return f"case {case}: {key}={got} but the reference is {want:.6f}"
        return None

    def corrupt(self, out):
        rc, text, levels = out
        bad = levels.copy()
        bad[0, 0] = (int(bad[0, 0]) + 128) % 256
        return rc, text, bad

    def verify(self, case: int, out) -> str | None:
        """The swapped request must write the identical image."""
        _, swapped = self.run(self.prepare(case, swap=True))
        if swapped[0] != 0 or not np.array_equal(out[2], swapped[2]):
            return f"case {case}: fuse vis ir differs from fuse ir vis"
        return None


WORKLOADS = {w.name: w for w in (Fuse256, Train32, CliFuse64)}
