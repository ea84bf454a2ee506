"""Record the performance of one ivfuse checkout in BENCH_<commit>.json,
or compare it with another revision in alternating pairs.

    python3 tools/record_bench.py                      # this checkout
    python3 tools/record_bench.py --root ../other --out-dir .
    python3 tools/record_bench.py --against HEAD~1 --pairs 10 --workload train-32

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

With ``--against REV --pairs N``, each workload runs once per side in
each of N pairs, the side that runs first alternating from pair to pair
and pair i using seed ``--seed + i`` on both sides (``train-256``
takes no seed); perfbench sets the run length. Every run gets a
fresh copy, in a temporary directory, of REV (``git archive``) or of the
checkout's working tree (its tracked and unignored files, archived the
same way). The same code in two directories can differ by up to 8% in
``train-32`` time, and a copy per run turns that into noise that neither
side keeps. Besides perfbench's workloads, ``train-256`` is the B=4
256x256 training step. The end-to-end metrics of every run go to
``BENCH_<change>_vs_<REV's short commit>.json``, named as above, and per
metric each side's median and quartiles, the number of pairs the working
tree won, and ``worse_beyond_bound``: whether its median is worse than
REV's by more than the metric's ``BENCHMARK.json`` bound, a fraction of
REV's median (null for ``train-256``, which has no bound). A later run
of other workloads on the same two trees is merged into that file; one
of a workload the file already holds exits 1 before anything runs, since
it would replace that series. ``--out-dir`` is created if missing.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
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


def run_perfbench(root: str, workload: str,
                  seed: int | None = None) -> tuple[dict, dict]:
    """The final JSON line of one run at perfbench's run length and, unless
    given, its default seed, and the environment it printed."""
    seed_args = [] if seed is None else ["--seed", str(seed)]
    proc = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                 *seed_args], root)
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


def src_sha256(root: str) -> str:
    """The hash of ``root``'s ``src/ivfuse`` that perfbench prints."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_env", os.path.join(ROOT, "perfbench", "env.py"))
    env = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(env)
    return env.src_sha256(root)


# The metrics of the training-step pseudo-workload, all lower-is-better.
STEP_METRICS = ("step_s", "peak_rss_mb")


def archive_rev(repo: str, rev: str) -> bytes:
    """``git archive`` of ``rev`` in ``repo``, as tar bytes."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo,
                          capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {rev} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def archive_worktree(repo: str) -> bytes:
    """The working tree's tracked and unignored files, as tar bytes."""
    listing = _run(["git", "ls-files", "-z", "--cached", "--others",
                    "--exclude-standard"], repo).stdout
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for rel in sorted(filter(None, listing.split("\0"))):
            if os.path.isfile(os.path.join(repo, rel)):   # not if deleted
                tar.add(os.path.join(repo, rel), arcname=rel)
    return buf.getvalue()


def extract(archive: bytes, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def pair_order(pairs: int) -> list[tuple[str, str]]:
    """Which side runs first in each pair: the parent in even pairs."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent")
            for i in range(pairs)]


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return list(values) * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's median and quartiles over the pairs, the
    pairs the change won (strictly better), whether the medians differ by
    more than the parent's interquartile range, and whether the change's
    median is worse than the parent's by more than the metric's relative
    bound in ``bounds`` (None for a metric without one)."""
    summary = {}
    for name, direction in better.items():
        sides = {side: [run[side][name] for run in runs] for side in
                 ("parent", "change")}
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"],
                                                       sides["change"]))
        stats = {side: {"median": statistics.median(v), "quartiles": _quartiles(v)}
                 for side, v in sides.items()}
        q1, q3 = stats["parent"]["quartiles"]
        diff = stats["change"]["median"] - stats["parent"]["median"]
        bound = (bounds or {}).get(name)
        summary[name] = {"better": direction, **stats, "change_wins": wins,
                         "pairs": len(runs), "gap_exceeds_parent_iqr": abs(diff) > q3 - q1,
                         "worse_beyond_bound": None if bound is None else
                         sign * diff > bound * abs(stats["parent"]["median"])}
    return summary


def run_pairs(run, workload: str, pairs: int, seed: int | None) -> list[dict]:
    """Run ``run(side, workload, seed)`` for both sides of each pair, in
    :func:`pair_order`, pair i with seed ``seed + i`` (None throughout for
    a workload that takes no seed); each returns a {metric: value} dict."""
    runs = []
    for i, order in enumerate(pair_order(pairs)):
        pair_seed = None if seed is None else seed + i
        record = {"pair": i, "seed": pair_seed, "first": order[0]}
        for side in order:
            record[side] = run(side, workload, pair_seed)
            print(f"{workload} pair {i} {side}: " + " ".join(
                f"{k}={v:.4g}" for k, v in record[side].items()), flush=True)
        runs.append(record)
    return runs


def run_copy(archive: bytes, workload: str,
             seed: int | None) -> tuple[dict, float | None]:
    """The end-to-end metrics of one run of ``workload`` in a fresh copy of
    ``archive``, which is deleted afterwards, and the run length perfbench
    printed (None for ``train-256``, which runs no perfbench and takes no
    seed)."""
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tree:
        extract(archive, tree)
        if workload == "train-256":
            step = time_train_step(tree)
            return {k: step[k] for k in STEP_METRICS}, None
        result, run_env = run_perfbench(tree, workload, seed)
        return ({k: v["value"] for k, v in result["metrics"].items()},
                run_env.get("seconds"))


def compare(args) -> int:
    """The ``--against`` mode: see the module docstring."""
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        e2e = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in e2e}
    bounds = {m["name"]: m["bound"] for m in e2e if "bound" in m}
    workloads = [args.workload] if args.workload else [*WORKLOADS, "train-256"]
    parent = _run(["git", "rev-parse", "--short", args.against], root).stdout.strip()
    change = record_name(root, src_sha256(root))[len("BENCH_"):-len(".json")]
    path = os.path.join(args.out_dir or root, f"BENCH_{change}_vs_{parent}.json")
    record = {"change": change, "parent": parent, "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    recorded = [w for w in workloads if w in record["workloads"]]
    if recorded:   # a second series would silently replace the first
        print(f"record_bench: {path} already holds {', '.join(recorded)}; "
              f"move it or choose another --out-dir", file=sys.stderr)
        return 1
    results = {}
    lengths = {}   # the run length perfbench printed, per side

    def run(side, workload, seed):
        metrics, lengths[side] = run_copy(archives[side], workload, seed)
        return metrics

    try:
        archives = {"parent": archive_rev(root, args.against),
                    "change": archive_worktree(root)}
        for workload in workloads:
            step = workload == "train-256"
            seed = None if step else args.seed
            runs = run_pairs(run, workload, args.pairs, seed)
            metrics = (summarize(runs, dict.fromkeys(STEP_METRICS, "lower"))
                       if step else summarize(runs, better, bounds))
            results[workload] = {"seed": seed, "seconds": lengths["change"],
                                 "runs": runs, "metrics": metrics}
    except RuntimeError as exc:
        print(f"record_bench: {exc}", file=sys.stderr)
        return 1
    for workload, result in results.items():
        record["workloads"][workload] = {"pairs": args.pairs, **result}
        for name, m in result["metrics"].items():
            parent_s, change_s = (
                "{:.4g} [{:.4g}, {:.4g}]".format(m[side]["median"],
                                                 *m[side]["quartiles"])
                for side in ("parent", "change"))
            beyond = ", worse beyond its bound" if m["worse_beyond_bound"] else ""
            print(f"{workload} {name}: parent {parent_s} -> change {change_s}"
                  f", change won {m['change_wins']}/{m['pairs']}{beyond}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout to measure (default: this one)")
    ap.add_argument("--out-dir", help="where to write the record "
                    "(default: the measured checkout)")
    ap.add_argument("--against", metavar="REV",
                    help="compare the checkout's working tree with REV")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating pairs per workload (default 10)")
    ap.add_argument("--workload", choices=[*WORKLOADS, "train-256"],
                    help="the one workload to compare (default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="perfbench seed of the first pair (default 0)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.out_dir:   # before any run, so a bad directory loses no run
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            ap.error(f"--out-dir: {exc}")
    if args.against:
        return compare(args)
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
