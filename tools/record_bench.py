"""Compare the performance of an ivfuse checkout's working tree with a
revision in alternating pairs, and record it in BENCH_<change>_vs_<REV>.json.

    python3 tools/record_bench.py --against HEAD~1 --pairs 10
    python3 tools/record_bench.py --against HEAD --pairs 3 --workload train-256
    python3 tools/record_bench.py --against HEAD --pairs 3 --workload fuse-1024
    python3 tools/record_bench.py --against HEAD --pairs 1 --workload tier1

Each workload runs once per side in each of N pairs, the side that runs
first alternating from pair to pair and pair i using seed ``--seed + i``
on both sides. Every run gets a fresh copy, in a temporary directory that
is deleted afterwards, of REV (``git archive``) or of the checkout's
working tree (its tracked and unignored files, archived the same way).
The same code in two directories can differ by up to 8% in ``train-32``
time, and a copy per run turns that into noise that neither side keeps.

The workloads are perfbench's three, each a run of the copy's
``perfbench/run.py`` at perfbench's run length, and four that take no
seed:
- ``train-256``: one ``ivfuse.train`` job of one B=4 256x256 batch,
  timed after a warm-up job in the same fresh process, with that
  process's peak RSS. It needs over 1 GB, so run the recorder alone on
  the machine;
- ``fuse-1024``: one ``ivfuse.fuse_images`` of a 1024x1024 pair, timed
  after a warm-up fusion in the same fresh process, with that process's
  peak RSS, which the fusion's one whole 64-channel map dominates;
- ``demo``: the wall time of one ``ivfuse demo``, start-up included;
- ``tier1``: the copy's Tier-1 suite: wall time, and passed and failed
  counts (errors included). Failing tests are recorded, not treated as a
  failed run.

``fuse-1024``, ``demo`` and ``tier1`` take 15-100 s a run, so they run
only when named with ``--workload``; by default the other four run.

The record is named after the checkout's short commit, with
``+<src hash>`` when ``src/ivfuse`` differs from HEAD (the first 8 hex
digits of the ``src_sha256`` that perfbench prints), and REV's short
commit. It holds every run's end-to-end metrics, ``src_lines`` per side
(the line count of ``src/ivfuse/*.py`` in the archive the runs use: the
size measure of the design aim in ROADMAP.md), for each perfbench
workload the ``blas_threads`` and ``nproc`` that each side's last run
printed (``train()`` runs one batch chunk per BLAS thread, so this says
how many ran), and per metric each side's
median and quartiles, the number of pairs the working tree won, and
``worse_beyond_bound``: whether its median is worse than REV's by more
than the metric's ``BENCHMARK.json`` bound, a fraction of REV's median
(null for the workloads that are not perfbench's, which have no bound).
A later run of other workloads on the same two trees is merged into that
file; one of a workload the file already holds exits 1 before anything
runs, since it would replace that series. Exits 1 when a run fails,
writing nothing. ``--out-dir`` is created if missing.
"""

from __future__ import annotations

import argparse
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
# The metrics of the workloads that are not perfbench's, each with the
# direction that is better; none of them has a bound.
STEP_METRICS = {
    "train-256": {"step_s": "lower", "peak_rss_mb": "lower"},
    "fuse-1024": {"fuse_s": "lower", "peak_rss_mb": "lower"},
    "demo": {"wall_s": "lower"},
    "tier1": {"wall_s": "lower", "passed": "higher", "failed": "lower"},
}
# The Tier-1 suite, as ROADMAP.md runs it; no cache is left in the copy.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

# One train() job of one B=4 256x256 batch at float32, the paper's
# training size: 2 pairs give 4 blends. Prints the time of a job after a
# warm-up job, and the process's peak RSS. Only public ivfuse API, so any
# checkout runs it.
TRAIN_STEP = """
import json, resource, time
import numpy as np
import ivfuse as iv

rng = np.random.default_rng(0)
corpus = iv.PairDataset([iv.ImagePair(f"pair{i}", *rng.uniform(
    0, 1, (2, 256, 256))) for i in range(2)])
cfg = iv.TrainConfig(batch_size=4, epochs=1)
params = iv.init_params(0)


def job():
    t0 = time.perf_counter()
    iv.train(corpus, cfg, params)
    return time.perf_counter() - t0


job()
step_s = job()
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"step_s": step_s, "peak_rss_mb": peak_kib / 1024}))
"""

# One fusion of a 1024x1024 pair at float32, four feedback iterations.
# Prints the time of a fusion after a warm-up fusion, and the process's
# peak RSS. Only public ivfuse API, so any checkout runs it.
FUSE_1024 = """
import json, resource, time
import numpy as np
import ivfuse as iv

ir, vis = np.random.default_rng(0).uniform(0, 1, (2, 1024, 1024))
params = iv.init_params(0)
iv.fuse_images(ir, vis, params)
t0 = time.perf_counter()
iv.fuse_images(ir, vis, params)
fuse_s = time.perf_counter() - t0
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"fuse_s": fuse_s, "peak_rss_mb": peak_kib / 1024}))
"""
# The workloads that run one of the scripts above in a fresh process.
SCRIPTS = {"train-256": TRAIN_STEP, "fuse-1024": FUSE_1024}


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
                  seed: int) -> tuple[dict, dict]:
    """The final JSON line of one run at perfbench's run length, and the
    environment it printed."""
    proc = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed)], root)
    lines = _stdout_lines(proc, f"perfbench {workload}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"perfbench {workload}: correct={result['correct']}"
                           f", failed={result['failed']}")
    run_env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")),
                   {})
    return result, run_env


def time_demo(root: str) -> dict:
    """``wall_s``: wall seconds of ``python -m ivfuse demo`` (its default
    seed and desk-scale schedule) into a scratch directory."""
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-m", "ivfuse", "demo", "--out-dir",
                     out_dir], root)
        elapsed = time.perf_counter() - t0
    _stdout_lines(proc, "ivfuse demo")
    return {"wall_s": elapsed}


def time_script(root: str, workload: str) -> dict:
    """The metrics that ``workload``'s script in SCRIPTS prints: the time
    of its job after a warm-up, and its process's peak RSS."""
    proc = _run([sys.executable, "-c", SCRIPTS[workload]], root)
    return json.loads(_stdout_lines(proc, workload)[-1])


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


def count_src_lines(archive: bytes) -> int:
    """Total line count of ``src/ivfuse/*.py`` in a tar archive."""
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        return sum(tar.extractfile(m).read().count(b"\n") for m in tar
                   if m.isfile() and m.name.endswith(".py")
                   and os.path.dirname(m.name) == "src/ivfuse")


def record_name(root: str, src_sha256: str) -> str:
    def git(*args):
        return _run(["git", *args], root).stdout.strip()

    name = git("rev-parse", "--short", "HEAD") or "nogit"
    if git("status", "--porcelain", "--", "src/ivfuse"):
        name += "+" + src_sha256[:8]
    return name


def src_sha256(root: str) -> str:
    """The hash of ``root``'s ``src/ivfuse`` that perfbench prints."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_env", os.path.join(ROOT, "perfbench", "env.py"))
    env = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(env)
    return env.src_sha256(root)


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
             seed: int | None) -> tuple[dict, dict]:
    """The end-to-end metrics of one run of ``workload`` in a fresh copy of
    ``archive``, which is deleted afterwards, and the environment perfbench
    printed (empty for the workloads in STEP_METRICS, which run no
    perfbench and take no seed)."""
    with tempfile.TemporaryDirectory(prefix="record_bench-") as tree:
        extract(archive, tree)
        if workload in SCRIPTS:
            return time_script(tree, workload), {}
        if workload in STEP_METRICS:
            return {"demo": time_demo, "tier1": run_tier1}[workload](tree), {}
        result, run_env = run_perfbench(tree, workload, seed)
        return ({k: v["value"] for k, v in result["metrics"].items()},
                run_env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT,
                    help="checkout whose working tree is measured "
                    "(default: this one)")
    ap.add_argument("--out-dir", help="where to write the record "
                    "(default: the checkout)")
    ap.add_argument("--against", metavar="REV", required=True,
                    help="the revision the working tree is compared with")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating pairs per workload (default 10)")
    ap.add_argument("--workload", choices=[*WORKLOADS, *STEP_METRICS],
                    help="the one workload to compare (default: all but "
                    "fuse-1024, demo and tier1)")
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

    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        e2e = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in e2e}
    bounds = {m["name"]: m["bound"] for m in e2e if "bound" in m}
    workloads = [args.workload] if args.workload else [*WORKLOADS, "train-256"]
    parent = _run(["git", "rev-parse", "--short", args.against], root).stdout.strip()
    change = record_name(root, src_sha256(root))
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
    envs = {}   # the environment perfbench printed, per side

    def run(side, workload, seed):
        metrics, envs[side] = run_copy(archives[side], workload, seed)
        return metrics

    try:
        archives = {"parent": archive_rev(root, args.against),
                    "change": archive_worktree(root)}
        record["src_lines"] = {side: count_src_lines(archive)
                               for side, archive in archives.items()}
        print("src_lines: parent {parent} -> change {change}".format(
            **record["src_lines"]))
        for workload in workloads:
            step = workload in STEP_METRICS
            seed = None if step else args.seed
            runs = run_pairs(run, workload, args.pairs, seed)
            metrics = (summarize(runs, STEP_METRICS[workload]) if step
                       else summarize(runs, better, bounds))
            results[workload] = {"seed": seed,
                                 "seconds": envs["change"].get("seconds"),
                                 "runs": runs, "metrics": metrics}
            if not step:   # how many BLAS threads, and so training chunks, ran
                results[workload]["threads"] = {
                    side: {k: env.get(k) for k in ("blas_threads", "nproc")}
                    for side, env in envs.items()}
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


if __name__ == "__main__":
    sys.exit(main())
