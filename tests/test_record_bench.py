"""tools/record_bench.py, with stubbed runs, so no benchmark runs here."""

import importlib.util
import json
import os
import subprocess

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "record_bench.py")
spec = importlib.util.spec_from_file_location("record_bench", TOOL)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def test_pairs_alternate_the_side_that_runs_first():
    calls = []

    def run(side, workload, seed):
        calls.append((side, workload, seed))
        return {"p50_s": 1.0}

    runs = record_bench.run_pairs(run, "train-32", 4, seed=7)
    assert calls == [("parent", "train-32", 7), ("change", "train-32", 7),
                     ("change", "train-32", 8), ("parent", "train-32", 8),
                     ("parent", "train-32", 9), ("change", "train-32", 9),
                     ("change", "train-32", 10), ("parent", "train-32", 10)]
    assert [r["first"] for r in runs] == ["parent", "change"] * 2
    assert [r["seed"] for r in runs] == [7, 8, 9, 10]


def test_summary_medians_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 5.0]   # better in pairs 0, 2 and 3; a tie
    throughput = [(10.0, 11.0), (10.0, 9.0), (10.0, 12.0), (10.0, 10.0),
                  (10.0, 13.0)]
    runs = [{"parent": {"p50_s": p, "throughput_per_s": tp},
             "change": {"p50_s": c, "throughput_per_s": tc}}
            for p, c, (tp, tc) in zip(parent, change, throughput)]
    summary = record_bench.summarize(
        runs, {"p50_s": "lower", "throughput_per_s": "higher"})
    p50 = summary["p50_s"]
    assert p50["parent"] == {"median": 3.0, "quartiles": [2.0, 4.0]}
    assert p50["change"] == {"median": 2.5, "quartiles": [2.0, 3.0]}
    assert (p50["change_wins"], p50["pairs"]) == (3, 5)
    assert p50["gap_exceeds_parent_iqr"] is False   # 0.5 against 2.0
    tp = summary["throughput_per_s"]
    assert tp["change_wins"] == 3                    # higher is better
    assert tp["parent"]["quartiles"] == [10.0, 10.0]
    assert tp["gap_exceeds_parent_iqr"] is True     # 1.0 against 0.0


def test_summary_of_one_pair():
    runs = [{"parent": {"p50_s": 2.0}, "change": {"p50_s": 1.0}}]
    p50 = record_bench.summarize(runs, {"p50_s": "lower"})["p50_s"]
    assert p50["parent"] == {"median": 2.0, "quartiles": [2.0, 2.0]}
    assert p50["change_wins"] == 1


def test_summary_flags_a_median_worse_beyond_its_bound():
    runs = [{"parent": {"p50_s": 1.0, "rss": 100.0, "tput": 10.0, "x": 1.0},
             "change": {"p50_s": p50, "rss": 104.0, "tput": 7.0, "x": 9.0}}
            for p50 in (1.3, 1.3, 0.9)]
    summary = record_bench.summarize(
        runs, {"p50_s": "lower", "rss": "lower", "tput": "higher",
               "x": "lower"},
        {"p50_s": 0.25, "rss": 0.05, "tput": 0.25})
    assert summary["p50_s"]["worse_beyond_bound"] is True    # +30% > 25%
    assert summary["rss"]["worse_beyond_bound"] is False     # +4% < 5%
    assert summary["tput"]["worse_beyond_bound"] is True     # -30% > 25%
    assert summary["x"]["worse_beyond_bound"] is None        # no bound


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_archives_hold_the_revision_and_the_working_tree(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("old\n")
    (repo / "gone.txt").write_text("x\n")
    (repo / ".gitignore").write_text("_out/\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "one")
    (repo / "src" / "a.py").write_text("new\n")
    (repo / "src" / "b.py").write_text("untracked\n")
    (repo / "gone.txt").unlink()
    (repo / "_out").mkdir()
    (repo / "_out" / "run.json").write_text("{}\n")
    record_bench.extract(record_bench.archive_rev(str(repo), "HEAD"),
                         str(tmp_path / "parent"))
    record_bench.extract(record_bench.archive_worktree(str(repo)),
                         str(tmp_path / "change"))
    assert (tmp_path / "parent" / "src" / "a.py").read_text() == "old\n"
    assert (tmp_path / "parent" / "gone.txt").exists()
    assert not (tmp_path / "parent" / "src" / "b.py").exists()
    assert (tmp_path / "change" / "src" / "a.py").read_text() == "new\n"
    assert (tmp_path / "change" / "src" / "b.py").read_text() == "untracked\n"
    assert not (tmp_path / "change" / "gone.txt").exists()
    assert not (tmp_path / "change" / "_out").exists()
    with pytest.raises(RuntimeError, match="git archive"):
        record_bench.archive_rev(str(repo), "no-such-rev")


def _bench_repo(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "ivfuse").mkdir(parents=True)
    (repo / "src" / "ivfuse" / "a.py").write_text("x = 1\n")
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "p50_s", "better": "lower", "bound": 0.25},
                        {"name": "peak_rss_mb", "better": "lower",
                         "bound": 0.05}]}))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "one")
    return repo


def test_compare_records_the_seeds_and_the_run_length_it_was_given(
        tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)

    def run_copy(archive, workload, seed):
        if workload == "train-256":
            return {"step_s": 2.0, "peak_rss_mb": 1.0}, {}
        if archive == b"change":
            return {"p50_s": 1.0, "peak_rss_mb": 110.0}, {"seconds": 20.0}
        return {"p50_s": 2.0, "peak_rss_mb": 100.0}, {"seconds": 20.0}

    monkeypatch.setattr(record_bench, "run_copy", run_copy)
    monkeypatch.setattr(record_bench, "archive_rev", lambda repo, rev: b"parent")
    monkeypatch.setattr(record_bench, "archive_worktree", lambda repo: b"change")
    monkeypatch.setattr(record_bench, "count_src_lines", len)   # no tars
    for workload in ("train-32", "train-256"):   # the second merges
        assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                                  "--pairs", "2", "--workload", workload,
                                  "--seed", "5"]) == 0
    [path] = repo.glob("BENCH_*_vs_*.json")
    workloads = json.loads(path.read_text())["workloads"]
    t32, t256 = workloads["train-32"], workloads["train-256"]
    assert (t32["seed"], t32["seconds"]) == (5, 20.0)
    assert [r["seed"] for r in t32["runs"]] == [5, 6]
    assert t32["metrics"]["p50_s"]["change_wins"] == 2
    assert t32["metrics"]["p50_s"]["worse_beyond_bound"] is False
    assert t32["metrics"]["peak_rss_mb"]["worse_beyond_bound"] is True
    assert [m["worse_beyond_bound"] for m in t256["metrics"].values()] == \
        [None, None]   # the training step has no bound
    assert (t256["seed"], t256["seconds"]) == (None, None)
    assert [r["seed"] for r in t256["runs"]] == [None, None]


def test_each_sides_blas_threads_and_cores_are_recorded(tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)
    printed = {b"parent": {"seconds": 20.0, "blas_threads": 2, "nproc": 2,
                           "numpy": "2.4.6"},
               b"change": {"seconds": 20.0, "blas_threads": 1, "nproc": 2}}

    def run_copy(archive, workload, seed):
        if workload == "train-256":
            return {"step_s": 2.0, "peak_rss_mb": 1.0}, {}
        return {"p50_s": 1.0, "peak_rss_mb": 1.0}, printed[archive]

    monkeypatch.setattr(record_bench, "run_copy", run_copy)
    monkeypatch.setattr(record_bench, "archive_rev", lambda repo, rev: b"parent")
    monkeypatch.setattr(record_bench, "archive_worktree", lambda repo: b"change")
    monkeypatch.setattr(record_bench, "count_src_lines", len)
    for workload in ("train-32", "train-256"):
        assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                                  "--pairs", "2", "--workload", workload]) == 0
    [path] = repo.glob("BENCH_*_vs_*.json")
    workloads = json.loads(path.read_text())["workloads"]
    assert workloads["train-32"]["threads"] == {
        "parent": {"blas_threads": 2, "nproc": 2},
        "change": {"blas_threads": 1, "nproc": 2}}
    assert "threads" not in workloads["train-256"]   # runs no perfbench


def test_out_dir_is_made_before_the_first_run(tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)
    out = tmp_path / "not" / "yet"

    def run(*args):
        assert out.is_dir()   # made before the first run, not at the end
        return {"p50_s": 1.0, "peak_rss_mb": 1.0}, {"seconds": 20.0}

    monkeypatch.setattr(record_bench, "run_copy", run)
    assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                              "--pairs", "1", "--workload", "train-32",
                              "--out-dir", str(out)]) == 0
    assert len(list(out.glob("BENCH_*_vs_*.json"))) == 1


def test_a_workload_already_recorded_is_refused_before_any_run(
        tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)

    def run_copy(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(record_bench, "run_copy", run_copy)
    monkeypatch.setattr(record_bench, "archive_rev", lambda repo, rev: b"")
    monkeypatch.setattr(record_bench, "archive_worktree", lambda repo: b"")
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=repo,
                          capture_output=True, text=True).stdout.strip()
    path = repo / f"BENCH_{head}_vs_{head}.json"
    for held_workload, chosen in (("train-32", ["--workload", "train-32"]),
                                  ("train-32", []),   # every default one
                                  ("demo", ["--workload", "demo"]),
                                  ("tier1", ["--workload", "tier1"])):
        held = {"change": head, "parent": head,
                "workloads": {held_workload: {}}}
        path.write_text(json.dumps(held))
        assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                                  *chosen]) == 1
        assert json.loads(path.read_text()) == held


def test_against_is_required(tmp_path, monkeypatch, capsys):
    repo = _bench_repo(tmp_path)
    monkeypatch.setattr(record_bench, "run_copy", lambda *args: 1 / 0)
    with pytest.raises(SystemExit) as exc:
        record_bench.main(["--root", str(repo), "--workload", "train-32"])
    assert exc.value.code == 2
    assert "--against" in capsys.readouterr().err
    assert list(repo.glob("BENCH_*")) == []


def test_demo_and_tier1_run_in_fresh_copies_without_a_seed(
        tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)
    trees = []

    def runner(metrics):
        def run(root):
            assert os.path.isfile(os.path.join(root, "src", "ivfuse", "a.py"))
            trees.append(root)
            return metrics
        return run

    monkeypatch.setattr(record_bench, "time_demo",
                        runner({"wall_s": 90.0}))
    monkeypatch.setattr(record_bench, "run_tier1", runner(
        {"wall_s": 80.0, "passed": 450, "failed": 0}))
    for workload in ("demo", "tier1"):
        assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                                  "--pairs", "2", "--workload", workload,
                                  "--seed", "5"]) == 0
    assert len(trees) == len(set(trees)) == 8   # a copy per run
    assert not any(os.path.exists(tree) for tree in trees)
    [path] = repo.glob("BENCH_*_vs_*.json")
    workloads = json.loads(path.read_text())["workloads"]
    for workload, metrics in (("demo", {"wall_s": "lower"}),
                              ("tier1", {"wall_s": "lower", "passed": "higher",
                                         "failed": "lower"})):
        held = workloads[workload]
        assert (held["seed"], held["seconds"]) == (None, None)
        assert [r["seed"] for r in held["runs"]] == [None, None]
        assert {k: m["better"] for k, m in held["metrics"].items()} == metrics
        assert all(m["worse_beyond_bound"] is None
                   for m in held["metrics"].values())
    assert workloads["tier1"]["runs"][0]["change"]["passed"] == 450


def test_src_lines_are_counted_per_side_from_the_archives(
        tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)   # src/ivfuse holds one line at HEAD
    (repo / "src" / "ivfuse" / "a.py").write_text("x = 1\ny = 2\n")
    (repo / "src" / "ivfuse" / "b.py").write_text("z = 3\n")   # untracked
    (repo / "src" / "ivfuse" / "sub").mkdir()
    (repo / "src" / "ivfuse" / "sub" / "c.py").write_text("not counted\n")
    (repo / "src" / "ivfuse" / "notes.txt").write_text("not counted\n")
    monkeypatch.setattr(record_bench, "run_copy", lambda *args: (
        {"step_s": 1.0, "peak_rss_mb": 1.0}, {}))
    assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                              "--pairs", "1", "--workload", "train-256"]) == 0
    [path] = repo.glob("BENCH_*_vs_*.json")
    assert "+" in path.name   # src/ivfuse differs from HEAD
    assert json.loads(path.read_text())["src_lines"] == {"parent": 1,
                                                         "change": 3}


def test_fuse_1024_runs_its_script_in_fresh_copies_without_a_seed(
        tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)
    trees = []

    def time_script(root, workload):
        assert workload == "fuse-1024"
        assert os.path.isfile(os.path.join(root, "src", "ivfuse", "a.py"))
        trees.append(root)
        return {"fuse_s": 7.0, "peak_rss_mb": 343.0}

    monkeypatch.setattr(record_bench, "time_script", time_script)
    assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                              "--pairs", "2", "--workload", "fuse-1024",
                              "--seed", "5"]) == 0
    assert len(trees) == len(set(trees)) == 4   # a copy per run
    assert not any(os.path.exists(tree) for tree in trees)
    [path] = repo.glob("BENCH_*_vs_*.json")
    held = json.loads(path.read_text())["workloads"]["fuse-1024"]
    assert (held["seed"], held["seconds"]) == (None, None)
    assert {k: m["better"] for k, m in held["metrics"].items()} == {
        "fuse_s": "lower", "peak_rss_mb": "lower"}
    assert all(m["worse_beyond_bound"] is None
               for m in held["metrics"].values())


def test_the_default_workloads_leave_out_the_long_ones(tmp_path, monkeypatch):
    repo = _bench_repo(tmp_path)
    ran = set()

    def run_copy(archive, workload, seed):
        ran.add(workload)
        if workload in record_bench.STEP_METRICS:
            return dict.fromkeys(record_bench.STEP_METRICS[workload], 1.0), {}
        return {"p50_s": 1.0, "peak_rss_mb": 1.0}, {"seconds": 20.0}

    monkeypatch.setattr(record_bench, "run_copy", run_copy)
    monkeypatch.setattr(record_bench, "archive_rev", lambda repo, rev: b"")
    monkeypatch.setattr(record_bench, "archive_worktree", lambda repo: b"")
    monkeypatch.setattr(record_bench, "count_src_lines", len)
    assert record_bench.main(["--root", str(repo), "--against", "HEAD",
                              "--pairs", "1"]) == 0
    assert ran == {"fuse-256", "train-32", "cli-fuse-64", "train-256"}


@pytest.mark.parametrize("workload", sorted(record_bench.SCRIPTS))
def test_each_script_prints_the_metrics_of_its_workload(tmp_path, workload):
    # the scripts run on a stub of the public API they call, which does
    # no work, so this checks what they print and not how long ivfuse takes
    stub = tmp_path / "src" / "ivfuse"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(
        "def init_params(seed): pass\n"
        "def fuse_images(a, b, params): pass\n"
        "def train(corpus, cfg, params): pass\n"
        "def ImagePair(*args): pass\n"
        "def PairDataset(pairs): pass\n"
        "def TrainConfig(**kwargs): pass\n")
    metrics = record_bench.time_script(str(tmp_path), workload)
    assert metrics.keys() == record_bench.STEP_METRICS[workload].keys()
    assert all(value >= 0 for value in metrics.values())
