import errno
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ivfuse.cli
import ivfuse.tensor as tensor_mod
from ivfuse.checkpoint import load_checkpoint, save_checkpoint
from ivfuse.cli import (_convert, build_parser, main, parse_config_file,
                        resolve_config)
from ivfuse.images import read_pgm, write_pgm
from ivfuse.losses import ssim as ssim_graph
from ivfuse.network import init_params
from test_network import overflowing_params, write_nan_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- config

def test_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\n"
        "seed = 5\n"
        "learning_rate = 0.001  # inline comment\n"
        "ag_mode = literal\n")
    values = parse_config_file(cfg_path)
    assert values == {"seed": 5, "learning_rate": 0.001, "ag_mode": "literal"}


def test_config_unknown_key_is_hard_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("learnig_rate = 0.1\n")
    code, _, err = run_cli(capsys, "train", "--config", str(cfg_path),
                           "--synthetic", "2", "--size", "16")
    assert code == 2
    assert "learnig_rate" in err


def test_config_bad_value_type(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("seed = banana\n")
    code, _, err = run_cli(capsys, "train", "--config", str(cfg_path),
                           "--synthetic", "2")
    assert code == 2
    assert "seed" in err


def test_config_key_set_twice_is_hard_error(tmp_path, capsys):
    cfg_path = tmp_path / "twice.cfg"
    cfg_path.write_text("seed = 1\n# comment\nseed = 2\n")
    code, _, err = run_cli(capsys, "train", "--config", str(cfg_path),
                           "--synthetic", "2", "--size", "16",
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "'seed'" in err and ":3:" in err and "line 1" in err
    assert not (tmp_path / "out").exists()


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed = 5\nbatch_size = 7\n")
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_path), "--seed", "9"])
    cfg = resolve_config(args)
    assert cfg["seed"] == 9         # flag wins
    assert cfg["batch_size"] == 7   # file wins over default
    assert cfg["epochs"] == 200     # default


def test_demo_defaults_sit_under_file_and_flags(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("image_size = 20\nbatch_size = 3\n")

    def echoed(*flags):
        # one pair has no test split: demo exits 3 after the echo, untrained
        code, out, _ = run_cli(capsys, "demo", "--config", str(cfg_path),
                               "--synthetic", "1", *flags,
                               "--out-dir", str(tmp_path / "o"))
        assert code == 3
        return {ln for ln in out.splitlines() if ln.startswith("config ")}

    lines = echoed()
    assert "config image_size = 20" in lines   # file beats the demo default
    assert "config batch_size = 3" in lines
    assert "config max_steps = 600" in lines   # demo default beats schema's
    assert "config learning_rate = 0.001" in lines
    lines = echoed("--size", "24")
    assert "config image_size = 24" in lines   # flag beats the file
    assert "config batch_size = 3" in lines


def _readme_defaults() -> dict:
    """Key -> default, parsed from the README's table of config keys."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key | default | meaning |", 1)[1].split("\n\n")[0]
    found = {}
    for row in table.strip().splitlines()[1:]:
        keys, defaults = row.split("|")[1:3]
        keys = [k.strip(" `") for k in keys.split(",")]
        defaults = [d.strip(" `") for d in defaults.split(",")]
        if len(defaults) == 1:   # one default shared by every key
            defaults *= len(keys)
        for key, raw in zip(keys, defaults, strict=True):
            found[key] = None if raw == "none" else _convert(key, raw)
    return found


def test_readme_key_table_matches_resolved_defaults():
    defaults = resolve_config(build_parser().parse_args(["train"]))
    assert _readme_defaults() == defaults


def test_config_echoed_before_work(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, out, _ = run_cli(capsys, "train", "--synthetic", "2", "--size", "16",
                           "--steps", "1", "--seed", "3",
                           "--out-dir", str(out_dir))
    assert code == 0
    lines = out.splitlines()
    config_lines = [ln for ln in lines if ln.startswith("config ")]
    assert "config seed = 3" in config_lines
    assert "config image_size = 16" in config_lines
    # echo precedes any result output
    assert lines.index("config a1 = 0.7") < len(config_lines)


# ------------------------------------------------------------------ train

def test_train_synthetic_deterministic(tmp_path, capsys):
    outs = []
    for run in range(2):
        out_dir = tmp_path / f"r{run}"
        code, _, _ = run_cli(capsys, "train", "--synthetic", "2",
                             "--size", "16", "--steps", "3", "--seed", "7",
                             "--out-dir", str(out_dir))
        assert code == 0
        outs.append(((out_dir / "checkpoint.hfn").read_bytes(),
                     (out_dir / "training_log.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_train_zero_lr_checkpoint_equals_init(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, _, _ = run_cli(capsys, "train", "--synthetic", "2", "--size", "16",
                         "--steps", "2", "--seed", "11", "--lr", "0",
                         "--out-dir", str(out_dir))
    assert code == 0
    loaded = load_checkpoint(out_dir / "checkpoint.hfn")
    init = init_params(11, dtype=np.float32)
    for name in loaded.tensors:
        assert np.array_equal(loaded.tensors[name].data,
                              init.tensors[name].data)


def test_train_missing_dir_exit3(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--ir-dir", str(tmp_path / "ir"),
                           "--vis-dir", str(tmp_path / "vis"))
    assert code == 3
    assert "ir" in err


def test_train_needs_corpus_exit2(capsys):
    code, _, err = run_cli(capsys, "train")
    assert code == 2


_TINY = ["--synthetic", "2", "--size", "16", "--steps", "1"]


@pytest.mark.parametrize("argv, code, message", [
    (["train", "--synthetic", "0"], 2, "synthetic"),
    (["train", "--synthetic", "-2"], 2, "synthetic"),
    (["train", "--synthetic", "4", "--size", "0"], 2, "image_size"),
    (["demo", "--synthetic", "0", "--size", "16", "--steps", "1"], 2,
     "synthetic"),
    (["demo", "--synthetic", "1", "--size", "16", "--steps", "1"], 3,
     "no test split"),
    (["train", "--synthetic", "2", "--size", "16", "--steps", "0"], 2,
     "max_steps"),
    (["train", *_TINY, "--stop-rmse", "0.5", "--eval-interval", "0"], 2,
     "eval_interval"),
    (["train", *_TINY, "--adam-eps", "-1"], 2, "adam_eps"),
    (["train", *_TINY, "--beta1", "1"], 2, "beta1"),
    (["train", *_TINY, "--beta2", "1"], 2, "beta2"),
    (["train", *_TINY, "--ssim-sigma", "0"], 2, "ssim_sigma"),
    (["train", *_TINY, "--lr", "nan"], 2, "learning_rate"),
    (["train", *_TINY, "--stop-rmse", "-1"], 2, "stop_rmse"),
    (["gradcheck", "--n-seeds", "0"], 2, "n_seeds"),
    (["train", "--synthetic", "2", "--size", "5", "--steps", "1"], 2,
     "image_size (5) is smaller than the 11-wide ssim window (ssim_window)"),
    (["train", *_TINY, "--ssim-window", "41"], 2, "41-wide ssim window"),
    (["demo", "--size", "8", "--steps", "1"], 2, "ssim_window"),
    # training fits a 5-wide window, but the report's metrics use 11
    (["demo", "--size", "8", "--ssim-window", "5", "--steps", "1"], 2,
     "11-wide ssim window"),
    (["train", *_TINY, "--seed", "-1"], 2, "seed must be >= 0"),
    (["eval", "--checkpoint", "{ckpt}", "--synthetic", "2", "--size", "16",
      "--seed", "-3"], 2, "seed must be >= 0"),
    (["gradcheck", "--seed", "-1"], 2, "seed must be >= 0"),
    (["demo", *_TINY, "--seed", "-1"], 2, "seed must be >= 0"),
    (["train", *_TINY, "--adam-eps", "inf"], 2, "adam_eps"),
    (["train", *_TINY, "--ag-weight", "nan"], 2, "ag_weight"),
    (["train", *_TINY, "--ag-weight", "inf"], 2, "ag_weight"),
    (["train", *_TINY, "--ag-weight", "-1"], 2, "ag_weight"),
    (["train", *_TINY, "--ssim-weight", "-1"], 2, "ssim_weight"),
    (["train", *_TINY, "--ssim-weight", "nan"], 2, "ssim_weight"),
])
def test_bad_value_exits_with_its_code_and_writes_nothing(tmp_path, capsys,
                                                         trained, argv, code,
                                                         message):
    out_dir = tmp_path / "out"
    argv = [a.format(ckpt=trained) for a in argv]
    if argv[0] != "gradcheck":
        argv = argv + ["--out-dir", str(out_dir)]
    got, _, err = run_cli(capsys, *argv)
    assert got == code
    assert message in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["fuse", "a.pgm", "a.pgm", "folder", "--checkpoint", "{ckpt}"],
     "folder"),
    (["fuse", "a.pgm", "a.pgm", "folder/", "--checkpoint", "{ckpt}"],
     "folder/"),
    (["fuse", "a.pgm", "a.pgm", "plain/x.pgm", "--checkpoint", "{ckpt}"],
     "plain/x.pgm"),
    (["fuse", "a.pgm", "a.pgm", "plain/sub/x.pgm", "--checkpoint", "{ckpt}"],
     "plain/sub/x.pgm"),
    (["train", "--synthetic", "2", "--size", "16", "--steps", "2",
      "--out-dir", "plain"], "plain"),
    (["eval", "--checkpoint", "{ckpt}", "--synthetic", "2", "--size", "16",
      "--out-dir", "plain"], "plain"),
    (["demo", "--synthetic", "2", "--size", "16", "--steps", "2",
      "--out-dir", "plain"], "plain"),
    (["demo", "--synthetic", "2", "--size", "16", "--steps", "2",
      "--out-dir", "."], "_fused.pgm is a directory"),
    (["train", "--synthetic", "2", "--size", "16", "--steps", "2",
      "--out-dir", ""], "out_dir"),
    (["eval", "--checkpoint", "{ckpt}", "--synthetic", "2", "--size", "16",
      "--out-dir", ""], "out_dir"),
    (["demo", "--synthetic", "2", "--size", "16", "--steps", "2",
      "--out-dir", ""], "out_dir"),
])
def test_bad_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                 trained, argv, named):
    # "folder" and the fused images' names are directories, "plain" a file
    monkeypatch.chdir(tmp_path)
    write_pgm(tmp_path / "a.pgm", np.zeros((16, 16)))
    (tmp_path / "folder").mkdir()
    (tmp_path / "pair000_fused.pgm").mkdir()
    (tmp_path / "pair001_fused.pgm").mkdir()
    (tmp_path / "plain").write_bytes(b"")
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, *(a.format(ckpt=trained) for a in argv))
    assert code == 2
    assert named in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "plain").read_bytes() == b""
    # no training ran and no report was made
    assert not [ln for ln in out.splitlines()
                if ln.startswith(("trained ", "corpus: "))]


def test_fuse_writes_an_output_name_as_long_as_the_filesystem_takes(
        tmp_path, capsys, trained):
    # the temporary file's name used to be 22 bytes longer than the output's
    a_path = tmp_path / "a.pgm"
    write_pgm(a_path, np.random.default_rng(3).uniform(0, 1, (16, 16)))
    out = tmp_path / ("z" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 4) + ".pgm")
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(a_path), str(out),
                           "--checkpoint", str(trained))
    assert code == 0, err
    assert read_pgm(out).shape == (16, 16)
    assert sorted(os.listdir(tmp_path)) == sorted(["a.pgm", out.name])


def test_fuse_to_a_name_the_os_refuses_exits_2_naming_it(tmp_path, capsys,
                                                         trained):
    a_path = tmp_path / "a.pgm"
    write_pgm(a_path, np.random.default_rng(3).uniform(0, 1, (16, 16)))
    out = tmp_path / ("z" * os.pathconf(tmp_path, "PC_NAME_MAX") + ".pgm")
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(a_path), str(out),
                           "--checkpoint", str(trained))
    assert code == 2
    assert f"{out}: {os.strerror(errno.ENAMETOOLONG)}" in err
    assert os.listdir(tmp_path) == ["a.pgm"]


@pytest.mark.parametrize("verb", ["train", "demo"])
def test_an_out_dir_the_os_refuses_exits_2_before_training(
        tmp_path, capsys, monkeypatch, verb):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the out_dir was checked")

    monkeypatch.setattr(ivfuse.cli, "train", no_training)
    out_dir = tmp_path / "new" / ("d" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
    code, _, err = run_cli(capsys, verb, "--synthetic", "4", "--size", "16",
                           "--steps", "1", "--out-dir", str(out_dir))
    assert code == 2
    assert f"{out_dir}: {os.strerror(errno.ENAMETOOLONG)}" in err
    assert os.listdir(tmp_path) == []   # "new" was made and removed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit4(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--synthetic", "2", "--size", "16",
                           "--steps", "40", "--lr", "1e10", "--seed", "5",
                           "--out-dir", str(tmp_path))
    assert code == 4
    assert "epoch" in err and "step" in err


def test_train_weights_that_overflow_exit4_and_save_nothing(tmp_path, capsys):
    code, out, err = run_cli(capsys, "train", "--synthetic", "4", "--size",
                             "16", "--ssim-window", "3", "--batch-size", "4",
                             "--steps", "1", "--lr", "1e39",
                             "--out-dir", str(tmp_path / "out"))
    assert code == 4, out
    assert "epoch 1, step 0: encoder.c1.weight" in err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- fuse

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny trained checkpoint shared by the fuse/eval tests."""
    out_dir = tmp_path_factory.mktemp("trained")
    code = main(["train", "--synthetic", "2", "--size", "16", "--steps", "4",
                 "--seed", "5", "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir / "checkpoint.hfn"


def test_fuse_swapped_inputs_identical_output(tmp_path, capsys, trained):
    rng = np.random.default_rng(0)
    a_path, b_path = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a_path, rng.uniform(0, 1, (16, 16)))
    write_pgm(b_path, rng.uniform(0, 1, (16, 16)))
    out1, out2 = tmp_path / "f1.pgm", tmp_path / "f2.pgm"
    code1, _, _ = run_cli(capsys, "fuse", str(a_path), str(b_path), str(out1),
                          "--checkpoint", str(trained))
    code2, _, _ = run_cli(capsys, "fuse", str(b_path), str(a_path), str(out2),
                          "--checkpoint", str(trained))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert read_pgm(out1).shape == (16, 16)


def test_fuse_ignores_empty_out_dir(tmp_path, capsys, trained):
    # fuse writes to its positional path, never under out_dir
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("out_dir =\n")
    a_path, out = tmp_path / "a.pgm", tmp_path / "f.pgm"
    write_pgm(a_path, np.random.default_rng(2).uniform(0, 1, (16, 16)))
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(a_path), str(out),
                           "--checkpoint", str(trained),
                           "--config", str(cfg_path))
    assert code == 0, err
    assert read_pgm(out).shape == (16, 16)


def test_fuse_pair_with_itself_reports_ssim_to_source(tmp_path, capsys, trained):
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (16, 16))
    a_path = tmp_path / "a.pgm"
    write_pgm(a_path, img)
    out = tmp_path / "f.pgm"
    code, stdout, _ = run_cli(capsys, "fuse", str(a_path), str(a_path),
                              str(out), "--checkpoint", str(trained))
    assert code == 0
    line = [ln for ln in stdout.splitlines() if ln.startswith("metrics ")][0]
    vals = dict(kv.split("=") for kv in line.split()[1:])
    # duplicate reference: the reported two-reference ssim equals the
    # plain ssim of the (unquantized) fused image against the source
    from ivfuse.network import FeedbackConfig, fuse_images
    params = load_checkpoint(trained)
    src = read_pgm(a_path)
    fused = fuse_images(src, src, params, FeedbackConfig(4))
    want = float(ssim_graph(fused, src).data)
    assert float(vals["ssim"]) == pytest.approx(want, abs=1e-6)


def test_fuse_size_mismatch_exit6(tmp_path, capsys, trained):
    a_path, b_path = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(a_path, np.zeros((16, 16)))
    write_pgm(b_path, np.zeros((16, 17)))
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(b_path),
                           str(tmp_path / "f.pgm"), "--checkpoint", str(trained))
    assert code == 6
    assert "mismatch" in err


def test_fuse_pair_below_ssim_window_exit6_writes_nothing(tmp_path, capsys,
                                                         trained):
    a_path = tmp_path / "a.pgm"
    write_pgm(a_path, np.random.default_rng(2).uniform(0, 1, (8, 8)))
    out = tmp_path / "f.pgm"
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(a_path), str(out),
                           "--checkpoint", str(trained))
    assert code == 6
    assert "11" in err and "window" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, named", [
    (["fuse", "{img}", "{img}", "{out}", "--checkpoint", "{missing}"], 5,
     "{missing}"),
    (["fuse", "{img}", "{img}", "{out}", "--checkpoint", "{dir}"], 5, "{dir}"),
    (["eval", "--checkpoint", "{missing}", "--synthetic", "2", "--size", "16",
      "--out-dir", "{out_dir}"], 5, "{missing}"),
    (["fuse", "{missing}", "{img}", "{out}", "--checkpoint", "{ckpt}"], 3,
     "{missing}"),
    (["fuse", "{img}", "{dir}", "{out}", "--checkpoint", "{ckpt}"], 3, "{dir}"),
    (["fuse", "{png}", "{img}", "{out}", "--checkpoint", "{ckpt}"], 3, "{png}"),
    (["train", "--ir-dir", "{ir_dir}", "--vis-dir", "{vis_dir}", "--size",
      "16", "--steps", "1", "--out-dir", "{out_dir}"], 3, "{ir_dir}/face.png"),
    (["fuse", "{comment}", "{img}", "{out}", "--checkpoint", "{ckpt}"], 3,
     "{comment}"),
])
def test_unreadable_file_exits_with_its_code_naming_it(tmp_path, capsys,
                                                       trained, argv, code,
                                                       named):
    where = {"img": tmp_path / "a.pgm", "out": tmp_path / "out" / "f.pgm",
             "out_dir": tmp_path / "out", "missing": tmp_path / "gone.pgm",
             "dir": tmp_path / "folder.pgm", "ckpt": trained,
             "png": tmp_path / "photo.png", "ir_dir": tmp_path / "ir",
             "vis_dir": tmp_path / "vis", "comment": tmp_path / "comment.pgm"}
    write_pgm(where["img"], np.zeros((16, 16)))
    # a comment right after maxval, where one whitespace byte must be
    where["comment"].write_bytes(b"P5\n16 16\n255#c\n" + bytes(256))
    where["dir"].mkdir()
    # PNG is not read: a file is PGM by its P5 content, not by its name
    png = b"\x89PNG\r\n\x1a\n" + bytes(64)
    where["png"].write_bytes(png)
    for d in ("ir_dir", "vis_dir"):
        where[d].mkdir()
        (where[d] / "face.png").write_bytes(png)
    got, _, err = run_cli(capsys, *(a.format(**where) for a in argv))
    assert got == code
    assert named.format(**where) in err
    assert not where["out_dir"].exists()


def test_fuse_reads_a_pgm_whatever_its_name(tmp_path, capsys, trained):
    img = np.random.default_rng(3).uniform(0, 1, (16, 16))
    runs = []
    for name in ("x.pgm", "x.png"):
        src, out = tmp_path / name, tmp_path / f"fused-{name}"
        write_pgm(src, img)
        code, stdout, err = run_cli(capsys, "fuse", str(src), str(src),
                                    str(out), "--checkpoint", str(trained))
        assert code == 0, err
        metrics = [ln for ln in stdout.splitlines() if ln.startswith("metrics ")]
        assert len(metrics) == 1
        runs.append((out.read_bytes(), metrics))
    assert runs[0] == runs[1]


def test_eval_below_metric_window_exit2_writes_nothing(tmp_path, capsys,
                                                       trained):
    out_dir = tmp_path / "ev"
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(trained),
                           "--synthetic", "2", "--size", "8",
                           "--out-dir", str(out_dir))
    assert code == 2
    assert "image_size (8)" in err and "ssim_window" in err
    assert not out_dir.exists()


def test_fuse_corrupt_checkpoint_exit5(tmp_path, capsys):
    bad = tmp_path / "bad.hfn"
    bad.write_bytes(b"JUNKJUNKJUNK")
    a_path = tmp_path / "a.pgm"
    write_pgm(a_path, np.zeros((16, 16)))
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(a_path),
                           str(tmp_path / "f.pgm"), "--checkpoint", str(bad))
    assert code == 5


def test_fuse_non_finite_checkpoint_exit5(tmp_path, capsys):
    bad = tmp_path / "nan.hfn"
    write_nan_checkpoint(bad, init_params(3), "decoder.c5.bias")
    a_path = tmp_path / "a.pgm"
    write_pgm(a_path, np.zeros((16, 16)))
    out = tmp_path / "f.pgm"
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(a_path), str(out),
                           "--checkpoint", str(bad))
    assert code == 5
    assert "decoder.c5.bias" in err
    assert not out.exists()


@pytest.mark.parametrize("signed", [True, False])
def test_overflowing_checkpoint_exit5_writes_nothing(tmp_path, capsys, signed):
    # finite weights that load, but whose fusion is NaN (mixed signs) or
    # overflows to inf (all positive): fuse and eval name the checkpoint
    bad = tmp_path / "huge.hfn"
    save_checkpoint(overflowing_params(signed), bad)
    a_path, out = tmp_path / "a.pgm", tmp_path / "f.pgm"
    write_pgm(a_path, np.random.default_rng(4).uniform(0, 1, (16, 16)))
    code, stdout, err = run_cli(capsys, "fuse", str(a_path), str(a_path),
                                str(out), "--checkpoint", str(bad))
    assert code == 5, stdout
    assert str(bad) in err and "not finite" in err
    assert not out.exists()
    out_dir = tmp_path / "ev"
    code, stdout, err = run_cli(capsys, "eval", "--checkpoint", str(bad),
                                "--synthetic", "2", "--size", "16",
                                "--out-dir", str(out_dir))
    assert code == 5, stdout
    assert str(bad) in err and "not finite" in err
    assert not out_dir.exists()


def test_fuse_wrong_schema_checkpoint_exit5(tmp_path, capsys, trained):
    blob = trained.read_bytes().replace(
        b"encoder.c1.weight f32 16,1,3,3", b"encoder.c1.weight f32 8,1,3,3", 1)
    bad = tmp_path / "schema.hfn"
    bad.write_bytes(blob)
    a_path = tmp_path / "a.pgm"
    write_pgm(a_path, np.zeros((16, 16)))
    code, _, err = run_cli(capsys, "fuse", str(a_path), str(a_path),
                           str(tmp_path / "f.pgm"), "--checkpoint", str(bad))
    assert code == 5
    assert "16, 1, 3, 3" in err


# ------------------------------------------------------------------- eval

def test_eval_single_pair_mean_equals_row(tmp_path, capsys, trained):
    out_dir = tmp_path / "ev"
    code, _, _ = run_cli(capsys, "eval", "--checkpoint", str(trained),
                         "--synthetic", "2", "--size", "16", "--seed", "5",
                         "--out-dir", str(out_dir))
    assert code == 0
    lines = (out_dir / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "pair_id,en,qabf,ssim,psnr"
    assert len(lines) == 2  # 2-pair corpus has a single test pair
    report_txt = (out_dir / "report.txt").read_text()
    row_vals = lines[1].split(",")[1:]
    for v in row_vals:
        assert np.isfinite(float(v))
    assert "mean" in report_txt


def test_eval_deterministic(tmp_path, capsys, trained):
    texts = []
    for run in range(2):
        out_dir = tmp_path / f"ev{run}"
        code, _, _ = run_cli(capsys, "eval", "--checkpoint", str(trained),
                             "--synthetic", "3", "--size", "16", "--seed", "5",
                             "--out-dir", str(out_dir))
        assert code == 0
        texts.append((out_dir / "report.csv").read_bytes()
                     + (out_dir / "report.txt").read_bytes())
    assert texts[0] == texts[1]


def test_eval_corpus_means_match_hand_average(tmp_path, capsys, trained):
    out_dir = tmp_path / "ev"
    code, _, _ = run_cli(capsys, "eval", "--checkpoint", str(trained),
                         "--synthetic", "8", "--size", "16", "--seed", "2",
                         "--out-dir", str(out_dir))
    assert code == 0
    lines = (out_dir / "report.csv").read_text().strip().splitlines()[1:]
    cols = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines])
    means = cols.mean(axis=0)
    table = (out_dir / "report.txt").read_text().splitlines()
    mean_cells = [float(v) for v in table[-1].split()[1:]]
    # table cells print at 4 decimals, csv rows at 6
    assert np.abs(np.array(mean_cells) - means).max() < 1e-4


# -------------------------------------------------------------- gradcheck

def test_gradcheck_quick_pass(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--seed", "0", "--n-seeds", "1")
    assert code == 0
    assert "pipeline" in out
    assert "PASS" in out


def _one_nan(g):
    g = g.copy()
    g.flat[0] = np.nan
    return g


def test_gradcheck_corrupted_adjoint_fails_naming_op(capsys, monkeypatch):
    # a wrong adjoint, one NaN entry and an all-NaN gradient each fail
    original = tensor_mod.Tensor.relu
    for corrupt in (lambda g: g * 1.01, _one_nan,
                    lambda g: np.full_like(g, np.nan)):
        def broken_relu(self, corrupt=corrupt):
            out = original(self)
            inner = out._backward

            def backward(g):
                inner(corrupt(g))

            out._backward = backward
            return out

        monkeypatch.setattr(tensor_mod.Tensor, "relu", broken_relu)
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "0",
                                 "--n-seeds", "1")
        assert code == 1
        assert "relu" in err


def test_gradcheck_repeatable(capsys):
    _, out1, _ = run_cli(capsys, "gradcheck", "--seed", "3", "--n-seeds", "1")
    _, out2, _ = run_cli(capsys, "gradcheck", "--seed", "3", "--n-seeds", "1")
    lines1 = [ln for ln in out1.splitlines() if "worst rel err" in ln]
    lines2 = [ln for ln in out2.splitlines() if "worst rel err" in ln]
    assert lines1 == lines2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_exits_141_with_no_traceback(unbuffered):
    # `ivfuse gradcheck | head -1`, with the reader gone before any output:
    # unbuffered, the first print fails; buffered, the flush at exit does
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivfuse.cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ivfuse", "gradcheck", "--n-seeds", "1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


# Address space for the out-of-memory runs, set in the child alone: numpy
# and OpenBLAS start in it, but none of the arrays below fits.
ADDRESS_SPACE = 1500 * 2 ** 20


@pytest.mark.parametrize("verb", ["eval", "train", "fuse"])
def test_out_of_memory_exits_7_naming_the_verb_and_the_size(tmp_path, verb):
    # eval: two 40000x40000 float64 images, 11.9 GiB each; train: 8192x8192,
    # 512 MiB each; fuse: a 4096x4096 pair, whose decoder.c2 map is 4 GiB
    checkpoint = tmp_path / "ck.hfn"
    save_checkpoint(init_params(0), checkpoint)
    argv = {"eval": ["eval", "--synthetic", "2", "--image-size", "40000",
                     "--checkpoint", str(checkpoint)],
            "train": ["train", "--synthetic", "2", "--image-size", "8192",
                      "--batch-size", "4", "--max-steps", "1"],
            "fuse": ["fuse", str(tmp_path / "ir.pgm"), str(tmp_path / "vis.pgm"),
                     str(tmp_path / "fused.pgm"), "--checkpoint", str(checkpoint)]}
    for name in ("ir.pgm", "vis.pgm"):
        (tmp_path / name).write_bytes(b"P5\n4096 4096\n255\n" + bytes(4096 ** 2))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivfuse.cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ivfuse", *argv[verb]], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src), text=True, capture_output=True,
        timeout=300, preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE)))
    assert proc.returncode == 7, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    message = proc.stderr.strip().splitlines()[-1]
    assert message.startswith(f"out of memory in {verb}: ")
    assert re.search(r"Unable to allocate [\d.]+ [KMGT]iB .* shape \(", message)
    assert not (tmp_path / "fused.pgm").exists()


# ------------------------------------------------------------------- demo

def test_demo_tiny_smoke(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    code, out, _ = run_cli(capsys, "demo", "--seed", "1", "--synthetic", "2",
                           "--size", "16", "--steps", "3",
                           "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "checkpoint.hfn").exists()
    assert (out_dir / "report.csv").exists()
    fused = sorted(out_dir.glob("*_fused.pgm"))
    assert len(fused) >= 1
    lines = (out_dir / "report.csv").read_text().strip().splitlines()[1:]
    for ln in lines:
        for v in ln.split(",")[1:]:
            assert np.isfinite(float(v))
