"""Command line entry point.

Verbs: ``train``, ``fuse``, ``eval``, ``gradcheck``, ``demo``. Options
come from a flat ``key = value`` config file (``--config``) overridden by
command-line flags; unknown keys are hard errors, and every command echoes
its fully resolved configuration before doing any work. Environment
variables are never consulted.

Exit codes: 0 success; 1 gradient check failure; 2 configuration error,
or a path the OS refuses; 3 ingestion error; 4 training divergence; 5
checkpoint format/schema error, or weights whose fusion is not finite; 6
image size mismatch; 7 out of memory, naming the verb and, for an array
numpy could not allocate, its size and shape; 141 (128 + SIGPIPE)
standard output closed by its reader, as ``| head`` does, which ends the
run with no message.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from contextlib import contextmanager

from . import images
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import load_dataset, synth_corpus
from .errors import (CheckpointFormatError, CheckpointSchemaError,
                     ConfigError, DivergenceError, DomainError,
                     IngestionError, ShapeError)
from .gradcheck import run_gradient_checks
from .images import write_pgm
from .losses import LossConfig
from .metrics import SSIM_CONFIG, evaluate_corpus, measure_triple
from .network import FeedbackConfig, PreFusionConfig, fuse_images
from .training import TrainConfig, train

EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_INGESTION = 3
EXIT_DIVERGENCE = 4
EXIT_CHECKPOINT = 5
EXIT_SIZE_MISMATCH = 6
EXIT_OUT_OF_MEMORY = 7
EXIT_BROKEN_PIPE = 141   # what a shell reports for a process SIGPIPE killed

_TRAIN = TrainConfig()
# Every accepted config key with its type and default; the library-backed
# defaults are read from the config dataclasses. Flag names mirror the
# keys; a handful of short aliases (--lr, --size, --steps) match the
# documented usage.
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, _TRAIN.seed),
    "learning_rate": (float, _TRAIN.learning_rate),
    "batch_size": (int, _TRAIN.batch_size),
    "epochs": (int, _TRAIN.epochs),
    "max_steps": (int, _TRAIN.max_steps),
    "image_size": (int, 256),
    "a1": (float, _TRAIN.pre_fusion.a1),
    "ssim_weight": (float, _TRAIN.loss.ssim_weight),
    "ag_weight": (float, _TRAIN.loss.ag_weight),
    "ssim_window": (int, _TRAIN.loss.ssim_window),
    "ssim_sigma": (float, _TRAIN.loss.ssim_sigma),
    "ag_mode": (str, _TRAIN.loss.ag_mode),
    "pixel_mode": (str, _TRAIN.loss.pixel_mode),
    "n_feedback": (int, _TRAIN.feedback.n_iterations),
    "optimizer": (str, _TRAIN.optimizer),
    "beta1": (float, _TRAIN.beta1),
    "beta2": (float, _TRAIN.beta2),
    "adam_eps": (float, _TRAIN.adam_eps),
    "stop_rmse": (float, _TRAIN.stop_rmse),
    "eval_interval": (int, _TRAIN.eval_interval),
    "synthetic": (int, None),
    "ir_dir": (str, None),
    "vis_dir": (str, None),
    "checkpoint": (str, None),
    "out_dir": (str, "."),
    "pre_fuse_at_test": (bool, False),
}

# Desk-scale defaults that demo puts under the config file and the flags.
DEMO_DEFAULTS = {"image_size": 32, "synthetic": 6, "learning_rate": 1e-3,
                 "batch_size": 4, "max_steps": 600, "stop_rmse": 0.03,
                 "eval_interval": 25, "epochs": 10 ** 6}
TRAIN_FILES = ("checkpoint.hfn", "training_log.csv")
REPORT_FILES = ("report.txt", "report.csv")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _convert(key: str, raw: str):
    typ, _ = CONFIG_SCHEMA[key]
    try:
        if typ is bool:
            return _parse_bool(raw)
        return typ(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"config key {key!r} expects {typ.__name__}, got {raw!r}") from None


def parse_config_file(path) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    values, set_on = {}, {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (s.strip() for s in text.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is "
                              f"already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = _convert(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- DEMO_DEFAULTS (demo only) <- config file <- flags."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if args.command == "demo":
        cfg.update(DEMO_DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    for key in CONFIG_SCHEMA:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def echo_config(cfg: dict) -> None:
    for key in sorted(cfg):
        print(f"config {key} = {cfg[key]}")


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg["learning_rate"], batch_size=cfg["batch_size"],
        epochs=cfg["epochs"], seed=cfg["seed"],
        pre_fusion=PreFusionConfig(cfg["a1"]),
        loss=LossConfig(ssim_weight=cfg["ssim_weight"],
                        ag_weight=cfg["ag_weight"],
                        ssim_window=cfg["ssim_window"],
                        ssim_sigma=cfg["ssim_sigma"], ag_mode=cfg["ag_mode"],
                        pixel_mode=cfg["pixel_mode"]),
        feedback=FeedbackConfig(cfg["n_feedback"]), optimizer=cfg["optimizer"],
        beta1=cfg["beta1"], beta2=cfg["beta2"], adam_eps=cfg["adam_eps"],
        max_steps=cfg["max_steps"], stop_rmse=cfg["stop_rmse"],
        eval_interval=cfg["eval_interval"])


def _load_corpus(cfg: dict, ssim_window: int):
    """Build the configured corpus, once its image size is known to fit
    the ``ssim_window`` that will score it."""
    if cfg["image_size"] < ssim_window:
        raise ConfigError(
            f"image_size ({cfg['image_size']}) is smaller than the "
            f"{ssim_window}-wide ssim window (ssim_window)")
    if cfg["synthetic"] is not None:
        return synth_corpus(cfg["synthetic"], cfg["image_size"], cfg["seed"])
    if not cfg["ir_dir"] or not cfg["vis_dir"]:
        raise ConfigError(
            "need either --synthetic N or both --ir-dir and --vis-dir")
    return load_dataset(cfg["ir_dir"], cfg["vis_dir"], cfg["image_size"],
                        cfg["seed"])


def _test_pairs(corpus):
    pairs = corpus.test_pairs()
    if not pairs:
        raise IngestionError("corpus has no test split to evaluate")
    return pairs


def _check_outputs(out_dir: str, *names: str) -> None:
    """Raise ConfigError unless every ``out_dir/name`` can be written as a
    file: it is no directory, and its nearest existing ancestor is one.
    Verbs check before any work, so a bad path writes nothing."""
    for path in (os.path.join(out_dir, name) for name in names):
        parent = os.path.dirname(path) or "."
        while not os.path.lexists(parent):
            parent = os.path.dirname(parent) or "."
        if os.path.isdir(path) or not os.path.basename(path):
            raise ConfigError(f"output path {path} is a directory")
        if not os.path.isdir(parent):
            raise ConfigError(
                f"cannot write {path}: {parent} is not a directory")


def _check_out_dir(out_dir: str, *names: str) -> None:
    """_check_outputs for the verbs that write under ``out_dir``. A missing
    ``out_dir`` is made and removed again, so one that the OS will not make
    fails here too, and the check leaves nothing behind."""
    if not out_dir:
        raise ConfigError("out_dir is empty; name a directory, such as '.'")
    _check_outputs(out_dir, *names)
    top, parent = None, out_dir   # top: the outermost missing directory
    while not os.path.lexists(parent):
        top, parent = parent, os.path.dirname(parent) or "."
    if top is not None:
        try:
            os.makedirs(out_dir)
        finally:
            shutil.rmtree(top, ignore_errors=True)


@contextmanager
def _fusing_with(checkpoint: str):
    """Report a non-finite fusion as an error of ``checkpoint``: the verbs
    fuse images in [0, 1], so its weights are at fault."""
    try:
        yield
    except DomainError as exc:
        raise CheckpointSchemaError(f"{checkpoint}: {exc}") from None


def _save_training(out_dir: str, params, log) -> list[str]:
    paths = [os.path.join(out_dir, name) for name in TRAIN_FILES]
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(params, paths[0])
    log.save(paths[1])
    return paths


def _save_report(out_dir: str, report) -> list[str]:
    paths = [os.path.join(out_dir, name) for name in REPORT_FILES]
    os.makedirs(out_dir, exist_ok=True)
    report.save(*paths)
    print(report.table_text(), end="")
    return paths


def cmd_train(cfg: dict) -> int:
    _check_out_dir(cfg["out_dir"], *TRAIN_FILES)
    train_cfg = _train_config(cfg)
    params, log = train(_load_corpus(cfg, train_cfg.loss.ssim_window),
                        train_cfg)
    paths = _save_training(cfg["out_dir"], params, log)
    print(f"trained {len(log.rows)} steps; final loss {log.rows[-1][2]:.6f}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def cmd_fuse(cfg: dict, ir_path: str, vis_path: str, out_path: str) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("fuse requires --checkpoint")
    _check_outputs("", out_path)
    params = load_checkpoint(cfg["checkpoint"])
    # looked up on the module, so a wrapper installed on images.read_pgm applies
    ir, vis = images.read_pgm(ir_path), images.read_pgm(vis_path)
    if ir.shape != vis.shape:
        raise ShapeError(
            f"image size mismatch: {ir_path} is {ir.shape}, "
            f"{vis_path} is {vis.shape}")
    pre = PreFusionConfig(cfg["a1"]) if cfg["pre_fuse_at_test"] else None
    with _fusing_with(cfg["checkpoint"]):
        fused = fuse_images(ir, vis, params,
                            FeedbackConfig(cfg["n_feedback"]), pre_fusion=pre)
    # the metrics reject pairs smaller than the ssim window; do that
    # before anything is written
    row = measure_triple(ir, vis, fused)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    write_pgm(out_path, fused)
    print(f"wrote {out_path}")
    print(f"metrics en={row.en:.6f} qabf={row.qabf:.6f} "
          f"ssim={row.ssim:.6f} psnr={row.psnr:.6f}")
    return 0


def cmd_eval(cfg: dict) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("eval requires --checkpoint")
    _check_out_dir(cfg["out_dir"], *REPORT_FILES)
    params = load_checkpoint(cfg["checkpoint"])
    pairs = _test_pairs(_load_corpus(cfg, SSIM_CONFIG.ssim_window))
    with _fusing_with(cfg["checkpoint"]):
        report = evaluate_corpus(
            pairs, params, FeedbackConfig(cfg["n_feedback"]),
            corpus="synthetic" if cfg["synthetic"] else "files")
    for path in _save_report(cfg["out_dir"], report):
        print(f"wrote {path}")
    return 0


def cmd_gradcheck(cfg: dict, n_seeds: int) -> int:
    results = run_gradient_checks(seed=cfg["seed"], n_seeds=n_seeds)
    for r in results:
        print(r.line())
    if all(r.passed for r in results):
        print("gradcheck: all components passed")
        return 0
    failed = ", ".join(r.name for r in results if not r.passed)
    print(f"gradcheck: FAILED components: {failed}", file=sys.stderr)
    return EXIT_GRADCHECK


def cmd_demo(cfg: dict) -> int:
    """Synthetic corpus, desk-scale training, fusion of the test pairs,
    and a metric report; everything deterministic in the seed."""
    out_dir = cfg["out_dir"]
    train_cfg = _train_config(cfg)
    # the images must fit both the loss's window and the metrics' window
    window = max(train_cfg.loss.ssim_window, SSIM_CONFIG.ssim_window)
    corpus = _load_corpus(cfg, window)
    test_pairs = _test_pairs(corpus)
    _check_out_dir(out_dir, *TRAIN_FILES, *REPORT_FILES,
                   *(f"{p.name}_fused.pgm" for p in test_pairs))
    params, log = train(corpus, train_cfg)
    checkpoint, _ = _save_training(out_dir, params, log)

    def sink(name, fused):
        write_pgm(os.path.join(out_dir, f"{name}_fused.pgm"), fused)

    with _fusing_with(checkpoint):
        report = evaluate_corpus(test_pairs, params, train_cfg.feedback,
                                 corpus="synthetic-demo", fused_sink=sink)
    _save_report(out_dir, report)
    print(f"demo artifacts in {out_dir}: checkpoint.hfn, training_log.csv, "
          f"report.txt, report.csv, {len(report.rows)} fused image(s)")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, keys: list[str]) -> None:
    p.add_argument("--config")
    aliases = {"learning_rate": ["--lr"], "image_size": ["--size"],
               "max_steps": ["--steps"]}
    for key in keys:
        typ, _ = CONFIG_SCHEMA[key]
        names = ["--" + key.replace("_", "-")] + aliases.get(key, [])
        if typ is bool:
            p.add_argument(*names, dest=key, action="store_const", const=True,
                           default=None)
        else:
            p.add_argument(*names, dest=key, type=typ, default=None)


_TRAIN_KEYS = [key for key in CONFIG_SCHEMA
               if key not in ("checkpoint", "pre_fuse_at_test")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivfuse",
        description="Infrared/visible image fusion: train, fuse, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a corpus or synthetic pairs")
    _add_config_flags(p_train, _TRAIN_KEYS)

    p_fuse = sub.add_parser("fuse", help="fuse one registered pair")
    p_fuse.add_argument("infrared")
    p_fuse.add_argument("visible")
    p_fuse.add_argument("output")
    _add_config_flags(p_fuse, ["checkpoint", "n_feedback", "a1",
                               "pre_fuse_at_test"])

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    _add_config_flags(p_eval, ["seed", "checkpoint", "synthetic", "image_size",
                               "ir_dir", "vis_dir", "n_feedback", "out_dir"])

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--n-seeds", type=int, default=20)
    _add_config_flags(p_grad, ["seed"])

    p_demo = sub.add_parser("demo", help="end-to-end synthetic run")
    _add_config_flags(p_demo, _TRAIN_KEYS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        echo_config(cfg)
        if args.command == "fuse":
            code = cmd_fuse(cfg, args.infrared, args.visible, args.output)
        elif args.command == "gradcheck":
            code = cmd_gradcheck(cfg, args.n_seeds)
        else:
            verbs = {"train": cmd_train, "eval": cmd_eval, "demo": cmd_demo}
            code = verbs[args.command](cfg)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull at exit, and cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (CheckpointFormatError, CheckpointSchemaError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ShapeError as exc:
        print(f"size mismatch: {exc}", file=sys.stderr)
        return EXIT_SIZE_MISMATCH
    except MemoryError as exc:   # numpy's names the array's size and shape
        print(f"out of memory in {args.command}: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except OSError as exc:   # a path the OS refuses, such as an output's
        if exc.filename is None:   # not a path's fault
            raise
        print(f"config error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
