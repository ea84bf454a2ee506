"""Command line entry point.

Verbs: ``train``, ``fuse``, ``eval``, ``gradcheck``, ``demo``. Options
come from a flat ``key = value`` config file (``--config``) overridden by
command-line flags; unknown keys are hard errors, and every command echoes
its fully resolved configuration before doing any work. Environment
variables are never consulted.

Exit codes: 0 success; 1 gradient check failure; 2 configuration error;
3 ingestion error; 4 training divergence; 5 checkpoint format/schema
error; 6 image size mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import load_dataset, synth_corpus
from .errors import (CheckpointFormatError, CheckpointSchemaError,
                     ConfigError, DivergenceError, IngestionError,
                     ShapeError)
from .gradcheck import run_gradient_checks
from .images import read_image, write_pgm
from .losses import LossConfig
from .metrics import evaluate_corpus, measure_triple
from .network import FeedbackConfig, PreFusionConfig, fuse_images
from .training import TrainConfig, train

EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_INGESTION = 3
EXIT_DIVERGENCE = 4
EXIT_CHECKPOINT = 5
EXIT_SIZE_MISMATCH = 6

# Every accepted config key with its type and default. Flag names mirror
# the keys; a handful of short aliases (--lr, --size, --steps) match the
# documented usage.
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    "learning_rate": (float, 1e-4),
    "batch_size": (int, 32),
    "epochs": (int, 200),
    "max_steps": (int, None),
    "image_size": (int, 256),
    "a1": (float, 0.7),
    "ssim_weight": (float, 100.0),
    "ag_weight": (float, 0.1),
    "ssim_window": (int, 11),
    "ssim_sigma": (float, 1.5),
    "ag_mode": (str, "sharpness_match"),
    "pixel_mode": (str, "mse"),
    "n_feedback": (int, 4),
    "optimizer": (str, "adam"),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "adam_eps": (float, 1e-8),
    "stop_rmse": (float, None),
    "eval_interval": (int, 50),
    "synthetic": (int, None),
    "ir_dir": (str, None),
    "vis_dir": (str, None),
    "checkpoint": (str, None),
    "out_dir": (str, "."),
    "pre_fuse_at_test": (bool, False),
}

DEMO_PAIRS = 6
DEMO_SIZE = 32
DEMO_STEPS = 600
DEMO_LR = 1e-3
DEMO_BATCH = 4
DEMO_STOP_RMSE = 0.03


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
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _convert(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- command-line flags."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in CONFIG_SCHEMA:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def echo_config(cfg: dict) -> None:
    for key in sorted(cfg):
        print(f"config {key} = {cfg[key]}")


def _loss_config(cfg: dict) -> LossConfig:
    return LossConfig(ssim_weight=cfg["ssim_weight"], ag_weight=cfg["ag_weight"],
                      ssim_window=cfg["ssim_window"], ssim_sigma=cfg["ssim_sigma"],
                      ag_mode=cfg["ag_mode"], pixel_mode=cfg["pixel_mode"])


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg["learning_rate"], batch_size=cfg["batch_size"],
        epochs=cfg["epochs"], seed=cfg["seed"],
        pre_fusion=PreFusionConfig(cfg["a1"]), loss=_loss_config(cfg),
        feedback=FeedbackConfig(cfg["n_feedback"]), optimizer=cfg["optimizer"],
        beta1=cfg["beta1"], beta2=cfg["beta2"], adam_eps=cfg["adam_eps"],
        max_steps=cfg["max_steps"], stop_rmse=cfg["stop_rmse"],
        eval_interval=cfg["eval_interval"])


def _load_corpus(cfg: dict):
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


def cmd_train(cfg: dict) -> int:
    train_cfg = _train_config(cfg)
    params, log = train(_load_corpus(cfg), train_cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.hfn")
    save_checkpoint(params, ckpt_path)
    log_path = os.path.join(out_dir, "training_log.csv")
    log.save(log_path)
    last = log.rows[-1]
    print(f"trained {len(log.rows)} steps; final loss {last[2]:.6f}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {log_path}")
    return 0


def cmd_fuse(cfg: dict, ir_path: str, vis_path: str, out_path: str) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("fuse requires --checkpoint")
    params = load_checkpoint(cfg["checkpoint"])
    ir = read_image(ir_path)
    vis = read_image(vis_path)
    if ir.shape != vis.shape:
        raise ShapeError(
            f"image size mismatch: {ir_path} is {ir.shape}, "
            f"{vis_path} is {vis.shape}")
    pre = PreFusionConfig(cfg["a1"]) if cfg["pre_fuse_at_test"] else None
    fused = fuse_images(ir, vis, params, FeedbackConfig(cfg["n_feedback"]),
                        pre_fusion=pre)
    # the metrics reject pairs smaller than the ssim window; do that
    # before anything is written
    row = measure_triple(ir, vis, fused)
    out_dir = os.path.dirname(out_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    write_pgm(out_path, fused)
    print(f"wrote {out_path}")
    print(f"metrics en={row.en:.6f} qabf={row.qabf:.6f} "
          f"ssim={row.ssim:.6f} psnr={row.psnr:.6f}")
    return 0


def cmd_eval(cfg: dict) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("eval requires --checkpoint")
    params = load_checkpoint(cfg["checkpoint"])
    report = evaluate_corpus(_test_pairs(_load_corpus(cfg)), params,
                             FeedbackConfig(cfg["n_feedback"]),
                             corpus="synthetic" if cfg["synthetic"] else "files")
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    report.save(os.path.join(out_dir, "report.txt"),
                os.path.join(out_dir, "report.csv"))
    print(report.table_text(), end="")
    print(f"wrote {os.path.join(out_dir, 'report.txt')}")
    print(f"wrote {os.path.join(out_dir, 'report.csv')}")
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
    train_cfg = _train_config(cfg)
    corpus = synth_corpus(cfg["synthetic"], cfg["image_size"], cfg["seed"])
    test_pairs = _test_pairs(corpus)
    params, log = train(corpus, train_cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "checkpoint.hfn")
    save_checkpoint(params, ckpt_path)
    log.save(os.path.join(out_dir, "training_log.csv"))

    def sink(name, fused):
        write_pgm(os.path.join(out_dir, f"{name}_fused.pgm"), fused)

    report = evaluate_corpus(test_pairs, params, train_cfg.feedback,
                             corpus="synthetic-demo", fused_sink=sink)
    report.save(os.path.join(out_dir, "report.txt"),
                os.path.join(out_dir, "report.csv"))
    print(report.table_text(), end="")
    print(f"demo artifacts in {out_dir}: checkpoint.hfn, training_log.csv, "
          f"report.txt, report.csv, {len(report.rows)} fused image(s)")
    return 0


def _add_config_flags(p: argparse.ArgumentParser, keys: list[str]) -> None:
    aliases = {"learning_rate": ["--lr"], "image_size": ["--size"],
               "max_steps": ["--steps"]}
    for key in keys:
        typ, _ = CONFIG_SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        names = [flag] + aliases.get(key, [])
        if typ is bool:
            p.add_argument(*names, dest=key, action="store_const", const=True,
                           default=None)
        else:
            p.add_argument(*names, dest=key, type=typ, default=None)


_TRAIN_KEYS = ["seed", "learning_rate", "batch_size", "epochs", "max_steps",
               "image_size", "a1", "ssim_weight", "ag_weight", "ssim_window",
               "ssim_sigma", "ag_mode", "pixel_mode", "n_feedback",
               "optimizer", "beta1", "beta2", "adam_eps", "stop_rmse",
               "eval_interval", "synthetic", "ir_dir", "vis_dir", "out_dir"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivfuse",
        description="Infrared/visible image fusion: train, fuse, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a corpus or synthetic pairs")
    p_train.add_argument("--config")
    _add_config_flags(p_train, _TRAIN_KEYS)

    p_fuse = sub.add_parser("fuse", help="fuse one registered pair")
    p_fuse.add_argument("infrared")
    p_fuse.add_argument("visible")
    p_fuse.add_argument("output")
    p_fuse.add_argument("--config")
    _add_config_flags(p_fuse, ["checkpoint", "n_feedback", "a1",
                               "pre_fuse_at_test"])

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    p_eval.add_argument("--config")
    _add_config_flags(p_eval, ["seed", "checkpoint", "synthetic", "image_size",
                               "ir_dir", "vis_dir", "n_feedback", "out_dir"])

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--config")
    p_grad.add_argument("--n-seeds", type=int, default=20)
    _add_config_flags(p_grad, ["seed"])

    p_demo = sub.add_parser("demo", help="end-to-end synthetic run")
    p_demo.add_argument("--config")
    _add_config_flags(p_demo, _TRAIN_KEYS)
    return parser


def _demo_defaults(cfg: dict, args: argparse.Namespace) -> dict:
    """Desk-scale defaults for demo, unless the user pinned a value."""
    pinned = {k for k in CONFIG_SCHEMA if getattr(args, k, None) is not None}
    if getattr(args, "config", None):
        pinned.update(parse_config_file(args.config))
    overrides = {"image_size": DEMO_SIZE, "synthetic": DEMO_PAIRS,
                 "learning_rate": DEMO_LR, "batch_size": DEMO_BATCH,
                 "max_steps": DEMO_STEPS, "stop_rmse": DEMO_STOP_RMSE,
                 "eval_interval": 25, "epochs": 10 ** 6}
    for key, value in overrides.items():
        if key not in pinned:
            cfg[key] = value
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "demo":
            cfg = _demo_defaults(cfg, args)
        echo_config(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "fuse":
            return cmd_fuse(cfg, args.infrared, args.visible, args.output)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.n_seeds)
        if args.command == "demo":
            return cmd_demo(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
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


if __name__ == "__main__":
    sys.exit(main())
